"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "n=32" in out
        assert "per-round caps" in out

    def test_realize_graphic(self, capsys):
        assert main(["realize", "--degrees", "3,3,3,3"]) == 0
        out = capsys.readouterr().out
        assert "REALIZED: 6 edges" in out
        assert "phase breakdown" in out

    def test_realize_unrealizable_exit_code(self, capsys):
        assert main(["realize", "--degrees", "1,1,1"]) == 1
        out = capsys.readouterr().out
        assert "UNREALIZABLE" in out

    def test_realize_explicit(self, capsys):
        assert main(["realize", "--degrees", "2,2,2,1,1", "--explicit"]) == 0
        out = capsys.readouterr().out
        assert "explicit" in out

    def test_realize_envelope(self, capsys):
        assert main(["realize", "--degrees", "4,4,4,4,0", "--envelope"]) == 0
        out = capsys.readouterr().out
        assert "REALIZED" in out

    def test_tree_min_and_max(self, capsys):
        assert main(["tree", "--degrees", "3,2,2,1,1,1", "--variant", "min"]) == 0
        min_out = capsys.readouterr().out
        assert "diameter" in min_out
        assert main(["tree", "--degrees", "3,2,2,1,1,1", "--variant", "max"]) == 0

    def test_tree_unrealizable(self, capsys):
        assert main(["tree", "--degrees", "2,2,2"]) == 1

    def test_connectivity_ncc0(self, capsys):
        assert main(["connectivity", "--rho", "2,2,1,1,1,1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "explicit" in out

    def test_connectivity_ncc1(self, capsys):
        assert main(["connectivity", "--rho", "2,2,1,1,1,1", "--model", "ncc1"]) == 0
        out = capsys.readouterr().out
        assert "implicit" in out

    def test_approx(self, capsys):
        assert main(["approx", "--degrees", "4,4,4,4,4,4,4,4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "APPROXIMATED" in out

    def test_bad_degree_list(self):
        with pytest.raises(SystemExit):
            main(["realize", "--degrees", "a,b"])

    def test_empty_degree_list_rejected(self):
        with pytest.raises(SystemExit, match="empty integer list"):
            main(["realize", "--degrees", ""])

    def test_garbage_adjacent_degree_list_rejected(self):
        with pytest.raises(SystemExit, match="empty integer list"):
            main(["tree", "--degrees", ",, ,"])

    def test_seed_flag(self, capsys):
        assert main(["--seed", "7", "realize", "--degrees", "2,2,2,2", "--fast"]) == 0

    def test_engine_flag_selects_engine(self, capsys):
        assert main(["realize", "--degrees", "2,2,2,2", "--fast",
                     "--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(["realize", "--degrees", "2,2,2,2", "--fast",
                     "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        # Bit-identical engines: the printed costs must agree.
        assert reference_out == fast_out

    def test_engine_flag_on_tree_and_connectivity(self, capsys):
        assert main(["tree", "--degrees", "3,2,2,1,1,1,2", "--fast",
                     "--engine", "reference"]) == 0
        assert main(["connectivity", "--rho", "2,2,1,1,1,1", "--fast",
                     "--engine", "reference"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--degrees", "3,2,2,1,1,1,2"],
            ["connectivity", "--rho", "2,2,1,1,1,1", "--fast"],
            ["approx", "--degrees", "3,3,2,2,2,2", "--fast"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_engine_choice_does_not_change_output(self, argv, capsys):
        outputs = {}
        for engine in ("reference", "fast"):
            assert main([*argv, "--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["fast"] == outputs["reference"]
        assert "rounds" in outputs["fast"]


#: Flags the service subcommands do not take: the CLI's executor always
#: pools networks and caches responses, and the socket server's
#: shutdown bounds are module constants.
REMOVED_FLAGS = [
    ["batch", "-", "--no-pool"],
    ["batch", "-", "--no-cache"],
    ["trace", "-", "--out", "t.json", "--no-pool"],
    ["trace", "-", "--out", "t.json", "--no-cache"],
    ["serve", "--no-pool"],
    ["serve", "--no-cache"],
    ["serve", "--emit-timeout", "5"],
    ["serve", "--close-timeout", "5"],
    ["supervise", "--port", "0", "--no-pool"],
    ["supervise", "--port", "0", "--no-cache"],
    ["supervise", "--port", "0", "--emit-timeout", "5"],
    ["supervise", "--port", "0", "--close-timeout", "5"],
]


class TestServiceCLI:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("power_law", "tree_random", "rho_uniform", "sorting"):
            assert name in out

    def test_batch_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(
                [
                    '{"request_id": "a", "kind": "degree_implicit",'
                    ' "scenario": "regular", "n": 12, "seed": 1}',
                    '{"request_id": "b", "kind": "tree",'
                    ' "degrees": [3, 2, 2, 1, 1, 1, 2]}',
                ]
            )
        )
        assert main(["batch", str(path)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["request_id"] for r in rows] == ["a", "b"]
        assert all(r["verdict"] == "REALIZED" for r in rows)

    def test_batch_stdin_with_error_exits_nonzero(self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO('{"kind": "wat", "degrees": [1, 1]}\n'),
        )
        assert main(["batch", "-"]) == 1
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["verdict"] == "ERROR"

    def test_batch_missing_file(self):
        with pytest.raises(SystemExit, match="cannot read batch file"):
            main(["batch", "/nonexistent/requests.jsonl"])

    def test_serve_stdin_stdout(self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO(
                '{"request_id": "s1", "kind": "connectivity",'
                ' "scenario": "rho_uniform", "n": 10}\n'
            ),
        )
        assert main(["serve"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["request_id"] == "s1"
        assert rows[0]["verdict"] == "REALIZED"

    def test_serve_error_responses_exit_nonzero(self, capsys, monkeypatch):
        """serve must propagate errors in its exit code like batch does."""
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO("not json at all\n"))
        assert main(["serve"]) == 1
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert rows[0]["verdict"] == "ERROR"
        assert "1 error(s)" in captured.err

    def test_serve_window_validated_at_the_cli(self):
        with pytest.raises(SystemExit, match="window"):
            main(["serve", "--window", "0"])
        with pytest.raises(SystemExit, match="window"):
            main(["serve", "--window", "-4"])

    def test_serve_port_validated_at_the_cli(self):
        with pytest.raises(SystemExit, match="--port"):
            main(["serve", "--port", "70000"])
        with pytest.raises(SystemExit, match="--port"):
            main(["serve", "--port", "-1"])

    def test_serve_stdio_honours_window_flag(self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO(
                '{"request_id": "w1", "kind": "tree", "scenario": "tree_star",'
                ' "n": 8}\n'
            ),
        )
        assert main(["serve", "--window", "1"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["verdict"] == "REALIZED"

    def test_batch_summary_reflects_live_stats(self, tmp_path, capsys):
        """Regression: the summary counters were read after close()."""
        path = tmp_path / "requests.jsonl"
        request = (
            '{{"request_id": "{rid}", "kind": "degree_implicit",'
            ' "scenario": "regular", "n": 12, "seed": 3}}'
        )
        path.write_text(
            request.format(rid="c1") + "\n" + request.format(rid="c2")
        )
        assert main(["batch", str(path)]) == 0
        err = capsys.readouterr().err
        # Identical computations: one execution (one pool lease), one
        # cache hit — visible only if stats were captured pre-close.
        assert "cache hits 1" in err
        assert "pool hits 0/1" in err
        assert main(["profile", "tree_random", "--n", "12", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profile: tree_random" in out

    @pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
    def test_removed_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_profile_legacy_aliases(self, capsys):
        assert main(["profile", "realize", "--n", "12", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profile: realize" in out
