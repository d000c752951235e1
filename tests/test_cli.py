"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main

CHARGED = ["--sort-fidelity", "charged"]


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
        assert main(["connectivity", "--rho", "2,2,1,1,1,1", *CHARGED]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "explicit" in out

    def test_connectivity_ncc1(self, capsys):
        assert main(["connectivity", "--rho", "2,2,1,1,1,1", "--model", "ncc1"]) == 0
        out = capsys.readouterr().out
        assert "implicit" in out

    def test_approx(self, capsys):
        assert main(["approx", "--degrees", "4,4,4,4,4,4,4,4", *CHARGED]) == 0
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
        assert main(["--seed", "7", "realize", "--degrees", "2,2,2,2", *CHARGED]) == 0

    def test_engine_flag_selects_engine(self, capsys):
        assert main(["realize", "--degrees", "2,2,2,2", *CHARGED,
                     "--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(["realize", "--degrees", "2,2,2,2", *CHARGED,
                     "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        # Bit-identical engines: the printed costs must agree.
        assert reference_out == fast_out

    def test_engine_flag_on_tree_and_connectivity(self, capsys):
        assert main(["tree", "--degrees", "3,2,2,1,1,1,2", *CHARGED,
                     "--engine", "reference"]) == 0
        assert main(["connectivity", "--rho", "2,2,1,1,1,1", *CHARGED,
                     "--engine", "reference"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--degrees", "3,2,2,1,1,1,2"],
            ["connectivity", "--rho", "2,2,1,1,1,1", *CHARGED],
            ["approx", "--degrees", "3,3,2,2,2,2", *CHARGED],
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


class TestRealizerRequests:
    """The realizer subcommands build a service request and print its
    response: the flags map onto request fields, and the exit code is 0
    exactly when the response is ok."""

    def test_envelope_explicit_prints_the_explicit_envelope(self, capsys):
        argv = ["realize", "--degrees", "4,4,4,4,0", "--envelope", "--explicit"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "REALIZED: 10 edges in 5 phases (explicit)\n"
            "cost: 436 rounds (436 simulated + 0 charged), 747 messages\n"
            "  phase breakdown: index=75, sort=291, stars=9\n"
        )

    def test_envelope_without_explicit_runs_the_implicit_envelope(self, capsys):
        assert main(["realize", "--degrees", "4,4,4,4,0", "--envelope"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "REALIZED: 10 edges in 5 phases (implicit)"
        assert lines[1] == (
            "cost: 414 rounds (414 simulated + 0 charged), 687 messages"
        )

    def test_sort_fidelity_defaults_to_full(self, capsys):
        argv = ["tree", "--degrees", "3,2,2,1,1,1,2"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--sort-fidelity", "full"]) == 0
        assert capsys.readouterr().out == default
        assert main([*argv, *CHARGED]) == 0
        charged = capsys.readouterr().out
        assert "+ 0 charged" in default and "+ 0 charged" not in charged

    def test_infeasible_input_prints_one_error_line(self, capsys):
        assert main(["connectivity", "--rho", "5,5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "ERROR: threshold rho=5 at node 7 is infeasible\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["realize", "--degrees=-1,1"],
        ["realize", "--degrees=-1,1", "--explicit"],
        ["realize", "--degrees=-1,1", "--envelope"],
        ["tree", "--degrees=-1,3,1,1"],
        ["connectivity", "--rho=1,-1"],
        ["connectivity", "--rho=1,-1", "--model", "ncc1"],
        ["approx", "--degrees=2,-2"],
    ], ids=" ".join)
    def test_negative_entries_are_rejected_before_any_run(self, argv, capsys):
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith("ERROR: 'degrees' must contain non-negative")
        assert out.count("\n") == 1


#: Flags the CLI does not take: the service subcommands' executor always
#: pools networks and caches responses, the socket server's shutdown
#: bounds are module constants, and ``--sort-fidelity charged`` replaced
#: the realizer subcommands' ``--fast``.
REMOVED_FLAGS = [
    ["serve", "--no-pool"],
    ["serve", "--no-cache"],
    ["serve", "--emit-timeout", "5"],
    ["serve", "--close-timeout", "5"],
    ["realize", "--degrees", "2,2", "--fast"],
    ["tree", "--degrees", "1,1", "--fast"],
    ["connectivity", "--rho", "1,1", "--fast"],
    ["approx", "--degrees", "1,1", "--fast"],
]


class TestServiceCLI:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("power_law", "tree_random", "rho_uniform", "sorting"):
            assert name in out

    def test_serve_file_on_stdin(self, tmp_path, capsys, monkeypatch):
        """``serve < FILE``: a regular file is read through its descriptor."""
        import json
        import sys as _sys

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
        with path.open() as stdin:
            monkeypatch.setattr(_sys, "stdin", stdin)
            assert main(["serve"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["request_id"] for r in rows] == ["a", "b"]
        assert all(r["verdict"] == "REALIZED" for r in rows)

    def test_serve_stdin_with_error_exits_nonzero(self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO('{"kind": "wat", "degrees": [1, 1]}\n'),
        )
        assert main(["serve"]) == 1
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["verdict"] == "ERROR"

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
        """serve propagates errors in its exit code."""
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

    @pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
    def test_removed_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["supervise", "--port", "0"],
        ["trace", "-", "--out", "t.json"],
        ["batch", "-"],
    ], ids=lambda argv: argv[0])
    def test_removed_commands_are_unknown(self, argv, capsys):
        """``serve --supervise``, ``serve --trace-out`` and ``serve <
        FILE`` replace them."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["sequential", "processes"])
    def test_serve_trace_out_writes_one_tree_per_request(
        self, mode, tmp_path, capsys, monkeypatch
    ):
        """Two distinct misses and a repeat: each miss's tree holds its
        lease and its run's rounds, and the repeat, answered from the
        first, is a bare root."""
        import io
        import json
        import sys as _sys

        lines = [
            '{"request_id": "m1", "kind": "tree", "degrees": [3, 2, 2, 1, 1, 1]}',
            '{"request_id": "m2", "kind": "degree_implicit",'
            ' "degrees": [3, 3, 2, 2, 2]}',
            '{"request_id": "r1", "kind": "tree", "degrees": [3, 2, 2, 1, 1, 1]}',
        ]
        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        path = tmp_path / "trace.jsonl"
        argv = ["serve", "--mode", mode, "--workers", "2",
                "--trace-out", str(path), "--trace-format", "jsonl"]
        assert main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["request_id"] for row in rows] == ["m1", "m2", "r1"]
        trees = {}
        for line in path.read_text().splitlines():
            root = json.loads(line)
            assert root["name"] == "request"
            trees[root["tags"]["request_id"]] = root
        assert sorted(trees) == ["m1", "m2", "r1"]

        def walk(span):
            yield span
            for child in span.get("children", ()):
                yield from walk(child)

        for rid in ("m1", "m2"):
            spans = {span["name"]: span for span in walk(trees[rid])}
            assert "pool.lease" in spans
            assert [c["name"] for c in spans["run"]["children"]] == ["rounds"]
            assert ("worker" in spans) == (mode == "processes")
        assert [span["name"] for span in walk(trees["r1"])] == ["request"]

    def test_profile_legacy_aliases(self, capsys):
        assert main(["profile", "realize", "--n", "12", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profile: realize" in out

    def test_profile_scenario_by_name(self, capsys):
        assert main(["profile", "tree_random", "--n", "12", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profile: tree_random" in out
