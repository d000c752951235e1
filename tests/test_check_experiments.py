"""``benchmarks/check_experiments.py``, the paper-table check, on canned runs.

The check re-runs every paper experiment, which takes about half a
minute; these tests hand it a canned fresh run instead (the committed
paper tables, optionally edited) through ``run_experiments.run_modules``,
so they exercise only how it splits the committed EXPERIMENTS.md, splices
the timed sections back in and compares.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))

import check_experiments  # noqa: E402
import run_experiments  # noqa: E402

COMMITTED = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
TIMED = ["X-ENG", "X-PROTO", "X-MP", "X-SERVE"]


def test_parts_and_render_round_trip_the_committed_document():
    rows, sections = check_experiments.parts(COMMITTED)
    assert list(rows) == list(sections)
    assert len(sections) == len(run_experiments.MODULES)
    assert list(sections)[-len(TIMED):] == TIMED
    assert run_experiments.render(list(rows.values()), list(sections.values())) == COMMITTED


def _check(monkeypatch, drop=(), edit=()):
    """Run the check on the committed paper tables less ``drop``, with the
    sections of ``edit`` read as shape mismatches; returns its exit code."""
    rows, sections = check_experiments.parts(COMMITTED)
    fresh = [exp_id for exp_id in sections if exp_id not in TIMED + list(drop)]

    def run_modules(modules):
        assert modules == run_experiments.PAPER_MODULES
        return (
            [rows[exp_id] for exp_id in fresh],
            [
                sections[exp_id].replace("REPRODUCED", "SHAPE MISMATCH")
                if exp_id in edit
                else sections[exp_id]
                for exp_id in fresh
            ],
            len(edit),
            0,
        )

    monkeypatch.setattr(run_experiments, "run_modules", run_modules)
    return check_experiments.main()


def test_a_matching_run_passes(monkeypatch, capsys):
    assert _check(monkeypatch) == 0
    assert "timed sections X-ENG, X-PROTO, X-MP, X-SERVE taken as committed" in (
        capsys.readouterr().out
    )


def test_a_changed_paper_table_fails_and_is_named(monkeypatch, capsys):
    assert _check(monkeypatch, edit=("T-11",)) == 1
    out = capsys.readouterr().out
    assert "+**Verdict: SHAPE MISMATCH.**" in out
    assert "Differing experiments: T-11;" in out


def test_a_paper_experiment_missing_from_the_run_fails(monkeypatch, capsys):
    assert _check(monkeypatch, drop=("T-18",)) == 1
    assert "T-18, X-ENG, X-PROTO, X-MP, X-SERVE (expected 4)" in capsys.readouterr().out


def test_smoke_runs_leave_no_temporary_directory(monkeypatch, tmp_path):
    """``--smoke`` without an output path writes into a temporary
    directory, with or without ``--check``, and removes it."""
    written = []

    def main(out_path, smoke=False):
        Path(out_path).write_text("smoke\n")
        written.append((Path(out_path).parent.parent, smoke))
        return 0

    monkeypatch.setattr(run_experiments, "main", main)
    monkeypatch.setattr(run_experiments, "check_against_committed", lambda tol: 0)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_experiments.cli(["--smoke"]) == 0
    assert run_experiments.cli(["--smoke", "--check", "--tolerance", "0.6"]) == 0
    assert written == [(tmp_path, True), (tmp_path, True)]
    assert not list(tmp_path.glob("repro-smoke-*"))
