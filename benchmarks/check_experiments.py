#!/usr/bin/env python3
"""Check the committed EXPERIMENTS.md against a fresh run of the paper tables.

Usage:  python benchmarks/check_experiments.py

Re-runs every paper experiment (``run_experiments.PAPER_MODULES``) in
memory and renders the document ``run_experiments.py`` would write: the
header, each summary row and each experiment's section must match the
committed EXPERIMENTS.md byte for byte.  The timed experiments
(``run_experiments.TIMED_MODULES``) record wall-clock times, so their
sections and summary rows are taken from the committed file as they
stand.  Writes no file.  Exits 1, printing the differing experiments and
a diff, when anything differs or an experiment raises.
"""

from __future__ import annotations

import difflib
import os
import re
import sys

import run_experiments

COMMITTED = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "EXPERIMENTS.md"
)


def _exp_id(row: str) -> str:
    """The experiment id of a summary row ``| id | claim | verdict |``."""
    return row[2:].split(" | ", 1)[0]


def parts(text: str):
    """A document's summary rows and sections, each keyed by experiment id."""
    head, _, body = text.partition("\n\n---\n\n")
    rows = {
        _exp_id(line): line
        for line in head.split("\n")
        if line.startswith("| ") and _exp_id(line) != "experiment"
    }
    # Sections are joined by one newline, and each starts with "### ".
    sections = {
        section[4:].split(" — ", 1)[0]: section
        for section in re.split(r"\n(?=### )", body)
    }
    return rows, sections


def main() -> int:
    with open(COMMITTED, encoding="utf-8") as handle:
        committed = handle.read()
    rows, sections, failures, errors = run_experiments.run_modules(
        run_experiments.PAPER_MODULES
    )
    old_rows, old_sections = parts(committed)
    new_rows, new_sections = parts(run_experiments.render(rows, sections))
    timed = [exp_id for exp_id in old_sections if exp_id not in new_sections]
    expected = run_experiments.render(
        rows + [old_rows.get(exp_id, "") for exp_id in timed],
        sections + [old_sections[exp_id] for exp_id in timed],
    )
    if expected == committed and len(timed) == len(run_experiments.TIMED_MODULES):
        print(
            f"\nEXPERIMENTS.md matches a fresh run: {len(rows)} paper "
            f"experiments; timed sections {', '.join(timed)} taken as committed"
        )
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            committed.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            "EXPERIMENTS.md (committed)",
            "EXPERIMENTS.md (fresh run)",
        )
    )
    differ = [
        exp_id
        for exp_id, row in new_rows.items()
        if (row, new_sections.get(exp_id))
        != (old_rows.get(exp_id), old_sections.get(exp_id))
    ]
    print(
        f"\nEXPERIMENTS.md differs from a fresh run ({failures} shape "
        f"mismatches, {errors} errors).  Differing experiments: "
        f"{', '.join(differ) or 'none'}; timed sections taken as committed: "
        f"{', '.join(timed) or 'none'} (expected "
        f"{len(run_experiments.TIMED_MODULES)})"
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
