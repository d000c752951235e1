"""Run one benchmark measurement from the repository root.

    python3 perfbench/run.py --workload realize_mix --seed 1 --seconds 10 --trace 0

Prints a diagnostics line, then the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits non-zero without a result when the run cannot be measured, for
example outside a full checkout (no ``src/repro`` next to this
directory).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The repository's packages, never this directory's modules by their
    # bare names.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    import compileall

    # Byte-compile up front so no server start pays for it.
    for tree in ("src", "perfbench"):
        compileall.compile_dir(str(ROOT / tree), quiet=1)
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
