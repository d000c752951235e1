"""The traced run's server: ``python -m repro`` with layer attribution.

Usage: ``python perfbench/traced_serve.py OUT_DIR serve --port 0 ...``.
Installs :mod:`perfbench.layers` (writing snapshots into ``OUT_DIR``),
then runs the unmodified CLI with the remaining arguments.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Import the repository's packages, never this directory's modules by
# their bare names.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402


def main() -> int:
    layers.install(sys.argv[1])
    from repro.__main__ import main as repro_main

    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    raise SystemExit(main())
