#!/bin/sh
# Run every example script against the in-tree package and stop at the
# first one that exits non-zero (its exit status becomes this script's).
#
#     sh examples/run_all.sh
set -e
cd "$(dirname "$0")/.."
for script in examples/*.py; do
    echo "== $script"
    PYTHONPATH=src python "$script"
done
