"""Benchmark harness plumbing.

Each ``bench_*.py`` module exposes ``experiment()`` returning an
:class:`common.Experiment` (headers + rows + a verdict);
``run_experiments.py`` executes every module's full sweep and renders
EXPERIMENTS.md.  The timed benchmarks also hold a pytest-benchmark
wrapper that times one representative configuration.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
sys.setrecursionlimit(200_000)
