"""End-to-end serve benchmark for the realization service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` starts a fresh ``python -m repro serve --port 0`` per
measured phase, drives it over loopback, checks every response against
the sequential ground truth in :mod:`repro.sequential`, and prints one
JSON result line.  See ``BENCHMARK.json`` at the repository root for the
workloads and metrics.
"""
