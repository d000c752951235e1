"""CPU speed probe: how fast the machine ran while a phase was measured.

On a shared VM the speed of a core drifts by tens of percent over tens
of seconds as other tenants load the same hardware; the drift shows in
CPU time as much as in wall time.  The probe is a separate process that
runs a fixed unit of Python work every ``PERIOD_S`` seconds and records
the unit's thread CPU time.  The mean over a phase, divided by
``REFERENCE_UNIT_S``, is the phase's slowdown factor; the benchmark
reports its time metrics scaled to the reference speed (and the raw
values beside them in its diagnostics line).

Run as a script it is the probe itself: it samples until its stdin
closes, then prints ``{"mean_unit_s": ..., "units": ...}``.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time

PERIOD_S = 0.05
UNIT_ITERATIONS = 20_000
#: The unit's CPU time at the reference speed (an unloaded core of the
#: 2-vCPU VM the bounds in BENCHMARK.json were measured on).
REFERENCE_UNIT_S = 0.0015


def _unit() -> int:
    total = 0
    for i in range(UNIT_ITERATIONS):
        total += i * i % 7
    return total


def _sample_until_stdin_closes() -> None:
    units = []
    while True:
        started = time.thread_time()
        _unit()
        units.append(time.thread_time() - started)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps({"mean_unit_s": sum(units) / len(units), "units": len(units)}))


class SpeedProbe:
    """``with SpeedProbe() as probe: ...`` then ``probe.factor``: the
    slowdown of the machine during the block relative to the reference
    (1.2 = everything took 20% longer than at reference speed)."""

    def __init__(self) -> None:
        self.factor = 1.0
        self.units = 0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        assert self._proc is not None
        out, _ = self._proc.communicate("stop\n", timeout=30)
        if exc_type is None:
            result = json.loads(out)
            self.factor = result["mean_unit_s"] / REFERENCE_UNIT_S
            self.units = result["units"]


if __name__ == "__main__":
    _sample_until_stdin_closes()
