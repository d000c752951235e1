"""Crash-restart supervisor for the socket serve front end.

``python -m repro serve --supervise`` runs the actual server as a
*child process* and respawns it when it dies abnormally — SIGKILL, SIGSEGV, an uncaught crash — with bounded,
seeded backoff (:class:`repro.service.robustness.RetryPolicy`, the same
deterministic jitter the in-process retry machinery uses).  Composed
with the write-ahead journal (``--journal``) this closes the
exactly-once loop: the respawned child recovers the journal at startup,
re-executes ``admitted``-but-not-``completed`` requests, and resuming
clients replay their unacked responses from the session buffers the
journal rebuilt.

Division of labor: the *child* owns every piece of serving state
(journal recovery included — it owns the executor); the supervisor only
watches exit codes, forwards shutdown signals, paces respawns, and
stops at the restart bound.  Exit-code policy:

* ``0`` and ``1`` are **clean drains** (1 = drained with errorful
  responses, the established serve contract) — the supervisor exits
  with the same code.
* A negative code (killed by signal) or ``>= 2`` is a **crash** —
  respawn, unless the supervisor itself was asked to shut down
  (SIGTERM/SIGINT are forwarded to the child, whose graceful drain then
  finishes the story).
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from typing import List, Optional, TextIO

from .robustness import RetryPolicy

#: Child exit codes that end supervision (clean drain contract).
CLEAN_EXIT_CODES = (0, 1)

DEFAULT_MAX_RESTARTS = 5


def supervisor_policy(seed: int = 0) -> RetryPolicy:
    """The default respawn backoff: 100ms doubling to 5s, seeded."""
    return RetryPolicy(
        max_attempts=DEFAULT_MAX_RESTARTS + 1,
        base_delay_ms=100.0,
        multiplier=2.0,
        max_delay_ms=5000.0,
        jitter=0.5,
        seed=seed,
    )


def supervise_loop(
    child_argv: List[str],
    policy: Optional[RetryPolicy] = None,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    stream: Optional[TextIO] = None,
    sleep=time.sleep,
    popen=subprocess.Popen,
) -> int:
    """Run ``child_argv`` under supervision; returns the exit code.

    The child inherits stderr, so its ``listening on host:port`` line
    reaches the same stream as the supervisor's own progress lines —
    clients watching the combined stream learn each respawn's (possibly
    new, under ``--port 0``) address the same way they learned the
    first.  ``sleep``/``popen`` are injection points for tests.
    """
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    if policy is None:
        policy = supervisor_policy()
    out = stream if stream is not None else sys.stderr
    print(
        "supervise: restart backoff schedule (s): "
        + ", ".join(f"{d:.3f}" for d in policy.schedule(max_restarts + 1)),
        file=out,
        flush=True,
    )
    restarts = 0
    shutting_down = False
    child: Optional[subprocess.Popen] = None

    def _forward(signum, _frame):
        nonlocal shutting_down
        shutting_down = True
        if child is not None and child.poll() is None:
            try:
                child.send_signal(signum)
            except (ProcessLookupError, OSError):  # pragma: no cover - race
                pass

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _forward)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        while True:
            child = popen(child_argv)
            print(f"supervise: child pid {child.pid}", file=out, flush=True)
            code = child.wait()
            if shutting_down or code in CLEAN_EXIT_CODES:
                print(
                    f"supervise: child exited {code}; done", file=out, flush=True
                )
                return code if code is not None else 1
            restarts += 1
            if restarts > max_restarts:
                print(
                    f"supervise: child died (exit {code}) and the restart "
                    f"bound ({max_restarts}) is spent; giving up",
                    file=out,
                    flush=True,
                )
                return 2
            # attempt 1 is the original spawn: restart N waits the
            # policy's delay for attempt N+1.
            delay = policy.delay_sec(restarts + 1)
            print(
                f"supervise: child died (exit {code}); "
                f"respawn {restarts}/{max_restarts} in {delay:.3f}s",
                file=out,
                flush=True,
            )
            if delay > 0:
                sleep(delay)
            if shutting_down:  # signal landed during the backoff sleep
                return code if code is not None else 1
    finally:
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass
