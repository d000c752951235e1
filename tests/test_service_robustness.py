"""Robustness layer: deadlines, watchdog, retries, breaker, fault plans.

The PR-7 acceptance properties:

* ``deadline_ms`` travels end to end — validated in the API, stamped at
  admission, enforced cooperatively at engine round boundaries (via the
  network's injectable clock) and at every dispatch point, answered with
  typed ``DEADLINE_EXCEEDED`` envelopes.  Runs that finish in time are
  bit-identical to undeadlined runs.
* A hung process-pool worker is noticed by the watchdog, killed, and
  answered with a typed ``WORKER_TIMEOUT`` — while innocent co-victims
  of the pool break recover through the ordinary crash-retry path.  In
  a two-client socket serve, the *other* client's responses stay
  field-identical to a sequential drain.
* Repeated pool breaks open a :class:`CircuitBreaker`; while open the
  executor degrades to deterministic in-parent execution, then probes
  and closes after the cooldown (open → half-open → closed).
* :class:`RetryPolicy` backoff and :class:`FaultPlan` coin flips are
  pure functions of their seeds — chaos runs are reproducible bit for
  bit.
"""

from __future__ import annotations

import json
import asyncio
import time
from concurrent.futures import Future

import pytest

from repro.ncc.config import NCCConfig
from repro.ncc.errors import DeadlineExceeded
from repro.ncc.network import Network
from repro.service import (
    BatchExecutor,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    NetworkPool,
    RealizationRequest,
    RetryPolicy,
    ServiceError,
    SocketServer,
    default_registry,
)
import repro.service.executor as executor_module
from repro.service import faults
from repro.service.executor import lease_and_run, run_request
from repro.service.server import EMIT_TIMEOUT_SEC


def req(kind="degree_implicit", scenario="regular", n=16, seed=1, **kw):
    return RealizationRequest(kind=kind, scenario=scenario, n=n, seed=seed, **kw)


class SteppingClock:
    """A fake monotonic clock advancing ``step`` per call."""

    def __init__(self, start=0.0, step=0.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def install_plan(monkeypatch, *rules, seed=0):
    plan = FaultPlan(list(rules), seed=seed)
    monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
    faults.clear()
    return plan


# ---------------------------------------------------------------------- #
# RetryPolicy                                                            #
# ---------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_first_attempt_has_no_delay(self):
        policy = RetryPolicy()
        assert policy.delay_sec(1) == 0.0
        assert policy.delay_sec(0) == 0.0

    def test_backoff_is_deterministic_per_seed(self):
        a = RetryPolicy(max_attempts=6, seed=42)
        b = RetryPolicy(max_attempts=6, seed=42)
        c = RetryPolicy(max_attempts=6, seed=43)
        delays_a = [a.delay_sec(k) for k in range(2, 7)]
        delays_b = [b.delay_sec(k) for k in range(2, 7)]
        delays_c = [c.delay_sec(k) for k in range(2, 7)]
        assert delays_a == delays_b  # same seed => identical schedule
        assert delays_a != delays_c  # different seed decorrelates

    def test_backoff_grows_and_respects_bounds(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay_ms=10, multiplier=2.0,
            max_delay_ms=50, jitter=0.5, seed=0,
        )
        for k in range(2, 11):
            delay = policy.delay_sec(k)
            base = min(10 * 2 ** (k - 2), 50)
            assert 0.5 * base / 1000 <= delay <= 50 / 1000
        # With jitter off the schedule is the exact exponential ramp.
        plain = RetryPolicy(max_attempts=5, base_delay_ms=10, jitter=0.0)
        assert [plain.delay_sec(k) for k in (2, 3, 4)] == [0.01, 0.02, 0.04]

    def test_validation(self):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ValueError):
                RetryPolicy(max_attempts=bad)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-1)


# ---------------------------------------------------------------------- #
# CircuitBreaker                                                         #
# ---------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_full_cycle_open_half_open_closed(self):
        clock = SteppingClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_sec=10.0,
                                 clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # below threshold
        assert breaker.allow()
        breaker.record_failure()  # third consecutive: opens
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.snapshot()["opens"] == 1
        assert not breaker.allow()  # cooldown not elapsed
        clock.now = 20.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # second caller is still rejected
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = SteppingClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_sec=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 6.0
        assert breaker.allow()  # probe
        breaker.record_failure()  # probe failed: reopen, new cooldown
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.snapshot()["opens"] == 2
        assert not breaker.allow()  # clock has not advanced past 6+5

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        snap = breaker.snapshot()
        assert snap["consecutive_failures"] == 1
        assert snap["failures_total"] == 2

    def test_validation(self):
        for bad in (0, True, 1.5):
            with pytest.raises(ValueError):
                CircuitBreaker(failure_threshold=bad)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_sec=-1)


# ---------------------------------------------------------------------- #
# FaultPlan                                                              #
# ---------------------------------------------------------------------- #


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            [FaultRule(action="crash", request_ids=("a", "b")),
             FaultRule(action="slow", delay_ms=50, probability=0.5,
                       max_fires=2)],
            seed=7,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()

    def test_match_respects_request_id_filter(self):
        plan = FaultPlan([FaultRule(action="crash", request_ids=("boom",))])
        assert plan.match("crash", "boom") is not None
        assert plan.match("crash", "fine") is None
        assert plan.match("hang", "boom") is None

    def test_probability_coin_is_deterministic(self):
        rule = FaultRule(action="crash", probability=0.5)
        verdicts_a = [FaultPlan([rule], seed=3).match("crash", f"r{i}") is not None
                      for i in range(64)]
        verdicts_b = [FaultPlan([rule], seed=3).match("crash", f"r{i}") is not None
                      for i in range(64)]
        verdicts_c = [FaultPlan([rule], seed=4).match("crash", f"r{i}") is not None
                      for i in range(64)]
        assert verdicts_a == verdicts_b  # same seed, fresh counters
        assert verdicts_a != verdicts_c
        assert 0 < sum(verdicts_a) < 64  # the coin actually splits

    def test_max_fires_caps_per_plan_instance(self):
        plan = FaultPlan([FaultRule(action="hang", max_fires=2)])
        assert plan.match("hang", "a") and plan.match("hang", "b")
        assert plan.match("hang", "c") is None

    def test_unknown_action_and_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(action="explode")
        with pytest.raises(ValueError, match="unknown fault rule fields"):
            FaultRule.from_dict({"action": "crash", "oops": 1})
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_dict({"rules": [], "extra": 1})

    def test_sleep_sec(self):
        assert FaultRule(action="hang").sleep_sec() == faults.HANG_SLEEP_SEC
        assert FaultRule(action="hang", delay_ms=250).sleep_sec() == 0.25
        assert FaultRule(action="slow", delay_ms=30).sleep_sec() == 0.03
        assert FaultRule(action="slow").sleep_sec() == 0.0

    def test_env_install_and_clear(self, monkeypatch):
        install_plan(monkeypatch, FaultRule(action="crash"))
        active = faults.active()
        assert active is not None and active.rules[0].action == "crash"
        monkeypatch.delenv(faults.ENV_VAR)
        faults.clear()
        assert faults.active() is None


# ---------------------------------------------------------------------- #
# Network wall deadline                                                  #
# ---------------------------------------------------------------------- #


class TestNetworkDeadline:
    def test_deliver_raises_past_deadline(self):
        net = Network(8, NCCConfig(seed=0))
        net.clock = SteppingClock(start=100.0)
        net.set_wall_deadline(50.0)
        with pytest.raises(DeadlineExceeded):
            net.idle_round()

    def test_charge_raises_past_deadline(self):
        net = Network(8, NCCConfig(seed=0))
        net.clock = SteppingClock(start=100.0)
        net.set_wall_deadline(50.0)
        with pytest.raises(DeadlineExceeded):
            net.charge(1)

    def test_runs_finishing_in_time_are_untouched(self):
        net = Network(8, NCCConfig(seed=0))
        net.set_wall_deadline(time.monotonic() + 3600.0)
        net.idle_round()
        assert net.rounds == 1

    def test_reset_clears_deadline_keeps_clock(self):
        net = Network(8, NCCConfig(seed=0))
        clock = SteppingClock(start=5.0)
        net.clock = clock
        net.set_wall_deadline(1.0)
        net.reset()
        assert net.wall_deadline is None  # pooled leases never inherit
        assert net.clock is clock  # the injected clock survives
        net.idle_round()  # no deadline => no raise

    def test_set_wall_deadline_validation(self):
        net = Network(4, NCCConfig(seed=0))
        with pytest.raises(ValueError):
            net.set_wall_deadline("soon")
        net.set_wall_deadline(None)
        assert net.wall_deadline is None

    def test_run_request_expires_mid_run_with_fake_clock(self):
        """The deadline lands mid-run at a round boundary, not before."""
        request = req(n=32, seed=2, deadline_ms=100)
        net = Network(request.size, request.config())
        # deadline = first tick (0.01) + 0.1; the clock crosses it after
        # ~10 more round-boundary checks — well inside the workload.
        net.clock = SteppingClock(start=0.0, step=0.01)
        response = run_request(request, net, registry=default_registry())
        assert response.verdict == "ERROR"
        assert response.error_code == "DEADLINE_EXCEEDED"
        assert "deadline" in response.error

    def test_run_request_in_time_is_bit_identical(self):
        request = req(n=24, seed=3)
        plain = run_request(request, Network(request.size, request.config()),
                            registry=default_registry())
        generous = run_request(
            req(n=24, seed=3, deadline_ms=3_600_000),
            Network(request.size, request.config()),
            registry=default_registry(),
        )
        assert generous.verdict == plain.verdict == "REALIZED"
        assert generous.fingerprint() == plain.fingerprint()


# ---------------------------------------------------------------------- #
# API surface                                                            #
# ---------------------------------------------------------------------- #


class TestDeadlineField:
    def test_validation(self):
        for bad in (0, -5, True, 1.5, "100"):
            with pytest.raises(ServiceError, match="deadline_ms"):
                req(deadline_ms=bad).validate()
        req(deadline_ms=250).validate()
        req().validate()  # absent stays valid

    def test_wire_and_dict_round_trip(self):
        r = req(deadline_ms=750)
        assert RealizationRequest.from_wire(r.to_wire()).deadline_ms == 750
        assert RealizationRequest.from_dict(r.to_dict()).deadline_ms == 750
        assert RealizationRequest.from_dict(req().to_dict()).deadline_ms is None

    def test_cache_key_neutral(self):
        """deadline_ms bounds *when*, not *what*: identical work shares
        one cache entry regardless of deadline."""
        assert req(deadline_ms=100).cache_key() == req(deadline_ms=900).cache_key()
        assert req(deadline_ms=100).cache_key() == req().cache_key()


# ---------------------------------------------------------------------- #
# Executor: deadlines, watchdog, retries, breaker                        #
# ---------------------------------------------------------------------- #


def make_executor(**kw):
    kw.setdefault("pool", NetworkPool())
    kw.setdefault("registry", default_registry())
    kw.setdefault("mode", "processes")
    kw.setdefault("workers", 2)
    return BatchExecutor(**kw)


class TestExecutorDeadlines:
    def test_expired_before_dispatch_async(self):
        with make_executor(cache_responses=False) as executor:
            out = executor._submit(req(request_id="late"), Future(),
                                   deadline=time.monotonic() - 1.0)
            response = out.result(timeout=60)
            assert response.error_code == "DEADLINE_EXCEEDED"
            assert "before dispatch" in response.error
            assert executor.stats()["deadline_exceeded"] == 1

    def test_expired_before_dispatch_sequential(self):
        with make_executor(mode="sequential") as executor:
            response = lease_and_run(
                req(), executor.pool, executor.registry,
                deadline=time.monotonic() - 1.0,
            )
        assert response.error_code == "DEADLINE_EXCEEDED"
        assert "before dispatch" in response.error

    def test_batch_deadline_exceeded_is_typed(self, monkeypatch):
        """A slow fault eats the whole budget: the worker itself answers
        with the typed envelope and the batch keeps draining."""
        install_plan(monkeypatch,
                     FaultRule(action="slow", request_ids=("sluggish",),
                               delay_ms=400))
        # hang_grace well past the slow fault: the worker wakes, notices
        # the expired deadline itself, and answers typed — the watchdog
        # (whose kill would yield WORKER_TIMEOUT instead) never fires.
        monkeypatch.setattr(executor_module, "HANG_GRACE_SEC", 2.0)
        with make_executor(cache_responses=False) as executor:
            out = executor.run([
                req(request_id="sluggish", seed=5, deadline_ms=150),
                req(request_id="prompt", seed=6),
            ])
        by_id = {r.request_id: r for r in out}
        assert by_id["sluggish"].error_code == "DEADLINE_EXCEEDED"
        assert by_id["prompt"].verdict == "REALIZED"

    def test_generous_deadline_bit_identical_over_pool(self):
        with make_executor() as executor:
            timed = executor.handle(req(seed=8, deadline_ms=3_600_000,
                                        request_id="a"))
        with make_executor() as executor:
            plain = executor.handle(req(seed=8, request_id="b"))
        assert timed.verdict == plain.verdict == "REALIZED"
        assert timed.fingerprint() == plain.fingerprint()


class TestWatchdog:
    def test_hung_worker_is_killed_and_typed(self, monkeypatch):
        install_plan(monkeypatch,
                     FaultRule(action="hang", request_ids=("stuck",)))
        with make_executor(cache_responses=False) as executor:
            started = time.monotonic()
            response = executor.submit(
                req(request_id="stuck", seed=9, deadline_ms=500)
            ).result(timeout=60)
            elapsed = time.monotonic() - started
            assert response.error_code == "WORKER_TIMEOUT"
            assert elapsed < 30  # killed, not waited out
            # The pool recovered: the same executor keeps serving.
            again = executor.submit(req(seed=10, request_id="after"))
            assert again.result(timeout=60).verdict == "REALIZED"
            stats = executor.stats()
        assert stats["worker_timeouts"] == 1
        assert stats["breaker"]["failures_total"] >= 1

    def test_hang_timeout_liveness_without_deadline(self, monkeypatch):
        """The configurable liveness bound catches hangs even when the
        request carries no deadline."""
        install_plan(monkeypatch,
                     FaultRule(action="hang", request_ids=("stuck",)))
        with make_executor(cache_responses=False,
                           hang_timeout=0.5) as executor:
            response = executor.submit(
                req(request_id="stuck", seed=11)
            ).result(timeout=60)
            assert response.error_code == "WORKER_TIMEOUT"
            assert executor.stats()["worker_timeouts"] == 1

    def test_hang_timeout_validation(self):
        for bad in (0, -1.5):
            with pytest.raises(ValueError, match="hang_timeout"):
                make_executor(hang_timeout=bad)


CO_VICTIMS = ("v1", "v2", "v3")


def crash_among_slow_co_victims(monkeypatch):
    """A crasher submitted first, then three innocents slowed enough to
    still be in flight when the crash breaks the pool."""
    install_plan(
        monkeypatch,
        FaultRule(action="crash", request_ids=("boom",)),
        FaultRule(action="slow", request_ids=CO_VICTIMS, delay_ms=300),
    )
    return [req(request_id="boom", seed=99)] + [
        req(request_id=rid, seed=40 + i) for i, rid in enumerate(CO_VICTIMS)
    ]


class TestCrashRecoveryLane:
    @pytest.mark.parametrize("entry", ["submit", "run"])
    def test_crasher_breaks_only_its_own_retry(self, monkeypatch, entry):
        batch = crash_among_slow_co_victims(monkeypatch)
        with make_executor(cache_responses=False) as executor:
            if entry == "submit":
                futures = [executor.submit(request) for request in batch]
                out = [future.result(timeout=120) for future in futures]
            else:
                out = executor.run(batch)
            stats = executor.stats()
        by_id = {r.request_id: r for r in out}
        assert by_id["boom"].error_code == "WORKER_CRASHED"
        for rid in CO_VICTIMS:
            assert by_id[rid].verdict == "REALIZED", by_id[rid]
        # One count per pool break: the first crash, then the crasher's
        # own retry — which ran with no co-victim beside it.
        assert stats["worker_crashes"] == 2
        assert stats["breaker"]["failures_total"] == 2

    def test_watchdog_kill_is_not_a_crash(self, monkeypatch):
        install_plan(monkeypatch,
                     FaultRule(action="hang", request_ids=("stuck",)))
        with make_executor(cache_responses=False) as executor:
            response = executor.submit(
                req(request_id="stuck", seed=9, deadline_ms=300)
            ).result(timeout=60)
            stats = executor.stats()
        assert response.error_code == "WORKER_TIMEOUT"
        assert stats["worker_timeouts"] == 1
        assert stats["worker_crashes"] == 0

    def test_job_lost_by_a_breaking_pool_retries(self, monkeypatch):
        """A job submitted while the pool breaks can miss the sweep that
        fails every job the pool holds; its pool future then never
        completes.  Once the broken pool's manager has exited, that
        future fails as a victim of the break and its request retries."""
        install_plan(monkeypatch,
                     FaultRule(action="crash", request_ids=("boom",)))
        with make_executor(cache_responses=False) as executor:
            assert executor.handle(req(request_id="prime", seed=77)).ok
            pool = executor._process_pool
            submit = pool.submit

            def losing_submit(fn, wire, *args):
                if RealizationRequest.from_wire(wire).request_id == "lost":
                    return Future()  # missed by the sweep: never completes
                return submit(fn, wire, *args)

            monkeypatch.setattr(pool, "submit", losing_submit)
            lost = executor._submit(req(request_id="lost", seed=2), Future())
            boom = executor._submit(req(request_id="boom", seed=99), Future())
            assert boom.result(timeout=120).error_code == "WORKER_CRASHED"
            response = lost.result(timeout=30)
            stats = executor.stats()
        assert response.verdict == "REALIZED"
        assert stats["retries"] == 2  # boom's and the lost job's


class TestBreakerDegrade:
    def test_open_degrade_probe_close_cycle(self, monkeypatch):
        install_plan(monkeypatch,
                     FaultRule(action="crash", request_ids=("c1",)))
        clock = SteppingClock(start=0.0)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_sec=30.0,
                                 clock=clock)
        with make_executor(cache_responses=False) as executor:
            executor.retry_policy = RetryPolicy(max_attempts=1)
            executor.breaker = breaker
            crashed = executor.submit(req(request_id="c1", seed=12))
            assert crashed.result(timeout=60).error_code == "WORKER_CRASHED"
            assert breaker.state == CircuitBreaker.OPEN
            # While open: degraded in-parent execution, field-identical.
            degraded = executor.submit(req(request_id="d1", seed=13))
            degraded_response = degraded.result(timeout=60)
            assert degraded_response.verdict == "REALIZED"
            assert executor.stats()["degraded_handled"] == 1
            # Cooldown elapses: the next request is the half-open probe,
            # its success closes the breaker.
            clock.now = 60.0
            probe = executor.submit(req(request_id="p1", seed=14))
            assert probe.result(timeout=60).verdict == "REALIZED"
            assert breaker.state == CircuitBreaker.CLOSED
            stats = executor.stats()
        assert stats["breaker"]["state"] == CircuitBreaker.CLOSED
        assert stats["breaker"]["opens"] == 1
        with make_executor(mode="sequential") as sequential:
            expected = sequential.handle(req(request_id="d1", seed=13))
        assert degraded_response.fingerprint() == expected.fingerprint()

    def test_batch_drain_degrades_while_open(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_sec=3600.0)
        breaker.record_failure()  # pre-open
        batch = [req(request_id=f"g{i}", seed=20 + i) for i in range(3)]
        with make_executor(cache_responses=False) as executor:
            executor.breaker = breaker
            out = executor.run(list(batch))
            stats = executor.stats()
        assert [r.verdict for r in out] == ["REALIZED"] * 3
        assert stats["degraded_handled"] == 3
        with make_executor(mode="sequential") as sequential:
            expected = sequential.run(list(batch))
        assert [r.fingerprint() for r in out] == \
            [r.fingerprint() for r in expected]


class TestWireFault:
    def test_wire_error_becomes_transport_envelope(self, monkeypatch):
        install_plan(monkeypatch,
                     FaultRule(action="wire_error", request_ids=("w1",)))
        with make_executor(cache_responses=False) as executor:
            out = executor.run([req(request_id="w1", seed=30),
                                req(request_id="w2", seed=31)])
        by_id = {r.request_id: r for r in out}
        assert by_id["w1"].verdict == "ERROR"
        assert "process drain failure" in by_id["w1"].error
        assert by_id["w2"].verdict == "REALIZED"


# ---------------------------------------------------------------------- #
# Socket serve under chaos                                               #
# ---------------------------------------------------------------------- #


def run_loop(coro, timeout=300):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _send(writer, text):
    writer.write((text + "\n").encode())
    await writer.drain()


async def _recv(reader, timeout=120):
    line = await asyncio.wait_for(reader.readline(), timeout)
    assert line, "connection closed unexpectedly"
    return json.loads(line.decode())


def jline(request_id, seed, n=16, **extra):
    payload = {"request_id": request_id, "kind": "degree_implicit",
               "scenario": "regular", "n": n, "seed": seed}
    payload.update(extra)
    return json.dumps(payload)


class TestServeChaos:
    def test_hung_worker_two_clients_other_client_unharmed(self, monkeypatch):
        """THE acceptance scenario: client A's hung request is answered
        with a typed WORKER_TIMEOUT within its deadline; client B's
        concurrent requests complete field-identical to a sequential
        drain of the same requests."""
        install_plan(monkeypatch,
                     FaultRule(action="hang", request_ids=("stuck",)))
        executor = make_executor(cache_responses=False)
        b_requests = [("b0", 40), ("b1", 41), ("b2", 42)]
        try:
            # Prime the pool before any socket exists (fork inherits fds).
            assert executor.submit(
                req(request_id="prime", seed=39)
            ).result(timeout=120).verdict == "REALIZED"

            async def scenario():
                server = await SocketServer(executor, port=0,
                                            window=8).start()
                reader_a, writer_a = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                reader_b, writer_b = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                await _send(writer_a, jline("stuck", 99, deadline_ms=700))
                rows_b = []
                for rid, seed in b_requests:
                    await _send(writer_b, jline(rid, seed))
                    rows_b.append(await _recv(reader_b))
                started = time.monotonic()
                row_a = await _recv(reader_a)
                waited = time.monotonic() - started
                stats_line = json.dumps({"request_id": "st", "kind": "stats"})
                await _send(writer_b, stats_line)
                stats = await _recv(reader_b)
                for w in (writer_a, writer_b):
                    w.close()
                server.drain()
                await server.wait_done()
                return row_a, rows_b, stats, waited

            row_a, rows_b, stats, waited = run_loop(scenario())
        finally:
            faults.clear()
            executor.close()
        assert row_a["error_code"] == "WORKER_TIMEOUT"
        assert waited < 30
        assert [r["request_id"] for r in rows_b] == ["b0", "b1", "b2"]
        assert all(r["verdict"] == "REALIZED" for r in rows_b)
        assert stats["executor"]["worker_timeouts"] == 1
        assert "breaker" in stats["executor"]
        # Field-identity of the surviving client against a sequential
        # drain of the same requests.
        with make_executor(mode="sequential", cache_responses=False) as seq:
            expected = seq.run([req(request_id=rid, seed=seed)
                                for rid, seed in b_requests])
        volatile = ("request_id", "cached", "elapsed_sec")
        got = [{k: v for k, v in r.items() if k not in volatile}
               for r in rows_b]
        want = [{k: v for k, v in r.to_dict().items() if k not in volatile}
                for r in expected]
        assert got == want

    def test_writer_error_fault_marks_connection_broken(self, monkeypatch):
        """A writer_error fault simulates the client dying right before
        its response is written: the server keeps draining (and counting)
        instead of wedging on the dead socket.  A response answered ahead
        of the dead one, in the same client write, still arrives."""
        install_plan(monkeypatch,
                     FaultRule(action="writer_error", request_ids=("dead",)))
        executor = make_executor(mode="sequential")
        try:
            # "first" and "dead" are cache hits, answered at admission, so
            # the emitter holds them in one run; "next" is a miss.
            for rid, seed in (("warm-first", 49), ("warm-dead", 50)):
                warm = executor.handle(req(request_id=rid, seed=seed))
                assert warm.verdict == "REALIZED"

            async def scenario():
                server = await SocketServer(executor, port=0,
                                            window=4).start()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                await _send(writer, "\n".join(
                    [jline("first", 49), jline("dead", 50), jline("next", 51)]
                ))
                # Broken-ness is sticky, so nothing from "dead" onwards
                # ever arrives — wait for the server-side counters
                # instead of a response before draining.
                for _ in range(3000):
                    if server.handled >= 3:
                        break
                    await asyncio.sleep(0.01)
                server.drain()
                # Everything the server wrote, up to its close.
                received = await asyncio.wait_for(reader.read(), 60)
                writer.close()
                await writer.wait_closed()
                handled, errors = await server.wait_done()
                return received, handled, errors

            received, handled, errors = run_loop(scenario())
            hits = executor.stats()["response_cache_hits"]
        finally:
            faults.clear()
            executor.close()
        rows = [json.loads(row) for row in received.decode().splitlines()]
        assert [row["request_id"] for row in rows] == ["first"]
        assert rows[0]["cached"] is True and hits == 2
        assert handled == 3  # every response consumed server-side
        assert errors == 0

    def test_emit_bound_derives_from_deadline_horizon(self):
        executor = make_executor(mode="sequential")
        try:
            server = SocketServer(executor)

            class _Conn:
                deadline_horizon = None
                bare = False

            conn = _Conn()
            assert EMIT_TIMEOUT_SEC == 60.0
            assert server._emit_bound(conn) == EMIT_TIMEOUT_SEC  # no deadlines
            conn.deadline_horizon = time.monotonic() + 2.0
            bound = server._emit_bound(conn)
            assert 0.5 <= bound <= 3.5  # tightened to horizon + 1s
            conn.bare = True  # one bare request disables the tightening
            assert server._emit_bound(conn) == EMIT_TIMEOUT_SEC
        finally:
            executor.close()
