"""Cap-enforcement fuzz: adversarial plans straddling every budget ±1.

The NCC budgets (send cap, receive cap, word budget) must fire the same
exceptions with the same attributes — and leave the same partial state —
in strict and defer modes on every engine.  These tests build adversarial
``RoundPlan``s right at each boundary and one past it, plus a randomized
plan fuzzer that cross-checks whole outcomes (inboxes, metrics, errors)
between engines.  For the fast engine this is also the fallback torture
path: every boundary overshoot, defer-mode spill and backlog drain
replays through the reference loop, and a clean round never does.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degree_realization import realize_degree_sequence
from repro.ncc.config import EnforcementMode, NCCConfig, Variant
from repro.ncc.engine import ReferenceEngine
from repro.ncc.errors import (
    MessageTooLarge,
    ProtocolError,
    RecvCapExceeded,
    SendCapExceeded,
    UnknownRecipientError,
)
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.workloads import random_graphic_sequence

ENGINE_CONFIGS = {
    "fast": {"engine": "fast"},
    "reference": {"engine": "reference"},
}
ENGINES = tuple(ENGINE_CONFIGS)
MODES = (EnforcementMode.STRICT, EnforcementMode.DEFER)


def assert_all_match_reference(outcomes) -> None:
    for label, outcome in outcomes.items():
        assert outcome == outcomes["reference"], f"engine {label} diverged"


def ncc1_pair(n: int, seed: int = 0, **overrides):
    """Identically-seeded NCC1 networks (full knowledge), one per engine."""
    return {
        label: Network(
            n,
            NCCConfig(
                seed=seed,
                variant=Variant.NCC1,
                random_ids=False,
                **config,
                **overrides,
            ),
        )
        for label, config in ENGINE_CONFIGS.items()
    }


def run_plan(net: Network, sends):
    """Deliver one plan; return ("ok", inboxes) or ("err", type, attrs)."""
    plan = net.plan()
    for src, dst, message in sends:
        plan.send(src, dst, message)
    try:
        inboxes = net.deliver(plan)
    except SendCapExceeded as exc:
        return ("err", "send", exc.src, exc.cap, exc.attempted)
    except RecvCapExceeded as exc:
        return ("err", "recv", exc.dst, exc.cap, exc.attempted)
    except MessageTooLarge as exc:
        return ("err", "size", exc.words, exc.max_words)
    except UnknownRecipientError as exc:
        return ("err", "unknown", exc.src, exc.dst)
    except ProtocolError as exc:
        return ("err", "protocol", str(exc))
    return ("ok", inboxes)


def snapshot(net: Network):
    """Observable state: metrics plus knowledge (for partial-state checks)."""
    return (
        net.rounds,
        net.messages_delivered,
        net.words_delivered,
        net.pending_deferred(),
        {v: frozenset(s) for v, s in net.known.items()},
    )


class TestSendCapBoundary:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("overshoot", [0, 1])
    def test_send_cap_plus_minus_one(self, mode, overshoot):
        outcomes = {}
        for engine, net in ncc1_pair(32, seed=3, enforcement=mode).items():
            ids = list(net.node_ids)
            sender = ids[0]
            targets = ids[1 : 1 + net.send_cap + overshoot]
            sends = [(sender, dst, msg("x")) for dst in targets]
            outcomes[engine] = (run_plan(net, sends), snapshot(net))
        result = outcomes["fast"][0]
        if overshoot:
            assert result[:2] == ("err", "send")
            assert result[3] == net.send_cap
            assert result[4] == net.send_cap + 1
        else:
            assert result[0] == "ok"
        assert_all_match_reference(outcomes)


class TestRecvCapBoundary:
    @pytest.mark.parametrize("overshoot", [0, 1])
    def test_strict_recv_cap(self, overshoot):
        outcomes = {}
        for engine, net in ncc1_pair(40, seed=4).items():
            ids = list(net.node_ids)
            dst = ids[0]
            senders = ids[1 : 1 + net.recv_cap + overshoot]
            sends = [(s, dst, msg("y")) for s in senders]
            outcomes[engine] = (run_plan(net, sends), snapshot(net))
        result = outcomes["fast"][0]
        if overshoot:
            assert result[:2] == ("err", "recv")
            assert result[2] == dst
            assert result[4] == net.recv_cap + 1
        else:
            assert result[0] == "ok"
        assert_all_match_reference(outcomes)

    @pytest.mark.parametrize("overshoot", [0, 1, 3])
    def test_defer_mode_spills_identically(self, overshoot):
        outcomes = {}
        for engine, net in ncc1_pair(
            40, seed=5, enforcement=EnforcementMode.DEFER
        ).items():
            ids = list(net.node_ids)
            dst = ids[0]
            rounds = []  # (phase, queue depth) per observed round
            if engine == "fast":
                net.set_round_observer(
                    lambda _no, _boxes, seconds, depth, _backlog: rounds.append(
                        ("fallback" if "fallback" in seconds else "deliver", depth)
                    )
                )
            senders = ids[1 : 1 + net.recv_cap + overshoot]
            sends = [(s, dst, msg("z", data=(1,))) for s in senders]
            status, inboxes = run_plan(net, sends)[:2]
            assert status == "ok"
            assert len(inboxes[dst]) == min(len(senders), net.recv_cap)
            assert net.pending_deferred() == overshoot
            drained = net.drain()
            outcomes[engine] = (drained, snapshot(net))
            if engine == "fast":
                # The spill and each drain replay through the reference
                # loop; the clean round after them is delivered in place.
                assert run_plan(net, [(ids[1], dst, msg("clean"))])[0] == "ok"
                spill = "fallback" if overshoot else "deliver"
                assert [phase for phase, _ in rounds] == (
                    [spill] + ["fallback"] * drained + ["deliver"]
                )
                assert rounds[0][1] == len(inboxes[dst])
        assert_all_match_reference(outcomes)
        assert outcomes["fast"][1][3] == 0  # backlog fully drained

    def test_defer_backlog_interleaves_with_new_sends(self):
        """Backlog consumes budget before this round's arrivals (FIFO)."""
        outcomes = {}
        for engine, net in ncc1_pair(
            40, seed=6, enforcement=EnforcementMode.DEFER
        ).items():
            ids = list(net.node_ids)
            dst = ids[0]
            overshoot = 3
            senders = ids[1 : 1 + net.recv_cap + overshoot]
            run_plan(net, [(s, dst, msg("first")) for s in senders])
            status, inboxes = run_plan(
                net, [(ids[-1], dst, msg("second"))]
            )[:2]
            assert status == "ok"
            kinds = [m.kind for m in inboxes[dst]]
            assert kinds[:overshoot] == ["first"] * overshoot
            assert kinds[overshoot] == "second"
            outcomes[engine] = snapshot(net)
        assert_all_match_reference(outcomes)


def reference_calls(run) -> int:
    """Calls into ``ReferenceEngine.deliver`` while ``run()`` runs, counted
    with a profile hook (a count is exact where a timing is not)."""
    calls = 0
    code = ReferenceEngine.deliver.__code__

    def hook(frame, event, _arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def overdrive(net: Network) -> None:
    """One defer-mode round that leaves three messages queued."""
    ids = list(net.node_ids)
    net.step([(s, ids[0], msg("z")) for s in ids[1 : net.recv_cap + 4]])
    assert net.pending_deferred() == 3


@pytest.mark.parametrize("setup", ["strict", "defer_drained", "defer_reset"])
def test_clean_rounds_never_replay(setup):
    """The fast engine's one lane: a realization's rounds never reach the
    reference loop, in strict mode, once a defer backlog has drained, or
    after ``reset()`` dropped one.  The defer setups must replay, so a
    hook that missed the calls cannot pass for a clean lane."""
    mode = EnforcementMode.STRICT if setup == "strict" else EnforcementMode.DEFER
    net = Network(
        18,
        NCCConfig(seed=1, variant=Variant.NCC1, random_ids=False, enforcement=mode),
    )
    if setup == "defer_drained":
        assert reference_calls(lambda: (overdrive(net), net.drain())) == 2
    elif setup == "defer_reset":
        assert reference_calls(lambda: overdrive(net)) == 1
        net.reset()
    demands = dict(zip(net.node_ids, random_graphic_sequence(18, 0.3, seed=6)))
    assert reference_calls(lambda: realize_degree_sequence(net, demands)) == 0
    assert net.pending_deferred() == 0


class TestWordBudgetBoundary:
    @pytest.mark.parametrize("mode", MODES)
    def test_ids_at_and_over_budget(self, mode):
        outcomes = {}
        for engine, net in ncc1_pair(16, seed=7, enforcement=mode).items():
            ids = list(net.node_ids)
            max_words = net.config.max_words
            fits = msg("fits", ids=tuple(range(1000, 1000 + max_words)))
            outcomes[engine] = (
                run_plan(net, [(ids[0], ids[1], fits)]),
                run_plan(
                    net,
                    [
                        (
                            ids[0],
                            ids[1],
                            msg("fat", ids=tuple(range(2000, 2001 + max_words))),
                        )
                    ],
                ),
                snapshot(net),
            )
            assert outcomes[engine][0][0] == "ok"
            assert outcomes[engine][1][:2] == ("err", "size")
            assert outcomes[engine][1][2] == max_words + 1
        assert_all_match_reference(outcomes)

    @pytest.mark.parametrize("mode", MODES)
    def test_multiword_integers_straddle_budget(self, mode):
        """An integer of word_bits+1 bits costs two words, not one."""
        outcomes = {}
        for engine, net in ncc1_pair(16, seed=8, enforcement=mode).items():
            ids = list(net.node_ids)
            wb = net.word_bits
            max_words = net.config.max_words
            # max_words-1 one-word values + one value crossing the word
            # boundary: exactly over budget by one word.
            small = tuple([1] * (max_words - 1))
            over = small + (1 << wb,)  # word_bits+1 bits -> 2 words
            exact = small + ((1 << wb) - 1,)  # word_bits bits -> 1 word
            outcomes[engine] = (
                run_plan(net, [(ids[0], ids[1], msg("exact", data=exact))]),
                run_plan(net, [(ids[0], ids[1], msg("over", data=over))]),
            )
            assert outcomes[engine][0][0] == "ok"
            assert outcomes[engine][1][:2] == ("err", "size")
            assert outcomes[engine][1][2] == max_words + 1
        assert_all_match_reference(outcomes)


class TestGatingErrors:
    def test_unknown_recipient_identical(self):
        outcomes = {}
        for engine in ENGINES:
            net = Network(6, NCCConfig(seed=9, **ENGINE_CONFIGS[engine]))
            ids = list(net.node_ids)
            # NCC0 path knowledge: the tail knows nobody behind it.
            outcomes[engine] = (
                run_plan(net, [(ids[3], ids[0], msg("x"))]),
                snapshot(net),
            )
            assert outcomes[engine][0][:2] == ("err", "unknown")
        assert_all_match_reference(outcomes)

    def test_nonscalar_payload_type_error_identical(self):
        """A non-scalar payload raises the same TypeError on every
        engine."""
        outcomes = {}
        for engine, net in ncc1_pair(8, seed=11).items():
            ids = list(net.node_ids)
            try:
                net.step([(ids[0], ids[1], msg("bad", data=((1, 2),)))])
                outcomes[engine] = ("ok",)
            except TypeError as exc:
                outcomes[engine] = ("type_error", str(exc), snapshot(net))
        assert outcomes["fast"][0] == "type_error"
        assert_all_match_reference(outcomes)

    def test_self_send_identical(self):
        outcomes = {}
        for engine, net in ncc1_pair(6, seed=10).items():
            v = net.node_ids[0]
            outcomes[engine] = (run_plan(net, [(v, v, msg("me"))]), snapshot(net))
            assert outcomes[engine][0][:2] == ("err", "protocol")
        assert_all_match_reference(outcomes)


class TestPlanFuzz:
    """Random plan streams: whole-outcome equivalence between engines."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        mode=st.sampled_from(MODES),
        rounds=st.integers(1, 6),
    )
    def test_random_plans_equivalent(self, seed, mode, rounds):
        rng = random.Random(seed)
        nets = ncc1_pair(24, seed=seed % 97, enforcement=mode)
        script = []  # same random script for both engines
        ids = list(nets["fast"].node_ids)
        for _ in range(rounds):
            plan = []
            for _ in range(rng.randrange(0, 40)):
                src = rng.choice(ids)
                dst = rng.choice(ids)  # may equal src: self-send error path
                payload_ids = tuple(
                    rng.choice(ids) for _ in range(rng.randrange(0, 3))
                )
                # Up to 80-bit ints: multi-word payloads at the budget.
                data = tuple(
                    rng.randrange(0, 1 << 80) for _ in range(rng.randrange(0, 3))
                )
                plan.append((src, dst, msg("f", ids=payload_ids, data=data)))
            script.append(plan)

        outcomes = {}
        for engine, net in nets.items():
            log = []
            for plan in script:
                result = run_plan(net, plan)
                if result[0] == "ok":
                    log.append(("ok", result[1]))
                else:
                    log.append(result)
                    break  # network state after an error is final
            outcomes[engine] = (log, snapshot(net), net.stats())
        assert_all_match_reference(outcomes)

