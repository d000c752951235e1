"""Property-based differential tests: the fast engine ≡ reference engine.

The fast engine's contract (see :mod:`repro.ncc.engine`) is
*bit-identical observable behaviour*: same realizations, same
knowledge, same metrics, same raised errors.  These tests drive full
protocols — degree realization on seeded Erdős–Gallai-feasible
sequences, tree realization on random Prüfer-derived sequences — under
both engines and assert the outcomes are equal, and additionally that
the distributed verdicts agree with the sequential ground truth
(`sequential/havel_hakimi.py`, `sequential/trees.py`).
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degree_realization import realize_degree_sequence
from repro.core.tree_realization import realize_tree
from repro.ncc.config import EnforcementMode, NCCConfig, Variant
from repro.ncc.errors import NCCError, ProtocolError, UnknownRecipientError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.bbst import build_bbst
from repro.primitives.protocol import run_protocol
from repro.primitives.sorting import distributed_sort
from repro.sequential import havel_hakimi, is_graphic, is_tree_realizable
from repro.validation import check_degree_match, check_simple, check_tree
from repro.workloads import random_graphic_sequence

#: Engine configurations under differential test; every label must be
#: bit-identical to "reference".
ENGINE_CONFIGS = {
    "fast": {"engine": "fast"},
    "reference": {"engine": "reference"},
}
ENGINES = tuple(ENGINE_CONFIGS)


def nets_for(n: int, seed: int, **overrides):
    """One identically-seeded network per engine configuration."""
    return {
        label: Network(n, NCCConfig(seed=seed, **config, **overrides))
        for label, config in ENGINE_CONFIGS.items()
    }


def assert_all_match_reference(outcomes) -> None:
    for label, outcome in outcomes.items():
        assert outcome == outcomes["reference"], f"engine {label} diverged"


@st.composite
def graphic_sequences(draw):
    """Seeded random Erdős–Gallai-feasible degree sequences."""
    n = draw(st.integers(4, 18))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    seed = draw(st.integers(0, 10_000))
    return random_graphic_sequence(n, p, seed=seed)


@st.composite
def tree_sequences(draw):
    """Random tree degree sequences via Prüfer multiplicities."""
    n = draw(st.integers(2, 12))
    prufer = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    degrees = [1] * n
    for x in prufer:
        degrees[x] += 1
    return degrees


class TestDegreeRealizationDifferential:
    @settings(max_examples=20, deadline=None)
    @given(seq=graphic_sequences(), seed=st.integers(0, 1_000))
    def test_fast_matches_reference_and_ground_truth(self, seq, seed):
        assert is_graphic(seq)  # generator guarantees EG feasibility
        outcomes = {}
        for engine, net in nets_for(len(seq), seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_degree_sequence(net, demands)
            outcomes[engine] = (
                result.realized,
                result.announced_unrealizable_by,
                result.edges,
                result.realized_degrees,
                result.phases,
                result.stats,
            )
            # Distributed result must match the sequential oracle.
            assert result.realized
            assert check_simple(result.edges)
            assert check_degree_match(result.edges, demands, net.node_ids)
        assert_all_match_reference(outcomes)
        # Sequential Havel–Hakimi realizes the same sequence.
        assert havel_hakimi(seq) is not None

    @settings(max_examples=10, deadline=None)
    @given(seq=graphic_sequences(), bump=st.integers(1, 3), seed=st.integers(0, 500))
    def test_unrealizable_verdicts_identical(self, seq, bump, seed):
        # Push the largest entries to n-1 to (usually) break graphicality;
        # whatever the verdict, both engines and the oracle must agree.
        seq = list(seq)
        n = len(seq)
        for i in range(min(bump, n)):
            seq[i] = n - 1
        outcomes = {}
        for engine, net in nets_for(n, seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_degree_sequence(net, demands)
            outcomes[engine] = (
                result.realized,
                result.announced_unrealizable_by,
                result.edges,
                result.stats,
            )
            assert result.realized == is_graphic(seq)
            assert result.realized == (havel_hakimi(seq) is not None)
        assert_all_match_reference(outcomes)


class TestTreeRealizationDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        seq=tree_sequences(),
        variant=st.sampled_from(["max_diameter", "min_diameter"]),
        seed=st.integers(0, 1_000),
    )
    def test_fast_matches_reference_and_ground_truth(self, seq, variant, seed):
        assert is_tree_realizable(seq)  # Prüfer construction guarantees it
        outcomes = {}
        for engine, net in nets_for(len(seq), seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_tree(net, demands, variant=variant)
            outcomes[engine] = (
                result.realized,
                result.edges,
                result.realized_degrees,
                result.diameter,
                result.stats,
            )
            assert result.realized
            if len(seq) > 1:
                assert check_tree(result.edges, net.node_ids)
                assert check_degree_match(result.edges, demands, net.node_ids)
        assert_all_match_reference(outcomes)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1_000), n=st.integers(3, 12))
    def test_infeasible_tree_sequences_identical(self, seed, n):
        rng = random.Random(seed)
        seq = [rng.randrange(0, n) for _ in range(n)]
        if is_tree_realizable(seq):
            seq[0] = 0  # break Harary's condition (a zero degree, n > 1)
        outcomes = {}
        for engine, net in nets_for(n, seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_tree(net, demands)
            outcomes[engine] = (result.realized, result.stats)
            assert not result.realized
        assert_all_match_reference(outcomes)


class TestMetricsIdentity:
    """All engines' metrics must be bit-identical on core primitives."""

    @pytest.mark.parametrize("n,seed", [(16, 1), (32, 2), (64, 3)])
    def test_sorting_metrics_identical(self, n, seed):
        outcomes = {}
        for engine, net in nets_for(n, seed).items():
            rng = random.Random(seed)
            table = {v: rng.randrange(n) for v in net.node_ids}
            _, order = run_protocol(net, distributed_sort(net, lambda v: table[v]))
            outcomes[engine] = (net.stats(), order)
        assert_all_match_reference(outcomes)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sorting_n128_costs_pinned(self, engine):
        """Theorem 3's full-fidelity sort at n=128, seed 11, costs exactly
        these rounds, messages and words on every engine."""
        net = Network(128, NCCConfig(seed=11, engine=engine))
        rng = random.Random(11)
        table = {v: rng.randrange(128) for v in net.node_ids}
        run_protocol(net, distributed_sort(net, lambda v: table[v]))
        stats = net.stats()
        assert (stats.rounds, stats.simulated_rounds) == (1252, 1252)
        assert (stats.messages, stats.words) == (30600, 34256)

    @pytest.mark.parametrize("n,seed", [(16, 4), (48, 5)])
    def test_bbst_metrics_identical(self, n, seed):
        stats = {}
        for engine, net in nets_for(n, seed).items():
            run_protocol(net, build_bbst(net))
            stats[engine] = net.stats()
        assert_all_match_reference(stats)

    def test_ncc1_variant_identical(self):
        stats = {}
        for engine, net in nets_for(
            24, 9, variant=Variant.NCC1, random_ids=False
        ).items():
            rng = random.Random(9)
            table = {v: rng.randrange(24) for v in net.node_ids}
            run_protocol(net, distributed_sort(net, lambda v: table[v]))
            stats[engine] = net.stats()
        assert_all_match_reference(stats)

    def test_knowledge_sets_identical_after_run(self):
        known = {}
        for engine, net in nets_for(20, 13).items():
            rng = random.Random(13)
            table = {v: rng.randrange(20) for v in net.node_ids}
            run_protocol(net, distributed_sort(net, lambda v: table[v]))
            known[engine] = {v: frozenset(s) for v, s in net.known.items()}
        assert_all_match_reference(known)


# --------------------------------------------------------------------- #
# Single rounds: payload shapes and knowledge edge cases                #
# --------------------------------------------------------------------- #

#: Scalars spanning every word-accounting branch: booleans and None
#: (1 word), small and multi-word integers, floats, short strings.
scalars = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-(1 << 9), max_value=1 << 9),
    st.integers(min_value=1 << 40, max_value=1 << 200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)


@st.composite
def send_lists(draw, n=12, max_size=25):
    """Random ``(src, dst, Message)`` sends over the IDs ``1..n`` of a
    ``random_ids=False`` network, self-sends left out.

    Sends draw their messages from a small pool, so one ``Message``
    object often rides several sends, from one sender or from several:
    every receiver must still see its own sender."""
    pool = draw(
        st.lists(
            st.builds(
                lambda kind, ids, data: msg(kind, ids=tuple(ids), data=tuple(data)),
                st.sampled_from(["ping", "agg", "ns:invite", "ns:route"]),
                st.lists(st.integers(1, n), max_size=3),
                st.lists(scalars, max_size=4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(1, n),
                st.integers(1, n),
                st.integers(0, len(pool) - 1),
            ),
            max_size=max_size,
        )
    )
    return [(src, dst, pool[i]) for src, dst, i in entries if src != dst]


def ncc1_nets(mode: EnforcementMode, **overrides):
    """Twelve-node NCC1 networks (IDs ``1..12``), one per engine."""
    return nets_for(
        12, 3, variant=Variant.NCC1, random_ids=False, enforcement=mode,
        **overrides,
    )


def round_outcome(net: Network, sends, rounds: int = 3):
    """Deliver ``sends``, then idle rounds: every inbox (or the first
    error), the final stats and the leftover backlog."""
    out = []
    for r in range(rounds):
        try:
            inboxes = net.step(sends if r == 0 else ())
        except NCCError as exc:
            out.append(("err", type(exc).__name__, str(exc)))
            break
        out.append(
            sorted(
                (dst, [(m.kind, m.src, m.ids, m.data) for m in box])
                for dst, box in inboxes.items()
            )
        )
    return out, net.stats(), net.pending_deferred()


class TestPayloadDifferential:
    @pytest.mark.parametrize("mode", list(EnforcementMode))
    @settings(max_examples=15, deadline=None)
    @given(sends=send_lists())
    def test_random_sends_match_reference(self, mode, sends):
        """Every payload scalar type, multi-word ints included, is
        delivered (or rejected) reference-exact.  A wide word budget
        lets most examples reach delivery."""
        outcomes = {
            engine: round_outcome(net, sends)
            for engine, net in ncc1_nets(mode, max_words=24).items()
        }
        assert_all_match_reference(outcomes)

    @pytest.mark.parametrize("bits_factor", [0.5, 1.0, 2.0])
    @settings(max_examples=15, deadline=None)
    @given(sends=send_lists())
    def test_words_metric_is_the_sum_of_message_words(self, bits_factor, sends):
        """The words the engines meter for a round are exactly the
        ``Message.words`` of its messages, at every word width."""
        outcomes = {}
        for engine, net in ncc1_nets(
            EnforcementMode.UNBOUNDED,
            max_words=1 << 10,
            word_value_bits_factor=bits_factor,
        ).items():
            per_sender = {}
            fitting = []
            for src, dst, message in sends:
                if per_sender.get(src, 0) < net.send_cap:
                    per_sender[src] = per_sender.get(src, 0) + 1
                    fitting.append((src, dst, message))
            net.step(fitting)
            stats = net.stats()
            assert stats.messages == len(fitting)
            assert stats.words == sum(m.words(net.word_bits) for _, _, m in fitting)
            outcomes[engine] = stats
        assert_all_match_reference(outcomes)

    def test_empty_rounds_are_metered_identically(self):
        outcomes = {}
        for engine, net in nets_for(8, 1).items():
            inboxes = net.step(())
            net.idle_round()
            outcomes[engine] = (dict(inboxes), net.stats())
        assert_all_match_reference(outcomes)
        stats = outcomes["fast"][1]
        assert (stats.rounds, stats.messages, stats.words) == (2, 0, 0)


class TestSharedMessageObjects:
    """One ``Message`` object on several sends: each receiver sees its
    own sender, on every engine, now and after later rounds."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_object_from_two_senders_in_one_round(self, engine):
        net = Network(6, NCCConfig(engine=engine, variant=Variant.NCC1,
                                   random_ids=False))
        shared = msg("x", data=(1,))
        inboxes = net.step([(1, 3, shared), (2, 4, shared)])
        assert [m.src for m in inboxes[3]] == [1]
        assert [m.src for m in inboxes[4]] == [2]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_later_resend_leaves_an_earlier_inbox_alone(self, engine):
        net = Network(6, NCCConfig(engine=engine, variant=Variant.NCC1,
                                   random_ids=False))
        shared = msg("x", data=(1,))
        (held,) = net.step([(1, 3, shared)])[3]
        (again,) = net.step([(2, 4, shared)])[4]
        assert (held.src, again.src) == (1, 2)


class TestKnowledgeEdgeCases:
    @pytest.mark.parametrize(
        "payload_id", [2**70, "not-an-int"], ids=["beyond-int64", "non-int"]
    )
    def test_receiver_learns_any_payload_id(self, payload_id):
        """``Message.ids`` is protocol-supplied, not bounded by the
        node-ID universe, and knowledge sets accept any hashable."""
        outcomes = {}
        for engine, net in nets_for(12, 3).items():
            src, dst = net.node_ids[0], net.node_ids[1]  # NCC0: head knows next
            inboxes = net.step([(src, dst, msg("id", ids=(payload_id,)))])
            assert payload_id in net.known[dst]
            outcomes[engine] = (
                {d: [(m.kind, m.src, m.ids) for m in box] for d, box in inboxes.items()},
                net.stats(),
                {v: frozenset(s) for v, s in net.known.items()},
            )
        assert_all_match_reference(outcomes)

    def test_granted_knowledge_enables_sends(self):
        outcomes = {}
        for engine, net in nets_for(12, 2).items():
            # The path's tail knows nobody behind it.
            src, dst = net.node_ids[-1], net.node_ids[0]
            with pytest.raises(UnknownRecipientError):
                net.step([(src, dst, msg("hi", data=(1,)))])
            net.grant_knowledge(src, dst)
            inboxes = net.step([(src, dst, msg("hi", data=(1,)))])
            assert {
                d: [(m.kind, m.src, m.data) for m in box] for d, box in inboxes.items()
            } == {dst: [("hi", src, (1,))]}
            outcomes[engine] = (
                net.stats(),
                {v: frozenset(s) for v, s in net.known.items()},
            )
        assert_all_match_reference(outcomes)

    @pytest.mark.parametrize(
        "case,raises",
        [
            ("self-send", ProtocolError),
            ("outside-id", UnknownRecipientError),
            # Knowledge gating passes (the payload taught the ID), and
            # delivery finds no such node: no typed error covers it.
            ("learned-outside-id", KeyError),
        ],
    )
    def test_ncc1_rejections_match_reference(self, case, raises):
        """NCC1 knowledge is a view per node over one shared ID set
        (``repro.ncc.knowledge.CompleteView``); a round it rejects must
        fail on every engine as on the reference, with the same partial
        state and knowledge."""
        outside = 10**12  # above every ID of a 12-node network
        outcomes = {}
        for engine, net in nets_for(12, 3, variant=Variant.NCC1).items():
            a, b, c = net.node_ids[:3]
            if case == "self-send":
                sends = [(a, b, msg("ok")), (c, c, msg("loop"))]
            elif case == "outside-id":
                sends = [(a, b, msg("ok")), (c, outside, msg("lost"))]
            else:
                net.step([(a, b, msg("id", ids=(outside,)))])
                assert net.knows(b, outside) and not net.knows(a, outside)
                sends = [(b, outside, msg("lost"))]
            with pytest.raises(raises) as raised:
                net.step(sends)
            outcomes[engine] = (
                type(raised.value),
                str(raised.value),
                net.stats(),
                net.pending_deferred(),
                {v: frozenset(s) for v, s in net.known.items()},
            )
        assert_all_match_reference(outcomes)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delivered_and_deferred_kinds_stay_interned(self, engine):
        """``msg()`` interns kinds so comparisons short-circuit on
        identity; no engine may hand a protocol an uninterned copy,
        whether delivered at once or from the defer-mode backlog."""
        net = nets_for(
            24, 4, variant=Variant.NCC1, random_ids=False,
            enforcement=EnforcementMode.DEFER,
        )[engine]
        ids = list(net.node_ids)
        kind = "".join(["spill", "kind"])  # built at run time, not a constant
        delivered = []
        net.set_round_observer(lambda r, inboxes, *_timings: delivered.extend(
            m for box in inboxes.values() for m in box
        ))
        net.step([(s, ids[0], msg(kind)) for s in ids[1 : net.recv_cap + 5]])
        assert net.pending_deferred() == 4
        for queue in net._deferred.values():
            assert all(m.kind is sys.intern(kind) for m in queue)
        net.drain()
        assert len(delivered) == net.recv_cap + 4
        assert all(m.kind is sys.intern(kind) for m in delivered)
