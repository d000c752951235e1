"""Property suite for the sharded engine's columnar round batch
(:mod:`repro.ncc.wire`).

The sharded workers' cap checks and word accounting run as counting
passes over :class:`ColumnarRoundBatch` columns instead of
per-``Message`` loops.  These tests pin the passes to the executable
specification: for random batches — built the way the sharded parent
builds them, off routed send entries — with multi-word integers, empty
batches and empty payloads, the column computations must equal the
per-message reference computation (``Message.words``,
per-sender/per-receiver tallies), the wire round trip must preserve
every field plus the ``msg()`` kind-identity invariant, and
:class:`ColumnarInbox` must stay lazy (no ``Message`` construction)
until a consumer actually touches messages.  Final end-to-end checks
assert the sharded engine ships columns with *zero* worker-side object
construction, delivers random sends reference-exact, and meters its
inboxes as columnar until they are read.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ncc.config import EnforcementMode, NCCConfig, Variant
from repro.ncc.errors import NCCError
from repro.ncc.message import Message, msg, word_cache_evictions
from repro.ncc.network import Network
from repro.ncc.wire import (
    ColumnarInbox,
    ColumnarRoundBatch,
    encode_routed_entries,
    materialization_counts,
    materialized_total,
)
from repro.primitives.protocol import InboxView, take

# --------------------------------------------------------------------- #
# Strategies                                                            #
# --------------------------------------------------------------------- #

#: Scalars spanning every word-accounting branch: booleans and None
#: (1 word), small and multi-word integers, floats, short strings.
scalars = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-(1 << 9), max_value=1 << 9),
    st.integers(min_value=1 << 40, max_value=1 << 200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(min_size=0, max_size=12),
)

kinds = st.sampled_from(["ping", "agg", "ns:invite", "ns:route"])


@st.composite
def send_lists(draw, max_node=15, max_size=40):
    """Random ``(src, dst, Message)`` lists over a small (1-based) ID
    universe — matching ``random_ids=False`` networks' ID space."""
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=max_node),
                st.integers(min_value=1, max_value=max_node),
                kinds,
                st.lists(
                    st.integers(min_value=1, max_value=max_node),
                    max_size=3,
                ),
                st.lists(scalars, max_size=4),
            ),
            max_size=max_size,
        )
    )
    return [
        (src, dst, msg(kind, ids=tuple(ids), data=tuple(data)))
        for src, dst, kind, ids, data in entries
    ]


def columnar(sends) -> ColumnarRoundBatch:
    """``sends`` as a batch, built as the sharded parent ships one: the
    routed wire form, rebuilt by ``from_wire`` (empty: ``builder()``)."""
    if not sends:
        return ColumnarRoundBatch.builder()
    routed = encode_routed_entries(
        [(i, src, dst, m) for i, (src, dst, m) in enumerate(sends)]
    )
    return ColumnarRoundBatch.from_wire(routed[1])


def entries(batch: ColumnarRoundBatch):
    """The batch back as ``(src, dst, message)`` sends, in order."""
    return [
        (batch.srcs[i], batch.dsts[i], batch.materialize(i))
        for i in range(len(batch))
    ]


# --------------------------------------------------------------------- #
# Word accounting: one column pass == per-message reference             #
# --------------------------------------------------------------------- #


class TestWordAccounting:
    @settings(max_examples=60, deadline=None)
    @given(sends=send_lists(), word_bits=st.sampled_from([8, 16, 48]))
    def test_ensure_words_matches_message_words(self, sends, word_bits):
        batch = columnar(sends)
        words, ok = batch.ensure_words(word_bits)
        assert ok
        expected = [m.words(word_bits) for _, _, m in sends]
        assert words == expected
        # Cached on the batch: the second call is the same list.
        again, ok2 = batch.ensure_words(word_bits)
        assert again is words and ok2

    @settings(max_examples=40, deadline=None)
    @given(sends=send_lists())
    def test_counting_passes_match_per_message_tallies(self, sends):
        """max / sum over the word column and Counter over the src and
        dst columns — the cap-check passes — equal the reference
        per-message computation."""
        batch = columnar(sends)
        words, _ = batch.ensure_words(16)
        per_msg = [m.words(16) for _, _, m in sends]
        assert (max(words) if words else 0) == (max(per_msg) if per_msg else 0)
        assert sum(words) == sum(per_msg)
        assert Counter(batch.srcs) == Counter(s for s, _, _ in sends)
        assert Counter(batch.dsts) == Counter(d for _, d, _ in sends)

    def test_empty_batch(self):
        batch = columnar([])
        words, ok = batch.ensure_words(16)
        assert words == [] and ok
        assert len(batch) == 0 and entries(batch) == []
        rebuilt = ColumnarRoundBatch.from_wire(batch.to_wire())
        assert len(rebuilt) == 0

    def test_non_scalar_payload_flags_not_ok(self):
        bad = Message(kind="x", ids=(), data=((1, 2),))
        batch = columnar([(0, 1, msg("a", data=(3,))), (1, 0, bad)])
        words, ok = batch.ensure_words(16)
        assert not ok and batch.words_ok is False
        assert words[0] == 1  # good entries still accounted


# --------------------------------------------------------------------- #
# Wire round trip and materialisation                                   #
# --------------------------------------------------------------------- #


class TestWireRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(sends=send_lists())
    def test_round_trip_preserves_fields_and_kind_identity(self, sends):
        batch = columnar(sends)
        batch.ensure_words(16)
        rebuilt = ColumnarRoundBatch.from_wire(batch.to_wire())
        assert rebuilt.words == batch.words
        out = entries(rebuilt)
        assert [(s, d) for s, d, _ in out] == [(s, d) for s, d, _ in sends]
        for (_, _, got), (src, _, want) in zip(out, sends):
            assert got.kind is want.kind  # sys.intern round trip
            assert got.ids == want.ids and got.data == want.data
            assert got.src == src  # stamped at materialisation

    @settings(max_examples=25, deadline=None)
    @given(sends=send_lists(max_size=12))
    def test_materialize_is_at_most_once_and_metered(self, sends):
        batch = columnar(sends)
        before = materialized_total()
        built = [batch.materialize(i) for i in range(len(batch))]
        assert materialized_total() - before == len(sends)
        for i, message in enumerate(built):
            assert batch.materialize(i) is message  # cached, not re-counted
        assert materialized_total() - before == len(sends)

    @settings(max_examples=25, deadline=None)
    @given(sends=send_lists(max_size=20), data=st.data())
    def test_gather_and_builder_append_agree_with_python_indexing(
        self, sends, data
    ):
        batch = columnar(sends)
        batch.ensure_words(16)
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(len(sends) - 1, 0)),
                max_size=10,
            )
            if sends
            else st.just([])
        )
        sub = batch.gather(indices)
        rebuilt = ColumnarRoundBatch.builder()
        for j in indices:
            rebuilt.append_from(batch, j)
        for out in (sub, rebuilt):
            for slot, j in enumerate(indices):
                want = batch.materialize(j)
                got = out.materialize(slot)
                assert (got.kind, got.ids, got.data, got.src) == (
                    want.kind,
                    want.ids,
                    want.data,
                    want.src,
                )
                assert out.words[slot] == batch.words[j]


# --------------------------------------------------------------------- #
# ColumnarInbox laziness                                                #
# --------------------------------------------------------------------- #


class TestColumnarInbox:
    def _batch(self):
        sends = [
            (0, 9, msg("a", ids=(1,), data=(2,))),
            (1, 9, msg("b", data=(1 << 80,))),
            (2, 9, msg("a", data=())),
        ]
        return sends, columnar(sends)

    def test_len_and_bool_do_not_materialize(self):
        _, batch = self._batch()
        before = materialized_total()
        box = ColumnarInbox(batch, range(3))
        assert len(box) == 3 and bool(box)
        assert not ColumnarInbox(batch, [])
        assert materialized_total() == before

    def test_iteration_forces_and_equals_message_list(self):
        sends, batch = self._batch()
        box = ColumnarInbox(batch, range(3))
        want = [m.with_src(s) for s, _, m in sends]
        assert list(box) == want
        assert box == want and box == ColumnarInbox(batch, range(3))
        assert box[1] == want[1]
        assert box != want[:2]

    def test_concatenation_with_lists(self):
        sends, batch = self._batch()
        box = ColumnarInbox(batch, [0, 2])
        want = [sends[0][2].with_src(0), sends[2][2].with_src(2)]
        extra = [msg("z").with_src(7)]
        assert box + extra == want + extra
        assert extra + box == extra + want
        assert box + ColumnarInbox(batch, [1]) == want + [
            sends[1][2].with_src(1)
        ]

    def test_kind_views_group_without_forcing(self):
        sends, batch = self._batch()
        box = ColumnarInbox(batch, range(3))
        before = materialized_total()
        views = box.kind_views()
        assert set(views) == {"a", "b"}
        assert len(views["a"]) == 2 and len(views["b"]) == 1
        assert materialized_total() == before  # grouping is index-only
        assert list(views["a"]) == [
            sends[0][2].with_src(0),
            sends[2][2].with_src(2),
        ]

    def test_stayed_columnar_accounting(self):
        from repro.ncc.wire import note_delivered_columnar

        _, batch = self._batch()
        base = materialization_counts()
        note_delivered_columnar(3)
        counts = materialization_counts()
        assert (
            counts["messages_stayed_columnar"]
            - base["messages_stayed_columnar"]
            == 3
        )
        list(ColumnarInbox(batch, range(3)))  # forcing reclaims the credit
        counts = materialization_counts()
        assert (
            counts["messages_stayed_columnar"]
            == base["messages_stayed_columnar"]
        )


# --------------------------------------------------------------------- #
# The sharded engine ships columns end to end                           #
# --------------------------------------------------------------------- #


def _net(engine: str, enforcement, shards=None, **overrides) -> Network:
    kwargs = {
        "engine": engine,
        "seed": 3,
        "variant": Variant.NCC1,
        "random_ids": False,
        "enforcement": enforcement,
        **overrides,
    }
    if shards is not None:
        kwargs["engine_shards"] = shards
    return Network(12, NCCConfig(**kwargs))


def _outcome(net: Network, sends, rounds: int = 3):
    """Deliver ``sends`` then drain; normalise inboxes for comparison."""
    out = []
    for r in range(rounds):
        plan = net.plan()
        if r == 0:
            for src, dst, message in sends:
                plan.send(src, dst, message)
        try:
            inboxes = net.deliver(plan)
        except NCCError as exc:
            out.append(("err", type(exc).__name__, str(exc)))
            break
        out.append(sorted((d, list(b)) for d, b in inboxes.items()))
    return out, net.stats()


class TestShardedColumnTransport:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_ships_columns_without_sender_side_objects(self, shards):
        sends = [
            (src, dst, msg("ping", ids=(src,), data=(src * dst, 1 << 70)))
            for src in range(1, 13)
            for dst in (1, src % 12 + 1, (src + 4) % 12 + 1)
            if dst != src
        ]
        net = _net("sharded", EnforcementMode.DEFER, shards=shards)
        try:
            col = _outcome(net, sends)
            stats = net.engine_stats()
            assert stats["worker_messages_materialized"] == 0
        finally:
            net.engine.close()
        ref = _outcome(_net("reference", EnforcementMode.DEFER), sends)
        assert col == ref

    @pytest.mark.parametrize(
        "mode", [EnforcementMode.STRICT, EnforcementMode.DEFER]
    )
    @settings(max_examples=15, deadline=None)
    @given(sends=send_lists(max_node=12, max_size=25))
    def test_random_sends_match_reference(self, mode, sends):
        """Every payload scalar type, multi-word ints included, crosses
        the column transport reference-exact."""
        # Self-sends fail the gating check before any column is built,
        # and at the default 6-word budget most floats and strings
        # would too; drop the former and widen the budget so the
        # examples reach delivery.
        sends = [s for s in sends if s[0] != s[1]]
        net = _net("sharded", mode, shards=2, max_words=24)
        try:
            col = _outcome(net, sends)
        finally:
            net.engine.close()
        assert col == _outcome(_net("reference", mode, max_words=24), sends)

    def test_untouched_inboxes_stay_columnar(self):
        """Every delivered entry is metered as columnar until read, and
        taking one kind at one node builds exactly those messages."""
        net = _net("sharded", EnforcementMode.STRICT, shards=2)
        try:
            plan = net.plan()
            for src in range(1, 13):
                plan.send(src, src % 12 + 1, msg("ping", data=(src,)))
                plan.send(src, (src + 4) % 12 + 1, msg("agg", data=(src,)))
            base = materialization_counts()
            inboxes = net.deliver(plan)
            after = materialization_counts()
            assert net.messages_delivered == 24
            assert after["messages_materialized"] == base["messages_materialized"]
            assert (
                after["messages_stayed_columnar"]
                - base["messages_stayed_columnar"]
                == 24
            )
            taken = list(take(InboxView(inboxes), 1, "ping"))
            assert taken == [msg("ping", data=(12,)).with_src(12)]
            after = materialization_counts()
            assert (
                after["messages_materialized"] - base["messages_materialized"]
                == 1
            )
            assert (
                after["messages_stayed_columnar"]
                - base["messages_stayed_columnar"]
                == 23
            )
        finally:
            net.engine.close()


# --------------------------------------------------------------------- #
# Word-cache eviction counter                                           #
# --------------------------------------------------------------------- #


class TestWordCacheEvictionCounter:
    def test_eviction_counter_reaches_engine_stats(self, monkeypatch):
        import repro.ncc.message as message_module
        from repro.ncc.engine import engine_counts

        int_cache, _ = message_module.word_caches(24)
        int_cache.clear()
        int_cache.update({i: 1 for i in range(12)})
        monkeypatch.setattr(message_module, "_WORD_CACHE_LIMIT", 8)
        before = word_cache_evictions(24)
        message_module.word_caches(24)
        evicted = word_cache_evictions(24) - before
        assert evicted == 8  # 12 entries trimmed to half the bound of 8
        assert engine_counts(24)["word_cache_evictions"] >= evicted
