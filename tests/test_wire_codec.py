"""The columnar wire codec: property-based round trips and invariants.

The sharded differential/cap-fuzz/determinism suites gate the codec
end-to-end (every cross-shard message now travels through it); this file
isolates the codec itself: fuzzed encode/decode round trips over every
wire shape (entry batches, grouped messages, id groups, routed entries
and grouped field tuples), payload *type* preservation (``True`` must
not come back as ``1``), the kind-interning guarantee, multi-word-int
payloads, and the empty-batch edges.
"""

from __future__ import annotations

import math
import pickle
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ncc import wire
from repro.ncc.message import Message, msg

INT64_MAX = 2**63 - 1

#: Node-id-shaped ints: the strict int64 domain of the id/meta columns.
ids_st = st.integers(min_value=0, max_value=INT64_MAX)

#: Payload scalars: everything the engines accept, including multi-word
#: ints far beyond int64 and the bool/float/str/None tags.  NaN is
#: excluded only because it defeats equality-based comparison; it gets
#: a dedicated test below.
scalar_st = st.one_of(
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)

message_st = st.builds(
    lambda kind, ids, data, src: Message(kind=kind, ids=ids, data=data, src=src),
    kind=st.sampled_from(["a:x", "b:y", "c:z", "spill", "agg:sum"]),
    ids=st.lists(ids_st, max_size=4).map(tuple),
    data=st.lists(scalar_st, max_size=4).map(tuple),
    src=st.integers(min_value=-1, max_value=INT64_MAX),
)

entry_st = st.tuples(ids_st, ids_st, ids_st, message_st)


def assert_messages_identical(got, expected):
    """Field equality plus payload *type* identity (True is not 1)."""
    assert got == expected
    for g, e in zip(got, expected):
        assert g.kind is sys.intern(e.kind)  # interning invariant
        assert all(type(a) is type(b) for a, b in zip(g.data, e.data))
        assert all(type(a) is int for a in g.ids)


class TestEntryBatches:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(entry_st, max_size=30))
    def test_round_trip_through_pickle(self, entries):
        # pickled like multiprocessing ships it over the pipe
        blob = pickle.loads(pickle.dumps(wire.encode_entries(entries), -1))
        decoded = wire.decode_entries(blob)
        assert decoded == entries
        assert_messages_identical(
            [m for *_, m in decoded], [m for *_, m in entries]
        )
        assert wire.entry_count(blob) == len(entries)
        assert list(wire.entry_receivers(blob)) == [b for _, b, _, _ in entries]

    def test_empty_batch(self):
        blob = wire.encode_entries([])
        assert wire.entry_count(blob) == 0
        assert wire.decode_entries(blob) == []
        assert wire.decode_entries(wire.encode_entries(iter(()))) == []

    def test_kind_table_is_deduplicated(self):
        entries = [
            (i, 1, 2, msg(kind)) for i, kind in
            enumerate(["a:x", "b:y", "a:x", "a:x", "b:y"])
        ]
        kinds, kind_idx = wire.encode_entries(entries)[3][:2]
        assert kinds == ("a:x", "b:y")  # each distinct kind once
        assert list(kind_idx) == [0, 1, 0, 0, 1]
        assert wire.decode_entries(wire.encode_entries(entries)) == entries

    def test_multi_word_ints_round_trip(self):
        entries = [(0, 1, 2, msg("k", data=(2**100, -(2**64), 3)))]
        decoded = wire.decode_entries(wire.encode_entries(entries))
        assert decoded == entries
        assert decoded[0][3].data[0] == 2**100

    def test_nan_payload_round_trips(self):
        entries = [(0, 1, 2, msg("k", data=(float("nan"),)))]
        (value,) = wire.decode_entries(wire.encode_entries(entries))[0][3].data
        assert type(value) is float and math.isnan(value)

    def test_nonscalar_payloads_still_transport(self):
        """The codec is total: junk the engines will *reject* during
        validation must still cross the boundary unchanged, so the
        violation fallback can replay it with reference-exact errors."""
        junk = ([1, 2], ("t", "u"))
        entries = [(0, 1, 2, msg("k", data=junk))]
        decoded = wire.decode_entries(wire.encode_entries(entries))
        assert decoded[0][3].data == junk


class TestGroupedMessages:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(ids_st, st.lists(message_st, max_size=6)), max_size=8))
    def test_round_trip(self, groups):
        decoded = wire.decode_grouped(
            pickle.loads(pickle.dumps(wire.encode_grouped(groups), -1))
        )
        assert decoded == [(key, list(ms)) for key, ms in groups]
        for (_, got), (_, expected) in zip(decoded, groups):
            assert_messages_identical(got, expected)

    def test_empty_groups_and_batch(self):
        assert wire.decode_grouped(wire.encode_grouped([])) == []
        groups = [(3, []), (9, [msg("k")])]
        assert wire.decode_grouped(wire.encode_grouped(groups)) == groups


class TestIdGroups:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(ids_st, st.lists(ids_st, max_size=8)), max_size=8))
    def test_round_trip(self, groups):
        decoded = wire.decode_id_groups(
            pickle.loads(pickle.dumps(wire.encode_id_groups(groups), -1))
        )
        assert [(key, list(ids)) for key, ids in decoded] == groups

    def test_oversize_ids_fall_back_to_boxed_groups(self):
        """Protocol-supplied message ids are not bounded by the node-ID
        universe; a group with an id beyond int64 must round-trip (the
        in-process engines accept such ids, so the sharded exchange
        must transport them too, not crash the worker)."""
        groups = [
            (1, [4, 5]),
            (2, [3, 2**70, 7]),  # oversize id
            (3, []),
            (4, [2**64]),
            (2**70, [8, 9]),  # oversize key (n^c outgrows int64)
            (5, ["weird-id", 6]),  # non-int id (knowledge accepts hashables)
            (6, [True, 2]),  # bool id: array('q') would coerce True -> 1
        ]
        decoded = wire.decode_id_groups(
            pickle.loads(pickle.dumps(wire.encode_id_groups(groups), -1))
        )
        assert [(key, list(ids)) for key, ids in decoded] == [
            (key, list(ids)) for key, ids in groups
        ]
        # Exact id types survive (True must not come back as 1).
        assert [type(i) for i in decoded[6][1]] == [bool, int]

    def test_one_shot_iterators_are_materialized(self):
        decoded = wire.decode_id_groups(
            wire.encode_id_groups([(5, iter([1, 2, 3])), (6, iter([True]))])
        )
        assert [(key, list(ids)) for key, ids in decoded] == [
            (5, [1, 2, 3]), (6, [True])
        ]
        assert type(decoded[1][1][0]) is bool

    def test_sets_encode_and_feed_set_update(self):
        blob = wire.encode_id_groups([(1, {4, 5, 6}), (2, ())])
        decoded = wire.decode_id_groups(blob)
        assert [key for key, _ in decoded] == [1, 2]
        assert set(decoded[0][1]) == {4, 5, 6}
        target: set = {9}
        target.update(decoded[0][1])  # array slices feed set.update
        assert target == {4, 5, 6, 9}
        assert list(decoded[1][1]) == []


class TestRoutedEntries:
    """The sharded parent's stage-direction shape: a plan-index column
    plus a batch in wire form that ``ColumnarRoundBatch.from_wire``
    rebuilds on the worker side."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(entry_st, min_size=1, max_size=30))
    def test_round_trip_through_pickle(self, entries):
        routed = pickle.loads(
            pickle.dumps(wire.encode_routed_entries(entries), -1)
        )
        assert wire.routed_count(routed) == len(entries)
        assert list(routed[0]) == [e[0] for e in entries]
        assert list(wire.routed_receivers(routed)) == [e[2] for e in entries]
        batch = wire.ColumnarRoundBatch.from_wire(routed[1])
        assert batch.srcs == [e[1] for e in entries]
        assert batch.dsts == [e[2] for e in entries]
        # Materialised entries carry the routed sender, not the
        # message's own src field: the parent stamps it on delivery.
        assert_messages_identical(
            [batch.materialize(i) for i in range(len(batch))],
            [m.with_src(src) for _, src, _, m in entries],
        )

    def test_empty_batch(self):
        routed = wire.encode_routed_entries([])
        assert wire.routed_count(routed) == 0
        assert routed[1] is None  # nothing to rebuild on the worker

    def test_kind_table_is_deduplicated(self):
        entries = [
            (i, 1, 2, msg(kind)) for i, kind in
            enumerate(["a:x", "b:y", "a:x", "b:y", "b:y"])
        ]
        kinds, kind_idx = wire.encode_routed_entries(entries)[1][:2]
        assert kinds == ("a:x", "b:y")
        assert list(kind_idx) == [0, 1, 0, 1, 1]


fields_st = message_st.map(lambda m: (m.kind, m.ids, m.data, m.src))
field_groups_st = st.lists(
    st.tuples(ids_st, st.lists(fields_st, max_size=6)), max_size=8
)


class TestGroupedFields:
    """The sharded workers' field-tuple twin of the grouped shape."""

    @settings(max_examples=40, deadline=None)
    @given(field_groups_st)
    def test_round_trip(self, groups):
        decoded = wire.decode_grouped_fields(
            pickle.loads(pickle.dumps(wire.encode_grouped_fields(groups), -1))
        )
        assert decoded == [(key, list(fields)) for key, fields in groups]
        for (_, got), (_, expected) in zip(decoded, groups):
            assert_messages_identical(
                [Message(*f) for f in got], [Message(*f) for f in expected]
            )

    def test_empty_groups_and_batch(self):
        assert wire.decode_grouped_fields(wire.encode_grouped_fields([])) == []
        groups = [(3, []), (9, [("k", (), (), 4)])]
        assert wire.decode_grouped_fields(
            wire.encode_grouped_fields(groups)
        ) == groups

    @settings(max_examples=40, deadline=None)
    @given(field_groups_st)
    def test_blob_is_shared_with_grouped_messages(self, groups):
        """Either decoder reads either encoder's blob: workers write
        field tuples that the parent decodes as messages, and back."""
        as_messages = [
            (key, [Message(*f) for f in fields]) for key, fields in groups
        ]
        decoded = wire.decode_grouped(wire.encode_grouped_fields(groups))
        assert decoded == as_messages
        for (_, got), (_, expected) in zip(decoded, as_messages):
            assert_messages_identical(got, expected)
        assert wire.decode_grouped_fields(
            wire.encode_grouped(as_messages)
        ) == [(key, list(fields)) for key, fields in groups]
