"""Columnar wire codec for cross-process message transport.

The NCC model charges every message as ``O(log n)``-bit words, but the
multiprocess layers were shipping each one as a pickled ``Message``
object: per-object class dispatch, memo-table traffic and a fresh
instance rebuild through the pickle machinery on the far side.  PR 4's
profile showed that pickling tax dwarfing the validation work the shards
parallelise.  This module replaces the per-object encoding with a
*columnar* (struct-of-arrays) one — a batch of messages travels as one
column per field:

* an interned **kind table** (each distinct protocol tag once per batch)
  plus a per-message index column — decoding re-interns the table once,
  so every decoded message satisfies the ``msg()`` interning invariant
  the engines rely on, which the pickle path had to repair by hand after
  every exchange;
* a **src column** and three ``int64`` **meta columns** for the entry
  shapes (plan index / sender / receiver / word count, depending on the
  path);
* ragged **id and data columns**: one small tuple per message, pickled
  natively (ints of any width, floats, bools, ``None`` and short strings
  are all primitive pickle types, so payload *types* round-trip exactly
  with no per-slot tagging).

``multiprocessing`` still pickles the blob, but a column set is a
handful of flat containers instead of a per-message object walk, and
decoding rebuilds each message with a plain dict fill (no pickle
protocol, no ``__init__``).  Decode materialises one independent
``Message`` per entry: object *aliasing* across entries is not
preserved (pickle's memo table preserved it), which is outside the plan
contract anyway — a message submitted to a plan is engine-owned and
protocols build one fresh ``msg()`` per send — and on such
contract-violating plans the decoded behaviour matches the reference
engine (per-send ``src``), not the fast engine's in-place stamping.

**Measured, not assumed.**  A flat ``array('q')``-with-offsets layout
for the id/data columns (plus a tagged scalar column for non-int
payloads) was prototyped first and *lost* to this ragged layout at real
batch sizes — cross-shard rounds average tens of messages, where the
per-batch array construction and the per-element boxing that decode
pays anyway (``Message`` fields are tuples of Python ints) outweigh the
memcpy pickling of a dense column.  Dense ``array('q')`` columns are
kept where they do win: the id-group shape below, whose knowledge
resyncs ship thousands of bare ints that feed ``set()`` without ever
materialising tuples.  ``benchmarks/bench_multiprocess.py`` races the
shipped codec against per-object pickle on captured round batches and
records the ratio (``transport_codec.speedup_vs_pickle``).

The sharded engine also keeps rounds columnar *in memory*
(:class:`ColumnarRoundBatch` / :class:`ColumnarInbox` below): its
workers validate, relay and merge rounds as column passes, and the
inboxes it returns build ``Message`` objects lazily, only when protocol
code touches an entry.  The wire shapes and the in-memory batch share
columns, so crossing a process boundary is a densify/un-box pass, not a
decode/re-encode.

Three grouped shapes cover the remaining process boundaries:

* **entry batches** (:func:`encode_entries` / :func:`decode_entries`):
  three int meta columns + message columns, for the sharded engine's
  routed sends ``(plan_idx, src, dst, message)`` and staged relays
  ``(plan_idx, dst, words, message)``.  The receiver meta column of a
  staged-relay blob is readable without decoding
  (:func:`entry_receivers`) — the parent's strict-mode arrival count
  never materialises a message.
* **grouped messages** (:func:`encode_grouped` / :func:`decode_grouped`):
  ``(key, [messages])`` groups, for returned inboxes, defer-mode spills
  and backlog resyncs.
* **id groups** (:func:`encode_id_groups` / :func:`decode_id_groups`):
  ``(key, ids)`` groups as dense ``array('q')`` columns with offsets,
  for knowledge gains and replica resyncs; a group whose
  protocol-supplied ids exceed ``int64`` (or are not ints at all —
  knowledge sets accept any hashable) falls back to a boxed side
  table, so exotic payload ids transport exactly like the in-process
  engines accept them.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ncc.message import Message, _scalar_words, word_caches

#: The empty message-column set (shared; decode short-circuits on it).
_EMPTY_COLS = ((), (), (), (), ())


def _int_column(values):
    """``values`` as a dense ``array('q')``, or the list itself when the
    dense form would lie.

    Dense columns win on the wire (memcpy pickling), but ``array('q')``
    overflows past ``int64`` and silently coerces exact int *subclasses*
    (``bool``, ``IntEnum``) to plain ints — and exact types must survive
    the boundary (same idiom as :func:`encode_id_groups`).  Such columns
    fall back to the plain list, which pickles element-wise but stays
    bit-exact.
    """
    if not values:
        return ()
    try:
        col = array("q", values)
    except (OverflowError, TypeError):
        return list(values)
    # map/set keep the exact-type purity check at C speed.
    if set(map(type, values)) != {int}:
        return list(values)
    return col


def _encode_messages(messages) -> tuple:
    """The shared message columns of every wire shape.

    ``dict.setdefault`` with ``len(kind_of)`` as the default builds the
    interned-kind index in one comprehension: the first occurrence of a
    kind claims the next table slot, repeats reuse it.
    """
    if not messages:
        return _EMPTY_COLS
    kind_of: dict = {}
    setdefault = kind_of.setdefault
    kind_idx = [setdefault(m.kind, len(kind_of)) for m in messages]
    return (
        tuple(kind_of),  # the kind table, in first-occurrence order
        kind_idx,
        [m.src for m in messages],
        [m.ids for m in messages],
        [m.data for m in messages],
    )


def _decode_messages(cols: tuple) -> List[Message]:
    """Rebuild the message objects of one column set.

    Kinds are re-interned here (once per table entry, not per message);
    each message is a ``Message.__new__`` plus a plain dict fill — the
    frozen-dataclass ``__init__``/``__setattr__`` machinery and the
    pickle object protocol are both skipped.
    """
    kinds, kind_idx, srcs, ids_list, data_list = cols
    if not kind_idx:
        return []
    table = [sys.intern(kind) for kind in kinds]
    new = Message.__new__
    messages: List[Message] = []
    append = messages.append
    for ki, src, ids, data in zip(kind_idx, srcs, ids_list, data_list):
        message = new(Message)
        inner = message.__dict__  # frozen dataclass: fill, don't setattr
        inner["kind"] = table[ki]
        inner["ids"] = ids
        inner["data"] = data
        inner["src"] = src
        append(message)
    return messages


# ---------------------------------------------------------------------- #
# Entry batches: three int meta columns + message columns                #
# ---------------------------------------------------------------------- #


def encode_entries(entries: Iterable[Tuple[int, int, int, Message]]) -> tuple:
    """Encode ``(a, b, c, message)`` entries column-wise.

    The meta columns are layout-agnostic ints; the sharded engine uses
    ``(plan_idx, src, dst, ·)`` for routed sends and
    ``(plan_idx, dst, words, ·)`` for staged relays.
    """
    if not isinstance(entries, (list, tuple)):
        entries = list(entries)
    if not entries:
        return ((), (), (), _EMPTY_COLS)
    col_a, col_b, col_c, messages = zip(*entries)
    return (col_a, col_b, col_c, _encode_messages(messages))


def decode_entries(blob: tuple) -> List[Tuple[int, int, int, Message]]:
    """Rebuild the ``(a, b, c, message)`` entry tuples of one blob."""
    col_a, col_b, col_c, cols = blob
    return list(zip(col_a, col_b, col_c, _decode_messages(cols)))


def entry_count(blob: tuple) -> int:
    """Number of entries in a blob, without decoding it."""
    return len(blob[0])


def entry_receivers(blob: tuple) -> tuple:
    """The ``b`` meta column — the receiver IDs of a staged-relay blob.

    Readable without materialising a single message: the sharded
    parent's strict-mode arrival count iterates this raw column.
    """
    return blob[1]


# ---------------------------------------------------------------------- #
# Grouped messages: (key, [messages]) groups                             #
# ---------------------------------------------------------------------- #


def encode_grouped(groups: Iterable[Tuple[int, Iterable[Message]]]) -> tuple:
    """Encode ``(key, messages)`` groups (inboxes, spills, backlogs)."""
    keys: List[int] = []
    key_append = keys.append
    offsets: List[int] = [0]
    offset_append = offsets.append
    messages: List[Message] = []
    extend = messages.extend
    for key, group in groups:
        key_append(key)
        extend(group)
        offset_append(len(messages))
    return (keys, offsets, _encode_messages(messages))


def decode_grouped(blob: tuple) -> List[Tuple[int, List[Message]]]:
    """Rebuild ``(key, [messages])`` groups in their encoded order."""
    keys, offsets, cols = blob
    messages = _decode_messages(cols)
    return [
        (key, messages[offsets[i] : offsets[i + 1]])
        for i, key in enumerate(keys)
    ]


# ---------------------------------------------------------------------- #
# Id groups: (key, ids) groups as dense int64 columns                    #
# ---------------------------------------------------------------------- #


def encode_id_groups(groups: Iterable[Tuple[int, Iterable[int]]]) -> tuple:
    """Encode ``(key, ids)`` groups (knowledge gains, replica resyncs).

    Dense ``array('q')`` columns with offsets: a knowledge resync ships
    thousands of bare ints that the receiver pours straight into
    ``set()``, so here the memcpy pickling of a flat array wins.  Keys
    are simulator node IDs (bounded by the ID universe), but the *ids*
    are protocol-supplied — ``Message.ids`` payloads are not bounded by
    the universe, and a receiver legitimately "learns" whatever they
    carry — so a group whose ids overflow ``int64`` falls back to a
    boxed side table instead of crashing the exchange (the in-process
    engines accept such ids, and the sharded engine must stay
    bit-identical to them).
    """
    keys = array("q")
    key_append = keys.append
    offsets = array("q", (0,))
    offset_append = offsets.append
    flat = array("q")
    extend = flat.extend
    oversize = None  # group index -> (key, tuple(ids)); the boxed fallback
    for key, ids in groups:
        # The fallbacks below re-iterate ids (purity check, boxed
        # tuple); a one-shot iterator would silently encode empty, so
        # materialise anything that isn't a re-iterable container.
        if type(ids) not in (tuple, list, set, frozenset):
            ids = tuple(ids)
        try:
            key_append(key)
        except (OverflowError, TypeError):
            # Keys are node IDs from [1, n^c], but n^c outgrows int64
            # for n beyond ~2 million at the default exponent: box the
            # whole group (a 0 placeholder keeps the columns aligned).
            key_append(0)
            if oversize is None:
                oversize = {}
            oversize[len(keys) - 1] = (key, tuple(ids))
            offset_append(len(flat))
            continue
        try:
            extend(ids)
        except (OverflowError, TypeError):
            # Beyond int64, or not an int at all (the in-process
            # engines accept any hashable id — knowledge is a plain
            # set): box the group instead of crashing the exchange.
            del flat[offsets[-1] :]  # drop the partial extend
            if oversize is None:
                oversize = {}
            oversize[len(keys) - 1] = (key, tuple(ids))
        else:
            # array('q') silently coerces int *subclasses* (bool,
            # IntEnum) to plain ints; exact types must survive the
            # boundary, so such groups take the box too.  map/set keep
            # the purity check at C speed.
            if ids and set(map(type, ids)) != {int}:
                del flat[offsets[-1] :]
                if oversize is None:
                    oversize = {}
                oversize[len(keys) - 1] = (key, tuple(ids))
        offset_append(len(flat))
    return (keys, offsets, flat, oversize)


def decode_id_groups(blob: tuple) -> List[Tuple[int, Iterable[int]]]:
    """Rebuild ``(key, ids)`` groups; ids come back as ``array('q')``
    slices (iterable of ints — feed them to ``set.update`` / ``set()``
    directly), or as the original tuples for boxed oversize groups."""
    keys, offsets, flat, oversize = blob
    out = [
        (key, flat[offsets[i] : offsets[i + 1]]) for i, key in enumerate(keys)
    ]
    if oversize:
        for i, boxed in oversize.items():
            out[i] = boxed
    return out


# ---------------------------------------------------------------------- #
# The sharded engine's columnar round batch                              #
# ---------------------------------------------------------------------- #
#
# The struct-of-arrays layout wins on the wire; the batch below also
# holds a round *in memory* on both sides of the sharded engine's
# process boundary.  Its workers stage, relay and merge these columns
# end to end without constructing a message — send caps are counting
# passes over the src column, word accounting one pass over the payload
# columns — and the parent serves the returned inboxes as column slices
# (:class:`ColumnarInbox`) that materialise ``Message`` objects lazily,
# only when protocol code actually touches one.
#
# **In memory: lists.  On the wire: arrays.**  ``array('q')`` iteration
# boxes a fresh int per element, so the workers' hottest loops iterate
# plain lists (ints boxed once at build); :meth:`ColumnarRoundBatch.
# to_wire` densifies the int columns (``_int_column``) at the process
# boundary, where the memcpy pickling is the win, and ``from_wire``
# un-boxes them back to lists in one C pass.

#: Process-wide lazy-materialisation meters (monotone, like the word
#: caches; only the sharded engine's batches move them).
#:
#: * ``materialized`` — ``Message`` objects built from columns;
#: * ``inbox_materialized`` — the subset built because an inbox slice
#:   was actually touched by protocol/test code;
#: * ``delivered_columnar`` — entries the sharded parent delivered as
#:   column slices.
_COLUMNAR_COUNTS: Dict[str, int] = {
    "materialized": 0,
    "inbox_materialized": 0,
    "delivered_columnar": 0,
}


def note_delivered_columnar(count: int) -> None:
    """Meter ``count`` entries delivered as column slices (no objects)."""
    _COLUMNAR_COUNTS["delivered_columnar"] += count


def materialized_total() -> int:
    """Messages materialised from columns so far, process-wide."""
    return _COLUMNAR_COUNTS["materialized"]


def materialization_counts() -> Dict[str, int]:
    """The lazy-materialisation scoreboard (process-wide, monotone).

    ``messages_materialized`` counts every ``Message`` built from
    columns; ``messages_stayed_columnar`` counts entries delivered as
    column slices whose inbox was never touched — the objects the lazy
    representation never had to build.
    """
    counts = _COLUMNAR_COUNTS
    return {
        "messages_materialized": counts["materialized"],
        "messages_stayed_columnar": (
            counts["delivered_columnar"] - counts["inbox_materialized"]
        ),
    }


class ColumnarRoundBatch:
    """One round's sends as columns — the sharded engine's transport and
    in-memory form.

    No ``Message`` objects back a batch: ``kinds`` is the interned kind
    table and ``kind_idx`` indexes it per entry.  :meth:`materialize`
    builds an entry's object on first touch via the same
    ``Message.__new__`` + dict fill as :func:`_decode_messages`, so the
    ``msg()`` kind-identity invariant holds by construction.

    ``words`` is filled by :meth:`ensure_words` (one pass over the
    payload columns, memoized through the shared word caches) and rides
    the wire with the batch, so a relayed column is never re-sized.
    """

    __slots__ = (
        "kinds",
        "kind_idx",
        "srcs",
        "dsts",
        "ids",
        "data",
        "words",
        "words_ok",
        "_built",
        "_kind_slot",
    )

    def __init__(self, kinds, kind_idx, srcs, dsts, ids, data, words=None) -> None:
        self.kinds = kinds
        self.kind_idx = kind_idx
        self.srcs = srcs
        self.dsts = dsts
        self.ids = ids
        self.data = data
        self.words = words
        self.words_ok = True
        self._built: Optional[list] = None
        self._kind_slot: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.srcs)

    # -- construction ------------------------------------------------ #

    @classmethod
    def builder(cls) -> "ColumnarRoundBatch":
        """An empty batch for incremental column appends
        (the sharded workers' merge path).  ``dsts`` stays empty — a
        result batch is keyed by its grouping, not a receiver column."""
        batch = cls([], [], [], [], [], [], words=[])
        batch._kind_slot = {}
        return batch

    def append_fields(self, kind, ids, data, src, word) -> None:
        """Append one entry by fields (no ``Message`` construction)."""
        slot = self._kind_slot
        ki = slot.get(kind)
        if ki is None:
            ki = slot[kind] = len(slot)
            self.kinds.append(kind)  # keep the live table materialisable
        self.kind_idx.append(ki)
        self.srcs.append(src)
        self.ids.append(ids)
        self.data.append(data)
        self.words.append(word)

    def append_from(self, other: "ColumnarRoundBatch", j: int) -> None:
        """Append ``other``'s entry ``j`` by copying column cells."""
        self.append_fields(
            other.kinds[other.kind_idx[j]],
            other.ids[j],
            other.data[j],
            other.srcs[j],
            other.words[j],
        )

    def gather(self, indices) -> "ColumnarRoundBatch":
        """A sub-batch of ``indices`` (shares the kind table)."""
        ki = self.kind_idx
        srcs = self.srcs
        dsts = self.dsts
        ids = self.ids
        data = self.data
        words = self.words
        return ColumnarRoundBatch(
            self.kinds,
            [ki[i] for i in indices],
            [srcs[i] for i in indices],
            [dsts[i] for i in indices],
            [ids[i] for i in indices],
            [data[i] for i in indices],
            [words[i] for i in indices] if words is not None else None,
        )

    # -- the wire boundary ------------------------------------------- #

    def to_wire(self) -> tuple:
        """Densify for the process boundary (int columns -> arrays)."""
        kinds = self.kinds if self._kind_slot is None else tuple(self._kind_slot)
        words = self.words
        return (
            kinds,
            _int_column(self.kind_idx),
            _int_column(self.srcs),
            _int_column(self.dsts),
            self.ids,
            self.data,
            None if words is None else _int_column(words),
        )

    @classmethod
    def from_wire(cls, blob: tuple) -> "ColumnarRoundBatch":
        """Rebuild a batch; kinds re-intern once per table
        entry, int columns un-box back to lists in one C pass."""
        kinds, kind_idx, srcs, dsts, ids, data, words = blob
        return cls(
            tuple(map(sys.intern, kinds)),
            kind_idx if type(kind_idx) is list else list(kind_idx),
            srcs if type(srcs) is list else list(srcs),
            dsts if type(dsts) is list else list(dsts),
            ids if type(ids) is list else list(ids),
            data if type(data) is list else list(data),
            None
            if words is None
            else (words if type(words) is list else list(words)),
        )

    # -- word accounting --------------------------------------------- #

    def ensure_words(self, word_bits: int) -> Tuple[list, bool]:
        """The per-entry word column (computed once, then cached on the
        batch and shipped with it).

        Returns ``(words, ok)``; ``ok`` is ``False`` when some payload
        is not a scalar — the engines treat that as a violation and let
        the reference replay raise the canonical ``TypeError``.
        """
        words = self.words
        if words is not None:
            return words, self.words_ok
        int_cache, scalar_cache = word_caches(word_bits)
        int_get = int_cache.get
        scalar_get = scalar_cache.get
        out: list = []
        append = out.append
        ok = True
        ids_col = self.ids
        i = 0
        for data in self.data:
            total = len(ids_col[i])
            i += 1
            if data:
                try:
                    for value in data:
                        # Inlined copy of scalar_words_cached's dispatch
                        # — keep in lockstep (repro/ncc/message.py).
                        cls = value.__class__
                        if cls is int:
                            scalar = int_get(value)
                            if scalar is None:
                                scalar = _scalar_words(value, word_bits)
                                int_cache[value] = scalar
                        elif cls is float or cls is bool or value is None:
                            scalar = 1
                        else:
                            key = (cls, value)
                            scalar = scalar_get(key)
                            if scalar is None:
                                scalar = _scalar_words(value, word_bits)
                                scalar_cache[key] = scalar
                        total += scalar
                except TypeError:
                    ok = False
                    append(0)
                    continue
            append(total)
        self.words = out
        self.words_ok = ok
        return out, ok

    # -- materialisation --------------------------------------------- #

    def materialize(self, i: int) -> Message:
        """The entry-``i`` ``Message``, built at most once per entry via
        ``Message.__new__`` + dict fill; each construction is metered."""
        built = self._built
        if built is None:
            built = self._built = [None] * len(self.srcs)
        message = built[i]
        if message is not None:
            return message
        message = Message.__new__(Message)
        inner = message.__dict__
        inner["kind"] = self.kinds[self.kind_idx[i]]
        inner["ids"] = self.ids[i]
        inner["data"] = self.data[i]
        inner["src"] = self.srcs[i]
        built[i] = message
        _COLUMNAR_COUNTS["materialized"] += 1
        return message


class ColumnarInbox:
    """One receiver's inbox as a lazy column slice.

    List-like for everything protocol code does with an inbox —
    ``len``/truth (no materialisation), iteration, indexing, equality
    against plain lists, concatenation — but the backing ``Message``
    objects are built only when the box is actually touched.  The forced
    form is cached, and entry construction is at-most-once *per batch*
    (sub-views share the batch's build cache), so identity is stable
    across repeated touches.
    """

    __slots__ = ("_batch", "_indices", "_forced")

    def __init__(self, batch: ColumnarRoundBatch, indices) -> None:
        self._batch = batch
        self._indices = indices
        self._forced: Optional[list] = None

    def _force(self) -> list:
        forced = self._forced
        if forced is None:
            counts = _COLUMNAR_COUNTS
            before = counts["materialized"]
            materialize = self._batch.materialize
            forced = self._forced = [materialize(i) for i in self._indices]
            counts["inbox_materialized"] += counts["materialized"] - before
        return forced

    def __len__(self) -> int:
        return len(self._indices)

    def __bool__(self) -> bool:
        return len(self._indices) > 0

    def __iter__(self):
        return iter(self._force())

    def __getitem__(self, item):
        return self._force()[item]

    def __eq__(self, other):
        if isinstance(other, ColumnarInbox):
            return self._force() == other._force()
        if isinstance(other, list):
            return self._force() == other
        return NotImplemented

    __hash__ = None  # mutable container semantics, like list

    def __add__(self, other):
        if isinstance(other, ColumnarInbox):
            return self._force() + other._force()
        if isinstance(other, list):
            return self._force() + other
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, list):
            return other + self._force()
        return NotImplemented

    def kind_views(self) -> Dict[str, "ColumnarInbox"]:
        """This box split by kind into lazy sub-views (preserving order).

        The per-kind grouping is pure int/identity work on the kind
        columns — no entry materialises until one *kind's* view is
        touched, which is how ``InboxView.take`` keeps untaken kinds
        columnar.
        """
        batch = self._batch
        kinds = batch.kinds
        kind_idx = batch.kind_idx
        index: Dict[str, ColumnarInbox] = {}
        index_get = index.get
        for i in self._indices:
            kind = kinds[kind_idx[i]]
            sub = index_get(kind)
            if sub is None:
                index[kind] = ColumnarInbox(batch, [i])
            else:
                sub._indices.append(i)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "forced" if self._forced is not None else "columnar"
        return f"ColumnarInbox({len(self._indices)} messages, {state})"


# ---------------------------------------------------------------------- #
# Routed batches: (plan_idx column, batch wire form)                     #
# ---------------------------------------------------------------------- #
#
# The sharded engine's transport shape: a routed slice of a round is the
# receiver-merge-ready pair of a plan-index column and a batch in wire
# form.  The parent routes with it (stage direction) and workers relay
# with it (exchange direction) — both sides gather/validate columns,
# neither constructs a message.


def encode_routed_entries(entries) -> tuple:
    """Columnarise routed ``(plan_idx, src, dst, message)`` entries.

    The parent's stage-direction encoder: reads message attributes into
    columns (no construction, no copy of the payload tuples).
    """
    if not entries:
        return ((), None)
    kind_of: dict = {}
    setdefault = kind_of.setdefault
    kind_idx = [setdefault(m.kind, len(kind_of)) for _, _, _, m in entries]
    return (
        tuple(e[0] for e in entries),
        (
            tuple(kind_of),
            _int_column(kind_idx),
            _int_column([e[1] for e in entries]),
            _int_column([e[2] for e in entries]),
            [m.ids for _, _, _, m in entries],
            [m.data for _, _, _, m in entries],
            None,
        ),
    )


def routed_count(routed: tuple) -> int:
    """Number of entries in a routed blob, without decoding it."""
    return len(routed[0])


def routed_receivers(routed: tuple) -> tuple:
    """The raw receiver column of a routed blob — the parent's
    strict-mode arrival count reads it without materialising anything."""
    return routed[1][3]


# ---------------------------------------------------------------------- #
# Grouped field tuples: (key, [(kind, ids, data, src)]) groups           #
# ---------------------------------------------------------------------- #
#
# The field-tuple twins of encode_grouped/decode_grouped, sharing the
# *same blob shape*: the sharded workers hold backlogs and spills as
# field tuples (never objects), so their side of the boundary reads and
# writes fields while the parent keeps using encode_grouped (its mirror
# holds real messages) — either decoder accepts either encoder's blob.


def encode_grouped_fields(groups) -> tuple:
    """Encode ``(key, [(kind, ids, data, src), ...])`` groups."""
    keys: List[int] = []
    offsets: List[int] = [0]
    kind_of: dict = {}
    setdefault = kind_of.setdefault
    kind_idx: List[int] = []
    srcs: List[int] = []
    ids_col: list = []
    data_col: list = []
    for key, entries in groups:
        keys.append(key)
        for kind, ids, data, src in entries:
            kind_idx.append(setdefault(kind, len(kind_of)))
            srcs.append(src)
            ids_col.append(ids)
            data_col.append(data)
        offsets.append(len(kind_idx))
    cols = (
        (tuple(kind_of), kind_idx, srcs, ids_col, data_col)
        if kind_idx
        else _EMPTY_COLS
    )
    return (keys, offsets, cols)


def decode_grouped_fields(blob: tuple):
    """Rebuild ``(key, [(kind, ids, data, src), ...])`` groups — field
    tuples only, no ``Message`` construction (kinds re-interned)."""
    keys, offsets, cols = blob
    kinds, kind_idx, srcs, ids_list, data_list = cols
    table = [sys.intern(kind) for kind in kinds]
    fields = [
        (table[ki], ids, data, src)
        for ki, src, ids, data in zip(kind_idx, srcs, ids_list, data_list)
    ]
    return [
        (key, fields[offsets[i] : offsets[i + 1]])
        for i, key in enumerate(keys)
    ]


# --------------------------------------------------------------------- #
# Observability trailers                                                #
# --------------------------------------------------------------------- #
#
# A fourth shape rides the request/response envelopes of
# ``repro.service.api``: one *optional* trailing element past the fixed
# ``_WIRE_KEYS`` width.  Outbound it carries the compact trace context
# ``(trace_id, parent_span_id)``; inbound it carries the worker's span
# tree flattened into columns (``repro.obs.trace.encode_span_columns``
# — same struct-of-arrays idea as the message columns above).  Peers
# that predate tracing — or requests with tracing disabled — simply
# ship the bare tuple; ``wire_body`` makes decoding agnostic.


def attach_trailer(wire: tuple, trailer) -> tuple:
    """Append one observability trailer element to a wire envelope."""
    return wire + (trailer,)


# --------------------------------------------------------------------- #
# Record integrity (CRC-32C)                                            #
# --------------------------------------------------------------------- #
# The request journal frames each on-disk record with a CRC-32C
# (Castagnoli, the iSCSI/ext4 polynomial — materially better error
# detection than CRC-32/ISO-HDLC for short records).  The stdlib only
# ships the zlib polynomial, so the table-driven form lives here next to
# the envelope helpers: journal records *are* wire envelopes, and the
# checksum is part of their framing contract.

_CRC32C_POLY = 0x82F63B78  # reflected Castagnoli polynomial


def _crc32c_table() -> tuple:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _crc32c_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data`` (chainable via ``crc`` for streaming use)."""
    crc ^= 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def wire_body(wire: tuple, width: int) -> tuple:
    """The fixed-width envelope, with any trailer sliced off."""
    return wire[:width] if len(wire) > width else wire


def wire_trailer(wire: tuple, width: int):
    """The trailer element, or ``None`` when the envelope is bare."""
    return wire[width] if len(wire) > width else None
