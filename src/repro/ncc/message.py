"""Messages and their size accounting.

An NCC message is ``O(log n)`` bits.  We account size in *words*: one word
is enough bits to hold a node ID or an integer polynomial in ``n``.  A
message consists of

* ``kind`` — a short protocol tag (constant-size header, charged 0 words;
  real implementations would pack it into the header byte);
* ``ids`` — a tuple of node IDs carried by the message.  **This field is
  special**: the simulator adds every ID in it to the receiver's knowledge
  set, which is precisely how knowledge spreads in NCC;
* ``data`` — a tuple of non-ID scalars (ints/floats/bools/short strings).

The total word count of ``ids`` plus ``data`` must stay within
``NCCConfig.max_words``.  Integers much larger than the ID universe consume
multiple words, so a protocol cannot smuggle unbounded state in one
message.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Any, Dict, Optional, Tuple


def _scalar_words(value: Any, word_bits: int) -> int:
    """Number of words a scalar occupies under a ``word_bits`` word size."""
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, int):
        bits = max(1, value.bit_length())
        return max(1, math.ceil(bits / word_bits))
    if isinstance(value, float):
        return 1  # one machine word (doubles are O(1) words for any log n)
    if isinstance(value, str):
        # Short tags; 8 bits per char.
        return max(1, math.ceil(len(value) * 8 / word_bits))
    raise TypeError(
        f"message payload values must be scalars, got {type(value).__name__}"
    )


def scalar_words_cached(value, word_bits, int_cache, scalar_cache) -> int:
    """Memoized :func:`_scalar_words` dispatch shared by the engines.

    Ints get their own cache (keyed by value, the hot case); other types
    go through a ``(type, value)`` key because equal-comparing scalars of
    different types (``2**60`` vs ``2.0**60``) can occupy different word
    counts.  ``word_bits`` must be fixed for the caches' lifetime.
    :class:`~repro.ncc.engine.FastEngine` additionally inlines this
    dispatch in its hottest loop (see its lockstep comments);
    :meth:`Message.words` calls it directly.

    Unhashable values never reach a cache: they fall through to the
    uncached :func:`_scalar_words`, which raises the canonical
    "payload values must be scalars" ``TypeError`` for non-scalars.
    """
    cls = value.__class__
    if cls is int:
        words = int_cache.get(value)
        if words is None:
            words = _scalar_words(value, word_bits)
            int_cache[value] = words
        return words
    if cls is float or cls is bool or value is None:
        return 1
    key = (cls, value)
    try:
        words = scalar_cache.get(key)
    except TypeError:  # unhashable => not a scalar
        return _scalar_words(value, word_bits)
    if words is None:
        words = _scalar_words(value, word_bits)
        scalar_cache[key] = words
    return words


#: Process-wide word-accounting caches, one ``(int_cache, scalar_cache)``
#: pair per word width.  Pure memoization — a scalar's word count is a
#: function of ``(value, word_bits)`` alone — so every engine and
#: :meth:`Message.words` call sharing a width shares the warm entries.
_WORD_CACHES: Dict[int, Tuple[Dict[int, int], Dict[Tuple[type, Any], int]]] = {}

#: Growth bound per cache dict.  Purity makes dropping entries always
#: safe, so a long-lived serve process with endlessly varied payloads
#: stays bounded: :func:`word_caches` evicts the *oldest* entries of any
#: dict that outgrew the bound, down to half of it, and lets the rest
#: re-warm.  Dicts iterate in insertion order, so this is FIFO
#: ("oldest-inserted-out") eviction — an LRU approximation: true
#: recency tracking would put a bookkeeping write on every *read* in the
#: engines' hottest loops, which is exactly what the caches exist to
#: avoid.  ``FastEngine.deliver`` inserts through direct references
#: that bypass this function, so its round prologue calls
#: ``word_caches`` once per round to keep the bound enforced there too.
#: Holders of direct references keep working — they see the same
#: (trimmed) dicts.
_WORD_CACHE_LIMIT = 1 << 20

#: Entries evicted from the word caches, per word width (monotone;
#: surfaced through the obs registry so cache churn in long-lived serve
#: processes is observable).
_WORD_CACHE_EVICTIONS: Dict[int, int] = {}


def _evict_oldest(cache: dict, word_bits: int) -> None:
    """Drop the oldest-inserted entries down to half the growth bound."""
    drop = len(cache) - (_WORD_CACHE_LIMIT >> 1)
    for key in list(itertools.islice(iter(cache), drop)):
        del cache[key]
    _WORD_CACHE_EVICTIONS[word_bits] = (
        _WORD_CACHE_EVICTIONS.get(word_bits, 0) + drop
    )


def word_cache_evictions(word_bits: Optional[int] = None) -> int:
    """Evicted word-cache entries for ``word_bits`` (or all widths)."""
    if word_bits is not None:
        return _WORD_CACHE_EVICTIONS.get(word_bits, 0)
    return sum(_WORD_CACHE_EVICTIONS.values())


def word_caches(word_bits: int) -> Tuple[Dict[int, int], Dict[Tuple[type, Any], int]]:
    """The shared ``(int_cache, scalar_cache)`` pair for ``word_bits``."""
    caches = _WORD_CACHES.get(word_bits)
    if caches is None:
        caches = _WORD_CACHES[word_bits] = ({}, {})
        return caches
    int_cache, scalar_cache = caches
    if len(int_cache) > _WORD_CACHE_LIMIT:
        _evict_oldest(int_cache, word_bits)
    if len(scalar_cache) > _WORD_CACHE_LIMIT:
        _evict_oldest(scalar_cache, word_bits)
    return caches


class Message:
    """One NCC message: a slotted value object.

    Attributes
    ----------
    kind:
        Protocol tag, e.g. ``"invite"`` or ``"agg"``.
    ids:
        Node IDs carried in the payload; receivers learn these.
    data:
        Non-ID scalar payload.
    src:
        Filled in by the network at delivery time: the sender's ID.  The
        receiver learns it (receiving a message always reveals the sender).

    Equality and hashing compare all four fields, as a value type's
    should.  The class has ``__slots__`` and no instance dict: a message
    is four pointers, and building, reading and stamping one are plain
    slot operations.

    **Ownership.**  The engine owns ``src``: a message submitted to a
    round is stamped with its sender at delivery (the fast engine fills
    the slot in place, copying the message only when the object already
    carries a different sender), and protocols treat every message they
    build or receive as read-only.  Nothing else writes the fields after
    construction.
    """

    __slots__ = ("kind", "ids", "data", "src")

    def __init__(
        self,
        kind: str,
        ids: Tuple[int, ...] = (),
        data: Tuple[Any, ...] = (),
        src: int = -1,
    ) -> None:
        self.kind = kind
        self.ids = ids
        self.data = data
        self.src = src

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Message:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.ids == other.ids
            and self.data == other.data
            and self.src == other.src
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.ids, self.data, self.src))

    def words(self, word_bits: int) -> int:
        """Size of this message in words for the given word width.

        Delegates to the shared :func:`scalar_words_cached` path (one
        cache pair per word width via :func:`word_caches`) instead of
        re-running the uncached computation per call: the reference
        engine asks twice per message and defer-mode backlogs ask again
        per requeue, so repeated queries must be dict lookups.
        """
        total = len(self.ids)
        data = self.data
        if data:
            int_cache, scalar_cache = word_caches(word_bits)
            for value in data:
                total += scalar_words_cached(
                    value, word_bits, int_cache, scalar_cache
                )
        return total

    def with_src(self, src: int) -> "Message":
        """Copy of this message stamped with its sender (delivery step)."""
        return Message(self.kind, self.ids, self.data, src)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message({self.kind!r}, ids={self.ids}, data={self.data}, src={self.src})"


def msg(kind: str, *, ids: Tuple[int, ...] = (), data: Tuple[Any, ...] = ()) -> Message:
    """Terse constructor used throughout protocol code.

    The header is interned: protocol namespaces re-create the same
    ``"<ns>:<tag>"`` strings at every round, and interning collapses them
    to one shared object (kind comparisons then usually short-circuit on
    identity).  ``ids`` and ``data`` are coerced to tuples.

    Construction writes the four slots of a blank instance instead of
    running ``__init__``: protocols build one message per send, which
    makes this the hottest allocation site of a full-fidelity run.  The
    result equals ``Message(...)`` field for field.  The densest send
    loops (``primitives/bbst.py`` and ``primitives/traversal.py``)
    inline the same four slot writes to skip even the call; when the
    fields change, keep those copies in step.
    """
    message = _new_message(Message)
    message.kind = sys.intern(kind)
    message.ids = ids if ids.__class__ is tuple else tuple(ids)
    message.data = data if data.__class__ is tuple else tuple(data)
    message.src = -1
    return message


_new_message = Message.__new__
