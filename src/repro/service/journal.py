"""Write-ahead request journal: the durability rung of the serve stack.

PR 7 made the server survive faults *inside* the process and PR 8 made
it observable; this module makes the process itself expendable.  Every
request is journaled to an append-only file at admission and again at
completion, so a SIGKILL mid-load loses nothing: on restart the journal
is scanned, ``admitted``-but-not-``completed`` requests are re-executed
(deterministically — same envelope, same answer), completed ones are
answered straight from their journaled response, and a reconnecting
client's session replays its unacked responses in order.

Design notes
------------

**Records are wire envelopes.**  A journaled request/response is the
same positional tuple that crosses the process-drain boundary
(``RealizationRequest.to_wire()`` / ``RealizationResponse.to_wire()``
from :mod:`repro.service.api`, built on :mod:`repro.ncc.wire`), pickled
inside a small framed record::

    [u32 length | bit 31 = zlib CRC-32][u32 checksum][payload]

``payload`` is the pickled record tuple.  Every frame this module
writes sets bit 31 of its length word and carries
``zlib.crc32(payload)`` (CRC-32/IEEE, computed in C).  A frame with bit
31 clear carries ``crc32c(payload)`` (CRC-32C,
:func:`repro.ncc.wire.crc32c`, a pure-Python loop): journals written
before the flag hold only such frames, and recovery still reads them,
also in a file that mixes both kinds.  No valid length reaches bit 31
(``_MAX_RECORD`` is 2**26), so the flag cannot be mistaken for a
length.  :meth:`RequestJournal.compact` rewrites every frame with the
flag.  Older readers cannot read flagged frames: a reader that
predates the flag sees the first one's length as oversized, takes it
for a torn tail, and truncates the file there.

Record tuples (``seq`` is a journal-global monotone counter):

* ``("admitted", seq, session_token, session_index, idempotency_key,
  request_wire)`` — written *before* execution starts, in every drain
  mode.
* ``("completed", seq, admitted_seq, response_wire)`` — written when the
  response exists; links back to its admission by seq, so ambiguous or
  reused ``request_id`` values cannot cross wires.
* ``("rejected", seq, session_token, session_index, response_wire)`` —
  immediate server-side envelopes (admission rejections, parse errors)
  that never reached the executor but still occupy a session slot.
* ``("compact", seq, session_token, session_index, idempotency_key,
  response_wire)`` — a completed record condensed by :meth:`compact`.

**Torn tails are expected.**  A crash can land mid-``write``; recovery
scans until the first record whose frame is short or whose checksum
disagrees, truncates the file there, warns on stderr, and counts what
it dropped in :meth:`stats`.  A bad checksum *mid*-file (bit rot, not a
torn tail) is handled the same way — everything from the first
unverifiable record is dropped, because record framing carries no
resynchronisation marker.

**fsync policy is a dial, not a boolean.**  ``always`` fsyncs every
append (power-loss durable, slow), ``batch`` fsyncs every
``BATCH_EVERY`` appends plus at every explicit :meth:`flush` barrier
(drain, compaction, close), ``never`` leaves it to the OS.  The Python
buffer is flushed to the OS on *every* append regardless, so a SIGKILL
— which cannot lose OS-buffered writes — loses nothing even at
``fsync=never``; the policy only widens the power-loss window.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ncc.wire import crc32c
from . import faults
from .api import RealizationRequest, RealizationResponse

FSYNC_POLICIES = ("never", "batch", "always")
_HEADER = struct.Struct("<II")
_MAX_RECORD = 64 * 1024 * 1024  # sanity bound: a frame length past this is garbage
#: Set in a frame's length word when its checksum is ``zlib.crc32``;
#: clear in frames written before the flag, which carry ``crc32c``.
_ZLIB_FLAG = 1 << 31
_PICKLE_PROTOCOL = 4

# Bounded replay state: the journal is a log, not a database — the
# in-memory maps that answer duplicate submissions and rebuild sessions
# keep a recent tail, evicting oldest-first with counters.
REPLAY_LIMIT = 4096  # distinct idempotency keys retained
SESSION_TAIL = 1024  # responses retained per session token
BATCH_EVERY = 32  # appends between fsyncs under fsync="batch"


#: Where older request envelopes carried a ``shards`` slot (between
#: ``max_rounds`` and ``deadline_ms``), before the field was removed.
_LEGACY_SHARDS_SLOT = 14


def _current_request_wire(wire_req: tuple) -> tuple:
    """A journaled request envelope in the current ``_WIRE_KEYS`` format.

    :meth:`RequestJournal.append_admitted` never writes a trace trailer,
    so an admission exactly one slot wider than ``_WIRE_KEYS`` can only
    be an older record with a ``shards`` slot.  Dropping that slot puts
    ``deadline_ms`` and ``idempotency_key`` back where they decode.
    """
    if len(wire_req) == len(RealizationRequest._WIRE_KEYS) + 1:
        return wire_req[:_LEGACY_SHARDS_SLOT] + wire_req[_LEGACY_SHARDS_SLOT + 1:]
    return wire_req


class JournalError(Exception):
    """Misuse of the journal API (bad policy, closed journal)."""


@dataclass
class JournalRecovery:
    """What a startup scan found (a snapshot, not a live view).

    ``incomplete`` holds ``(seq, session_token, session_index, request)``
    for every admission with no completion — the re-execution worklist.
    ``sessions`` maps a session token to its recovered response tail in
    emit order: ``[(session_index, response), ...]``.
    """

    records: int = 0
    admitted: int = 0
    completed: int = 0
    rejected: int = 0
    compacted: int = 0
    duplicate_completions: int = 0
    orphan_completions: int = 0
    truncated_bytes: int = 0
    torn_tail: bool = False
    incomplete: List[Tuple[int, str, int, RealizationRequest]] = field(
        default_factory=list
    )
    sessions: Dict[str, List[Tuple[int, RealizationResponse]]] = field(
        default_factory=dict
    )


class RequestJournal:
    """Append-only, CRC-framed, fsync-policy-configurable request log.

    Thread-safe: appends arrive from the serve event loop (socket and
    stdio connections alike), the executor's lane thread, a caller's
    thread and the process pool's callback threads at once.
    """

    def __init__(self, path: str, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        self.path = path
        self.fsync = fsync
        # Called with each fsync's seconds; the executor that attaches
        # this journal installs its histogram here.
        self.fsync_observer: Optional[Callable[[float], None]] = None
        self._lock = threading.RLock()
        self._seq = 0
        self._pending_syncs = 0
        self._closed = False
        # Live replay state (mirrors the durable file).
        self._completed_by_key: "OrderedDict[str, tuple]" = OrderedDict()
        self._incomplete: "OrderedDict[int, Tuple[str, int, Optional[str], tuple]]" = (
            OrderedDict()
        )
        self._sessions: Dict[str, "OrderedDict[int, tuple]"] = {}
        # Counters (cumulative across compactions).
        self._counts = {
            "admitted": 0,
            "completed": 0,
            "rejected": 0,
            "replays": 0,
            "fsyncs": 0,
            "fsync_errors": 0,
            "duplicate_completions": 0,
            "replay_evictions": 0,
            "session_evictions": 0,
            "compactions": 0,
        }
        self._recovery = self._load()
        self._file = open(self.path, "ab")

    # ----------------------------------------------------------------- #
    # Framing                                                           #
    # ----------------------------------------------------------------- #

    @staticmethod
    def _frame(record: tuple) -> bytes:
        payload = pickle.dumps(record, protocol=_PICKLE_PROTOCOL)
        header = _HEADER.pack(len(payload) | _ZLIB_FLAG, zlib.crc32(payload))
        return header + payload

    def _append(self, record: tuple, tag: str = "") -> None:
        """Frame, write, flush; fsync per policy.  Caller holds the lock."""
        if self._closed:
            raise JournalError("journal is closed")
        self._file.write(self._frame(record))
        # Python buffer -> OS on every append: SIGKILL-safe at any policy.
        self._file.flush()
        self._pending_syncs += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self._pending_syncs >= BATCH_EVERY
        ):
            self._fsync(tag)

    def _fsync(self, tag: str = "") -> None:
        plan = faults.active()
        if plan is not None and plan.match("fsync_error", tag) is not None:
            # Deterministic injected EIO: durability degrades (the write
            # stays OS-buffered) but the service keeps answering.
            self._counts["fsync_errors"] += 1
            self._pending_syncs = 0
            return
        start = time.perf_counter()
        os.fsync(self._file.fileno())
        if self.fsync_observer is not None:
            self.fsync_observer(time.perf_counter() - start)
        self._counts["fsyncs"] += 1
        self._pending_syncs = 0

    # ----------------------------------------------------------------- #
    # Append API (the write-ahead contract)                             #
    # ----------------------------------------------------------------- #

    def append_admitted(
        self,
        request: RealizationRequest,
        session: Optional[Tuple[str, int]] = None,
    ) -> int:
        """Journal an admission *before* execution starts; returns its seq."""
        token, sidx = session if session is not None else ("", -1)
        with self._lock:
            self._seq += 1
            seq = self._seq
            key = request.idempotency_key
            wire_req = request.to_wire()
            self._append(
                ("admitted", seq, token, sidx, key, wire_req), request.request_id
            )
            self._counts["admitted"] += 1
            self._incomplete[seq] = (token, sidx, key, wire_req)
        return seq

    def append_completed(
        self, admitted_seq: int, response: RealizationResponse
    ) -> int:
        """Journal the response for a previously admitted request."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            wire_resp = response.to_wire()
            self._append(
                ("completed", seq, admitted_seq, wire_resp), response.request_id
            )
            self._counts["completed"] += 1
            admitted = self._incomplete.pop(admitted_seq, None)
            if admitted is not None:
                token, sidx, key, _ = admitted
                if key:
                    self._remember_key(key, wire_resp)
                if token:
                    self._remember_session(token, sidx, wire_resp)
        return seq

    def append_rejected(
        self,
        response: RealizationResponse,
        session: Optional[Tuple[str, int]] = None,
    ) -> int:
        """Journal an immediate server-side envelope (never executed)."""
        token, sidx = session if session is not None else ("", -1)
        with self._lock:
            self._seq += 1
            seq = self._seq
            wire_resp = response.to_wire()
            self._append(
                ("rejected", seq, token, sidx, wire_resp), response.request_id
            )
            self._counts["rejected"] += 1
            if token:
                self._remember_session(token, sidx, wire_resp)
        return seq

    def _remember_key(self, key: str, wire_resp: tuple) -> None:
        self._completed_by_key[key] = wire_resp
        self._completed_by_key.move_to_end(key)
        while len(self._completed_by_key) > REPLAY_LIMIT:
            self._completed_by_key.popitem(last=False)
            self._counts["replay_evictions"] += 1

    def _remember_session(self, token: str, sidx: int, wire_resp: tuple) -> None:
        tail = self._sessions.setdefault(token, OrderedDict())
        tail[sidx] = wire_resp
        while len(tail) > SESSION_TAIL:
            tail.popitem(last=False)
            self._counts["session_evictions"] += 1

    # ----------------------------------------------------------------- #
    # Replay API (exactly-once)                                         #
    # ----------------------------------------------------------------- #

    def replay_idempotent(
        self, request: RealizationRequest
    ) -> Optional[RealizationResponse]:
        """The journaled response for this submission, or ``None``.

        A duplicate submission (same ``idempotency_key``) is answered
        field-identical from the completed record — never re-executed.
        Only ``request_id`` follows the incoming envelope, mirroring the
        response cache: a client that retransmits the same request gets
        back the exact response it missed.
        """
        key = request.idempotency_key
        if key is None:
            return None
        with self._lock:
            wire_resp = self._completed_by_key.get(key)
            if wire_resp is None:
                return None
            self._completed_by_key.move_to_end(key)
            self._counts["replays"] += 1
        response = RealizationResponse.from_wire(wire_resp)
        if response.request_id != request.request_id:
            response = response.reenvelope(request.request_id)
        return response

    def recover(self) -> JournalRecovery:
        """The startup scan's snapshot (worklist + session tails)."""
        return self._recovery

    # ----------------------------------------------------------------- #
    # Startup scan                                                      #
    # ----------------------------------------------------------------- #

    def _load(self) -> JournalRecovery:
        rec = JournalRecovery()
        if not os.path.exists(self.path):
            return rec
        with open(self.path, "rb") as fh:
            blob = fh.read()
        offset = 0
        admissions: Dict[int, Tuple[str, int, Optional[str], tuple]] = {}
        completions: Dict[int, tuple] = {}
        order: List[tuple] = []
        while True:
            record, end = self._read_record(blob, offset)
            if record is None:
                if end != len(blob):
                    rec.torn_tail = True
                    rec.truncated_bytes = len(blob) - offset
                    print(
                        f"journal: dropping {rec.truncated_bytes} unverifiable "
                        f"byte(s) at offset {offset} of {self.path} "
                        "(torn tail or corrupt record)",
                        file=sys.stderr,
                    )
                    with open(self.path, "r+b") as fh:
                        fh.truncate(offset)
                break
            offset = end
            rec.records += 1
            order.append(record)
        for record in order:
            kind = record[0]
            if kind == "admitted":
                _, seq, token, sidx, key, wire_req = record
                self._seq = max(self._seq, seq)
                admissions[seq] = (token, sidx, key, wire_req)
                rec.admitted += 1
            elif kind == "completed":
                _, seq, admitted_seq, wire_resp = record
                self._seq = max(self._seq, seq)
                rec.completed += 1
                if admitted_seq in completions:
                    # Duplicate completion (e.g. a crash between the
                    # append and the in-memory pop, then a re-execution
                    # that completed again): first record wins — it is
                    # what the client may already have acked.
                    rec.duplicate_completions += 1
                    continue
                if admitted_seq not in admissions:
                    rec.orphan_completions += 1
                    continue
                completions[admitted_seq] = wire_resp
                token, sidx, key, _ = admissions[admitted_seq]
                if key:
                    self._remember_key(key, wire_resp)
                if token:
                    self._remember_session(token, sidx, wire_resp)
            elif kind == "rejected":
                _, seq, token, sidx, wire_resp = record
                self._seq = max(self._seq, seq)
                rec.rejected += 1
                if token:
                    self._remember_session(token, sidx, wire_resp)
            elif kind == "compact":
                _, seq, token, sidx, key, wire_resp = record
                self._seq = max(self._seq, seq)
                rec.compacted += 1
                if key:
                    self._remember_key(key, wire_resp)
                if token:
                    self._remember_session(token, sidx, wire_resp)
            # Unknown record kinds from a future version are skipped.
        for seq in sorted(set(admissions) - set(completions)):
            token, sidx, key, wire_req = admissions[seq]
            wire_req = _current_request_wire(wire_req)
            self._incomplete[seq] = (token, sidx, key, wire_req)
            rec.incomplete.append(
                (seq, token, sidx, RealizationRequest.from_wire(wire_req))
            )
        rec.sessions = {
            token: [
                (sidx, RealizationResponse.from_wire(wire_resp))
                for sidx, wire_resp in sorted(tail.items())
            ]
            for token, tail in self._sessions.items()
        }
        # Carry the scan's duplicate count into the live counters so
        # stats() reflects the whole file, not just this process's life.
        self._counts["duplicate_completions"] += rec.duplicate_completions
        return rec

    @staticmethod
    def _read_record(blob: bytes, offset: int) -> Tuple[Optional[tuple], int]:
        """One framed record at ``offset``: ``(record, end)`` or
        ``(None, offset)`` when the frame is short, oversized, fails its
        checksum, or fails to unpickle.  Bit 31 of the length word picks
        the checksum: ``zlib.crc32`` when set, ``crc32c`` when clear."""
        if offset + _HEADER.size > len(blob):
            return None, offset
        word, crc = _HEADER.unpack_from(blob, offset)
        length = word & ~_ZLIB_FLAG
        start = offset + _HEADER.size
        end = start + length
        if length > _MAX_RECORD or end > len(blob):
            return None, offset
        payload = blob[start:end]
        checksum = zlib.crc32 if word & _ZLIB_FLAG else crc32c
        if checksum(payload) != crc:
            return None, offset
        try:
            record = pickle.loads(payload)
        except Exception:
            return None, offset
        if not isinstance(record, tuple) or not record:
            return None, offset
        return record, end

    # ----------------------------------------------------------------- #
    # Maintenance                                                       #
    # ----------------------------------------------------------------- #

    def flush(self) -> None:
        """Durability barrier: flush + fsync regardless of policy."""
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            self._fsync()

    def compact(self) -> None:
        """Condense the log to its live replay state (clean-drain hook).

        Admitted/completed pairs collapse into ``compact`` records; the
        rewrite is atomic (temp file + ``os.replace``), fsynced before
        the swap so a crash mid-compaction leaves either the old log or
        the new one, never a mixture.
        """
        with self._lock:
            if self._closed:
                raise JournalError("journal is closed")
            tmp_path = self.path + ".compact"
            seq = self._seq
            with open(tmp_path, "wb") as tmp:
                for token, tail in self._sessions.items():
                    for sidx, wire_resp in sorted(tail.items()):
                        seq += 1
                        tmp.write(
                            self._frame(("compact", seq, token, sidx, None, wire_resp))
                        )
                for key, wire_resp in self._completed_by_key.items():
                    seq += 1
                    tmp.write(self._frame(("compact", seq, "", -1, key, wire_resp)))
                for admitted_seq, (token, sidx, key, wire_req) in (
                    self._incomplete.items()
                ):
                    tmp.write(
                        self._frame(
                            ("admitted", admitted_seq, token, sidx, key, wire_req)
                        )
                    )
                tmp.flush()
                os.fsync(tmp.fileno())
            self._file.close()
            os.replace(tmp_path, self.path)
            self._file = open(self.path, "ab")
            self._fsync()
            self._seq = max(self._seq, seq)
            self._pending_syncs = 0
            self._counts["compactions"] += 1

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            try:
                self._fsync()
            except (OSError, ValueError):  # pragma: no cover - best effort
                pass
            self._file.close()
            self._closed = True

    # ----------------------------------------------------------------- #
    # Introspection                                                     #
    # ----------------------------------------------------------------- #

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            rec = self._recovery
            return {
                "path": self.path,
                "fsync": self.fsync,
                **dict(self._counts),
                "incomplete": len(self._incomplete),
                "replay_keys": len(self._completed_by_key),
                "sessions": len(self._sessions),
                "recovered_records": rec.records,
                "recovered_incomplete": len(rec.incomplete),
                "torn_tail": rec.torn_tail,
                "truncated_bytes": rec.truncated_bytes,
            }

    def collect_metrics(self):
        """Registry collector (``MetricsRegistry.register_collector``)."""
        s = self.stats()
        counters = (
            ("repro_journal_admitted_total", "Admissions journaled", "admitted"),
            ("repro_journal_completed_total", "Completions journaled", "completed"),
            ("repro_journal_rejected_total", "Immediate envelopes journaled", "rejected"),
            ("repro_journal_replays_total", "Duplicate submissions answered from the journal", "replays"),
            ("repro_journal_fsyncs_total", "fsync barriers issued", "fsyncs"),
            ("repro_journal_fsync_errors_total", "Injected/observed fsync failures", "fsync_errors"),
            ("repro_journal_compactions_total", "Log compactions", "compactions"),
        )
        out = [
            (name, "counter", help, [(name, (), float(s[key]))])
            for name, help, key in counters
        ]
        out.append(
            (
                "repro_journal_incomplete",
                "gauge",
                "Admitted-but-not-completed records",
                [("repro_journal_incomplete", (), float(s["incomplete"]))],
            )
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestJournal(path={self.path!r}, fsync={self.fsync!r})"
