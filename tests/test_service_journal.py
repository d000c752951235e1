"""Durability: the write-ahead request journal, exactly-once replay,
session resume, and the crash-restart supervisor.

The acceptance properties, layer by layer:

* **Framing** — every record is framed by its length and a checksum.
  New frames carry ``zlib.crc32`` and set bit 31 of the length word;
  frames without the flag carry the CRC-32C of journals written before
  it, and still recover, alone or mixed with new frames
  (``tests/data/journal-crc32c.wal``).  Appends make no Python-level
  call into ``crc32c``.  Recovery after a torn tail (partial final
  write) truncates to the last whole record and keeps everything before
  it; a corrupted record mid-file, or a frame whose flag was flipped,
  drops it and everything after (no resync heuristics — the journal is
  the source of truth, guessing is worse than losing the tail).
* **Exactly-once** — a duplicate submission carrying the same
  ``idempotency_key`` is answered from the journal, field-identical to
  the original response, without re-execution; this holds within one
  process, across a restart, and across drain modes.
* **Recovery** — ``admitted``-but-not-``completed`` records are
  re-executed exactly once at startup, and their completions are
  journaled against the original admission.
* **Session resume** — a reconnecting client presents its token and
  receives the responses it missed, in order, field-identical.
* **Supervision** — a SIGKILLed server child is respawned with bounded
  seeded backoff, and the composed system (supervisor + journal +
  session resume) delivers every admitted response exactly once even
  with a kill -9 mid-load (the integration test at the bottom).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import socket as socket_module
import struct
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.ncc.wire import crc32c
from repro.service import (
    BatchExecutor,
    FaultPlan,
    FaultRule,
    NetworkPool,
    RealizationRequest,
    RequestJournal,
    ServiceError,
    SocketServer,
    default_registry,
    error_response,
    retry_after_hint,
    supervisor_policy,
)
from repro.service import faults
from repro.service.journal import FSYNC_POLICIES, JournalError
from repro.service.server import (
    ADMISSION_REJECTED,
    RETRY_AFTER_DRAINING_MS,
    SESSION_UNKNOWN,
)
from repro.service.supervise import supervise_loop
from tests.test_disabled_layers import CallCounter, hooked, miss_and_hit

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Bit 31 of a frame's length word: set when the frame's checksum is
#: ``zlib.crc32``, clear on the CRC-32C frames of older journals.
ZLIB_FLAG = 1 << 31


def make_request(request_id, key=None, n=12, seed=1):
    return RealizationRequest(
        request_id=request_id, kind="degree_implicit", scenario="regular",
        n=n, seed=seed, idempotency_key=key,
    )


def make_executor(journal=None, **kwargs):
    return BatchExecutor(
        pool=NetworkPool(), registry=default_registry(), journal=journal,
        **kwargs,
    )


def strip(row):
    """Response fields minus identity and measurement volatiles."""
    if not isinstance(row, dict):
        row = row.to_dict()
    return {k: v for k, v in row.items()
            if k not in ("request_id", "cached", "elapsed_sec", "session_seq")}


def record_offsets(path):
    """Byte offsets of each framed record in a journal file."""
    header = struct.Struct("<II")
    with open(path, "rb") as journal_file:
        blob = journal_file.read()
    offsets, pos = [], 0
    while pos + header.size <= len(blob):
        word, _ = header.unpack_from(blob, pos)
        offsets.append(pos)
        pos += header.size + (word & ~ZLIB_FLAG)
    return offsets, len(blob)


def frame_flags(path):
    """Whether each framed record in a journal file carries the flag."""
    offsets, _ = record_offsets(path)
    with open(path, "rb") as journal_file:
        blob = journal_file.read()
    return [bool(struct.unpack_from("<I", blob, pos)[0] & ZLIB_FLAG)
            for pos in offsets]


# --------------------------------------------------------------------- #
# Framing and recovery                                                  #
# --------------------------------------------------------------------- #


class TestJournalFraming:
    def test_crc32c_known_answer_and_chaining(self):
        """Frames without the flag carry CRC-32C (Castagnoli): its
        published check value, also when computed in two chained
        pieces."""
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"6789", crc32c(b"12345")) == 0xE3069283
        assert crc32c(b"") == 0

    def test_appends_never_call_crc32c(self, tmp_path):
        """New frames are checksummed in C: a journaled miss and hit in
        sequential mode make no Python-level call into ``crc32c``.  The
        hook counts ``_frame`` too, so it saw all four appends, on this
        thread and on the lane."""
        journal = RequestJournal(str(tmp_path / "j.wal"))
        executor = make_executor(journal=journal)
        crc = CallCounter(lambda code: code is crc32c.__code__)
        frames = CallCounter(lambda code: code is RequestJournal._frame.__code__)

        def both(frame, event, arg):
            crc(frame, event, arg)
            frames(frame, event, arg)

        try:
            with hooked(both):
                miss_and_hit(executor)
        finally:
            executor.close()
            journal.close()
        assert dict(crc.calls) == {}
        here, lane = frames.split()
        assert here + lane == 4 and here > 0 and lane > 0, dict(frames.calls)
        assert frame_flags(journal.path) == [True] * 4

    def test_round_trip_and_restart_replay(self, tmp_path):
        path = str(tmp_path / "j.bin")
        journal = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal)
        try:
            fresh = executor.handle(make_request("r1", key="k1"))
            dup = executor.handle(make_request("r1-dup", key="k1"))
        finally:
            executor.close()
            journal.close()
        assert fresh.verdict == "REALIZED"
        assert dup.request_id == "r1-dup"
        assert strip(dup) == strip(fresh)  # replayed, not re-executed
        assert journal.stats()["replays"] == 1
        assert journal.stats()["admitted"] == 1  # the dup never re-admitted

        # A fresh process: replay state is rebuilt from the file alone.
        journal2 = RequestJournal(path, fsync="never")
        executor2 = make_executor(journal=journal2)
        try:
            assert executor2.recover_journal() == {}
            again = executor2.handle(make_request("r1-again", key="k1"))
        finally:
            executor2.close()
            journal2.close()
        assert again.request_id == "r1-again"
        assert strip(again) == strip(fresh)
        assert journal2.stats()["recovered_records"] == 2
        assert journal2.stats()["replays"] == 1

    def test_torn_tail_is_truncated_and_counted(self, tmp_path, capsys):
        path = str(tmp_path / "j.bin")
        journal = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal)
        try:
            executor.handle(make_request("whole", key="kw"))
        finally:
            executor.close()
            journal.close()
        intact_size = os.path.getsize(path)
        # A torn final write: a frame header promising more payload than
        # the file holds (what a crash mid-write leaves behind).
        with open(path, "ab") as fh:
            fh.write(struct.pack("<II", 1 << 20, 0) + b"torn")
        journal2 = RequestJournal(path, fsync="never")
        try:
            stats = journal2.stats()
            assert stats["torn_tail"] is True
            assert stats["truncated_bytes"] == struct.calcsize("<II") + 4
            assert stats["recovered_records"] == 2  # admitted + completed
            # The file was truncated back to the last whole record.
            assert os.path.getsize(path) == intact_size
            # And the intact prefix still answers replays.
            replay = journal2.replay_idempotent(make_request("dup", key="kw"))
            assert replay is not None and replay.verdict == "REALIZED"
        finally:
            journal2.close()
        assert "torn" in capsys.readouterr().err.lower()

    def test_bad_crc_mid_file_drops_rest(self, tmp_path, capsys):
        path = str(tmp_path / "j.bin")
        journal = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal)
        try:
            executor.handle(make_request("a", key="ka"))
            executor.handle(make_request("b", key="kb", seed=2))
        finally:
            executor.close()
            journal.close()
        offsets, _ = record_offsets(path)
        assert len(offsets) == 4  # admitted+completed per request
        # Flip one payload byte of record 3 (request b's admission).
        with open(path, "r+b") as fh:
            fh.seek(offsets[2] + struct.calcsize("<II"))
            byte = fh.read(1)
            fh.seek(offsets[2] + struct.calcsize("<II"))
            fh.write(bytes([byte[0] ^ 0xFF]))
        journal2 = RequestJournal(path, fsync="never")
        try:
            stats = journal2.stats()
            assert stats["torn_tail"] is True
            assert stats["recovered_records"] == 2  # only request a's pair
            assert stats["truncated_bytes"] > 0
            assert journal2.replay_idempotent(make_request("x", key="ka"))
            assert journal2.replay_idempotent(make_request("x", key="kb")) is None
        finally:
            journal2.close()
        assert "torn" in capsys.readouterr().err.lower()

    def test_duplicate_completed_records_first_wins(self, tmp_path):
        path = str(tmp_path / "j.bin")
        journal = RequestJournal(path, fsync="never")
        seq = journal.append_admitted(make_request("r", key="k"))
        first = error_response("r", "degree_implicit", "first answer")
        journal.append_completed(seq, first)
        journal.close()
        # A buggy writer double-completes the same admission with a
        # different payload; recovery must keep the first (the one the
        # client may already have acked).
        second = error_response("r", "degree_implicit", "second answer")
        with open(path, "ab") as fh:
            fh.write(RequestJournal._frame(("completed", 99, seq, second.to_wire())))
        journal2 = RequestJournal(path, fsync="never")
        try:
            assert journal2.stats()["duplicate_completions"] == 1
            replay = journal2.replay_idempotent(make_request("dup", key="k"))
            assert replay.error == "first answer"
        finally:
            journal2.close()

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policies_all_durable_after_flush(self, tmp_path, policy):
        path = str(tmp_path / f"j-{policy}.bin")
        journal = RequestJournal(path, fsync=policy)
        executor = make_executor(journal=journal)
        try:
            executor.handle(make_request("p", key="kp"))
        finally:
            executor.close()
            journal.close()
        if policy == "always":
            assert journal.stats()["fsyncs"] >= 2  # one per record
        journal2 = RequestJournal(path, fsync=policy)
        try:
            assert journal2.stats()["recovered_records"] == 2
        finally:
            journal2.close()

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="fsync"):
            RequestJournal(str(tmp_path / "j.bin"), fsync="sometimes")

    def test_compaction_shrinks_and_preserves_replay(self, tmp_path):
        path = str(tmp_path / "j.bin")
        journal = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal)
        try:
            baseline = executor.handle(make_request("c", key="kc"))
            for i in range(5):  # unkeyed traffic only bloats the log
                executor.handle(make_request(f"f{i}", seed=3 + i))
            before = os.path.getsize(path)
            journal.compact()
            after = os.path.getsize(path)
            assert after < before
            assert journal.stats()["compactions"] == 1
            # The compacted log still answers the keyed replay...
            dup = executor.handle(make_request("c-dup", key="kc"))
            assert strip(dup) == strip(baseline)
        finally:
            executor.close()
            journal.close()
        # ...and so does a restart over the compacted file.
        journal2 = RequestJournal(path, fsync="never")
        try:
            replay = journal2.replay_idempotent(make_request("c2", key="kc"))
            assert replay is not None and strip(replay) == strip(baseline)
        finally:
            journal2.close()


class TestLegacyShardsSlot:
    """Older journals wrote request envelopes with a ``shards`` slot
    between ``max_rounds`` and ``deadline_ms``; recovery drops it."""

    @staticmethod
    def legacy_admission(seq, request_id, key, engine, shards):
        wire = (
            "degree_implicit", request_id, None, "regular", (), 12, 1, engine,
            "charged", "min_diameter", "ncc0", 0, False, None, shards, 5000,
            key,
        )
        assert len(wire) == len(RealizationRequest._WIRE_KEYS) + 1
        return RequestJournal._frame(("admitted", seq, "", -1, key, wire))

    def test_legacy_admissions_recover_in_current_format(self, tmp_path):
        path = str(tmp_path / "j.bin")
        with open(path, "wb") as fh:
            fh.write(self.legacy_admission(1, "old", "k-old", "fast", 0))
            fh.write(
                self.legacy_admission(2, "old-sh", "k-sh", "sharded", 2)
            )
        journal = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal)
        try:
            recovered = [r for *_, r in journal.recover().incomplete]
            assert [(r.engine, r.deadline_ms, r.idempotency_key)
                    for r in recovered] == [
                ("fast", 5000, "k-old"), ("sharded", 5000, "k-sh")]
            assert recovered[0] == replace(
                make_request("old", key="k-old"), deadline_ms=5000
            )
            executor.recover_journal()
            again = executor.handle(make_request("again", key="k-old"))
            sharded = journal.replay_idempotent(make_request("x", key="k-sh"))
        finally:
            executor.close()
            journal.close()
        assert again.verdict == "REALIZED"
        assert again.request_id == "again"
        assert journal.stats()["replays"] == 2  # both answered from the log
        assert sharded.verdict == "ERROR"
        assert sharded.error == "unknown engine 'sharded'"

    def test_compaction_rewrites_a_legacy_admission_in_current_format(
        self, tmp_path
    ):
        path = str(tmp_path / "j.bin")
        with open(path, "wb") as fh:
            fh.write(self.legacy_admission(1, "old", "k-old", "fast", 0))
        journal = RequestJournal(path, fsync="never")
        try:
            [(_, _, _, before)] = journal.recover().incomplete
            journal.compact()
        finally:
            journal.close()
        with open(path, "rb") as journal_file:
            blob = journal_file.read()
        record, end = RequestJournal._read_record(blob, 0)
        assert end == len(blob)  # the one admission, nothing else
        assert record[0] == "admitted"
        assert record[-1] == before.to_wire()
        assert len(record[-1]) == len(RealizationRequest._WIRE_KEYS)
        reopened = RequestJournal(path, fsync="never")
        try:
            [(_, _, _, after)] = reopened.recover().incomplete
        finally:
            reopened.close()
        assert after == before
        assert (after.deadline_ms, after.idempotency_key) == (5000, "k-old")


FIXTURE = os.path.join(os.path.dirname(__file__), "data", "journal-crc32c.wal")


@pytest.fixture
def old_journal(tmp_path):
    """A copy of the fixture journal (recovery truncates its torn tail)."""
    path = str(tmp_path / "old.wal")
    shutil.copyfile(FIXTURE, path)
    return path


class TestCrc32cFixture:
    """``tests/data/journal-crc32c.wal`` was written by ``RequestJournal``
    before frames carried the zlib flag, so each of its frames holds a
    CRC-32C.  It holds every record kind and a torn tail.  The recipe,
    run with ``PYTHONPATH=src`` at commit ``5d62cff``, the last before
    the flag::

        journal = RequestJournal(path, fsync="never")
        executor = BatchExecutor(pool=NetworkPool(),
                                 registry=default_registry(), journal=journal)
        req = lambda rid, key, seed: RealizationRequest(
            request_id=rid, kind="degree_implicit", scenario="regular",
            n=12, seed=seed, idempotency_key=key)
        executor.handle(req("old", "k-compact", 1))
        journal.compact()                            # one compact record
        executor.handle(req("pair", "k-pair", 2))    # a keyed pair
        executor.handle(req("sess", "k-session", 3), session=("tok", 0))
        journal.append_rejected(
            error_response("busy", "degree_implicit", "window full",
                           ADMISSION_REJECTED, retry_after_ms=50),
            session=("tok", 1))
        pending = journal.append_admitted(req("pending", "k-pending", 4))
        executor.close()
        journal.close()
        with open(path, "ab") as fh:  # a crash 12 bytes into a completion
            fh.write(RequestJournal._frame(
                ("completed", pending + 1, pending, ()))[:12])

    The counts asserted below are the ones that commit's own reader
    reports for the file.
    """

    def test_recovers_what_the_old_reader_recovers(self, old_journal, capsys):
        size = os.path.getsize(old_journal)
        assert frame_flags(old_journal) == [False] * 8  # 7 whole + torn
        journal = RequestJournal(old_journal, fsync="never")
        try:
            rec = journal.recover()
            stats = journal.stats()
        finally:
            journal.close()
        assert (rec.records, rec.admitted, rec.completed, rec.rejected,
                rec.compacted) == (7, 3, 2, 1, 1)
        assert (rec.torn_tail, rec.truncated_bytes) == (True, 12)
        assert os.path.getsize(old_journal) == size - 12
        [(_, token, sidx, pending)] = rec.incomplete
        assert (token, sidx) == ("", -1)
        assert pending == make_request("pending", key="k-pending", seed=4)
        [(token, tail)] = rec.sessions.items()
        assert token == "tok"
        assert [(sidx, response.verdict, response.error_code)
                for sidx, response in tail] == [
            (0, "REALIZED", None), (1, "ERROR", ADMISSION_REJECTED)]
        assert stats["replay_keys"] == 3
        assert "torn" in capsys.readouterr().err.lower()

    def test_duplicate_keys_answered_field_identical(self, old_journal):
        fresh = make_executor()
        try:
            expected = {
                key: fresh.handle(make_request(rid, key=key, seed=seed))
                for rid, key, seed in (("old", "k-compact", 1),
                                       ("pair", "k-pair", 2),
                                       ("sess", "k-session", 3))
            }
        finally:
            fresh.close()
        journal = RequestJournal(old_journal, fsync="never")
        executor = make_executor(journal=journal)
        try:
            dups = {key: executor.handle(make_request(f"dup-{key}", key=key))
                    for key in expected}
        finally:
            executor.close()
            journal.close()
        for key, dup in dups.items():
            assert dup.request_id == f"dup-{key}"
            assert strip(dup) == strip(expected[key]), key
        assert (journal.stats()["replays"], journal.stats()["admitted"]) == (3, 0)

    def test_pending_admission_re_executed_exactly_once(self, old_journal):
        journal = RequestJournal(old_journal, fsync="never")
        executor = make_executor(journal=journal)
        try:
            sessions = executor.recover_journal()
            dup = executor.handle(make_request("dup", key="k-pending"))
            assert executor.stats()["requests_handled"] == 2  # recovery + replay
        finally:
            executor.close()
            journal.close()
        assert dup.verdict == "REALIZED" and dup.request_id == "dup"
        stats = journal.stats()
        assert (stats["admitted"], stats["completed"], stats["replays"],
                stats["incomplete"]) == (0, 1, 1, 0)
        assert [sidx for sidx, _ in sessions["tok"]] == [0, 1]
        reopened = RequestJournal(old_journal, fsync="never")
        try:
            assert reopened.stats()["recovered_incomplete"] == 0
            assert strip(reopened.replay_idempotent(
                make_request("again", key="k-pending"))) == strip(dup)
        finally:
            reopened.close()

    def test_mixed_old_and_new_frames_recover(self, old_journal):
        journal = RequestJournal(old_journal, fsync="never")
        executor = make_executor(journal=journal)
        try:
            executor.recover_journal()  # one new frame: the completion
            new = executor.handle(make_request("new", key="k-new", seed=5))
        finally:
            executor.close()
            journal.close()
        assert frame_flags(old_journal) == [False] * 7 + [True] * 3
        reopened = RequestJournal(old_journal, fsync="never")
        try:
            stats = reopened.stats()
            replays = {key: reopened.replay_idempotent(make_request("x", key=key))
                       for key in ("k-compact", "k-pair", "k-session",
                                   "k-pending", "k-new")}
            sessions = reopened.recover().sessions
        finally:
            reopened.close()
        assert (stats["recovered_records"], stats["torn_tail"],
                stats["recovered_incomplete"], stats["replay_keys"]) == (
            10, False, 0, 5)
        assert all(r is not None and r.verdict == "REALIZED"
                   for r in replays.values()), replays
        assert strip(replays["k-new"]) == strip(new)
        assert [sidx for sidx, _ in sessions["tok"]] == [0, 1]

    def test_compaction_flags_every_frame(self, old_journal):
        keys = ("k-compact", "k-pair", "k-session", "k-pending")
        journal = RequestJournal(old_journal, fsync="never")
        executor = make_executor(journal=journal)
        try:
            executor.recover_journal()
            before = {key: strip(journal.replay_idempotent(
                make_request("x", key=key))) for key in keys}
            journal.compact()
        finally:
            executor.close()
            journal.close()
        flags = frame_flags(old_journal)
        assert len(flags) == 6 and all(flags)  # 2 session + 4 key records
        reopened = RequestJournal(old_journal, fsync="never")
        try:
            after = {key: strip(reopened.replay_idempotent(
                make_request("x", key=key))) for key in keys}
            stats = reopened.stats()
            sessions = reopened.recover().sessions
        finally:
            reopened.close()
        assert after == before
        assert (stats["torn_tail"], stats["recovered_incomplete"]) == (False, 0)
        assert [sidx for sidx, _ in sessions["tok"]] == [0, 1]

    @pytest.mark.parametrize("written", ["old", "new"])
    def test_flipped_flag_drops_the_rest(self, written, old_journal, capsys):
        """Setting the flag on an old frame, or clearing it on a new one,
        makes that record unverifiable: it and everything after it go."""
        if written == "new":
            journal = RequestJournal(old_journal, fsync="never")
            journal.compact()
            journal.close()
        capsys.readouterr()
        offsets, size = record_offsets(old_journal)
        assert frame_flags(old_journal)[2] is (written == "new")
        with open(old_journal, "r+b") as fh:
            fh.seek(offsets[2] + 3)  # the length word's high byte
            high = fh.read(1)[0]
            fh.seek(offsets[2] + 3)
            fh.write(bytes([high ^ 0x80]))
        journal = RequestJournal(old_journal, fsync="never")
        try:
            stats = journal.stats()
        finally:
            journal.close()
        assert stats["recovered_records"] == 2
        assert stats["truncated_bytes"] == size - offsets[2]
        assert os.path.getsize(old_journal) == offsets[2]
        assert "torn" in capsys.readouterr().err.lower()


# --------------------------------------------------------------------- #
# Idempotency keys                                                      #
# --------------------------------------------------------------------- #


class TestIdempotencyKey:
    @pytest.mark.parametrize("bad", ["", 7, 1.5, True, ("k",)])
    def test_validation_rejects_non_string_keys(self, bad):
        with pytest.raises(ServiceError, match="idempotency_key"):
            make_request("r", key=bad).validate()

    def test_cache_key_neutral(self):
        """The key names the *submission*, not the workload: it must not
        split the response cache."""
        with_key = make_request("a", key="k").cache_key()
        without = make_request("b").cache_key()
        assert with_key == without

    def test_wire_round_trip(self):
        req = make_request("r", key="k-42")
        assert RealizationRequest.from_wire(req.to_wire()).idempotency_key == "k-42"
        assert RealizationRequest.from_dict(req.to_dict()).idempotency_key == "k-42"
        assert make_request("r").to_dict().get("idempotency_key") is None

    @pytest.mark.parametrize("mode", ["sequential", "processes"])
    def test_submit_replay_is_field_identical(self, tmp_path, mode):
        """Exactly-once holds on the futures path (submit) in both
        modes, not just on the blocking handle path."""
        path = str(tmp_path / "j.bin")
        journal = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal, mode=mode, workers=2)
        try:
            fresh = executor.submit(make_request("t1", key="kt")).result(timeout=120)
            dup = executor.submit(make_request("t2", key="kt")).result(timeout=120)
        finally:
            executor.close()
            journal.close()
        assert fresh.verdict == "REALIZED"
        assert dup.request_id == "t2"
        assert strip(dup) == strip(fresh)
        assert journal.stats()["admitted"] == 1
        assert journal.stats()["replays"] == 1

    def test_replay_settles_like_every_answer(self, tmp_path):
        """A replayed duplicate gets its latency samples like any other
        answer, with an execution sample of 0 (it ran nothing), while
        its envelope stays the journaled one, byte for byte."""

        def execution_sum(executor):
            (line,) = [
                line for line in executor.metrics.render().splitlines()
                if line.startswith("repro_request_execution_seconds_sum ")
            ]
            return float(line.split()[1])

        journal = RequestJournal(str(tmp_path / "j.bin"), fsync="never")
        executor = make_executor(journal=journal)
        try:
            fresh = executor.handle(make_request("r1", key="kr"))
            ran = execution_sum(executor)
            dup = executor.handle(make_request("r2", key="kr"))
            stats = executor.stats()
            assert execution_sum(executor) == ran > 0
        finally:
            executor.close()
            journal.close()
        assert journal.stats()["replays"] == 1
        assert dup.reenvelope("r1").to_wire() == fresh.to_wire()
        stages = stats["latency_stages"]
        assert stats["requests_handled"] == 2
        assert stats["latency"]["count"] == 2
        assert stages["queue_wait"]["count"] == stages["execution"]["count"] == 2


# --------------------------------------------------------------------- #
# Recovery of in-flight work                                            #
# --------------------------------------------------------------------- #


class TestRecovery:
    def test_incomplete_admission_re_executed_exactly_once(self, tmp_path):
        path = str(tmp_path / "j.bin")
        # Simulate a crash between admission and completion: the record
        # exists, the response never made it.
        journal = RequestJournal(path, fsync="never")
        journal.append_admitted(make_request("lost", key="kl"), session=("tok", 0))
        journal.close()

        journal2 = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal2)
        try:
            assert journal2.stats()["recovered_incomplete"] == 1
            sessions = executor.recover_journal()
            # The re-execution was journaled against the original
            # admission: nothing is incomplete any more...
            assert journal2.stats()["incomplete"] == 0
            # ...the session tail carries the recovered response...
            assert list(sessions) == ["tok"]
            (sidx, response), = sessions["tok"]
            assert sidx == 0 and response.verdict == "REALIZED"
            # ...and a duplicate submission replays instead of rerunning.
            dup = executor.handle(make_request("dup", key="kl"))
            assert strip(dup) == strip(response)
            assert executor.stats()["requests_handled"] == 2  # recovery + replay
        finally:
            executor.close()
            journal2.close()

        # A third process sees a fully completed log: nothing to redo.
        journal3 = RequestJournal(path, fsync="never")
        try:
            assert journal3.stats()["recovered_incomplete"] == 0
        finally:
            journal3.close()


# --------------------------------------------------------------------- #
# retry_after_ms                                                        #
# --------------------------------------------------------------------- #


class TestRetryAfter:
    def test_hint_is_deterministic_and_monotone(self):
        values = [retry_after_hint(i, 8) for i in range(9)]
        assert values == [retry_after_hint(i, 8) for i in range(9)]
        assert values == sorted(values)
        assert values[0] >= 1 and values[-1] == 100
        assert retry_after_hint(50, 8) == 100  # saturates at full window

    @pytest.mark.parametrize("bad", [0, -5, 1.5, True, "100"])
    def test_error_response_validates_hint(self, bad):
        with pytest.raises(ValueError, match="retry_after_ms"):
            error_response("r", "stats", "m", retry_after_ms=bad)

    def test_rejection_envelope_carries_hint(self):
        response = error_response(
            "r", "degree_implicit", "window full", code=ADMISSION_REJECTED,
            retry_after_ms=retry_after_hint(4, 4),
        )
        row = response.to_dict()
        assert row["detail"]["retry_after_ms"] == 100
        assert RETRY_AFTER_DRAINING_MS == 1000


# --------------------------------------------------------------------- #
# Session resume over the socket server                                 #
# --------------------------------------------------------------------- #


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


async def send_line(writer, payload):
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()


async def recv_line(reader, timeout=60):
    raw = await asyncio.wait_for(reader.readline(), timeout=timeout)
    assert raw, "connection closed before the expected response"
    return json.loads(raw)


def request_payload(request_id, n=12, seed=1):
    return {"request_id": request_id, "kind": "degree_implicit",
            "scenario": "regular", "n": n, "seed": seed}


class TestSessionResume:
    def test_handshake_resume_replay_and_ack(self, tmp_path):
        journal = RequestJournal(str(tmp_path / "j.bin"), fsync="never")
        executor = make_executor(journal=journal)

        async def scenario():
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send_line(writer, {"kind": "session"})
            handshake = await recv_line(reader)
            assert handshake["verdict"] == "SESSION"
            assert handshake["resumed"] is False and handshake["replayed"] == 0
            token = handshake["session"]
            await send_line(writer, request_payload("s0", seed=1))
            await send_line(writer, request_payload("s1", seed=2))
            r0 = await recv_line(reader)
            r1 = await recv_line(reader)
            assert [r0["session_seq"], r1["session_seq"]] == [0, 1]
            writer.close()  # vanish without acking anything
            await writer.wait_closed()

            # Reconnect: client saw s0 but not s1 -> acked=1 replays s1.
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await send_line(writer2, {"kind": "session", "session": token,
                                      "acked": 1})
            resumed = await recv_line(reader2)
            assert resumed["resumed"] is True and resumed["replayed"] == 1
            replayed = await recv_line(reader2)
            assert replayed["session_seq"] == 1
            assert strip(replayed) == strip(r1)
            # New traffic continues the sequence after the replay.
            await send_line(writer2, request_payload("s2", seed=3))
            r2 = await recv_line(reader2)
            assert r2["session_seq"] == 2

            # Unknown token: typed error, connection survives.
            await send_line(writer2, {"kind": "session", "session": "feedbeef",
                                      "acked": 0})
            unknown = await recv_line(reader2)
            assert unknown["error_code"] == SESSION_UNKNOWN
            await send_line(writer2, request_payload("s3", seed=4))
            assert (await recv_line(reader2))["verdict"] == "REALIZED"

            writer2.close()
            await writer2.wait_closed()
            server.drain()
            await server.wait_done()
            return server

        server = run(scenario())
        try:
            assert server.sessions_created == 1
            assert server.sessions_resumed == 1
            assert server.session_replayed == 1
        finally:
            executor.close()
            journal.close()

    def test_resume_across_restart_from_journal(self, tmp_path):
        """The durable half: the *replacement* server (fresh process
        state, sessions seeded from the journal) replays the tail."""
        path = str(tmp_path / "j.bin")
        journal = RequestJournal(path, fsync="never")
        executor = make_executor(journal=journal)
        holder = {}

        async def first_life():
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send_line(writer, {"kind": "session"})
            holder["token"] = (await recv_line(reader))["session"]
            await send_line(writer, request_payload("r0", seed=5))
            holder["r0"] = await recv_line(reader)
            writer.close()
            await writer.wait_closed()
            server.drain()
            await server.wait_done()

        run(first_life())
        executor.close()
        journal.close()

        journal2 = RequestJournal(path, fsync="never")
        executor2 = make_executor(journal=journal2)
        sessions = executor2.recover_journal()
        assert holder["token"] in sessions

        async def second_life():
            server = await SocketServer(
                executor2, port=0, window=8, sessions=sessions
            ).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send_line(writer, {"kind": "session",
                                     "session": holder["token"], "acked": 0})
            resumed = await recv_line(reader)
            assert resumed["resumed"] is True and resumed["replayed"] == 1
            replayed = await recv_line(reader)
            writer.close()
            await writer.wait_closed()
            server.drain()
            await server.wait_done()
            return replayed

        try:
            replayed = run(second_life())
        finally:
            executor2.close()
            journal2.close()
        assert replayed["session_seq"] == 0
        assert strip(replayed) == strip(holder["r0"])


# --------------------------------------------------------------------- #
# Fault actions                                                         #
# --------------------------------------------------------------------- #


class TestFaultActions:
    def test_fsync_error_degrades_but_keeps_serving(self, tmp_path, monkeypatch):
        plan = FaultPlan([FaultRule(action="fsync_error")])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        journal = RequestJournal(str(tmp_path / "j.bin"), fsync="always")
        executor = make_executor(journal=journal)
        try:
            response = executor.handle(make_request("f", key="kf"))
        finally:
            executor.close()
            journal.close()  # fsyncs, so it reads the plan: clear after
            faults.clear()
        assert response.verdict == "REALIZED"
        assert journal.stats()["fsync_errors"] >= 2
        assert journal.stats()["fsyncs"] == 0

    def test_state_path_bounds_fires_across_plan_instances(self, tmp_path):
        """max_fires with state_path is a *cross-process* bound: a
        re-parsed plan (what a respawned child does) sees prior fires."""
        state = str(tmp_path / "fires.log")
        plan = FaultPlan([FaultRule(action="crash", max_fires=1)],
                         state_path=state)
        assert plan.match("crash", "r1") is not None
        assert plan.match("crash", "r2") is None  # in-process bound
        # A fresh process re-parses the same JSON plan: without the
        # shared ledger it would fire again; with it, it must not.
        reborn = FaultPlan.from_dict(json.loads(plan.to_json()))
        assert reborn.state_path == state
        assert reborn.match("crash", "r3") is None
        # An unrelated action is unaffected.
        assert reborn.match("fsync_error", "r3") is None  # no such rule

    def test_server_kill_action_is_known(self):
        assert "server_kill" in faults.ACTIONS
        plan = FaultPlan.from_dict(
            {"rules": [{"action": "server_kill", "request_ids": ["x"]}]}
        )
        assert plan.match("server_kill", "x") is not None


# --------------------------------------------------------------------- #
# Supervisor                                                            #
# --------------------------------------------------------------------- #


class _FakeChild:
    def __init__(self, code):
        self.pid = 4242
        self._code = code

    def wait(self):
        return self._code

    def poll(self):
        return self._code

    def send_signal(self, signum):  # pragma: no cover - not exercised
        pass


class TestSupervisorLoop:
    def _run(self, codes, max_restarts=3):
        spawned, slept, out = [], [], []

        class Sink:
            def write(self, text):
                out.append(text)

            def flush(self):
                pass

        def popen(argv):
            spawned.append(list(argv))
            return _FakeChild(codes[len(spawned) - 1])

        rc = supervise_loop(
            ["serve", "--port", "0"], policy=supervisor_policy(seed=7),
            max_restarts=max_restarts, stream=Sink(),
            sleep=slept.append, popen=popen,
        )
        return rc, spawned, slept, "".join(out)

    def test_clean_exit_passes_through(self):
        for code in (0, 1):
            rc, spawned, slept, _ = self._run([code])
            assert rc == code
            assert len(spawned) == 1 and slept == []

    def test_crashes_respawn_with_seeded_backoff_then_clean(self):
        rc, spawned, slept, log = self._run([-9, 137, 0])
        assert rc == 0
        assert len(spawned) == 3
        policy = supervisor_policy(seed=7)
        assert slept == [policy.delay_sec(2), policy.delay_sec(3)]
        assert "respawn 1/3" in log and "respawn 2/3" in log

    def test_restart_bound_gives_up(self):
        rc, spawned, _, log = self._run([-9, -9, -9], max_restarts=2)
        assert rc == 2
        assert len(spawned) == 3  # original + 2 respawns
        assert "giving up" in log

    def test_schedule_matches_delays(self):
        policy = supervisor_policy(seed=3)
        assert policy.schedule(4) == [policy.delay_sec(k) for k in (1, 2, 3, 4)]
        assert policy.schedule(1) == [0.0]

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            supervise_loop(["x"], max_restarts=-1)


# --------------------------------------------------------------------- #
# Kill -9 integration: supervisor + journal + session resume            #
# --------------------------------------------------------------------- #


class _StderrWatcher:
    def __init__(self, proc):
        self.proc = proc
        self.lines = []

    def expect(self, pattern, timeout=60):
        deadline = time.time() + timeout
        while time.time() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                if self.proc.poll() is not None:
                    break
                time.sleep(0.02)
                continue
            self.lines.append(line)
            match = re.search(pattern, line)
            if match:
                return match
        raise AssertionError(
            f"never saw {pattern!r} in supervisor stderr:\n{''.join(self.lines)}"
        )


def _connect(port):
    sock = socket_module.create_connection(("127.0.0.1", port), timeout=30)
    return sock, sock.makefile("r", encoding="utf-8")


def _send(sock, payload):
    sock.sendall((json.dumps(payload) + "\n").encode())


class TestKillNineIntegration:
    def test_sigkill_mid_load_exactly_once(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        journal_path = str(tmp_path / "journal.bin")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--supervise",
             "--port", "0", "--journal", journal_path, "--fsync", "batch",
             "--max-restarts", "3"],
            stderr=subprocess.PIPE, text=True, env=env, cwd=str(tmp_path),
        )
        watcher = _StderrWatcher(proc)
        try:
            child_pid = int(watcher.expect(r"supervise: child pid (\d+)").group(1))
            port = int(watcher.expect(r"listening on 127\.0\.0\.1:(\d+)").group(1))

            sock, reader = _connect(port)
            _send(sock, {"kind": "session"})
            token = json.loads(reader.readline())["session"]
            _send(sock, {**request_payload("r1", seed=11),
                         "idempotency_key": "once-1"})
            r1 = json.loads(reader.readline())
            assert r1["verdict"] == "REALIZED" and r1["session_seq"] == 0

            os.kill(child_pid, signal.SIGKILL)
            new_pid = int(watcher.expect(r"supervise: child pid (\d+)").group(1))
            assert new_pid != child_pid
            port2 = int(
                watcher.expect(r"listening on 127\.0\.0\.1:(\d+)").group(1)
            )
            reader.close()
            sock.close()

            sock2, reader2 = _connect(port2)
            _send(sock2, {"kind": "session", "session": token, "acked": 1})
            resumed = json.loads(reader2.readline())
            assert resumed["resumed"] is True and resumed["replayed"] == 0

            # Exactly-once across the kill: the duplicate is answered
            # from the recovered journal, field-identical, not rerun.
            _send(sock2, {**request_payload("r1-dup", seed=11),
                          "idempotency_key": "once-1"})
            dup = json.loads(reader2.readline())
            assert dup["request_id"] == "r1-dup"
            assert strip(dup) == strip(r1)

            _send(sock2, {"kind": "stats"})
            stats = json.loads(reader2.readline())
            jstats = stats["executor"]["journal"]
            assert jstats["replays"] >= 1
            assert jstats["incomplete"] == 0
            reader2.close()
            sock2.close()

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) in (0, 1)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stderr.close()
