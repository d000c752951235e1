"""The JSONL front end of the realization service, over TCP or stdio.

The paper's NCC model targets overlay/peer-to-peer settings where many
independent parties issue small realization queries concurrently.
:class:`SocketServer` multiplexes any number of newline-delimited JSONL
connections onto one shared :class:`BatchExecutor`, and :func:`serve`
runs a pair of streams (``python -m repro serve`` without ``--port``:
stdin and stdout) as one more connection of the same server, so one
read loop, route, admission, journal and emit path answers both:

* **Same envelopes.**  Each line is parsed by the executor's own
  ``parse_request_payload``; responses are the standard
  :class:`~repro.service.api.RealizationResponse` dicts.  The executor's
  cache/coalescing layers sit behind the connection unchanged, so
  responses are bit-identical to the ``run()`` path.  A line longer
  than the reader's limit (asyncio's default, 64 KiB) is answered with
  an ``ERROR`` envelope and skipped through its newline; the connection
  keeps serving.
* **One admission path.**  Every request enters the executor's request
  core (``BatchExecutor._submit``) on the event loop, in every mode.
  Cache hits, journal replays and validation errors come back already
  answered and are queued for emission at once, holding no window slot;
  misses run on the executor's in-parent lane (sequential) or its
  process pool and stream back when done.  A request's
  ``deadline_ms`` clock starts at admission.
* **Per-connection in-order streaming.**  Every connection owns a FIFO
  of pending items; a response is written as soon as its future
  completes *and* every earlier response on that connection has been
  written.  Connections never block each other.
* **Bounded admission, typed rejection.**  A global in-flight window
  (the CLI's ``--window``) caps the misses running across all clients,
  and each client is further held to a fair share
  ``max(1, window // connections)``.  Overflow is not queued: the
  request is answered immediately with an ``ERROR`` envelope carrying
  ``error_code="ADMISSION_REJECTED"``, so clients can back off and
  retry instead of silently stalling.
* **A pipe waits instead.**  A stdio client can neither retry nor
  reconnect, so on a pipe connection the reader waits for room at the
  window instead of drawing a rejection, and once the input ends every
  answer is written, however long it runs (a socket's closing flush is
  bounded by :data:`EMIT_TIMEOUT_SEC`).
* **One yield per wait or per fair share, one write per run.**  A
  connection's reader admits every complete line already buffered
  before it yields: it yields when it must wait for bytes, or at the
  latest after one fair share of lines, so pipelined connections
  interleave a share at a time instead of one socket being drained dry
  first.  Its emitter writes each run of answered responses with one
  write and one drain, and writes what it holds before it waits on a
  running miss.
* **Graceful drain.**  ``drain()`` (installed on SIGTERM/SIGINT by
  :func:`serve_socket`) stops accepting connections, rejects new
  requests, lets in-flight work finish and flush, then shuts down.
  :func:`serve` ends at the end of its input instead.
* **Introspection.**  A ``{"kind": "stats"}`` line is answered inline
  (never queued behind realization work) with the executor's counters —
  cache, coalescing, crashes, and p50/p99 request latency — plus
  the server's own admission counters.
* **Session resume.**  A ``{"kind": "session"}`` handshake issues a
  token; every realization response emitted on a session-bound
  connection is buffered under a monotone ``session_seq`` (and, with a
  journal attached, recorded durably).  A client that reconnects — after
  a dropped socket *or* a server restart — presents the token with the
  count of responses it has processed and receives the unacked tail
  replayed in order, field-identical, before new traffic:

  .. code-block:: text

     C> {"kind": "session"}
     S< {"kind": "session", "ok": true, "verdict": "SESSION",
         "session": "ab12...", "resumed": false, "replayed": 0, ...}
     C> {"kind": "tree", "request_id": "t1", "degrees": [1, 1]}
     S< {..., "request_id": "t1", "session_seq": 0}
        -- connection drops; client reconnects --
     C> {"kind": "session", "session": "ab12...", "acked": 0}
     S< {"kind": "session", ..., "resumed": true, "replayed": 1}
     S< {..., "request_id": "t1", "session_seq": 0}   (replay)
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import secrets
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.service import faults
from repro.service.api import LINE_HEAD, RealizationResponse, error_response
from repro.service.executor import (
    BatchExecutor,
    parse_request_payload,
    validate_window,
)
from repro.service.pool import NetworkPool

__all__ = [
    "ADMISSION_REJECTED",
    "METRICS_KIND",
    "SESSION_KIND",
    "SESSION_UNKNOWN",
    "STATS_KIND",
    "SocketServer",
    "retry_after_hint",
    "serve",
    "serve_socket",
]

#: Typed ``error_code`` for requests refused by admission control (the
#: window is full, the client exceeded its fair share, or the server is
#: draining).  The request was *not* executed; clients should back off
#: and resubmit.
ADMISSION_REJECTED = "ADMISSION_REJECTED"

#: Request ``kind`` answered by the server itself, on every connection
#: (not a realizer, so absent from ``api.KINDS``).
STATS_KIND = "stats"

#: Request ``kind`` answered inline with the Prometheus text exposition
#: of the executor's metrics registry (same carve-out as ``stats``).
#: The envelope wraps the exposition: ``{"kind": "metrics",
#: "verdict": "METRICS", "content_type": ..., "text": ...}`` — scrape
#: bridges unwrap ``text`` verbatim.
METRICS_KIND = "metrics"

#: Request ``kind`` for the session-resume handshake (server-side
#: carve-out like ``stats``/``metrics``).  Bare → issue a fresh token;
#: with ``session``+``acked`` → rebind and replay the unacked tail;
#: with ``session``+``ack`` → trim the buffer only (flow control).
SESSION_KIND = "session"

#: Typed ``error_code`` for a resume presenting a token this server has
#: no state for (never issued, expired/evicted, or the journal holding
#: it was compacted away).  The client's only recourse is a fresh
#: handshake and re-submission (idempotency keys make that safe).
SESSION_UNKNOWN = "SESSION_UNKNOWN"

#: Deterministic ``retry_after_ms`` hint on draining-server rejections:
#: the drain outlasts any window pressure, so the hint is a flat bound.
RETRY_AFTER_DRAINING_MS = 1000

#: Unacked responses buffered per session (oldest dropped beyond this —
#: a client that never acks cannot pin unbounded memory).
SESSION_BUFFER_LIMIT = 1024

#: Sessions tracked at once (oldest evicted beyond this).
MAX_SESSIONS = 1024

#: Bound (seconds) on flushing a closing connection's pending responses.
#: When every request the connection admitted carried a deadline, the
#: bound tightens to just past the latest one (``_emit_bound``), so an
#: expired client never pins the drain this long.
EMIT_TIMEOUT_SEC = 60.0

#: Bound (seconds) on waiting for a closing connection's transport to
#: report closed.
CLOSE_TIMEOUT_SEC = 5.0


def retry_after_hint(inflight: int, window: int) -> int:
    """Deterministic backoff hint (ms) for ``ADMISSION_REJECTED``.

    Scales linearly with window occupancy — a nearly-empty window says
    "come right back", a saturated one says "give it ~100ms" — and is a
    pure function of two counters, so identical load patterns produce
    identical hints (the chaos bench asserts on them).
    """
    occupancy = min(1.0, inflight / max(1, window))
    return max(1, int(round(100 * occupancy)))


#: Sentinel closing a connection's emit FIFO.
_EOF = object()

#: Sentinel: ``_route`` already enqueued everything itself (the session
#: handshake emits a reply *plus* replayed responses).
_HANDLED = object()

_WRITE_FAILURES = (OSError, RuntimeError)  # reset/broken pipe/closed transport


class _Session:
    """Resumable response stream: the unacked tail, keyed by seq."""

    __slots__ = ("token", "next_index", "buffer", "dropped")

    def __init__(self, token: str) -> None:
        self.token = token
        self.next_index = 0  # next session_seq to assign at admission
        # session_seq -> response payload (without the seq, re-stamped
        # at emit), insertion-ordered = seq-ordered.
        self.buffer: "OrderedDict[int, Dict[str, Any]]" = OrderedDict()
        self.dropped = 0

    def record(self, sidx: int, payload: Dict[str, Any]) -> None:
        self.buffer[sidx] = payload
        while len(self.buffer) > SESSION_BUFFER_LIMIT:
            self.buffer.popitem(last=False)
            self.dropped += 1

    def trim(self, acked: int) -> None:
        """Drop buffered responses the client has processed."""
        for sidx in [s for s in self.buffer if s < acked]:
            del self.buffer[sidx]


class _Indexed:
    """A FIFO item bound to a session slot (stamped ``session_seq``)."""

    __slots__ = ("index", "item", "session")

    def __init__(self, index: int, item: Any, session: "_Session") -> None:
        self.index = index
        self.item = item
        self.session = session


class _Replay:
    """A buffered response re-emitted on resume (not re-recorded)."""

    __slots__ = ("index", "payload")

    def __init__(self, index: int, payload: Dict[str, Any]) -> None:
        self.index = index
        self.payload = payload


class _Connection:
    """Per-connection state: the in-order emit FIFO and admission count."""

    __slots__ = (
        "writer", "queue", "inflight", "broken", "deadline_horizon", "bare",
        "session", "pipe",
    )

    def __init__(self, writer: Any, pipe: bool = False) -> None:
        self.writer = writer
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self.inflight = 0  # admitted, future not yet done
        self.broken = False  # write failed: consume silently from here on
        # Latest absolute deadline admitted on this connection, and
        # whether any admitted request carried *no* deadline (sticky:
        # one bare request means the emit flush can't be deadline-bounded).
        self.deadline_horizon: Optional[float] = None
        self.bare = False
        self.session: Optional[_Session] = None
        # A pipe (stdio) connection's "a miss finished" signal, for a
        # reader waiting for room at the window; None on a socket.
        self.pipe: Optional[asyncio.Event] = asyncio.Event() if pipe else None


class _PipeReader(asyncio.StreamReader):
    """A pipe connection's input, read by a daemon thread one chunk at
    a time, each when the read loop has used up the last: the read-ahead
    stays within a chunk even while the loop blocks in a stdout write.

    A descriptor is read with ``os.read``: a thread blocked inside
    ``sys.stdin``'s buffered reader holds its lock, and a pool worker
    forked meanwhile waits on it forever when its start-up closes
    ``sys.stdin``.  Any other stream is iterated, one item per line.  A
    failed read reaches the read loop as its exception.
    """

    def __init__(self, stream: Any) -> None:
        super().__init__()
        self._wanted = threading.Semaphore(0)
        self._closed = False
        self._ended = False  # EOF or the read's failure was handed over
        self._thread = threading.Thread(
            target=self._pump,
            args=(_read_chunk(stream), asyncio.get_running_loop()),
            name="serve-stdin", daemon=True,
        )
        self._thread.start()

    async def _wait_for_data(self, func_name: str) -> None:
        # Where every read that finds the buffer used up waits: ask for
        # the next chunk.  (StreamReader's own flow control pauses only
        # past twice its limit, and only while the loop runs the feeds.)
        self._wanted.release()
        await super()._wait_for_data(func_name)

    def _pump(self, read: Callable[[], bytes], loop: asyncio.AbstractEventLoop) -> None:
        try:
            while True:
                self._wanted.acquire()
                if self._closed:
                    return
                try:
                    chunk = read()
                except Exception as exc:
                    self._ended = True
                    loop.call_soon_threadsafe(self.set_exception, exc)
                    return
                if not chunk:
                    self._ended = True
                    loop.call_soon_threadsafe(self.feed_eof)
                    return
                loop.call_soon_threadsafe(self.feed_data, chunk)
        except RuntimeError:
            pass  # the loop closed while a read outlived the connection

    def close(self) -> None:
        """Stop the thread: joined if the input ended, else left to a
        read it is blocked in (a daemon, it exits after that)."""
        self._closed = True
        self._wanted.release()
        if self._ended:
            self._thread.join()


def _read_chunk(stream: Any) -> Callable[[], bytes]:
    """The read function behind :class:`_PipeReader` (``b""`` at EOF)."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError):  # io.StringIO, a line iterator
        lines = iter(stream)

        def next_line() -> bytes:
            line = next(lines, None)
            if line is None:
                return b""
            return (line if line.endswith("\n") else line + "\n").encode()

        return next_line
    return lambda: os.read(fd, io.DEFAULT_BUFFER_SIZE)


class _PipeWriter:
    """A pipe connection's output, written and flushed in the event loop
    itself (it serves this one connection).  A failed write is kept for
    :func:`serve` to raise and ends the reading too: a read waiting on
    the input raises it at once."""

    def __init__(self, stream: Any, reader: _PipeReader) -> None:
        self.stream = stream
        self.reader = reader
        self.error: Optional[Exception] = None

    def write(self, data: bytes) -> None:
        try:
            self.stream.write(data.decode())
            self.stream.flush()
        except Exception as exc:
            self.error = exc
            self.reader.set_exception(exc)
            raise

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass  # the stream is the caller's

    async def wait_closed(self) -> None:
        pass


class SocketServer:
    """JSONL-over-TCP multiplexer for one shared :class:`BatchExecutor`.

    Run from inside a running event loop::

        server = SocketServer(executor, port=0, window=64)
        await server.start()          # binds; server.port is now real
        ...
        server.drain()                # graceful shutdown
        handled, errors = await server.wait_done()

    or use :func:`serve_socket` for the blocking CLI shape.

    ``window`` is the shared backpressure knob (``None`` → the module
    default, else a validated int ≥ 1 — exactly :func:`serve`'s rule).
    """

    def __init__(
        self,
        executor: BatchExecutor,
        host: str = "127.0.0.1",
        port: int = 0,
        window: Optional[int] = None,
        sessions: Optional[
            Dict[str, List[Tuple[int, RealizationResponse]]]
        ] = None,
    ) -> None:
        self.executor = executor
        self.host = host
        self.port = port  # rewritten with the bound port by start()
        self.window = validate_window(window)
        self.handled = 0  # responses emitted (all connections)
        self.errors = 0  # of those, verdict == "ERROR"
        self.rejected = 0  # admission rejections (counted in errors too)
        self.connections_total = 0
        self.started_at = time.monotonic()  # re-stamped by start()
        self._inflight = 0  # admitted requests whose future is not done
        self._connections: Set[_Connection] = set()
        self._conn_tasks: "Set[asyncio.Task]" = set()
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional[asyncio.Event] = None
        # Session resume: token -> _Session, optionally seeded from a
        # journal recovery (BatchExecutor.recover_journal()) so clients
        # of the *previous* server process can resume here.
        self.sessions_created = 0
        self.sessions_resumed = 0
        self.session_replayed = 0  # responses re-emitted on resume
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        for token, tail in (sessions or {}).items():
            session = _Session(token)
            for sidx, response in tail:
                session.buffer[sidx] = response.to_dict()
                session.next_index = max(session.next_index, sidx + 1)
            self._sessions[token] = session

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    async def start(self) -> "SocketServer":
        """Bind and start accepting; resolves ``self.port`` (port 0 ⇒
        ephemeral) so callers can discover the real address."""
        self._attach()
        self._server = await asyncio.start_server(
            self._client_connected, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def _attach(self) -> None:
        """Bind the server to the running event loop."""
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self.started_at = time.monotonic()
        # The server's own admission/emission counters join the
        # executor's registry as a collector, so one scrape (`metrics`
        # kind or --metrics-port) sees the whole serve stack.  Test
        # stubs standing in for the executor may carry no registry.
        registry = getattr(self.executor, "metrics", None)
        if registry is not None:
            registry.register_collector("server", self._server_metrics)

    def drain(self) -> None:
        """Begin graceful shutdown (idempotent, callable from signal
        handlers): stop accepting, reject new requests, let in-flight
        work finish and flush, then wake :meth:`wait_done`."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        assert self._loop is not None, "drain() before start()"
        task = self._loop.create_task(self._finish_drain())
        # Keep a reference so the finisher is never garbage-collected
        # mid-flight (asyncio holds tasks weakly).
        self._drain_task = task

    async def _finish_drain(self) -> None:
        while self._inflight > 0:
            await asyncio.sleep(0.01)
        # Every admitted future is done; completed responses still
        # sitting in connection FIFOs flush when the handler's finally
        # block runs.  Cancelling the handler is the EOF nudge — its
        # read loop is parked on clients that may never close.
        for task in list(self._conn_tasks):
            task.cancel()
        while self._conn_tasks:
            await asyncio.sleep(0.01)
        if self._server is not None:
            await self._server.wait_closed()
        assert self._done is not None
        self._done.set()

    async def wait_done(self) -> Tuple[int, int]:
        """Block until a :meth:`drain` completes; ``(handled, errors)``
        with the same semantics as :func:`serve`."""
        assert self._done is not None, "wait_done() before start()"
        await self._done.wait()
        return self.handled, self.errors

    # ------------------------------------------------------------------ #
    # Per-connection machinery                                           #
    # ------------------------------------------------------------------ #

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: Any, pipe: bool = False
    ) -> None:
        if self._draining:
            # Accepted before close() landed: one typed rejection, bye.
            rejection = error_response(
                "", "?", "server is draining; connection rejected",
                code=ADMISSION_REJECTED,
            )
            try:
                writer.write((json.dumps(rejection.to_dict()) + "\n").encode())
                await writer.drain()
            except _WRITE_FAILURES:
                pass
            writer.close()
            return
        conn = _Connection(writer, pipe)
        self._connections.add(conn)
        self.connections_total += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        emit = asyncio.create_task(self._emit_loop(conn))
        try:
            await self._read_loop(reader, conn)
        except asyncio.CancelledError:
            pass  # drain's EOF nudge: flush and close below
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-read
        finally:
            self._connections.discard(conn)
            conn.queue.put_nowait(_EOF)
            try:
                # Shielded: a second cancellation must not abandon the
                # flush of already-completed responses.
                await asyncio.wait_for(
                    asyncio.shield(emit),
                    # A pipe client cannot reconnect: every answer is written.
                    timeout=None if conn.pipe is not None else self._emit_bound(conn),
                )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                emit.cancel()
            writer.close()
            try:
                await asyncio.wait_for(
                    writer.wait_closed(), timeout=CLOSE_TIMEOUT_SEC
                )
            except (asyncio.TimeoutError, asyncio.CancelledError, *_WRITE_FAILURES):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    def _emit_bound(self, conn: _Connection) -> float:
        """Flush bound for a closing connection's emit FIFO.

        :data:`EMIT_TIMEOUT_SEC` by default; when *every* request the
        connection admitted carried a deadline, tightened to one second
        past the latest of those deadlines (floored at 0.5s) — the
        executor answers each of them by then, typed or realized.
        """
        bound = EMIT_TIMEOUT_SEC
        if conn.deadline_horizon is not None and not conn.bare:
            remaining = conn.deadline_horizon - time.monotonic() + 1.0
            bound = min(bound, max(0.5, remaining))
        return bound

    def _fair_share(self) -> int:
        """One connection's share of the window: its cap on in-flight
        admissions, and the most lines its reader admits per turn."""
        return max(1, self.window // max(1, len(self._connections)))

    async def _read_loop(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        burst = 0
        skipping = False  # inside an over-long line, dropped through its newline
        while True:
            # readuntil() returns a line already buffered without yielding,
            # so a pipelined write is admitted in one turn; it yields when
            # it must wait for bytes.
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # EOF: a last line may lack its newline
            except asyncio.LimitOverrunError as exc:
                # A line longer than the reader's limit is answered once
                # and dropped: what has arrived of it now (up to its
                # newline, if that came), the rest as it arrives.
                await reader.readexactly(exc.consumed)
                if not skipping:
                    skipping = True
                    # StreamReader has no public accessor for its limit,
                    # so the private ``_limit`` is read: start_server()
                    # passes none, and reading it keeps the message true
                    # to asyncio's default (64 KiB) instead of a copy.
                    limit = reader._limit
                    conn.queue.put_nowait(self._immediate(
                        error_response(
                            "", "?",
                            f"request line longer than the {limit}-byte "
                            "line limit; line skipped",
                        ),
                        conn,
                    ))
                continue
            if skipping:
                skipping = False  # the over-long line's tail
                continue
            if not line:
                return  # client EOF
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            if conn.pipe is not None:
                # A pipe client cannot retry: wait for room at the
                # window instead of drawing ADMISSION_REJECTED.
                while self._inflight >= self.window:
                    conn.pipe.clear()
                    await conn.pipe.wait()
            item = self._route(text, conn)
            if item is not _HANDLED:
                conn.queue.put_nowait(item)
            # Fairness: after a fair share of lines, yield anyway, so one
            # socket holding a deep pipeline cannot starve the others.
            burst += 1
            if burst >= self._fair_share():
                burst = 0
                await asyncio.sleep(0)

    def _route(self, text: str, conn: _Connection) -> Any:
        """One request line -> FIFO item: a response payload (parse
        error, rejection, stats) or the admitted request's future.
        Returns ``_HANDLED`` when it enqueued items itself (the session
        handshake emits a reply plus any replayed responses)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return self._immediate(
                error_response("", "?", f"bad JSON: {exc}"), conn
            )
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind == STATS_KIND:
            return self._stats_envelope(payload)
        if kind == METRICS_KIND:
            return self._metrics_envelope(payload)
        if kind == SESSION_KIND:
            self._session_handshake(payload, conn)
            return _HANDLED
        parsed = parse_request_payload(payload)
        if isinstance(parsed, RealizationResponse):
            return self._immediate(parsed, conn)  # parse error envelope
        return self._admit(parsed, conn)

    def _immediate(self, response: RealizationResponse, conn: _Connection) -> Any:
        """An envelope answered without executing (parse error or
        admission rejection): journaled as a ``rejected`` record when a
        journal is attached, and bound to the next session slot so a
        resumed client sees the identical stream."""
        session = conn.session
        slot: Optional[Tuple[str, int]] = None
        sidx: Optional[int] = None
        if session is not None:
            sidx = session.next_index
            session.next_index += 1
            slot = (session.token, sidx)
        journal = getattr(self.executor, "journal", None)
        if journal is not None:
            journal.append_rejected(response, slot)
        if sidx is None:
            return response
        assert session is not None
        return _Indexed(sidx, response, session)

    # ------------------------------------------------------------------ #
    # Session resume                                                     #
    # ------------------------------------------------------------------ #

    def _session_envelope(
        self, request_id: str, session: _Session, resumed: bool, replayed: int
    ) -> Dict[str, Any]:
        return {
            "request_id": request_id,
            "kind": SESSION_KIND,
            "ok": True,
            "verdict": "SESSION",
            "session": session.token,
            "resumed": resumed,
            "replayed": replayed,
            "next_seq": session.next_index,
        }

    def _session_handshake(self, payload: Dict[str, Any], conn: _Connection) -> None:
        """Create, resume, or ack a session (items go straight onto the
        connection FIFO: the reply, then any replayed responses, strictly
        before traffic admitted afterwards)."""
        request_id = str(payload.get("request_id") or "")
        token = payload.get("session")
        ack_only = "ack" in payload
        acked = payload.get("ack" if ack_only else "acked", 0)
        if (
            not isinstance(acked, int)
            or isinstance(acked, bool)
            or acked < 0
        ):
            conn.queue.put_nowait(
                error_response(
                    request_id, SESSION_KIND,
                    f"'{'ack' if ack_only else 'acked'}' must be a "
                    f"non-negative integer, got {acked!r}",
                )
            )
            return
        if token is None:
            while len(self._sessions) >= MAX_SESSIONS:
                self._sessions.popitem(last=False)  # oldest token out
            token = secrets.token_hex(8)
            while token in self._sessions:  # pragma: no cover - 2^-64
                token = secrets.token_hex(8)
            session = _Session(token)
            self._sessions[token] = session
            conn.session = session
            self.sessions_created += 1
            conn.queue.put_nowait(
                self._session_envelope(request_id, session, False, 0)
            )
            return
        session = (
            self._sessions.get(token) if isinstance(token, str) else None
        )
        if session is None:
            conn.queue.put_nowait(
                error_response(
                    request_id, SESSION_KIND,
                    f"unknown session token {token!r}; open a fresh session "
                    "and resubmit (idempotency keys make resubmission safe)",
                    code=SESSION_UNKNOWN,
                )
            )
            return
        session.trim(acked)
        if ack_only:
            conn.queue.put_nowait(
                self._session_envelope(request_id, session, False, 0)
            )
            return
        conn.session = session
        self._sessions.move_to_end(token)
        self.sessions_resumed += 1
        pending = list(session.buffer.items())
        conn.queue.put_nowait(
            self._session_envelope(request_id, session, True, len(pending))
        )
        for sidx, buffered in pending:
            conn.queue.put_nowait(_Replay(sidx, buffered))

    def _admit(self, request: Any, conn: _Connection) -> Any:
        """Admission control: dispatch within the window, typed
        rejection beyond it.  Rejected requests are never executed; the
        rejection carries a deterministic ``retry_after_ms`` hint
        (:func:`retry_after_hint`, from window occupancy) in ``detail``
        so clients pace their resubmission.  An admitted request already
        answered by ``_submit`` goes straight to the FIFO; only a miss
        holds a window slot until its future completes."""
        if self._draining:
            self.rejected += 1
            return self._immediate(
                error_response(
                    request.request_id, request.kind,
                    "server is draining; request rejected",
                    code=ADMISSION_REJECTED,
                    retry_after_ms=RETRY_AFTER_DRAINING_MS,
                ),
                conn,
            )
        if self._inflight >= self.window:
            self.rejected += 1
            return self._immediate(
                error_response(
                    request.request_id, request.kind,
                    f"in-flight window full ({self.window}); back off and retry",
                    code=ADMISSION_REJECTED,
                    retry_after_ms=retry_after_hint(self._inflight, self.window),
                ),
                conn,
            )
        share = self._fair_share()
        if conn.inflight >= share:
            self.rejected += 1
            return self._immediate(
                error_response(
                    request.request_id, request.kind,
                    f"per-connection fair share exhausted "
                    f"({share} of window {self.window}); back off and retry",
                    code=ADMISSION_REJECTED,
                    retry_after_ms=retry_after_hint(self._inflight, self.window),
                ),
                conn,
            )
        # Deadlines are stamped at admission — queue time behind the
        # lane or the process pool counts against the client's budget,
        # like any real RPC deadline.
        deadline: Optional[float] = None
        if getattr(request, "deadline_ms", None) is not None:
            deadline = time.monotonic() + request.deadline_ms / 1000.0
            if conn.deadline_horizon is None or deadline > conn.deadline_horizon:
                conn.deadline_horizon = deadline
        else:
            conn.bare = True
        # Session slot assignment happens at admission (read order), and
        # the per-connection FIFO preserves it through emit — so
        # session_seq is dense and ordered even though futures complete
        # out of order.  The slot rides to the executor so the journal's
        # admitted record can rebuild the session after a restart.
        slot: Optional[Tuple[str, int]] = None
        sidx: Optional[int] = None
        if conn.session is not None:
            sidx = conn.session.next_index
            conn.session.next_index += 1
            slot = (conn.session.token, sidx)
        # Deliberately the non-reopening _submit: a racing close() must
        # resolve the future, not resurrect the executor's lane or pool.
        cfut = self.executor._submit(
            request, Future(), deadline=deadline, session=slot
        )
        if cfut.done():
            item: Any = cfut.result()
        else:
            self._inflight += 1
            conn.inflight += 1
            cfut.add_done_callback(lambda _f, c=conn: self._release_threadsafe(c))
            item = asyncio.wrap_future(cfut, loop=self._loop)
        if sidx is None:
            return item
        assert conn.session is not None
        return _Indexed(sidx, item, conn.session)

    def _release_threadsafe(self, conn: _Connection) -> None:
        try:
            assert self._loop is not None
            self._loop.call_soon_threadsafe(self._release, conn)
        except RuntimeError:  # loop already closed (forced teardown)
            pass

    def _release(self, conn: _Connection) -> None:
        self._inflight -= 1
        conn.inflight -= 1
        if conn.pipe is not None:
            conn.pipe.set()

    async def _emit_loop(self, conn: _Connection) -> None:
        """Drain one connection's FIFO to its writer, in order.

        Each pass takes every item already queued.  Answered items (a
        response, an envelope, a replay, a finished future) join one
        run, which goes out with one write and one drain
        (:meth:`_flush`).  The run is flushed before the loop awaits a
        pending future, so nothing answered waits behind a running miss.

        A cache hit's line is its key's stored encoding: the executor
        encoded the rest of the line once, when it stored the answer
        (``line_tail``), and the hit adds only its own ``request_id``,
        through this module's ``json.dumps``.  Every other response —
        a miss, an error, a journal replay — and every envelope is
        encoded whole.

        Session-slotted items (``_Indexed``) keep the dict: it is
        recorded into the session's resume buffer *before* the write —
        and before the broken-connection check, which is the point: a
        response that completes after the client dropped is exactly the
        one a resume must replay.  Replays (``_Replay``) are re-emitted
        verbatim and neither re-recorded nor re-counted in ``handled``.
        The ``handled``/``errors`` counts and the ``writer_error`` fault
        hook read a response's ``verdict`` and ``request_id`` fields.
        """
        queue = conn.queue
        held: List[bytes] = []  # the run: encoded lines not yet written
        while True:
            if queue.empty():
                await self._flush(conn, held)
                item = await queue.get()
            else:
                item = queue.get_nowait()
            if item is _EOF:
                await self._flush(conn, held)
                return
            sidx: Optional[int] = None
            session: Optional[_Session] = None
            if type(item) is _Replay:
                payload = dict(item.payload)
                payload["session_seq"] = item.index
                self.session_replayed += 1
                if not conn.broken:
                    held.append((json.dumps(payload) + "\n").encode())
                continue
            if type(item) is _Indexed:
                sidx, session, item = item.index, item.session, item.item
            line_tail: Optional[bytes] = None
            if isinstance(item, dict):
                # A stats, metrics or session envelope.
                payload = item
                request_id, verdict = item.get("request_id"), item.get("verdict")
            else:
                if not isinstance(item, RealizationResponse):
                    if not item.done():
                        await self._flush(conn, held)
                    try:
                        item = await item
                    except asyncio.CancelledError:
                        if item.cancelled():
                            continue  # future killed in forced teardown
                        raise  # the emit task itself was cancelled
                request_id, verdict = item.request_id, item.verdict
                if sidx is None:
                    line_tail = item.line_tail
                if line_tail is None:
                    payload = item.to_dict()
            if sidx is not None and session is not None:
                session.record(sidx, dict(payload))
                payload = dict(payload)
                payload["session_seq"] = sidx
            self.handled += 1
            if verdict == "ERROR":
                self.errors += 1
            if not conn.broken:
                # Chaos hook: a writer_error fault simulates the client
                # vanishing right before this response hits the socket;
                # the run ahead of it still goes out.
                plan = faults.active()
                if plan is not None and plan.match(
                    "writer_error", str(request_id or "")
                ):
                    await self._flush(conn, held)
                    conn.broken = True
            if conn.broken:
                continue  # keep consuming so futures stay observed
            if line_tail is not None:
                held.append(LINE_HEAD + json.dumps(request_id).encode() + line_tail)
            else:
                held.append((json.dumps(payload) + "\n").encode())

    async def _flush(self, conn: _Connection, held: List[bytes]) -> None:
        """Write one run of encoded lines, if any, with one write and
        one drain, and empty it."""
        if not held:
            return
        data = b"".join(held)
        held.clear()
        try:
            conn.writer.write(data)
            await conn.writer.drain()
        except _WRITE_FAILURES:
            # The client stopped reading.  Stop writing, but keep
            # draining the FIFO: in-flight futures must still be
            # awaited (observed) and released from the window.
            conn.broken = True

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def _stats_envelope(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The ``kind="stats"`` response: executor counters (cache,
        coalescing, crashes, latency percentiles) plus server-side
        admission state.  Answered inline on the event loop — never
        queued behind realization work."""
        request_id = payload.get("request_id", "")
        return {
            "request_id": str(request_id) if request_id is not None else "",
            "kind": STATS_KIND,
            "ok": True,
            "verdict": "STATS",
            "executor": self.executor.stats(),
            "server": {
                "host": self.host,
                "port": self.port,
                "window": self.window,
                "inflight": self._inflight,
                "connections": len(self._connections),
                "connections_total": self.connections_total,
                "handled": self.handled,
                "errors": self.errors,
                "rejected": self.rejected,
                "draining": self._draining,
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "sessions": {
                    "active": len(self._sessions),
                    "created": self.sessions_created,
                    "resumed": self.sessions_resumed,
                    "replayed": self.session_replayed,
                    "buffered": sum(
                        len(s.buffer) for s in self._sessions.values()
                    ),
                    "dropped": sum(
                        s.dropped for s in self._sessions.values()
                    ),
                },
            },
        }

    def _metrics_envelope(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The ``kind="metrics"`` response: the registry's Prometheus
        text exposition, wrapped in a JSONL envelope (the socket speaks
        line-delimited JSON; an HTTP scrape surface is the CLI's
        ``--metrics-port``).  Answered inline, like ``stats``."""
        request_id = payload.get("request_id", "")
        registry = getattr(self.executor, "metrics", None)
        return {
            "request_id": str(request_id) if request_id is not None else "",
            "kind": METRICS_KIND,
            "ok": True,
            "verdict": "METRICS",
            "content_type": PROMETHEUS_CONTENT_TYPE,
            "text": registry.render() if registry is not None else "",
        }

    def _server_metrics(self):
        """Registry collector: the server's admission counters."""
        series = (
            ("repro_server_handled_total", "counter",
             "Responses emitted across all connections", float(self.handled)),
            ("repro_server_errors_total", "counter",
             "Emitted responses with verdict=ERROR", float(self.errors)),
            ("repro_server_rejected_total", "counter",
             "Requests refused by admission control", float(self.rejected)),
            ("repro_server_connections_total", "counter",
             "Connections accepted since start", float(self.connections_total)),
            ("repro_server_inflight", "gauge",
             "Admitted requests not yet answered", float(self._inflight)),
            ("repro_server_connections", "gauge",
             "Currently open connections", float(len(self._connections))),
            ("repro_server_uptime_seconds", "gauge",
             "Seconds since the server started",
             time.monotonic() - self.started_at),
            ("repro_server_sessions", "gauge",
             "Resumable sessions tracked", float(len(self._sessions))),
            ("repro_server_sessions_resumed_total", "counter",
             "Session resume handshakes served", float(self.sessions_resumed)),
            ("repro_server_session_replayed_total", "counter",
             "Responses replayed to resuming clients",
             float(self.session_replayed)),
        )
        return [
            (name, kind, help, [(name, (), value)])
            for name, kind, help, value in series
        ]


def serve(
    in_stream: Any,
    out_stream: Any,
    executor: Optional[BatchExecutor] = None,
    window: Optional[int] = None,
) -> Tuple[int, int]:
    """The stdio front end: ``in_stream`` and ``out_stream`` served as
    one pipe connection of a :class:`SocketServer` until the input ends.

    Each line is answered as on a socket, streamed in input order as it
    completes; the connection being a pipe, it waits for room at the
    ``window`` instead of rejecting, and at EOF it writes every answer
    still running.  ``in_stream`` is a descriptor-backed stream or any
    iterable of lines; ``out_stream`` takes ``write(str)`` and
    ``flush()``.  Returns ``(handled, errors)``: responses emitted and
    how many carried ``verdict="ERROR"``.  A failed write stops the
    reading and is raised once the running answers are done; a failed
    read is raised after what completed is written.  Without an
    ``executor`` it builds one and closes it on the way out; a caller's
    executor stays open.
    """
    window = validate_window(window)
    if executor is None:
        with BatchExecutor(pool=NetworkPool()) as owned:
            return serve(in_stream, out_stream, owned, window)

    async def _run() -> Tuple[int, int]:
        server = SocketServer(executor, window=window)
        server._attach()
        reader = _PipeReader(in_stream)
        writer = _PipeWriter(out_stream, reader)
        try:
            await server._client_connected(reader, writer, pipe=True)
        finally:
            reader.close()
        if writer.error is not None:
            raise writer.error
        return server.handled, server.errors

    return asyncio.run(_run())


def serve_socket(
    executor: Optional[BatchExecutor] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    window: Optional[int] = None,
    ready: Optional[Callable[[SocketServer], None]] = None,
    install_signal_handlers: bool = True,
    sessions: Optional[Dict[str, List[Tuple[int, RealizationResponse]]]] = None,
) -> Tuple[int, int]:
    """Blocking socket-serve entry point (the CLI shape).

    Runs a fresh event loop hosting a :class:`SocketServer` until a
    graceful drain completes (SIGTERM/SIGINT, when signal handlers are
    installable).  ``ready`` is invoked once the server is bound — with
    ``port=0`` that is how callers learn the real port.  Returns
    ``(handled, errors)``, matching :func:`serve`.  Without an
    ``executor`` it builds one and closes it on the way out; a caller's
    executor stays open.
    """
    if executor is None:
        with BatchExecutor(pool=NetworkPool()) as owned:
            return serve_socket(
                owned, host, port, window, ready, install_signal_handlers,
                sessions,
            )

    async def _run() -> Tuple[int, int]:
        server = await SocketServer(
            executor, host=host, port=port, window=window, sessions=sessions
        ).start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, server.drain)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # platform/thread without signal support
        if ready is not None:
            ready(server)
        return await server.wait_done()

    return asyncio.run(_run())
