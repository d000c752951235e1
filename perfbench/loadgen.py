"""Closed-loop JSONL load generator over loopback TCP.

One process, one thread, non-blocking sockets under a selector.  Each
connection keeps ``depth`` requests outstanding: it writes the next
pre-encoded request line as soon as a response line comes back.  During
the phase the responses are only split on newlines and stored raw;
parsing and checking happen afterwards, so the client stays cheap.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence


@dataclass
class PhaseResult:
    """Raw outcome of one phase, indexed like the flattened streams."""

    lines: List[Optional[bytes]]
    sent_at: array
    received_at: array
    wall_s: float

    @property
    def answered(self) -> int:
        return sum(1 for line in self.lines if line is not None)

    def latencies_ms(self) -> List[float]:
        return [
            (self.received_at[i] - self.sent_at[i]) * 1000.0
            for i, line in enumerate(self.lines)
            if line is not None
        ]


class _Conn:
    __slots__ = (
        "sock", "stream", "cursor", "pending", "out", "partial", "closed",
        "events",
    )

    def __init__(self, sock: socket.socket, stream: int) -> None:
        self.sock = sock
        self.stream = stream  # index into the payload streams
        self.cursor = 0  # next position in an own (unshared) stream
        self.pending: Deque[int] = deque()  # global indices in flight
        self.out = bytearray()
        self.partial = b""
        self.closed = False
        self.events = selectors.EVENT_READ


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def drive(
    port: int,
    streams: Sequence[Sequence[bytes]],
    connections: int,
    depth: int,
    shared: bool,
    timeout_s: float = 150.0,
) -> PhaseResult:
    """Replay ``streams`` to their end and collect every response line.

    ``shared``: every connection pulls the next line of ``streams[0]``;
    otherwise connection ``c`` replays ``streams[c]``.
    """
    if shared and len(streams) != 1:
        raise ValueError("a shared phase takes exactly one stream")
    if not shared and len(streams) != connections:
        raise ValueError("an unshared phase takes one stream per connection")
    offsets = []
    total = 0
    for stream in streams:
        offsets.append(total)
        total += len(stream)
    lines: List[Optional[bytes]] = [None] * total
    sent_at = array("d", bytes(8 * total))
    received_at = array("d", bytes(8 * total))
    conns = [
        _Conn(connect(port), 0 if shared else c) for c in range(connections)
    ]
    selector = selectors.DefaultSelector()
    shared_cursor = 0
    clock = time.perf_counter

    def refill(conn: _Conn) -> None:
        nonlocal shared_cursor
        stream = streams[conn.stream]
        queued = False
        while len(conn.pending) < depth:
            if shared:
                position = shared_cursor
                if position >= len(stream):
                    break
                shared_cursor += 1
            else:
                position = conn.cursor
                if position >= len(stream):
                    break
                conn.cursor += 1
            index = offsets[conn.stream] + position
            conn.pending.append(index)
            conn.out += stream[position]
            sent_at[index] = clock()
            queued = True
        if queued:
            flush(conn)

    def flush(conn: _Conn) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                sent = 0
            del conn.out[:sent]
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        if events != conn.events:
            conn.events = events
            selector.modify(conn.sock, events, conn)

    received = 0
    started = clock()
    finished = started
    try:
        for conn in conns:
            conn.sock.setblocking(False)
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        for conn in conns:
            refill(conn)
        deadline = started + timeout_s
        while received < total:
            if all(c.closed for c in conns):
                break
            if clock() > deadline:
                raise TimeoutError(
                    f"phase timed out with {received}/{total} responses"
                )
            for key, mask in selector.select(timeout=1.0):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    flush(conn)
                if not mask & selectors.EVENT_READ:
                    continue
                try:
                    data = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not data:
                    conn.closed = True
                    selector.unregister(conn.sock)
                    continue
                now = clock()
                parts = (conn.partial + data).split(b"\n")
                conn.partial = parts.pop()
                for part in parts:
                    index = conn.pending.popleft()
                    lines[index] = part
                    received_at[index] = now
                received += len(parts)
                finished = now
                refill(conn)
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return PhaseResult(lines, sent_at, received_at, finished - started)


def query(port: int, payload: Dict[str, Any], timeout_s: float = 30.0) -> Dict[str, Any]:
    """One control-plane request (``stats``/``metrics`` kinds)."""
    with connect(port) as sock:
        sock.settimeout(timeout_s)
        sock.sendall((json.dumps(payload) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the control connection")
            buf += chunk
    return json.loads(buf)
