"""Start and stop one ``serve --port 0`` process tree."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

from perfbench import procstat

_LISTENING = re.compile(rb"listening on [^:\s]+:(\d+)")


class ServerError(RuntimeError):
    """The server failed to start or to stop."""


class Server:
    """A ``python -m repro serve --port 0`` child and its worker tree.

    ``traced_dir`` starts it through :mod:`perfbench.traced_serve`
    instead, with layer snapshots written to that directory.
    """

    def __init__(
        self,
        root: Path,
        args: Sequence[str],
        traced_dir: Optional[Path] = None,
    ) -> None:
        self.root = root
        if traced_dir is None:
            prefix = [sys.executable, "-m", "repro"]
        else:
            prefix = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
                      str(traced_dir)]
        self.argv = prefix + ["serve", "--port", "0", *args]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.log: List[bytes] = []
        self._drainer: Optional[threading.Thread] = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn and wait until it listens; returns the spawn instant
        (``time.perf_counter``)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"  # same dict/set layouts on every run
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        stderr = self.proc.stderr
        assert stderr is not None
        deadline = spawned + timeout_s
        buf = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.stop()
                raise ServerError("server did not start listening in time")
            ready, _, _ = select.select([stderr], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(stderr.fileno(), 1 << 16)
            if not chunk:
                self.stop()
                raise ServerError(
                    "server exited before listening:\n" + buf.decode(errors="replace")
                )
            buf += chunk
            match = _LISTENING.search(buf)
            if match:
                self.port = int(match.group(1))
                break
        self.log.append(buf)
        # Keep the pipe drained so the server never blocks on stderr.
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()
        return spawned

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for line in self.proc.stderr:
            self.log.append(line)

    def tree(self) -> List[int]:
        return procstat.tree(self.pid)

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL whatever is left of the
        tree; waits until every process of it has ended."""
        if self.proc is None:
            return 0
        members = procstat.descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        deadline = time.monotonic() + timeout_s
        for pid in members:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)
        if self._drainer is not None:
            self._drainer.join(timeout=5)
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        self.proc = None
        return code

    def stderr_text(self) -> str:
        return b"".join(self.log).decode(errors="replace")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"
