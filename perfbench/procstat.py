"""Linux ``/proc`` readers: process-tree CPU, peak RSS, context switches
and host CPU steal."""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields from ``state`` on (comm may hold spaces)."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rfind(")") + 2:].split()


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children first, then theirs)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        parents.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        out.extend(children)
        frontier.extend(children)
    return out


def tree(pid: int) -> List[int]:
    return [pid] + descendants(pid)


def cpu_seconds(pid: int) -> float:
    """User + system CPU of all threads of ``pid`` (exited threads too)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def tree_cpu(pids: List[int]) -> Dict[int, float]:
    out = {}
    for pid in pids:
        try:
            out[pid] = cpu_seconds(pid)
        except OSError:
            pass
    return out


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU spent between two tree snapshots (processes born in between
    count from zero)."""
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)


def _status(path: str) -> Dict[str, str]:
    out = {}
    with open(path) as handle:
        for line in handle:
            key, _, value = line.partition(":")
            out[key] = value.strip()
    return out


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set size of ``pid`` in KiB."""
    return int(_status(f"/proc/{pid}/status")["VmHWM"].split()[0])


def involuntary_switches(pids: List[int]) -> int:
    """Involuntary context switches summed over every thread of ``pids``."""
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                status = _status(f"/proc/{pid}/task/{tid}/status")
                total += int(status["nonvoluntary_ctxt_switches"])
            except (OSError, KeyError, ValueError):
                pass
    return total


def host_cpu() -> Tuple[int, int]:
    """``(total, steal)`` jiffies over all CPUs from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:]
    values = [int(v) for v in fields[:8]]
    return sum(values), values[7]


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def self_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system
