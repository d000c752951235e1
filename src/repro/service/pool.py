"""The warm-network pool: lease/release of reusable :class:`Network`\\ s.

Constructing a :class:`~repro.ncc.network.Network` re-derives the ID
space and the initial knowledge graph ``Gk`` (for NCC1, one view per
node over a shared ID set) on every request.  The pool amortizes that
by leasing *warm* instances: a released network is
:meth:`~Network.reset` back to its pristine post-construction state (a
verified bit-identical contract, see ``tests/test_service_pool.py``) and
parked for the next request with the same ``(n, config)``.

The pool key is ``(n, NCCConfig)`` — the config is a frozen dataclass,
so the fingerprint covers the variant, the caps, the enforcement mode,
the engine *and* the seed: a leased network is indistinguishable from a
fresh ``Network(n, config)``.  Networks built with a custom ``knowledge``
graph are not poolable (the key cannot see it) — construct those
directly.

All operations are thread-safe, so executors and caller threads may
share one pool.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.ncc.config import DEFAULT_CONFIG, NCCConfig
from repro.ncc.network import Network

PoolKey = Tuple[int, NCCConfig]


class NetworkPool:
    """A keyed free-list of warm, pristine networks.

    Parameters
    ----------
    max_idle_per_key:
        How many released networks to retain per ``(n, config)`` key;
        beyond that, released instances are discarded.
    max_total_idle:
        Cap on idle networks across *all* keys, so memory stays bounded
        for long-lived services even under key-diverse traffic (a parked
        network holds O(n) state, NCC1's complete knowledge included).
        When exceeded, the pool evicts from the longest-idle key first.
    """

    def __init__(self, max_idle_per_key: int = 4, max_total_idle: int = 64) -> None:
        if max_idle_per_key < 0:
            raise ValueError("max_idle_per_key must be >= 0")
        if max_total_idle < 0:
            raise ValueError("max_total_idle must be >= 0")
        self.max_idle_per_key = max_idle_per_key
        self.max_total_idle = max_total_idle
        self._idle: Dict[PoolKey, List[Network]] = {}
        self._lock = threading.Lock()
        self.leases = 0
        self.pool_hits = 0
        self.constructions = 0
        self.releases = 0
        self.discards = 0

    def lease(self, n: int, config: NCCConfig = DEFAULT_CONFIG) -> Network:
        """A pristine network for ``(n, config)`` — warm if available."""
        key = (n, config)
        with self._lock:
            self.leases += 1
            stack = self._idle.get(key)
            if stack:
                self.pool_hits += 1
                return stack.pop()
            self.constructions += 1
        # Construction happens outside the lock: it is the expensive part
        # and touches no shared state.
        return Network(n, config)

    def release(self, net: Network) -> None:
        """Reset ``net`` and park it for the next lease of its key.

        A network that will not be parked (its key's idle stack is full)
        is discarded without paying the O(n) reset.  The room check is
        repeated after the reset, so the idle bound holds even when two
        releases of the same key race; the rare loser wastes one reset.
        """
        key = (net.n, net.config)
        with self._lock:
            self.releases += 1
            if (
                net.custom_knowledge
                or self.max_idle_per_key == 0
                or self.max_total_idle == 0
            ):
                # A custom-knowledge network is invisible to the key: a
                # later lease would get the wrong initial state.  Discard.
                self.discards += 1
                return
            stack = self._idle.get(key)
            if stack is not None and len(stack) >= self.max_idle_per_key:
                self.discards += 1
                return
        net.reset()
        with self._lock:
            # Re-resolve the stack: a concurrent eviction may have
            # removed the key's (empty) slot while the lock was dropped
            # for the reset — appending to the old reference would lose
            # the network.
            stack = self._idle.setdefault(key, [])
            if len(stack) >= self.max_idle_per_key:
                self.discards += 1
                return
            stack.append(net)
            # Global bound: evict from the longest-idle key (dict order =
            # key first-use order; empty stacks are removed on eviction).
            total = sum(len(s) for s in self._idle.values())
            while total > self.max_total_idle:
                oldest = next(iter(self._idle))
                victims = self._idle[oldest]
                if not victims:  # drained by leases; drop empty slot
                    del self._idle[oldest]
                    continue
                victims.pop(0)
                if not victims:
                    del self._idle[oldest]
                self.discards += 1
                total -= 1

    @contextmanager
    def network(self, n: int, config: NCCConfig = DEFAULT_CONFIG) -> Iterator[Network]:
        """``with pool.network(n, config) as net:`` lease/release guard.

        The network is released (and reset) even if the workload raises —
        a failed run leaves no residue for the next lease.
        """
        net = self.lease(n, config)
        try:
            yield net
        finally:
            self.release(net)

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(stack) for stack in self._idle.values())

    def clear(self) -> None:
        """Drop every idle network (keeps counters)."""
        with self._lock:
            self._idle.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for service introspection and benchmarks."""
        with self._lock:
            return {
                "leases": self.leases,
                "pool_hits": self.pool_hits,
                "constructions": self.constructions,
                "releases": self.releases,
                "discards": self.discards,
                "idle": sum(len(stack) for stack in self._idle.values()),
                "keys": len(self._idle),
            }

    def collect_metrics(self):
        """Registry collector: the pool's counters as Prometheus
        families (``MetricsRegistry.register_collector`` callback —
        the pool keeps its own lock, so samples are read at scrape
        time instead of mirrored into registry instruments)."""
        s = self.stats()
        counters = (
            ("repro_pool_leases_total", "Network leases requested"),
            ("repro_pool_hits_total", "Leases served from the warm pool"),
            ("repro_pool_constructions_total", "Cold network constructions"),
            ("repro_pool_releases_total", "Networks released back"),
            ("repro_pool_discards_total", "Released networks discarded"),
        )
        keys = ("leases", "pool_hits", "constructions", "releases", "discards")
        out = [
            (name, "counter", help, [(name, (), float(s[key]))])
            for (name, help), key in zip(counters, keys)
        ]
        out.append(
            (
                "repro_pool_idle",
                "gauge",
                "Idle warm networks parked in the pool",
                [("repro_pool_idle", (), float(s["idle"]))],
            )
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"NetworkPool(hits={s['pool_hits']}/{s['leases']}, "
            f"idle={s['idle']} across {s['keys']} key(s))"
        )
