"""The scenario registry: named workload generators for the service.

Before this subsystem, workload construction was glue scattered across
``__main__.py``'s ``PROFILE_WORKLOADS``, the ``benchmarks/`` modules and
ad-hoc example code.  A :class:`Scenario` makes each workload family a
first-class named generator so a service request (or a CLI call, or a
benchmark) can say ``{"scenario": "power_law", "n": 256, "seed": 3}``
instead of shipping a raw degree list.

Two flavours coexist in one registry:

* **realization scenarios** carry a ``build(n, seed, **params)`` that
  returns the workload vector (a degree sequence, or a ρ vector for
  connectivity scenarios) — these back service requests;
* **primitive scenarios** carry a ``runner(net, n, seed)`` that drives a
  Section-3 primitive end to end — these back ``python -m repro
  profile`` (the old ``PROFILE_WORKLOADS``) and are not valid request
  targets.

Materialization is deterministic in ``(name, n, seed, params)`` and the
registry memoizes it, so a warm service never regenerates the same
instance twice.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.service.api import ServiceError, _params_key
from repro.workloads import (
    balanced_tree_sequence,
    bimodal_rho,
    caterpillar_sequence,
    concentrated_sequence,
    near_graphic_perturbation,
    path_sequence,
    power_law_rho,
    power_law_sequence,
    random_graphic_sequence,
    random_tree_sequence,
    ranked_rho,
    regular_sequence,
    star_like_sequence,
    star_sequence,
    uniform_rho,
)


@dataclass(frozen=True)
class Scenario:
    """One named workload family.

    ``kind`` is the *default* request kind the scenario targets (a
    request may override it — e.g. run the ``regular`` family through the
    approximate realizer).  Exactly one of ``build``/``runner`` is set.
    """

    name: str
    description: str
    kind: str
    build: Optional[Callable[..., List[int]]] = None
    runner: Optional[Callable[..., None]] = None

    @property
    def is_primitive(self) -> bool:
        return self.runner is not None


class ScenarioRegistry:
    """Name -> :class:`Scenario`, with memoized materialization.

    The materialization cache is LRU-bounded by ``max_cached`` so a
    long-lived service stays bounded under diverse traffic while the
    popular scenarios of a skewed mix stay resident (the FIFO policy it
    replaces evicted by insertion age, dropping hot entries under churn).
    ``cache_evictions`` counts entries dropped by the bound.
    """

    def __init__(self, max_cached: int = 4096) -> None:
        self._scenarios: Dict[str, Scenario] = {}
        self._cache: "OrderedDict[Tuple, Tuple[int, ...]]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_cached = max_cached
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def register(self, scenario: Scenario) -> Scenario:
        if scenario.name in self._scenarios:
            raise ValueError(f"scenario {scenario.name!r} already registered")
        if (scenario.build is None) == (scenario.runner is None):
            raise ValueError("a scenario needs exactly one of build/runner")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise ServiceError(
                f"unknown scenario {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self, kind: Optional[str] = None) -> List[str]:
        return sorted(
            s.name for s in self._scenarios.values() if kind is None or s.kind == kind
        )

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self):
        return iter(sorted(self._scenarios.values(), key=lambda s: s.name))

    def materialize(
        self,
        name: str,
        n: int,
        seed: int = 0,
        params: Optional[Mapping[str, Any]] = None,
        use_cache: bool = True,
    ) -> Tuple[int, ...]:
        """The scenario's workload vector for ``(n, seed, params)``.

        Deterministic, hence safely memoized; ``use_cache=False`` forces
        regeneration and leaves the cache untouched.
        """
        scenario = self.get(name)
        if scenario.is_primitive:
            raise ServiceError(
                f"scenario {name!r} is a primitive profile workload, not a "
                "realization workload"
            )
        key_params = _params_key(params)
        key = (name, n, seed, key_params)
        if use_cache:
            with self._lock:
                hit = self._cache.get(key)
                if hit is not None:
                    self.cache_hits += 1
                    self._cache.move_to_end(key)
                    return hit
        with self._lock:
            self.cache_misses += 1
        try:
            vector = tuple(scenario.build(n, seed, **dict(key_params)))
        except TypeError as exc:
            raise ServiceError(f"bad params for scenario {name!r}: {exc}") from None
        except ValueError as exc:
            raise ServiceError(f"infeasible scenario {name!r}: {exc}") from None
        if len(vector) != n:
            raise ServiceError(
                f"scenario {name!r} produced {len(vector)} entries for n={n}"
            )
        if use_cache:
            with self._lock:
                self._cache[key] = vector
                self._cache.move_to_end(key)
                while len(self._cache) > self.max_cached:
                    self._cache.popitem(last=False)
                    self.cache_evictions += 1
        return vector


# ---------------------------------------------------------------------- #
# Built-in realization scenarios (the workloads/ families, named)        #
# ---------------------------------------------------------------------- #


def _regular(n: int, seed: int, degree: int = 4) -> List[int]:
    return regular_sequence(n, degree)


def _random_graphic(n: int, seed: int, p: float = 0.3) -> List[int]:
    return random_graphic_sequence(n, p, seed=seed)


def _power_law(n: int, seed: int, exponent: float = 2.5) -> List[int]:
    return power_law_sequence(n, exponent=exponent, seed=seed)


def _concentrated(n: int, seed: int, k: int = 0) -> List[int]:
    return concentrated_sequence(n, k or max(2, int(n**0.5)), seed=seed)


def _star_like(n: int, seed: int, hubs: int = 2) -> List[int]:
    return star_like_sequence(n, hubs=hubs)


def _near_graphic(n: int, seed: int, p: float = 0.3, bumps: int = 3) -> List[int]:
    return near_graphic_perturbation(
        random_graphic_sequence(n, p, seed=seed), bumps, seed=seed
    )


def _capacity_classes(
    n: int,
    seed: int,
    super_fraction: float = 0.125,
    regular_fraction: float = 0.5,
    super_degree: int = 8,
    regular_degree: int = 4,
    light_degree: int = 2,
) -> List[int]:
    """The motivating P2P workload: capacity-matched degree classes.

    ``super_fraction`` of the peers are supernodes, ``regular_fraction``
    regular peers, and the rest light clients (the split the
    ``examples/p2p_overlay_degrees.py`` walkthrough uses).
    """
    n_super = max(1, int(round(super_fraction * n)))
    n_regular = max(1, int(round(regular_fraction * n)))
    if n_super + n_regular >= n:
        raise ValueError("class fractions leave no room for light clients")
    n_light = n - n_super - n_regular
    return (
        [super_degree] * n_super
        + [regular_degree] * n_regular
        + [light_degree] * n_light
    )


def _tree_random(n: int, seed: int) -> List[int]:
    return random_tree_sequence(n, seed=seed)


def _tree_star(n: int, seed: int) -> List[int]:
    return star_sequence(n)


def _tree_path(n: int, seed: int) -> List[int]:
    return path_sequence(n)


def _tree_caterpillar(n: int, seed: int, spine_degree: int = 4) -> List[int]:
    return caterpillar_sequence(n, spine_degree=spine_degree)


def _tree_balanced(n: int, seed: int, arity: int = 2) -> List[int]:
    return balanced_tree_sequence(n, arity=arity)


def _rho_uniform(n: int, seed: int, value: int = 3) -> List[int]:
    return uniform_rho(n, min(value, n - 1))


def _rho_bimodal(n: int, seed: int, high: int = 6, low: int = 2) -> List[int]:
    return bimodal_rho(n, min(high, n - 1), min(low, n - 1))


def _rho_power_law(n: int, seed: int, max_rho: int = 8) -> List[int]:
    return power_law_rho(n, max_rho, seed=seed)


def _rho_ranked(n: int, seed: int, max_rho: int = 8) -> List[int]:
    return ranked_rho(n, max_rho)


# ---------------------------------------------------------------------- #
# Built-in primitive (profile-only) scenarios — old PROFILE_WORKLOADS    #
# ---------------------------------------------------------------------- #


def _run_sorting(net, n: int, seed: int) -> None:
    import random

    from repro.primitives.protocol import run_protocol
    from repro.primitives.sorting import distributed_sort

    rng = random.Random(seed * 1000 + n)
    table = {v: rng.randrange(n) for v in net.node_ids}
    run_protocol(net, distributed_sort(net, lambda v: table[v]))


def _run_bbst(net, n: int, seed: int) -> None:
    from repro.primitives.bbst import build_bbst
    from repro.primitives.protocol import run_protocol

    run_protocol(net, build_bbst(net))


def _run_collection(net, n: int, seed: int) -> None:
    from repro.primitives.bbst import build_bbst
    from repro.primitives.collection import global_collect
    from repro.primitives.protocol import run_protocol

    k = max(1, n // 4)
    ids = list(net.node_ids)
    holders = {ids[(i * 3) % n]: ((ids[i % n],), (i,)) for i in range(k)}

    def proto():
        ns, root = yield from build_bbst(net)
        yield from global_collect(
            net, ns, list(net.node_ids), root, leader=root, holders=holders
        )

    run_protocol(net, proto())


def default_registry() -> ScenarioRegistry:
    """A fresh registry holding every built-in scenario."""
    registry = ScenarioRegistry()
    for scenario in (
        # Degree-sequence families (Δ regime, √m regime, heavy tails).
        Scenario("regular", "d-regular sequence (Δ << √m regime)",
                 "degree_implicit", build=_regular),
        Scenario("random_graphic", "degree sequence of a G(n,p) draw",
                 "degree_implicit", build=_random_graphic),
        Scenario("power_law", "heavy-tailed sequence with Erdős–Gallai repair",
                 "degree_implicit", build=_power_law),
        Scenario("concentrated", "mass on ~√n nodes (Theorem 20's D* family)",
                 "degree_implicit", build=_concentrated),
        Scenario("star_like", "few high-degree hubs, many leaves (Δ ≈ n)",
                 "degree_implicit", build=_star_like),
        Scenario("capacity_classes", "supernode/regular/light P2P capacity classes",
                 "degree_implicit", build=_capacity_classes),
        Scenario("near_graphic", "perturbed (usually non-graphic) sequence for "
                 "envelope realization", "degree_envelope", build=_near_graphic),
        # Tree-realizable families.
        Scenario("tree_random", "uniform random labeled tree (Prüfer)",
                 "tree", build=_tree_random),
        Scenario("tree_star", "one hub, n-1 leaves (min diameter)",
                 "tree", build=_tree_star),
        Scenario("tree_path", "a path (max diameter)", "tree", build=_tree_path),
        Scenario("tree_caterpillar", "caterpillar with a degree-4 spine",
                 "tree", build=_tree_caterpillar),
        Scenario("tree_balanced", "complete arity-ary tree truncated to n",
                 "tree", build=_tree_balanced),
        # Connectivity threshold vectors.
        Scenario("rho_uniform", "uniform connectivity demands",
                 "connectivity", build=_rho_uniform),
        Scenario("rho_bimodal", "high-demand core, low-demand periphery",
                 "connectivity", build=_rho_bimodal),
        Scenario("rho_power_law", "heavy-tailed connectivity demands",
                 "connectivity", build=_rho_power_law),
        Scenario("rho_ranked", "linearly decaying demands", "connectivity",
                 build=_rho_ranked),
        # Primitive profile workloads (the old PROFILE_WORKLOADS).
        Scenario("sorting", "Theorem 3 distributed mergesort", "primitive",
                 runner=_run_sorting),
        Scenario("bbst", "Theorem 1 BBST construction", "primitive",
                 runner=_run_bbst),
        Scenario("collection", "Theorem 5 global token collection", "primitive",
                 runner=_run_collection),
    ):
        registry.register(scenario)
    return registry


#: The process-wide default registry the CLI and executor use.
DEFAULT_REGISTRY = default_registry()
