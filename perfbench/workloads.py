"""Seeded request sequences for the three benchmark workloads.

Everything here is a pure function of ``(workload, seed, seconds)``: the
same arguments give byte-identical request lines, so every run of a
workload does the same simulated work on a fresh server.  The server
only ever sees the generated lines.

* ``realize_mix`` -- the paper's computation: all five request families
  over the Delta regime (regular, power_law, capacity_classes) and the
  sqrt(m) regime (concentrated, dense random_graphic), n in {64, 128,
  256}, about a quarter at ``sort_fidelity="full"`` (n = 64), a few
  repeated deployment identities so pool leases hit, and one exact
  repeat per block so the response cache is exercised but bypassed by
  more than 90% of requests.
* ``serve_hot`` -- Zipf-like draws from a small warmed set of cheap
  n = 64 requests: every timed request is a response-cache hit.
* ``serve_durable`` -- the ``serve_hot`` shape with an
  ``idempotency_key`` on every request: mostly fresh keys over cached
  computations, a share of resubmitted keys (journal replays) and a few
  percent of cheap cache misses that run in the workers.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

Request = Dict[str, Any]

WORKLOADS = ("realize_mix", "serve_hot", "serve_durable")

#: Requests per second of ``--seconds`` each workload is sized for, so a
#: run replays a fixed, seed-independent amount of work.
MIX_BLOCKS_PER_SECOND = 0.75
HOT_PER_CONNECTION_PER_SECOND = 2500
DURABLE_PER_CONNECTION_PER_SECOND = 1000

CONNECTIONS = 2
PIPELINE_DEPTH = 8
HOT_SET_SIZE = 32
ZIPF_EXPONENT = 1.1

#: serve_durable traffic shares (per timed request).
DURABLE_MISS_SHARE = 0.03
DURABLE_RESUBMIT_SHARE = 0.15
#: A resubmitted key was first sent at least this many positions earlier
#: on the same connection (so its response has certainly been read, and
#: its completion journaled), and at most RESUBMIT_HORIZON positions
#: earlier (well inside the journal's 4096-key replay window).
RESUBMIT_MIN_BACK = PIPELINE_DEPTH + 8
RESUBMIT_HORIZON = 512


@dataclass(frozen=True)
class Plan:
    """Everything one run of a workload sends, and how."""

    workload: str
    server_args: Tuple[str, ...]  # after ``serve --port 0``
    connections: int
    depth: int  # requests outstanding per connection
    shared: bool  # connections pull from one shared sequence
    warmup: Tuple[Request, ...]  # untimed, one request per connection at a time
    streams: Tuple[Tuple[Request, ...], ...]  # one, or one per connection
    journal: bool = False

    def timed_requests(self) -> List[Request]:
        return [req for stream in self.streams for req in stream]


def encode(request: Request) -> bytes:
    """The request's wire line (compact JSON + newline)."""
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


def computation_key(request: Request) -> str:
    """Identity of the computation: the request minus its submission
    identity.  Equal keys must be answered with equal fingerprints."""
    body = {
        k: v
        for k, v in request.items()
        if k not in ("request_id", "idempotency_key")
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------- #
# Inline workload vectors (drawn by the benchmark, not the server)       #
# ---------------------------------------------------------------------- #


def random_tree_degrees(rng: random.Random, n: int) -> List[int]:
    """Degrees of a uniform random labelled tree (Pruefer sequence)."""
    degrees = [1] * n
    for _ in range(n - 2):
        degrees[rng.randrange(n)] += 1
    return degrees


def random_rho(rng: random.Random, n: int, high: int) -> List[int]:
    return [rng.randint(1, min(high, n - 1)) for _ in range(n)]


def random_even_degrees(rng: random.Random, n: int, high: int) -> List[int]:
    degrees = [rng.randint(1, min(high, n - 1)) for _ in range(n)]
    if sum(degrees) % 2:
        degrees[0] += 1 if degrees[0] < n - 1 else -1
    return degrees


# ---------------------------------------------------------------------- #
# realize_mix                                                            #
# ---------------------------------------------------------------------- #


#: The deployment identities realize_mix simulates on: two fixed
#: ``(n, seed)`` pairs per size, the same in every run, so the workers'
#: pools serve warm leases and every run simulates on the same networks.
MIX_IDENTITIES = {64: (101, 202), 128: (303, 404), 256: (505, 606)}


class _MixDraws:
    """Draws unique realize_mix requests, stratified across blocks.

    Scenario parameters come from the seed, but stratified: the b-th
    block draws from a seeded permutation's b-th stratum of each float
    range, and integer choices cycle through their values in a fixed
    order.  Every run therefore covers the same strata and does
    comparable simulated work, while the requests themselves differ by
    seed.
    """

    def __init__(self, rng: random.Random, blocks: int) -> None:
        self.rng = rng
        self.blocks = blocks
        self.index = 0  # current block
        self._orders: Dict[str, List[int]] = {}
        self.seen: set = set()

    def _order(self, cell: str, size: int) -> List[int]:
        order = self._orders.get(cell)
        if order is None:
            order = self._orders[cell] = list(range(size))
            self.rng.shuffle(order)
        return order

    def uniform(self, cell: str, lo: float, hi: float) -> float:
        """A draw from this block's stratum of ``[lo, hi)``."""
        stratum = self._order(cell, self.blocks)[self.index % self.blocks]
        return round(lo + (hi - lo) * (stratum + self.rng.random()) / self.blocks, 4)

    def cycle(self, values: Sequence[Any]) -> Any:
        """This block's value in a fixed cycle through ``values``, so the
        multiset of values is the same for every seed and run length."""
        return values[self.index % len(values)]

    def make(self, kind: str, n: int, period: int = 1, **fields: Any) -> Request:
        """A request on this block's identity for size ``n``.  Cells that
        cycle ``period`` integer values switch identity every ``period``
        blocks, so each (value, identity) pair comes up once."""
        request: Request = {"kind": kind}
        request.update(fields)
        if "degrees" not in fields and "rho" not in fields:
            request["n"] = n
        request["seed"] = MIX_IDENTITIES[n][(self.index // period) % 2]
        key = computation_key(request)
        if key in self.seen:
            # More blocks than (value, identity) pairs: a further identity,
            # the same in every run, keeps it a miss of comparable cost.
            request["seed"] += 1000 * (self.index // (2 * period))
            key = computation_key(request)
        self.seen.add(key)
        return request

    def block(self) -> List[Request]:
        """One block: 21 charged requests and 7 full-fidelity ones."""
        rng, make, u, cycle = self.rng, self.make, self.uniform, self.cycle
        full = {"sort_fidelity": "full"}
        four = {"period": 4}
        cells = [
            # Delta regime (Delta << sqrt(m)).
            make("degree_implicit", 256, scenario="regular", **four,
                 params={"degree": cycle((3, 4, 5, 6))}),
            make("degree_explicit", 64, scenario="regular", **four,
                 params={"degree": cycle((3, 5, 7, 8))}),
            make("degree_implicit", 128, scenario="power_law",
                 params={"exponent": u("pl128i", 2.2, 2.8)}),
            make("degree_explicit", 128, scenario="power_law",
                 params={"exponent": u("pl128e", 2.2, 2.8)}),
            make("degree_implicit", 128, scenario="capacity_classes",
                 params={"super_fraction": u("cap128", 0.08, 0.2)}),
            make("degree_explicit", 64, scenario="capacity_classes",
                 params={"super_fraction": u("cap64", 0.08, 0.2)}),
            make("degree_implicit", 64, scenario="power_law",
                 params={"exponent": u("pl64", 2.2, 2.8)}),
            # sqrt(m) regime: Theorem 20's D* family and dense G(n, p).
            make("degree_implicit", 128, scenario="concentrated", **four,
                 params={"k": cycle((9, 10, 11, 12))}),
            make("degree_explicit", 64, scenario="concentrated", **four,
                 params={"k": cycle((6, 7, 8, 9))}),
            make("degree_implicit", 64, scenario="random_graphic",
                 params={"p": u("rg64", 0.2, 0.3)}),
            make("degree_explicit", 128, scenario="random_graphic",
                 params={"p": u("rg128", 0.08, 0.12)}),
            # Theorem 13 envelopes of (usually) non-graphic sequences.
            make("degree_envelope", 64, scenario="near_graphic",
                 params={"p": u("ng64", 0.15, 0.25)}),
            make("degree_envelope", 128, scenario="near_graphic",
                 explicit_envelope=True,
                 params={"p": u("ng128", 0.04, 0.06)}),
            # Trees (Theorems 14/16), min and max diameter.
            make("tree", 128, degrees=random_tree_degrees(rng, 128),
                 tree_variant="min_diameter"),
            make("tree", 256, scenario="tree_caterpillar", **four,
                 tree_variant="max_diameter",
                 params={"spine_degree": cycle((3, 4, 5, 6))}),
            make("tree", 64, scenario="tree_balanced", **four,
                 tree_variant="min_diameter",
                 params={"arity": cycle((2, 3, 4, 5))}),
            # Connectivity thresholds (Theorems 17/18).
            make("connectivity", 128, rho=random_rho(rng, 128, 8)),
            make("connectivity", 256, scenario="rho_bimodal", model="ncc1",
                 **four, params={"high": cycle((5, 6, 7, 8))}),
            make("connectivity", 64, scenario="rho_power_law", **four,
                 params={"max_rho": cycle((4, 6, 8, 10))}),
            # The O~(1) approximate realizer.
            make("approximate", 256, scenario="power_law",
                 params={"exponent": u("ap256", 2.2, 2.8)}),
            make("approximate", 64, degrees=random_even_degrees(rng, 64, 12),
                 repairs=rng.randint(0, 2)),
            # Full fidelity (n = 64): Theorem 3 sorting runs round by round.
            make("degree_implicit", 64, scenario="regular", **full, **four,
                 params={"degree": cycle((3, 4, 5, 6))}),
            make("degree_explicit", 64, scenario="power_law", **full,
                 params={"exponent": u("pl64f", 2.2, 2.8)}),
            make("degree_implicit", 64, scenario="concentrated", **full,
                 **four, params={"k": cycle((6, 7, 8, 9))}),
            make("tree", 64, degrees=random_tree_degrees(rng, 64),
                 tree_variant="min_diameter", **full),
            make("tree", 64, degrees=random_tree_degrees(rng, 64),
                 tree_variant="max_diameter", **full),
            make("connectivity", 64, rho=random_rho(rng, 64, 6), **full),
            make("approximate", 64, scenario="power_law", **full,
                 params={"exponent": u("ap64f", 2.2, 2.8)}),
        ]
        self.index += 1
        rng.shuffle(cells)
        return cells

    def warmup(self) -> List[Request]:
        """Cheap requests that fork the workers, import every realizer
        in both of them, and park a warm network for every identity.
        None of them shares a computation with the timed phase."""
        out: List[Request] = []
        for n, seeds in MIX_IDENTITIES.items():
            for seed in seeds:
                # Two distinct computations per identity and variant, so
                # both workers likely park a network for it.
                for scenario in ("tree_star", "tree_path"):
                    out.append({"kind": "tree", "scenario": scenario,
                                "n": n, "seed": seed})
                for value in (2, 3):
                    out.append({"kind": "connectivity", "model": "ncc1",
                                "scenario": "rho_uniform", "n": n,
                                "seed": seed, "params": {"value": value}})
        small = [3, 3, 2, 2, 2, 2, 1, 1]
        for seed in (7, 8):  # one import pass per worker, likely
            out += [
                {"kind": "degree_implicit", "degrees": small, "seed": seed},
                {"kind": "degree_explicit", "degrees": small, "seed": seed},
                {"kind": "degree_envelope", "degrees": small, "seed": seed},
                {"kind": "approximate", "degrees": small, "seed": seed},
                {"kind": "connectivity", "rho": small, "seed": seed},
                {"kind": "degree_implicit", "degrees": small, "seed": seed,
                 "sort_fidelity": "full"},
                {"kind": "tree", "degrees": [3, 3, 2, 2, 1, 1, 1, 1],
                 "seed": seed, "tree_variant": "max_diameter"},
            ]
        return _dedupe(out)


def _dedupe(requests: Sequence[Request]) -> List[Request]:
    """Drop exact computation repeats (warm-up must not coalesce)."""
    seen, out = set(), []
    for request in requests:
        key = computation_key(request)
        if key not in seen:
            seen.add(key)
            out.append(request)
    return out


def _realize_mix(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"realize_mix:{seed}")
    blocks = max(1, round(seconds * MIX_BLOCKS_PER_SECOND))
    draws = _MixDraws(rng, blocks)
    sequence: List[Request] = []
    for index in range(blocks):
        cells = draws.block()
        if index == blocks - 1:
            # Heaviest first in the last block, so neither worker is
            # left alone with a long request at the end of the replay.
            cells.sort(key=_weight, reverse=True)
        # One exact repeat of an earlier computation per block: a cache
        # hit (or a coalesced follower) whose answer must match.
        pool = sequence if sequence else cells[: len(cells) // 2]
        cells.append(dict(rng.choice(pool)))
        sequence.extend(cells)
    timed = _with_ids(sequence, "m")
    warm = _with_ids(draws.warmup(), "w")
    return Plan(
        workload="realize_mix",
        server_args=("--mode", "processes", "--workers", "2"),
        connections=CONNECTIONS,
        depth=1,
        shared=True,
        warmup=tuple(warm),
        streams=(tuple(timed),),
    )


def _weight(request: Request) -> int:
    """Coarse cost class of a realize_mix request (for ordering only)."""
    degree_kind = request["kind"].startswith("degree")
    if degree_kind and request.get("sort_fidelity") == "full":
        return 3
    if degree_kind and (request.get("n") == 256 or request.get("scenario") in (
        "random_graphic", "near_graphic"
    )):
        return 2
    return 1


def _with_ids(requests: Sequence[Request], prefix: str) -> List[Request]:
    return [dict(r, request_id=f"{prefix}{i}") for i, r in enumerate(requests)]


# ---------------------------------------------------------------------- #
# serve_hot / serve_durable                                              #
# ---------------------------------------------------------------------- #


def hot_set(rng: random.Random, size: int = HOT_SET_SIZE) -> List[Request]:
    """Cheap n = 64 requests: half inline vectors, half named scenarios."""
    n = 64
    makers: List[Callable[[], Request]] = [
        lambda: {"kind": "tree", "degrees": random_tree_degrees(rng, n)},
        lambda: {"kind": "connectivity", "model": "ncc1",
                 "rho": random_rho(rng, n, 8)},
        lambda: {"kind": "approximate",
                 "degrees": random_even_degrees(rng, n, 10)},
        lambda: {"kind": "tree", "degrees": random_tree_degrees(rng, n),
                 "tree_variant": "max_diameter"},
        lambda: {"kind": "tree", "scenario": "tree_caterpillar", "n": n,
                 "params": {"spine_degree": rng.randint(3, 6)},
                 "seed": rng.randrange(1, 1000)},
        lambda: {"kind": "connectivity", "scenario": "rho_power_law", "n": n,
                 "params": {"max_rho": rng.randint(3, 10)},
                 "seed": rng.randrange(1, 1000)},
        lambda: {"kind": "degree_implicit", "scenario": "power_law", "n": n,
                 "params": {"exponent": round(rng.uniform(2.2, 2.8), 3)},
                 "seed": rng.randrange(1, 1000)},
        lambda: {"kind": "connectivity", "model": "ncc1", "n": n,
                 "scenario": "rho_ranked",
                 "params": {"max_rho": rng.randint(3, 10)},
                 "seed": rng.randrange(1, 1000)},
    ]
    out: List[Request] = []
    seen: set = set()
    i = 0
    while len(out) < size:
        request = makers[i % len(makers)]()
        i += 1
        key = computation_key(request)
        if key not in seen:
            seen.add(key)
            out.append(request)
    return out


def _popularity(
    rng: random.Random, hot: Sequence[Request]
) -> Tuple[List[Request], List[float]]:
    """The hot set in a seeded popularity order, with Zipf-like weights."""
    ranked = list(hot)
    rng.shuffle(ranked)
    weights = [1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(ranked) + 1)]
    return ranked, weights


def _hot_streams(
    rng: random.Random, hot: Sequence[Request], per_connection: int
) -> List[List[Request]]:
    ranked, weights = _popularity(rng, hot)
    streams = []
    for conn in range(CONNECTIONS):
        picks = rng.choices(ranked, weights=weights, k=per_connection)
        streams.append(
            [dict(req, request_id=f"c{conn}-{i}") for i, req in enumerate(picks)]
        )
    return streams


def _serve_hot(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"serve_hot:{seed}")
    hot = hot_set(rng)
    streams = _hot_streams(
        rng, hot, max(1, seconds * HOT_PER_CONNECTION_PER_SECOND)
    )
    return Plan(
        workload="serve_hot",
        server_args=(),  # the CLI default: sequential mode
        connections=CONNECTIONS,
        depth=PIPELINE_DEPTH,
        shared=False,
        # Compute the hot set, then run it once more as cache hits.
        warmup=tuple(_with_ids(hot, "w") + _with_ids(hot, "x")),
        streams=tuple(tuple(s) for s in streams),
    )


def _durable_miss(rng: random.Random) -> Request:
    n = 64
    if rng.random() < 0.5:
        return {"kind": "tree", "degrees": random_tree_degrees(rng, n)}
    return {"kind": "connectivity", "model": "ncc1", "rho": random_rho(rng, n, 8)}


def _serve_durable(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"serve_durable:{seed}")
    hot = hot_set(rng)
    ranked, weights = _popularity(rng, hot)
    per_connection = max(1, seconds * DURABLE_PER_CONNECTION_PER_SECOND)
    seen = {computation_key(r) for r in hot}
    streams = []
    for conn in range(CONNECTIONS):
        stream: List[Request] = []
        fresh: List[int] = []  # positions of first submissions
        for i in range(per_connection):
            u = rng.random()
            lo = bisect.bisect_left(fresh, i - RESUBMIT_HORIZON)
            hi = bisect.bisect_right(fresh, i - RESUBMIT_MIN_BACK)
            if u < DURABLE_MISS_SHARE:
                request = _durable_miss(rng)
                while computation_key(request) in seen:
                    request = _durable_miss(rng)
                seen.add(computation_key(request))
            elif u < DURABLE_MISS_SHARE + DURABLE_RESUBMIT_SHARE and lo < hi:
                # A client retransmission: the same line, same key.
                stream.append(dict(stream[fresh[rng.randrange(lo, hi)]]))
                continue
            else:
                request = dict(rng.choices(ranked, weights=weights)[0])
            request["request_id"] = f"c{conn}-{i}"
            request["idempotency_key"] = f"k{seed}-{conn}-{i}"
            fresh.append(i)
            stream.append(request)
        streams.append(stream)
    warm = [
        dict(req, request_id=f"w{i}", idempotency_key=f"w{seed}-{i}")
        for i, req in enumerate(hot + hot)
    ]
    return Plan(
        workload="serve_durable",
        server_args=("--mode", "processes", "--workers", "2",
                     "--fsync", "batch"),
        connections=CONNECTIONS,
        depth=PIPELINE_DEPTH,
        shared=False,
        warmup=tuple(warm),
        streams=tuple(tuple(s) for s in streams),
        journal=True,
    )


_PLANS = {
    "realize_mix": _realize_mix,
    "serve_hot": _serve_hot,
    "serve_durable": _serve_durable,
}


def build(workload: str, seed: int, seconds: int) -> Plan:
    try:
        make_plan = _PLANS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        ) from None
    return make_plan(seed, seconds)


def shares(plan: Plan) -> Dict[str, float]:
    """Observed traffic shares of the generated timed sequence.

    ``cache_miss`` counts first occurrences of computations not computed
    during warm-up; ``full_fidelity`` the ``sort_fidelity="full"``
    requests; ``duplicate_key`` resubmitted idempotency keys.
    """
    warmed = {computation_key(r) for r in plan.warmup}
    seen = set(warmed)
    keys: set = set()
    misses = full = duplicates = 0
    timed = plan.timed_requests()
    for request in timed:
        comp = computation_key(request)
        if comp not in seen:
            misses += 1
            seen.add(comp)
        if request.get("sort_fidelity") == "full":
            full += 1
        key = request.get("idempotency_key")
        if key is not None:
            if key in keys:
                duplicates += 1
            keys.add(key)
    total = max(1, len(timed))
    return {
        "requests": len(timed),
        "cache_miss": misses / total,
        "full_fidelity": full / total,
        "duplicate_key": duplicates / total,
    }


def describe(plan: Plan) -> Dict[str, Any]:
    return {
        "server_args": list(plan.server_args),
        "connections": plan.connections,
        "depth": plan.depth,
        **shares(plan),
    }
