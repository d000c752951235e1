"""Typed request/response envelopes for the batch realization service.

A :class:`RealizationRequest` names one unit of work: which realizer to
run (``kind``), on what workload (an inline ``degrees``/``rho`` vector,
or a named :mod:`~repro.service.registry` scenario plus ``n``), with
which simulation parameters (seed, engine, sorting fidelity, per-kind
options).  Requests are frozen and hashable: two requests that differ
only in ``request_id`` describe the *same deterministic computation*,
which is what lets the executor memoize responses for repeated traffic.

A :class:`RealizationResponse` carries the verdict, the realized edge
count, the full round/message meters, and per-kind detail.  Both
envelopes round-trip through plain JSON dicts (``to_dict``/``from_dict``)
so the CLI front ends can speak JSONL.

Each kind is defined once, in :data:`KIND_TABLE`: the realizer it runs,
its verdict rule and ``detail`` keys, and the request options it reads.
NCC1 connectivity has its own row, :data:`NCC1_CONNECTIVITY`, chosen by
:meth:`RealizationRequest.row`.  The executor, the cache key, the NCC
config and the CLI all read the row instead of testing the kind.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core import (
    approximate_degree_realization,
    realize_connectivity_ncc0,
    realize_connectivity_ncc1,
    realize_degree_sequence,
    realize_degree_sequence_explicit,
    realize_envelope,
    realize_tree,
)
from repro.ncc import wire
from repro.ncc.config import NCCConfig, Variant
from repro.ncc.engine import engine_names


@dataclass(frozen=True)
class KindRow:
    """One row of the kind table.

    ``realize(net, demands, request)`` runs the paper's realizer;
    ``verdict(result)`` and ``detail(result, request)`` make the
    response's verdict and ``detail`` mapping; ``options`` names the
    request fields the row reads, which alone enter its cache key.
    """

    realize: Callable[..., Any]
    verdict: Callable[[Any], str]
    detail: Callable[[Any, Any], Dict[str, Any]]
    options: Tuple[str, ...]
    variant: Variant = Variant.NCC0
    #: ``options``' values on a request: the row's cache-key component.
    read: Callable[[Any], Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "read", attrgetter(*self.options))


def _announced(result) -> str:
    return "REALIZED" if result.realized else "UNREALIZABLE"


def _degree_detail(result, request) -> Dict[str, Any]:
    return {
        "phases": result.phases,
        "explicit": result.explicit,
        "announced_by": len(result.announced_unrealizable_by),
    }


def _connectivity_detail(result, request) -> Dict[str, Any]:
    return {
        "lower_bound_edges": result.lower_bound_edges,
        "approximation_ratio": round(result.approximation_ratio, 4),
        "explicit": result.explicit,
    }


#: The workload kinds the service accepts, mapping 1:1 onto the paper's
#: realizers (Theorems 11/12/13, 14/16, 18, and the Õ(1) approximate
#: realizer of Augustine et al., arXiv 2002.05376).
KIND_TABLE: Dict[str, KindRow] = {
    "degree_implicit": KindRow(
        lambda net, demands, r: realize_degree_sequence(
            net, demands, sort_fidelity=r.sort_fidelity
        ),
        _announced, _degree_detail, ("sort_fidelity",),
    ),
    "degree_explicit": KindRow(
        lambda net, demands, r: realize_degree_sequence_explicit(
            net, demands, sort_fidelity=r.sort_fidelity
        ),
        _announced, _degree_detail, ("sort_fidelity",),
    ),
    "degree_envelope": KindRow(
        lambda net, demands, r: realize_envelope(
            net, demands, explicit=r.explicit_envelope,
            sort_fidelity=r.sort_fidelity,
        ),
        _announced, _degree_detail, ("sort_fidelity", "explicit_envelope"),
    ),
    "tree": KindRow(
        lambda net, demands, r: realize_tree(
            net, demands, variant=r.tree_variant, sort_fidelity=r.sort_fidelity
        ),
        _announced,
        lambda result, r: {"diameter": result.diameter, "variant": r.tree_variant},
        ("sort_fidelity", "tree_variant"),
    ),
    "connectivity": KindRow(
        lambda net, demands, r: realize_connectivity_ncc0(
            net, demands, sort_fidelity=r.sort_fidelity
        ),
        lambda result: "REALIZED", _connectivity_detail,
        ("sort_fidelity", "model"),
    ),
    "approximate": KindRow(
        lambda net, demands, r: approximate_degree_realization(
            net, demands, sort_fidelity=r.sort_fidelity, repair_rounds=r.repairs
        ),
        lambda result: "APPROXIMATED",
        lambda result, r: {
            "l1_error": result.l1_error,
            "relative_error": round(result.relative_error, 6),
            "self_pairs": result.self_pairs,
            "duplicate_pairs": result.duplicate_pairs,
        },
        ("sort_fidelity", "repairs"),
    ),
}

#: Theorem 17: connectivity on NCC1, the row a ``connectivity`` request
#: with ``model="ncc1"`` runs.  Its realizer takes no sorting knob.
NCC1_CONNECTIVITY = KindRow(
    lambda net, demands, r: realize_connectivity_ncc1(net, demands),
    lambda result: "REALIZED", _connectivity_detail, ("model",),
    variant=Variant.NCC1,
)

KINDS = tuple(KIND_TABLE)

_TREE_VARIANTS = {
    "min": "min_diameter",
    "max": "max_diameter",
    "min_diameter": "min_diameter",
    "max_diameter": "max_diameter",
}


class ServiceError(ValueError):
    """A malformed or infeasible service request."""


_SCALAR_PARAM_TYPES = (int, float, bool, str, type(None))


def _params_key(params: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical hashable form of a scenario-parameter mapping.

    Rejects non-mapping params and non-scalar values up front: requests
    are hashed (cache keys), so an unhashable value must surface as a
    :class:`ServiceError` here, not a ``TypeError`` deep in the executor.
    """
    if not params:
        return ()
    if type(params) is not dict and not isinstance(params, Mapping):
        raise ServiceError(
            f"'params' must be an object, got {type(params).__name__}"
        )
    for key, value in params.items():
        if not isinstance(key, str):
            raise ServiceError(f"param names must be strings, got {key!r}")
        if not isinstance(value, _SCALAR_PARAM_TYPES):
            raise ServiceError(
                f"param {key!r} must be a scalar, got {type(value).__name__}"
            )
    return tuple(sorted(params.items()))


#: The field types :meth:`RealizationRequest.validate` checks first, in
#: the order it reports them.
_FIELD_TYPES = (
    ("request_id", str), ("kind", str), ("seed", int), ("repairs", int),
    ("engine", str), ("sort_fidelity", str), ("tree_variant", str),
    ("model", str), ("explicit_envelope", bool),
)


@dataclass(frozen=True)
class RealizationRequest:
    """One realization job.

    Exactly one of ``degrees`` (inline workload vector; also the ρ vector
    for ``kind="connectivity"``) or ``scenario`` (+ ``n``) must be given.
    """

    kind: str
    request_id: str = ""
    degrees: Optional[Tuple[int, ...]] = None
    scenario: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    n: Optional[int] = None
    seed: int = 0
    engine: str = "fast"
    sort_fidelity: str = "charged"
    tree_variant: str = "min_diameter"
    model: str = "ncc0"  # connectivity only: "ncc0" | "ncc1"
    repairs: int = 0  # approximate only
    explicit_envelope: bool = False  # degree_envelope only
    max_rounds: Optional[int] = None  # per-request round budget (isolation)
    deadline_ms: Optional[int] = None  # wall-clock budget from arrival (ms)
    idempotency_key: Optional[str] = None  # exactly-once replay identity

    # Set on the instance once validate() passes (not a field: unannotated).
    _validated = False

    def __post_init__(self) -> None:
        if self.degrees is not None and not isinstance(self.degrees, tuple):
            object.__setattr__(self, "degrees", tuple(self.degrees))
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", _params_key(self.params))
        else:
            # Canonical pair order even for directly built tuples, so
            # equal computations share one cache key.  Param names are
            # unique strings, so values are never compared; malformed
            # entries that defeat sorting are left for validate().
            try:
                object.__setattr__(self, "params", tuple(sorted(self.params)))
            except TypeError:
                pass
        # A redundant n alongside inline degrees is normalised away so the
        # two spellings of the same computation share one cache key (an
        # *inconsistent* or type-invalid n is kept for validate() to
        # reject — True == 1 must not slip through the equality).
        if (
            self.degrees is not None
            and type(self.n) is int  # bool/float n must reach validate()
            and self.n == len(self.degrees)
        ):
            object.__setattr__(self, "n", None)
        # "min"/"max" aliases normalise here (not just in from_dict) so
        # directly constructed requests run, and alias spellings share a
        # cache key.
        if self.tree_variant in _TREE_VARIANTS:
            object.__setattr__(
                self, "tree_variant", _TREE_VARIANTS[self.tree_variant]
            )

    # ---------------------------------------------------------------- #
    # Validation and derived simulation parameters                     #
    # ---------------------------------------------------------------- #

    def validate(self) -> "RealizationRequest":
        """Raise :class:`ServiceError` on malformed requests; return self.

        A request that passes is marked; its fields are frozen, so a later
        call returns at once.  An invalid request raises on every call."""
        if self._validated:
            return self
        # Field types first: every later check (and the executor's cache
        # hashing and Network construction) assumes them.
        for attr, expected in _FIELD_TYPES:
            value = getattr(self, attr)
            if type(value) is expected:
                continue
            if not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)
            ):
                raise ServiceError(
                    f"{attr!r} must be {expected.__name__}, got "
                    f"{type(value).__name__}"
                )
        if self.n is not None and (
            not isinstance(self.n, int) or isinstance(self.n, bool)
        ):
            raise ServiceError(f"'n' must be an integer, got {self.n!r}")
        if self.scenario is not None and not isinstance(self.scenario, str):
            raise ServiceError(
                f"'scenario' must be str, got {type(self.scenario).__name__}"
            )
        degrees = self.degrees or ()
        # One C-speed test over the set of element types: bool cannot be
        # subclassed, so ``bool in types`` is ``isinstance(d, bool)``.
        types = set(map(type, degrees))
        if types and (
            bool in types
            or not all(map(int.__subclasscheck__, types))
            or min(degrees) < 0
        ):
            raise ServiceError(
                f"'degrees' must contain non-negative integers only: "
                f"{self.degrees!r}"
            )
        if self.params:
            try:
                params_map = dict(self.params)
            except (TypeError, ValueError):
                raise ServiceError(
                    f"'params' must be (name, value) pairs: {self.params!r}"
                ) from None
            _params_key(params_map)
        if self.kind not in KIND_TABLE:
            raise ServiceError(
                f"unknown kind {self.kind!r}; expected one of {sorted(KINDS)}"
            )
        if (self.degrees is None) == (self.scenario is None):
            raise ServiceError(
                "exactly one of 'degrees' and 'scenario' must be provided"
            )
        if self.scenario is not None and (self.n is None or self.n < 1):
            raise ServiceError("scenario requests need a positive 'n'")
        if self.degrees is not None:
            if len(self.degrees) == 0:
                raise ServiceError("'degrees' must be a non-empty integer list")
            if self.n is not None and self.n != len(self.degrees):
                raise ServiceError(
                    f"n={self.n} disagrees with len(degrees)={len(self.degrees)}"
                )
        if self.engine not in engine_names():
            raise ServiceError(f"unknown engine {self.engine!r}")
        if self.max_rounds is not None and (
            not isinstance(self.max_rounds, int)
            or isinstance(self.max_rounds, bool)
            or self.max_rounds < 1
        ):
            raise ServiceError(
                f"'max_rounds' must be a positive integer, got {self.max_rounds!r}"
            )
        if self.deadline_ms is not None and (
            not isinstance(self.deadline_ms, int)
            or isinstance(self.deadline_ms, bool)
            or self.deadline_ms < 1
        ):
            raise ServiceError(
                f"'deadline_ms' must be a positive integer, got {self.deadline_ms!r}"
            )
        if self.idempotency_key is not None and (
            not isinstance(self.idempotency_key, str) or not self.idempotency_key
        ):
            raise ServiceError(
                "'idempotency_key' must be a non-empty string, got "
                f"{self.idempotency_key!r}"
            )
        # Every option is checked on every kind, whether or not its row
        # reads it.
        if self.sort_fidelity not in ("full", "charged"):
            raise ServiceError(f"unknown sort_fidelity {self.sort_fidelity!r}")
        if self.tree_variant not in _TREE_VARIANTS:
            raise ServiceError(f"unknown tree_variant {self.tree_variant!r}")
        if self.model not in ("ncc0", "ncc1"):
            raise ServiceError(f"unknown connectivity model {self.model!r}")
        if self.repairs < 0:
            raise ServiceError("'repairs' must be >= 0")
        object.__setattr__(self, "_validated", True)
        return self

    @property
    def size(self) -> int:
        """The network size this request runs on."""
        if self.degrees is not None:
            return len(self.degrees)
        assert self.n is not None
        return self.n

    def row(self) -> KindRow:
        """This request's row of the kind table: the one place NCC1
        connectivity is told apart from its kind's NCC0 row."""
        if self.model == "ncc1" and self.kind == "connectivity":
            return NCC1_CONNECTIVITY
        return KIND_TABLE[self.kind]

    def config(self) -> NCCConfig:
        """The :class:`NCCConfig` (and pool key half) for this request."""
        variant = self.row().variant
        return NCCConfig(
            seed=self.seed,
            engine=self.engine,
            variant=variant,
            random_ids=variant is not Variant.NCC1,
        )

    def cache_key(self) -> tuple:
        """The computation's fields as a plain tuple: equal keys ⇒ equal
        deterministic computations ⇒ shareable responses.  Left out or
        ``None``: identity (``request_id``), ``deadline_ms`` (it bounds
        *when* an answer arrives, never *what* it is), ``idempotency_key``
        (it names the submission, not the computation), options the
        request's row does not read (a stray ``repairs=3`` must not split
        a tree request's entry) and ``params`` without a scenario."""
        return (
            self.kind, self.degrees, self.scenario,
            self.params if self.scenario is not None else None,
            self.n, self.seed, self.engine, self.max_rounds,
            self.row().read(self),
        )

    # ---------------------------------------------------------------- #
    # Wire mapping (the process-drain boundary)                        #
    # ---------------------------------------------------------------- #

    _WIRE_KEYS = (
        "kind", "request_id", "degrees", "scenario", "params", "n", "seed",
        "engine", "sort_fidelity", "tree_variant", "model", "repairs",
        "explicit_envelope", "max_rounds", "deadline_ms", "idempotency_key",
    )
    _DEGREES_SLOT = _WIRE_KEYS.index("degrees")

    def to_wire(self, trace: Optional[tuple] = None) -> tuple:
        """Compact positional envelope for the process-drain boundary.

        The inline workload vector — the only request field that scales
        with ``n`` — travels as an ``array('q')`` column (one memcpy for
        ``pickle`` instead of a tuple of boxed ints); everything else is
        a flat positional tuple, skipping the dataclass pickle protocol.
        ``_WIRE_KEYS`` is the single source of the field order (asserted
        against the dataclass fields at import time).

        A traced request ships its ``(trace_id, parent_span_id)``
        context as an optional trailer past the fixed width
        (:func:`repro.ncc.wire.attach_trailer`) — absent entirely when
        tracing is off, so the untraced envelope is byte-identical to
        the pre-tracing one.
        """
        values = [getattr(self, key) for key in self._WIRE_KEYS]
        slot = self._DEGREES_SLOT
        if values[slot] is not None:
            try:
                values[slot] = array("q", values[slot])
            except OverflowError:  # absurd but valid ints: ship boxed
                pass
        out = tuple(values)
        return wire.attach_trailer(out, trace) if trace is not None else out

    @classmethod
    def from_wire(cls, wire_tuple: tuple) -> "RealizationRequest":
        """Rebuild a request from :meth:`to_wire` output.

        Trusts the sender — the parent validates and normalises before
        shipping — so the frozen-dataclass ``__init__``/``__post_init__``
        machinery is skipped entirely (a plain dict fill).  Any trace
        trailer is sliced off; callers that want it use
        :meth:`wire_trace`.
        """
        self = cls.__new__(cls)
        inner = self.__dict__
        body = wire.wire_body(wire_tuple, len(cls._WIRE_KEYS))
        for key, value in zip(cls._WIRE_KEYS, body, strict=True):
            inner[key] = value
        if inner["degrees"] is not None:
            inner["degrees"] = tuple(inner["degrees"])
        return self

    @classmethod
    def wire_trace(cls, wire_tuple: tuple) -> Optional[tuple]:
        """The ``(trace_id, parent_span_id)`` trailer, or ``None``."""
        return wire.wire_trailer(wire_tuple, len(cls._WIRE_KEYS))

    # ---------------------------------------------------------------- #
    # JSON mapping                                                     #
    # ---------------------------------------------------------------- #

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RealizationRequest":
        """Build and validate a request from a JSON-style dict.

        One fill, as :meth:`from_wire` fills: the field defaults, then
        the payload, then the one normalisation (``__post_init__``) and
        the one check (:meth:`validate`).
        """
        if type(payload) is not dict and not isinstance(payload, Mapping):
            raise ServiceError(f"request must be an object, got {type(payload).__name__}")
        if not _PAYLOAD_KEYS.issuperset(payload):
            unknown = set(payload) - _PAYLOAD_KEYS
            raise ServiceError(f"unknown request field(s): {sorted(unknown)}")
        self = cls.__new__(cls)
        inner = self.__dict__
        inner.update(_DEFAULTS)
        inner.update(payload)
        # "rho" is an accepted alias for the connectivity workload vector.
        if "rho" in payload:
            if "degrees" in payload:
                raise ServiceError("give either 'degrees' or 'rho', not both")
            inner["degrees"] = inner.pop("rho")
        degrees = inner["degrees"]
        if degrees is not None:
            if isinstance(degrees, (str, bytes)):
                raise ServiceError(
                    f"'degrees' must be a list of integers, not a string: "
                    f"{degrees!r}"
                )
            try:
                inner["degrees"] = tuple(degrees)
            except TypeError:
                raise ServiceError(
                    f"'degrees' must be a list of integers: {degrees!r}"
                ) from None
        if "params" in payload:
            inner["params"] = _params_key(inner["params"])
        try:
            if "kind" not in inner:
                cls(**inner)  # raises, naming the missing field
            self.__post_init__()
        except TypeError as exc:
            raise ServiceError(f"malformed request: {exc}") from None
        return self.validate()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict, omitting defaulted fields for readability."""
        out: Dict[str, Any] = {"kind": self.kind}
        if self.request_id:
            out["request_id"] = self.request_id
        if self.degrees is not None:
            out["degrees"] = list(self.degrees)
        if self.scenario is not None:
            out["scenario"] = self.scenario
            out["n"] = self.n
        if self.params:
            out["params"] = dict(self.params)
        for attr in (
            "seed", "engine", "sort_fidelity", "tree_variant", "model",
            "repairs", "explicit_envelope", "max_rounds", "deadline_ms",
            "idempotency_key",
        ):
            value = getattr(self, attr)
            if value != _DEFAULTS[attr]:
                out[attr] = value
        return out


@dataclass(frozen=True)
class RealizationResponse:
    """Outcome of one request.

    ``verdict`` is the service-level summary: ``REALIZED`` /
    ``UNREALIZABLE`` (the distributed announcement), ``APPROXIMATED``
    (the approximate realizer always produces an overlay, with its error
    in ``detail``), or ``ERROR`` (the request was malformed or the run
    raised).  ``error_code`` types machine-actionable failures
    (``"BUDGET_EXCEEDED"`` when a per-request ``max_rounds`` budget
    fired, ``"DEADLINE_EXCEEDED"`` when a per-request ``deadline_ms``
    wall-clock budget expired — before dispatch or cooperatively at a
    round boundary, ``"WORKER_CRASHED"`` when a process-drain worker
    died, ``"WORKER_TIMEOUT"`` when the hung-worker watchdog killed the
    pool worker running this request,
    ``"ADMISSION_REJECTED"`` when the socket front end refused the
    request unexecuted — window full or server draining — so the client
    should back off and resubmit); free-form failures leave it ``None``.  ``cached`` marks responses
    served from the executor's response cache (or coalesced onto a
    concurrent identical execution); by determinism they are
    field-identical to a fresh run (``fingerprint()`` is the comparison
    the tests use).
    """

    request_id: str
    kind: str
    ok: bool
    verdict: str
    num_edges: int = 0
    rounds: int = 0
    simulated_rounds: int = 0
    charged_rounds: int = 0
    messages: int = 0
    words: int = 0
    detail: Tuple[Tuple[str, Any], ...] = ()
    cached: bool = False
    elapsed_sec: float = 0.0
    error: Optional[str] = None
    error_code: Optional[str] = None

    # Not annotated, so not a field: it stays out of ``==``,
    # ``fingerprint()``, the wire envelope, ``to_dict()`` and the journal.
    # A cached copy of a stored answer carries its key's
    # :func:`hit_line_tail` here (see :meth:`reenvelope`); every other
    # response reads this class default.
    line_tail = None

    def fingerprint(self) -> Tuple:
        """Everything except identity and measurement volatiles."""
        return (
            self.kind,
            self.ok,
            self.verdict,
            self.num_edges,
            self.rounds,
            self.simulated_rounds,
            self.charged_rounds,
            self.messages,
            self.words,
            self.detail,
            self.error,
            self.error_code,
        )

    _WIRE_KEYS = (
        "request_id", "kind", "ok", "verdict", "num_edges", "rounds",
        "simulated_rounds", "charged_rounds", "messages", "words", "detail",
        "cached", "elapsed_sec", "error", "error_code",
    )

    def to_wire(self, spans: Optional[tuple] = None) -> tuple:
        """Flat positional envelope for the process-drain return path.

        A worker that recorded spans ships them flattened into columns
        (:func:`repro.obs.trace.encode_span_columns`) as an optional
        trailer — the response dataclass itself stays trace-free, so
        fingerprints and caches never see tracing state.
        """
        out = tuple(getattr(self, key) for key in self._WIRE_KEYS)
        return wire.attach_trailer(out, spans) if spans is not None else out

    @classmethod
    def from_wire(cls, wire_tuple: tuple) -> "RealizationResponse":
        """Rebuild a response from :meth:`to_wire` output (trusted)."""
        self = cls.__new__(cls)
        inner = self.__dict__
        body = wire.wire_body(wire_tuple, len(cls._WIRE_KEYS))
        for key, value in zip(cls._WIRE_KEYS, body, strict=True):
            inner[key] = value
        return self

    @classmethod
    def wire_spans(cls, wire_tuple: tuple) -> Optional[tuple]:
        """The worker-side span columns trailer, or ``None``."""
        return wire.wire_trailer(wire_tuple, len(cls._WIRE_KEYS))

    def reenvelope(
        self,
        request_id: str,
        cached: bool = False,
        line_tail: Optional[bytes] = None,
    ) -> "RealizationResponse":
        """This answer under ``request_id``: a field copy filled as
        :meth:`from_wire` fills.  ``cached=True`` marks a hit or coalesced
        follower, which ran nothing itself (``elapsed_sec`` reads 0.0).

        Only such a ``cached=True`` copy carries a ``line_tail``: the
        executor passes its key's :func:`hit_line_tail`, which encodes
        every field of the copy but ``request_id``.  The answer the
        response cache stores is the leader's own (``cached`` false, its
        real ``elapsed_sec``) and never carries one, so a copy made for
        the leader writes its own line.  A copy of a copy keeps the
        tail, which still matches: only ``request_id`` changed."""
        out = RealizationResponse.__new__(RealizationResponse)
        inner = out.__dict__
        inner.update(self.__dict__)
        inner["request_id"] = request_id
        if cached:
            inner["cached"] = True
            inner["elapsed_sec"] = 0.0
            if line_tail is not None:
                inner["line_tail"] = line_tail
        return out

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "request_id": self.request_id,
            "kind": self.kind,
            "ok": self.ok,
            "verdict": self.verdict,
            "num_edges": self.num_edges,
            "rounds": self.rounds,
            "simulated_rounds": self.simulated_rounds,
            "charged_rounds": self.charged_rounds,
            "messages": self.messages,
            "words": self.words,
            "detail": dict(self.detail),
            "cached": self.cached,
            "elapsed_sec": round(self.elapsed_sec, 6),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.error_code is not None:
            out["error_code"] = self.error_code
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RealizationResponse":
        data = dict(payload)
        data["detail"] = tuple(sorted(dict(data.get("detail", ())).items()))
        return cls(**data)


#: How every response line starts: :meth:`RealizationResponse.to_dict`
#: puts ``request_id`` first.
LINE_HEAD = b'{"request_id": '


def hit_line_tail(response: RealizationResponse) -> bytes:
    """The encoded rest of a cache hit's line on ``response``, after its
    ``request_id``: ``, "kind": ..., "cached": true, "elapsed_sec":
    0.0}`` and the newline.

    ``LINE_HEAD + json.dumps(request_id).encode() + tail`` is byte for
    byte ``(json.dumps(hit.to_dict()) + "\\n").encode()`` for every
    ``cached=True`` copy of ``response`` under that ``request_id``, so
    the executor encodes a stored answer once and each hit writes only
    its own ``request_id``.
    """
    payload = response.reenvelope("", cached=True).to_dict()
    del payload["request_id"]
    return (", " + json.dumps(payload)[1:] + "\n").encode()


# The wire envelopes zip positional tuples against _WIRE_KEYS, and zip
# truncates silently on skew — so the key tuples must track the
# dataclass fields exactly.  Checked once, at import time.
assert RealizationRequest._WIRE_KEYS == tuple(
    f.name for f in fields(RealizationRequest)
), "RealizationRequest._WIRE_KEYS drifted from the dataclass fields"
assert RealizationResponse._WIRE_KEYS == tuple(
    f.name for f in fields(RealizationResponse)
), "RealizationResponse._WIRE_KEYS drifted from the dataclass fields"

#: The keys a request payload may carry: the fields and ``rho``, the
#: alias of ``degrees``.
_PAYLOAD_KEYS = frozenset(RealizationRequest._WIRE_KEYS) | {"rho"}

#: Every request field's default (``kind`` has none): where
#: :meth:`RealizationRequest.from_dict`'s fill starts.
_DEFAULTS = {
    f.name: f.default for f in fields(RealizationRequest) if f.default is not MISSING
}


def error_response(
    request_id: str,
    kind: str,
    message: str,
    code: Optional[str] = None,
    retry_after_ms: Optional[int] = None,
) -> RealizationResponse:
    """The uniform failure envelope (``code`` types actionable failures).

    ``retry_after_ms`` rides in ``detail`` — a deterministic backoff
    hint on ``ADMISSION_REJECTED`` envelopes (derived from window
    occupancy by the socket server) so clients can pace resubmission
    instead of hammering a full window.  It must be a positive int;
    anything else is a caller bug, rejected here rather than shipped.
    """
    detail: Tuple[Tuple[str, Any], ...] = ()
    if retry_after_ms is not None:
        if (
            not isinstance(retry_after_ms, int)
            or isinstance(retry_after_ms, bool)
            or retry_after_ms < 1
        ):
            raise ValueError(
                f"retry_after_ms must be a positive integer, got {retry_after_ms!r}"
            )
        detail = (("retry_after_ms", retry_after_ms),)
    return RealizationResponse(
        request_id=request_id,
        kind=kind,
        ok=False,
        verdict="ERROR",
        detail=detail,
        error=message,
        error_code=code,
    )
