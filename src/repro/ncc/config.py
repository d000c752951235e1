"""Configuration for NCC simulations.

The paper's model fixes the per-round budgets at ``O(log n)`` messages of
``O(log n)`` bits; the hidden constants are configuration here so benches
can report how measured round counts respond to them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class Variant(enum.Enum):
    """Which initial-knowledge flavour of the NCC model to simulate.

    ``NCC0``
        Each node initially knows only the IDs of its out-neighbours in a
        sparse knowledge graph ``Gk`` (the paper uses a directed path).
        Corresponds to KT0 CONGEST.

    ``NCC1``
        All IDs are common knowledge (the original SPAA'19 NCC model).
        Corresponds to KT1 CONGEST.
    """

    NCC0 = "NCC0"
    NCC1 = "NCC1"


class EnforcementMode(enum.Enum):
    """How the simulator reacts to per-round receive-cap violations.

    ``STRICT``
        Raise :class:`~repro.ncc.errors.RecvCapExceeded`.  The default,
        and what every service request runs: a correct protocol never
        overdrives a receiver.

    ``DEFER``
        Queue surplus messages and deliver them in later rounds (FIFO per
        receiver), charging the extra rounds the congestion costs.  This
        models a rate-limited inbox and is useful for adversarial load
        experiments.  On the fast engine, a round that spills or drains
        a backlog runs the reference loop.

    ``UNBOUNDED``
        Do not enforce receive caps (send caps and knowledge gating remain
        enforced).  Only for debugging and ablations.
    """

    STRICT = "strict"
    DEFER = "defer"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class NCCConfig:
    """Immutable parameters of one simulated NCC deployment.

    Parameters
    ----------
    variant:
        :class:`Variant.NCC0` (default, the paper's focus) or ``NCC1``.
    send_cap_factor, recv_cap_factor:
        The per-round caps are ``ceil(factor * log2(n))`` messages, with a
        floor of ``min_cap``.  The paper's ``O(log n)`` budgets.
    min_cap:
        Floor applied to both caps so tiny networks stay functional.
    max_words:
        Message payload budget in machine words; each word is ``O(log n)``
        bits, so a message carries a constant number of IDs/integers.
    word_value_bits_factor:
        A payload integer must fit in ``factor * ceil(log2(n_id_space))``
        bits to count as one word.  Values needing more bits consume
        multiple words (size accounting, see :mod:`repro.ncc.message`).
    enforcement:
        Receive-cap behaviour, see :class:`EnforcementMode`.
    engine:
        Round-execution engine: ``"fast"`` (default — batched delivery
        with memoized size accounting and amortized cap checks) or
        ``"reference"`` (the per-message executable specification).
        Both enforce identical semantics and report bit-identical
        metrics; see :mod:`repro.ncc.engine`.
    id_space_exponent:
        IDs are drawn from ``[1, n**id_space_exponent]`` (the paper's
        ``[1, n^c]``).
    random_ids:
        If True, IDs are a random injection into the ID space (realistic
        P2P addressing); if False, IDs are ``1..n`` (convenient for NCC1).
    seed:
        Master seed.  All protocol randomness derives from it, making runs
        reproducible (Las Vegas algorithms with auditable tails).
    """

    variant: Variant = Variant.NCC0
    send_cap_factor: float = 2.0
    recv_cap_factor: float = 2.0
    min_cap: int = 8
    max_words: int = 6
    word_value_bits_factor: float = 2.0
    enforcement: EnforcementMode = EnforcementMode.STRICT
    engine: str = "fast"
    id_space_exponent: int = 3
    random_ids: bool = True
    seed: int = 0

    def cap_for(self, n: int) -> tuple[int, int]:
        """Return ``(send_cap, recv_cap)`` for an ``n``-node network."""
        log_n = max(1.0, math.log2(max(2, n)))
        send = max(self.min_cap, math.ceil(self.send_cap_factor * log_n))
        recv = max(self.min_cap, math.ceil(self.recv_cap_factor * log_n))
        return send, recv

    def replace(self, **kwargs) -> "NCCConfig":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)


#: A convenient default configuration (NCC0, strict enforcement).
DEFAULT_CONFIG = NCCConfig()

#: NCC1 configuration with sequential IDs, as in the SPAA'19 model.
NCC1_CONFIG = NCCConfig(variant=Variant.NCC1, random_ids=False)
