"""repro — reproduction of *Distributed Graph Realizations* (IPDPS 2020).

A production-grade Python library implementing the paper's full stack:

* :mod:`repro.ncc` — the Node Capacitated Clique model simulator (NCC0 and
  NCC1), with enforced message caps, message sizes and knowledge-gated
  addressing, and full round/message metering;
* :mod:`repro.primitives` — Section 3's structural and computational
  primitives (balanced binary trees, the BBST of Theorem 1, distributed
  mergesort, broadcast/aggregation/collection, butterfly-based group
  primitives);
* :mod:`repro.core` — the paper's contributions: distributed degree
  realization (implicit/explicit/approximate), tree realizations, and
  connectivity-threshold realizations (their round bounds, and the
  Section 7 lower bounds, are entries of :mod:`repro.ncc.metrics`);
* :mod:`repro.sequential` — the classical baselines (Erdős–Gallai,
  Havel–Hakimi, greedy trees, Frank–Chou);
* :mod:`repro.workloads`, :mod:`repro.validation` — instance generators
  and networkx-based independent validation.

Quickstart::

    from repro import Network, realize_degree_sequence

    net = Network(12)
    result = realize_degree_sequence(net, {v: 3 for v in net.node_ids})
    assert result.realized
    print(result.stats.rounds, "rounds")
"""

from repro.ncc import (
    EnforcementMode,
    Message,
    NCCConfig,
    Network,
    RoundStats,
    Variant,
)
from repro.core import (
    ConnectivityResult,
    RealizationResult,
    TreeResult,
    realize_connectivity_ncc0,
    realize_connectivity_ncc1,
    realize_degree_sequence,
    realize_envelope,
    realize_tree,
)
from repro.sequential import erdos_gallai_check, havel_hakimi, is_graphic

__version__ = "1.0.0"

__all__ = [
    "ConnectivityResult",
    "EnforcementMode",
    "Message",
    "NCCConfig",
    "Network",
    "RealizationResult",
    "RoundStats",
    "TreeResult",
    "Variant",
    "__version__",
    "erdos_gallai_check",
    "havel_hakimi",
    "is_graphic",
    "realize_connectivity_ncc0",
    "realize_connectivity_ncc1",
    "realize_degree_sequence",
    "realize_envelope",
    "realize_tree",
]
