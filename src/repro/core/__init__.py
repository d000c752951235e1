"""The paper's contributions (Sections 4-7) as runnable protocols.

* :mod:`repro.core.degree_realization` — Algorithm 3 (Theorem 11);
* :mod:`repro.core.explicit` — explicit conversion (Theorem 12);
* :mod:`repro.core.envelope` — upper-envelope realization (Theorem 13);
* :mod:`repro.core.tree_realization` — Algorithms 4/5 (Theorems 14/16);
* :mod:`repro.core.connectivity` — Theorems 17/18 (Algorithm 6).

The round bounds of these theorems, and the Section 7 lower bounds
(Theorems 19/20), are entries of :mod:`repro.ncc.metrics`.
"""

from repro.core.result import (
    ConnectivityResult,
    RealizationResult,
    TreeResult,
    explicitness_holds,
    overlay_degrees,
    overlay_edges,
    record_edge,
)
from repro.core.approximate import (
    ApproxRealizationResult,
    StubPairing,
    approximate_degree_realization,
)
from repro.core.degree_realization import (
    degree_realization_protocol,
    realize_degree_sequence,
)
from repro.core.explicit import (
    explicit_conversion_protocol,
    realize_degree_sequence_explicit,
)
from repro.core.envelope import (
    envelope_discrepancy,
    envelope_holds,
    realize_envelope,
)
from repro.core.tree_realization import realize_tree, tree_realization_protocol
from repro.core.connectivity import (
    connectivity_lower_bound,
    realize_connectivity_ncc0,
    realize_connectivity_ncc1,
)

__all__ = [
    "ApproxRealizationResult",
    "ConnectivityResult",
    "RealizationResult",
    "TreeResult",
    "StubPairing",
    "approximate_degree_realization",
    "connectivity_lower_bound",
    "degree_realization_protocol",
    "envelope_discrepancy",
    "envelope_holds",
    "explicit_conversion_protocol",
    "explicitness_holds",
    "overlay_degrees",
    "overlay_edges",
    "realize_connectivity_ncc0",
    "realize_connectivity_ncc1",
    "realize_degree_sequence",
    "realize_degree_sequence_explicit",
    "realize_envelope",
    "realize_tree",
    "record_edge",
]
