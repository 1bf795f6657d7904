"""Finiteness of Neron models of r-torsion Picard schemes, decided from
combinatorial reduction data.

The library takes the dual graph of the special fibre of a semistable
reduction -- a connected multigraph with per-vertex genera and per-edge
thicknesses and stabilizer orders -- and computes the component group,
its r-torsion, the circuit and thickness invariants c and t, the base
change indices m2 and m3, and the finiteness verdicts for the r-torsion
Picard scheme and for torsors of r-th roots of a line bundle.  All
arithmetic is exact.
"""

from .errors import (
    BadModulus,
    BoundsTooLarge,
    DanglingEndpoint,
    DimensionMismatch,
    Disconnected,
    DuplicateId,
    InvalidReductionData,
    MalformedSpectrum,
    MissingMultidegree,
    NeronGraphError,
    ParseError,
    SemistabilityRequired,
    StabilizerMismatch,
    TooManyCircuits,
    UnknownEdge,
)
from .graph import (
    MultiGraph,
    betti1,
    enumerate_circuits,
    fundamental_cycle_basis,
    is_nonseparating,
    is_r_divided,
    signed_common_edges,
    thickness_subdivision,
    total_genus,
)
from .homology import boundary_matrix, intersection_matrix, smith_normal_form, solve_mod
from .component_group import (
    AbelianGroup,
    homological_criterion,
    is_full_r_torsion,
    phi_group,
    phi_r_torsion,
    spanning_tree_count,
)
from .invariants import (
    AnalysisReport,
    ReductionData,
    analyze,
    circuit_invariant_c,
    group_neron_finite,
    index_m2,
    index_m3,
    thickness_invariant_t,
    torsion_count_special,
    torsion_count_twisted,
    torsor_neron_finite,
    twisted_roots_finite,
)
from .fixtures import paper_fixtures
from .enumeration import verify_equivalence

__version__ = "0.1.0"

# What the demos and the README import, plus the report types and the
# errors that callers catch; everything else stays importable from its
# module.
__all__ = [
    "AbelianGroup",
    "AnalysisReport",
    "BadModulus",
    "BoundsTooLarge",
    "DanglingEndpoint",
    "DimensionMismatch",
    "Disconnected",
    "DuplicateId",
    "InvalidReductionData",
    "MalformedSpectrum",
    "MissingMultidegree",
    "MultiGraph",
    "NeronGraphError",
    "ParseError",
    "ReductionData",
    "SemistabilityRequired",
    "StabilizerMismatch",
    "TooManyCircuits",
    "UnknownEdge",
    "analyze",
    "betti1",
    "boundary_matrix",
    "circuit_invariant_c",
    "enumerate_circuits",
    "fundamental_cycle_basis",
    "group_neron_finite",
    "homological_criterion",
    "index_m2",
    "index_m3",
    "intersection_matrix",
    "is_full_r_torsion",
    "is_nonseparating",
    "is_r_divided",
    "paper_fixtures",
    "phi_group",
    "phi_r_torsion",
    "signed_common_edges",
    "smith_normal_form",
    "solve_mod",
    "spanning_tree_count",
    "thickness_invariant_t",
    "thickness_subdivision",
    "torsion_count_special",
    "torsion_count_twisted",
    "torsor_neron_finite",
    "total_genus",
    "twisted_roots_finite",
    "verify_equivalence",
]
