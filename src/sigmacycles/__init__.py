"""Hamiltonian cycle certificates for grid-structured uniform hypergraphs."""

from .certificates import (
    KIND_BERGE,
    KIND_K_INTERSECTING,
    KIND_SHARP,
    CycleCertificate,
    SharpnessProfile,
)
from .construct import (
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    diagonal_matching,
    frobenius_decompose,
    shifted_matching,
)
from .core import (
    Edge,
    GridVertex,
    Partition,
    SigmaHypergraph,
    edge_count,
    enumerate_edges,
    is_edge,
    make_hypergraph,
    parse_partition,
)
from .errors import (
    BudgetExceeded,
    CertificateParseError,
    ConstructionError,
    ConstructionUnsupported,
    DegenerateIntersection,
    KOutOfRange,
    NoEdgesError,
    NTooSmall,
    OnlyOneEdge,
    QNotRepresentable,
)
from .verify import (
    MaxMatchingResult,
    SharpSearchResult,
    VerificationReport,
    brute_force_max_matching,
    brute_force_sharp_hamiltonian_exists,
    matching_upper_bound,
    sharp_cycle_bounds,
    sharp_nonexistence_test,
    verify_berge_hamiltonian,
    verify_k_intersecting,
    verify_matching,
    verify_sharp_cycle,
)

# The imports above also bind the submodules (core, verify, ...) here; they
# are not part of the star-import surface.
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, type(certificates))
]
