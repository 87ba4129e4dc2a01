"""Exact stabilizer-dimension analysis of multiqubit graph states.

Computes the dimension of the local-unitary stabilizer algebra of a
connected graph state from three graph configurations (twins, leaves,
closed twins), independently computes the GF(2) rank of the weight-<=2
stabilizer elements, and cross-checks both against an exact brute-force
statevector oracle.
"""

from .configurations import (
    CLOSED_TWIN,
    LEAF,
    TWIN,
    Configuration,
    SlotPair,
    corresponding_stabilizer_element,
    detect_configurations,
    lie_generator,
    slot_span_rank,
    stabilizer_dimension,
    stabilizer_dimension_components,
)
from .errors import ConsistencyError, ConstraintError, GraphParseError
from .graphs import (
    Graph,
    connected_components,
    encode_edge_list,
    encode_graph6,
    generate,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .oracle import (
    CoefficientVector,
    ExactStateVector,
    apply_pauli,
    build_statevector,
    is_stabilized,
    local_algebra_nullity,
    nullspace_basis,
)
from .pauli import (
    PauliString,
    element,
    g2_rank,
    gf2_rank,
    graph_generators,
    low_weight_elements,
    multiply,
)
from .theorem import (
    EquivalenceReport,
    check_correspondence,
    check_equivalence,
    check_pairwise_overlap,
    check_support_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "CLOSED_TWIN",
    "LEAF",
    "TWIN",
    "CoefficientVector",
    "Configuration",
    "ConsistencyError",
    "ConstraintError",
    "EquivalenceReport",
    "ExactStateVector",
    "Graph",
    "GraphParseError",
    "PauliString",
    "SlotPair",
    "apply_pauli",
    "build_statevector",
    "check_correspondence",
    "check_equivalence",
    "check_pairwise_overlap",
    "check_support_pairs",
    "connected_components",
    "corresponding_stabilizer_element",
    "detect_configurations",
    "element",
    "encode_edge_list",
    "encode_graph6",
    "g2_rank",
    "generate",
    "gf2_rank",
    "graph_generators",
    "is_connected",
    "is_stabilized",
    "lie_generator",
    "local_algebra_nullity",
    "low_weight_elements",
    "multiply",
    "nullspace_basis",
    "parse_edge_list",
    "parse_graph6",
    "slot_span_rank",
    "stabilizer_dimension",
    "stabilizer_dimension_components",
]
