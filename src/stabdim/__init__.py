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
    detect_configurations,
    stabilizer_dimension,
)
from .errors import ConsistencyError, ConstraintError, GraphParseError
from .graphs import (
    Graph,
    encode_edge_list,
    encode_graph6,
    generate,
    parse_edge_list,
    parse_graph6,
)
from .oracle import local_algebra_nullity
from .pauli import PauliString, g2_rank, low_weight_elements
from .theorem import EquivalenceReport, check_equivalence

__version__ = "0.1.0"

__all__ = [
    "CLOSED_TWIN",
    "LEAF",
    "TWIN",
    "Configuration",
    "ConsistencyError",
    "ConstraintError",
    "EquivalenceReport",
    "Graph",
    "GraphParseError",
    "PauliString",
    "check_equivalence",
    "detect_configurations",
    "encode_edge_list",
    "encode_graph6",
    "g2_rank",
    "generate",
    "local_algebra_nullity",
    "low_weight_elements",
    "parse_edge_list",
    "parse_graph6",
    "stabilizer_dimension",
]
