"""Agreement checks between the three computation routes.

The configuration count, the GF(2) rank of the weight-<=2 exponent vectors,
and the exact statevector nullity must coincide on every connected graph
with n >= 3; the unique connected 2-vertex graph is the documented boundary
where the dimension is 3 but the rank is 2.
"""

from __future__ import annotations

from collections import namedtuple

from . import oracle
from .configurations import Analysis, analyze, require_core_input
from .errors import ConsistencyError
from .graphs import GRAPH6_MAX_N, Graph, encode_graph6
from .oracle import DEFAULT_ORACLE_CAP
from .pauli import g2_rank, low_weight_elements


class EquivalenceReport(
    namedtuple("EquivalenceReport", "n dimension g2 oracle_nullity holds oracle_agrees")
):
    """Each route's value on one graph; the oracle fields are None unless it ran."""

    __slots__ = ()


def check_equivalence(
    g: Graph,
    with_oracle: bool = False,
    element_mode: str = "fast",
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    analysis: Analysis | None = None,
) -> EquivalenceReport:
    """Compute dimension and g2 (and optionally the oracle nullity) on one graph.

    A dimension/g2 mismatch on n >= 3 raises ConsistencyError: that would
    falsify the implementation, not the input. At n = 2 only the boundary gap
    (dimension 3, g2 2) is expected and reported; any other pair raises too.
    The message ends with ``reproduction``'s detail; the oracle, when asked
    for, runs first so the detail carries its nullity too.

    In fast mode ``dimension`` and ``g2`` come from one detection pass
    (``analysis``, computed unless given), so that gate is not independent;
    ``element_mode="brute"`` and the oracle are.
    """
    analysis = require_core_input(analyze(g) if analysis is None else analysis)
    g2 = analysis.g2
    if element_mode != "fast":
        g2 = g2_rank(e for e, _ in low_weight_elements(g, mode=element_mode))
    dimension = analysis.dimension
    nullity = oracle.local_algebra_nullity(g, cap=oracle_cap) if with_oracle else None
    holds = dimension == g2
    # The one connected 2-vertex graph is the boundary: dimension 3, g2 2.
    if dimension - g2 != (g.n == 2):
        raise ConsistencyError(
            f"dimension {dimension} != g2 {g2} on a connected graph with n={g.n} "
            f"({reproduction(g, dimension, g2, nullity)})"
        )
    agrees = None if nullity is None else nullity == dimension
    return EquivalenceReport(g.n, dimension, g2, nullity, holds, agrees)


def reproduction(g: Graph, dimension: int, g2: int, nullity: int | None) -> str:
    """Each route's value plus, when it fits, the input as graph6."""
    shown = "not-run" if nullity is None else nullity
    return f"dimension={dimension} g2={g2} oracle_nullity={shown}{graph6_detail(g)}"


def graph6_detail(g: Graph) -> str:
    """`` graph6=<g>`` when g fits graph6's one-byte size form (n <= 62), else empty."""
    return f" graph6={encode_graph6(g)}" if g.n <= GRAPH6_MAX_N else ""
