"""Agreement checks between the three computation routes.

The configuration count, the GF(2) rank of the weight-<=2 exponent vectors,
and the exact statevector nullity must coincide on every connected graph
with n >= 3. The unique connected 2-vertex graph is the boundary where the
dimension is 3 but the rank is 2, so on any graph, component sums included,
dimension - g2 is the number of single-edge components (``boundary_gap``).
``check_routes`` is the one gate on every rule between the routes' values.
"""

from __future__ import annotations

from collections import namedtuple

from . import oracle
from .configurations import analyze, require_core_input
from .errors import ConsistencyError
from .graphs import Graph, graph6_detail


class EquivalenceReport(namedtuple("EquivalenceReport", "n dimension g2 oracle_nullity holds")):
    """Each route's value on one graph; ``oracle_nullity`` is None unless the oracle ran."""

    __slots__ = ()


def boundary_gap(g: Graph) -> int:
    """Number of components that are one edge: two vertices, each the other's only neighbour."""
    return sum(
        1
        for u, row in enumerate(g.adj)
        if row.bit_count() == 1 and g.adj[row.bit_length() - 1] == 1 << u
    ) // 2


def check_routes(g: Graph, *, dimension=None, g2=None, nullity=None, brute=None, fast=None) -> None:
    """Raise ConsistencyError, a program fault, on the first rule the given values
    break. Each value is one route's result, None if that route did not run; a
    rule runs only when all its values are given. In order: dimension - g2 ==
    ``boundary_gap(g)`` and nullity == dimension, whose messages end with
    ``reproduction``, then brute == fast, the two element lists."""
    if None not in (dimension, g2) and dimension - g2 != (gap := boundary_gap(g)):
        raise ConsistencyError(
            f"dimension {dimension} - g2 {g2} != expected gap {gap} on a graph with n={g.n} "
            f"({reproduction(g, dimension, g2, nullity)})"
        )
    if None not in (dimension, nullity) and nullity != dimension:
        detail = reproduction(g, dimension, g2, nullity)
        raise ConsistencyError(f"oracle nullity {nullity} != dimension {dimension} ({detail})")
    if None not in (brute, fast) and brute != fast:
        detail = f"brute={len(brute)} fast={len(fast)}{graph6_detail(g)}"
        raise ConsistencyError(f"brute and fast enumerations disagree ({detail})")


def check_equivalence(g: Graph, with_oracle: bool = False) -> EquivalenceReport:
    """Dimension, g2 and optionally the oracle nullity of a connected graph with
    n >= 2; ``check_routes`` raises after the oracle on any route disagreement.
    Only the oracle is independent: dimension and g2 come from one detection pass."""
    a = require_core_input(analyze(g))
    nullity = oracle.local_algebra_nullity(g) if with_oracle else None
    check_routes(g, dimension=a.dimension, g2=a.g2, nullity=nullity)
    return EquivalenceReport(g.n, a.dimension, a.g2, nullity, a.dimension == a.g2)


def reproduction(g: Graph, dimension: int | None, g2: int | None, nullity: int | None) -> str:
    """Each route's value, ``not-run`` for None, plus, when it fits, the input as graph6."""
    dimension, g2, nullity = ("not-run" if v is None else v for v in (dimension, g2, nullity))
    return f"dimension={dimension} g2={g2} oracle_nullity={nullity}{graph6_detail(g)}"
