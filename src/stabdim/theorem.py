"""Agreement checks between the three computation routes.

The configuration count, the GF(2) rank of the weight-<=2 exponent vectors,
and the exact statevector nullity must coincide on every connected graph
with n >= 3; the unique connected 2-vertex graph is the documented boundary
where the dimension is 3 but the rank is 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .configurations import (
    Analysis, SlotPair, analyze, detect_configurations, require_core_input, slot_span_rank,
)
from .errors import ConsistencyError, ConstraintError
from .graphs import Graph, bit_indices
from .oracle import DEFAULT_ORACLE_CAP, CoefficientVector
from .pauli import DEFAULT_BRUTE_CAP, g2_rank, low_weight_elements


@dataclass(frozen=True)
class EquivalenceReport:
    n: int
    dimension: int
    g2: int
    oracle_nullity: int | None
    holds: bool
    oracle_agrees: bool | None


def check_equivalence(
    g: Graph,
    with_oracle: bool = False,
    element_mode: str = "fast",
    brute_cap: int = DEFAULT_BRUTE_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    analysis: Analysis | None = None,
) -> EquivalenceReport:
    """Compute dimension and g2 (and optionally the oracle nullity) on one graph.

    A dimension/g2 mismatch on n >= 3 raises ConsistencyError: that would
    falsify the implementation, not the input. The n = 2 mismatch (3 vs 2)
    is expected and only reported.

    In fast mode ``dimension`` and ``g2`` come from one detection pass
    (``analysis``, computed unless given), so that gate is not independent;
    ``element_mode="brute"`` and the oracle are.
    """
    analysis = require_core_input(analyze(g) if analysis is None else analysis)
    g2 = analysis.g2
    if element_mode != "fast":
        g2 = g2_rank(e for e, _ in low_weight_elements(g, mode=element_mode, cap=brute_cap))
    dimension = analysis.dimension
    holds = dimension == g2
    if g.n >= 3 and not holds:
        raise ConsistencyError(
            f"dimension {dimension} != g2 {g2} on a connected graph with n={g.n}"
        )
    nullity = oracle.local_algebra_nullity(g, cap=oracle_cap) if with_oracle else None
    agrees = None if nullity is None else nullity == dimension
    return EquivalenceReport(g.n, dimension, g2, nullity, holds, agrees)


def check_support_pairs(g: Graph, cap: int = DEFAULT_BRUTE_CAP) -> bool:
    """Every brute-enumerated weight-2 support is a detected configuration pair,
    and no weight-1 element exists."""
    pairs = {frozenset((c.a, c.b)) for c in detect_configurations(g)}
    for _, p in low_weight_elements(g, mode="brute", cap=cap):
        support = bit_indices(p.support())
        if len(support) != 2:
            return False
        if frozenset(support) not in pairs:
            return False
    return True


def check_pairwise_overlap(g: Graph, cap: int = DEFAULT_BRUTE_CAP) -> bool:
    """Any two weight-2 elements overlap in at most one vertex, with equal letters there.

    Identical supports never occur on a connected graph with n >= 3; the
    2-vertex graph violates this literally (all three of its weight-2
    elements share the same support), matching the theorem's n >= 3 scope.
    """
    elems = [p for _, p in low_weight_elements(g, mode="brute", cap=cap) if p.weight() == 2]
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            inter = elems[i].support() & elems[j].support()
            count = inter.bit_count()
            if count == 0:
                continue
            if count == 2:
                return False
            v = inter.bit_length() - 1
            if elems[i].letter(v) != elems[j].letter(v):
                return False
    return True


def check_correspondence(g: Graph, cap: int = DEFAULT_BRUTE_CAP) -> bool:
    """The map O(a)O(b) -> O(a)-O(b) preserves the number of independent elements."""
    if g.n < 3:
        raise ConstraintError(f"correspondence check needs n >= 3, got n={g.n}")
    elems = low_weight_elements(g, mode="brute", cap=cap)
    mapped = []
    for _, p in elems:
        a, b = bit_indices(p.support())
        mapped.append(SlotPair((a, p.letter(a)), (b, p.letter(b))))
    return g2_rank(e for e, _ in elems) == slot_span_rank(mapped)


def slot_coefficient_vector(pair: SlotPair, n: int) -> CoefficientVector:
    """Embed O_p - O_q into the (theta, t) coefficient space of the oracle."""
    axis_index = {"X": 0, "Y": 1, "Z": 2}
    t = [[Fraction(0)] * 3 for _ in range(n)]
    (va, axa), (vb, axb) = pair.p, pair.q
    t[va][axis_index[axa]] += 1
    t[vb][axis_index[axb]] -= 1
    return CoefficientVector(Fraction(0), tuple(tuple(row) for row in t))
