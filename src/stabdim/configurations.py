"""Twin / leaf / closed-twin detection and the slot-space dimension count.

Every detected configuration contributes one traceless generator O_p - O_q
acting on two (vertex, axis) slots. Because each generator is exactly a
(+1, -1) difference of two distinct unit slot vectors, the rank of the whole
set over the rationals is (slots touched) - (connected components of the
slot graph), which union-find computes with no arithmetic at all.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import repeat

from .errors import ConstraintError
from .graphs import Graph, is_connected, twin_classes

TWIN = "twin"
LEAF = "leaf"
CLOSED_TWIN = "closed_twin"

# The axes of O_p and O_q in each kind's generator O_p - O_q.
AXES = {TWIN: ("X", "X"), LEAF: ("X", "Z"), CLOSED_TWIN: ("Y", "Y")}


class Configuration(namedtuple("Configuration", "kind a b")):
    """One detected instance; for leaf, ``a`` is the degree-1 vertex."""

    __slots__ = ()


class SlotPair(namedtuple("SlotPair", "p q")):
    """The generator O_p - O_q on two (vertex, axis) slots."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.p[1]}({self.p[0]})-{self.q[1]}({self.q[0]})"


class Analysis(namedtuple("Analysis", "n connected configurations dimension g2")):
    """The fast path's result: one connectivity pass, one twin-class pass.

    ``dimension``, ``g2`` and ``pauli``'s fast element list all come from the
    same twin classes, so their agreement is no independent check (brute
    enumeration and the oracle are).
    A disconnected graph gets component sums, each isolated vertex adding 1;
    only the oracle backs that extension, as the theory covers connected graphs.
    ``configurations`` is a list of ``Configuration``.
    """

    __slots__ = ()


def analyze(g: Graph) -> Analysis:
    """Configurations, dimension and g2 of any graph in O(n + m + output) row
    operations, each O(n/w) words on n-bit rows (see ROADMAP item 9).

    Twin and closed-twin pairs are listed sorted by (a, b). The classes are
    disjoint and ascending, so each vertex heads at most one run of pairs,
    ``a`` with every later member of its class: sorting those <= n heads,
    not the pairs, costs O(n log n + output).
    """
    leaves, open_classes, closed_classes = twin_classes(g)
    leaf_configs = [Configuration(LEAF, a, g.adj[a].bit_length() - 1) for a in leaves]
    pairs = {}
    # A class of k vertices spans the same slots, and the same exponent vectors,
    # as a chain of k - 1 of its pairs, so neither the union-find nor the g2
    # rank needs the Theta(k^2) pair list.
    chains = list(leaf_configs)
    # tuple.__new__ builds each of the Theta(k^2) records in C, where a
    # Configuration(...) call would run the generated Python __new__ per pair.
    make = partial(tuple.__new__, Configuration)
    for kind, classes in ((TWIN, open_classes), (CLOSED_TWIN, closed_classes)):
        heads = sorted((c[i], c[i + 1:]) for c in classes for i in range(len(c) - 1))
        found = pairs[kind] = []
        for a, tail in heads:
            found += map(make, zip(repeat(kind), repeat(a), tail))
        chains += [Configuration(kind, a, b) for c in classes for a, b in zip(c, c[1:])]
    isolated = g.adj.count(0)
    return Analysis(
        n=g.n,
        connected=is_connected(g),
        configurations=pairs[TWIN] + leaf_configs + pairs[CLOSED_TWIN],
        dimension=isolated + slot_span_rank(lie_generator(c) for c in chains),
        g2=isolated + g2_rank(exponent_vector(c) for c in chains),
    )


def require_core_input(a: Analysis) -> Analysis:
    """``a``, if the core theory covers its graph (connected, n >= 2)."""
    if a.n < 2:
        raise ConstraintError(f"need n >= 2, got n={a.n}")
    if not a.connected:
        raise ConstraintError("graph is disconnected; analyze per component instead")
    return a


def detect_configurations(g: Graph) -> list[Configuration]:
    """Every twin pair, degree-1 vertex, and closed-twin pair, in kind order."""
    return require_core_input(analyze(g)).configurations


def lie_generator(c: Configuration) -> SlotPair:
    """The stabilizing algebra generator a configuration contributes."""
    if c.kind not in AXES:
        raise ValueError(f"unknown configuration kind {c.kind!r}")
    p, q = AXES[c.kind]
    return SlotPair((c.a, p), (c.b, q))


def exponent_vector(c: Configuration) -> int:
    """The weight-<=2 stabilizer element a configuration gives, as an exponent
    vector: generator g_a for a leaf a, the product g_a g_b for a twin pair."""
    return 1 << c.a if c.kind == LEAF else 1 << c.a | 1 << c.b


def slot_span_rank(pairs) -> int:
    """Rank over the rationals of a set of O_p - O_q difference generators:
    slots touched minus components of the slot graph, which is the number of
    pairs that join two components."""
    parent: dict = {}

    def find(k):
        while parent.setdefault(k, k) != k:
            parent[k] = k = parent[parent[k]]  # path halving
        return k

    rank = 0
    for pair in pairs:
        root_p, root_q = find(pair.p), find(pair.q)
        if root_p != root_q:
            parent[root_p] = root_q
            rank += 1
    return rank


def g2_rank(rows) -> int:
    """Rank over GF(2) of int bit-vectors: g2 on the weight-<=2 exponent vectors."""
    pivots: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            b = cur.bit_length() - 1
            piv = pivots.get(b)
            if piv is None:
                pivots[b] = cur
                break
            cur ^= piv
    return len(pivots)


def stabilizer_dimension(g: Graph) -> int:
    """Dimension of the local-unitary stabilizer algebra of the graph state."""
    return require_core_input(analyze(g)).dimension


def components_with_configurations(g: Graph) -> tuple[int, list[Configuration]]:
    """Component-sum dimension plus all configurations in global vertex labels."""
    a = analyze(g)
    return a.dimension, a.configurations
