"""Twin / leaf / closed-twin detection and the slot-space dimension count.

Every detected configuration contributes one traceless generator O_p - O_q
acting on two (vertex, axis) slots. Because each generator is exactly a
(+1, -1) difference of two distinct unit slot vectors, the rank of the whole
set over the rationals is (slots touched) - (connected components of the
slot graph), which union-find computes with no arithmetic at all.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from itertools import chain, repeat

from .errors import ConstraintError
from .graphs import Graph, is_connected, twin_classes

TWIN = "twin"
LEAF = "leaf"
CLOSED_TWIN = "closed_twin"

# The axes of O_p and O_q in each kind's generator O_p - O_q.
AXES = {TWIN: ("X", "X"), LEAF: ("X", "Z"), CLOSED_TWIN: ("Y", "Y")}
# The same axes as offsets of int slots 3v + axis: X 0, Y 1, Z 2.
_AXIS_SLOTS = {kind: tuple("XYZ".index(axis) for axis in axes) for kind, axes in AXES.items()}


class Configuration(namedtuple("Configuration", "kind a b")):
    """One detected instance; for leaf, ``a`` is the degree-1 vertex."""

    __slots__ = ()


class SlotPair(namedtuple("SlotPair", "p q")):
    """The generator O_p - O_q on two (vertex, axis) slots."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.p[1]}({self.p[0]})-{self.q[1]}({self.q[0]})"


class Analysis(
    namedtuple("Analysis", "n connected leaves open_classes closed_classes dimension g2")
):
    """The fast path's result, O(n) in size: one connectivity pass, one twin-class pass.

    ``leaves`` holds one (leaf, neighbour) pair per degree-1 vertex, ascending;
    ``open_classes`` and ``closed_classes`` are ``twin_classes``' ascending
    lists of >= 2 open and closed twins. A class of k vertices stands for its
    C(k, 2) twin pairs, which ``pair_runs`` and ``iter_configurations`` write
    out on demand: no pair is held.
    ``dimension`` is the union-find rank of the classes' chains and the leaves,
    and ``g2`` their GF(2) rank, eliminated over each weight-<=2 vector's
    support, so neither holds more than a small int or two per vertex.
    ``dimension``, ``g2`` and ``pauli``'s fast element list all come from the
    same twin classes, so their agreement is no independent check (brute
    enumeration and the oracle are).
    A disconnected graph gets component sums, each isolated vertex adding 1;
    only the oracle backs that extension, as the theory covers connected graphs.
    """

    __slots__ = ()


def analyze(g: Graph) -> Analysis:
    """Leaves, twin classes, dimension and g2 of any graph in O(n + m) row
    operations, each O(n/w) words on n-bit rows (see ROADMAP item 9).

    A class of k vertices spans the same slots, and the same exponent vectors,
    as a chain of k - 1 of its pairs, so neither the union-find nor the g2 rank
    reads more than n - 1 configurations, and the Theta(k^2) pairs are never built.
    The chains go to them straight from the classes, one pair at a time, as int
    slot pairs and as supports, with no ``Configuration`` or ``SlotPair`` record
    and no exponent vector made.
    """
    leaf_vertices, open_classes, closed_classes = twin_classes(g)
    leaves = [(x, g.adj[x].bit_length() - 1) for x in leaf_vertices]
    isolated = g.adj.count(0)
    slots = chain(
        _slot_pairs(LEAF, leaves),
        _slot_pairs(TWIN, _chains(open_classes)),
        _slot_pairs(CLOSED_TWIN, _chains(closed_classes)),
    )
    # A leaf x gives the vector of one bit, a chain pair (x, b) of two: as
    # supports (-1, x) and (x, b), never as ints of up to n bits.
    supports = chain(((-1, x) for x, _ in leaves), _chains(open_classes), _chains(closed_classes))
    return Analysis(
        n=g.n,
        connected=is_connected(g),
        leaves=leaves,
        open_classes=open_classes,
        closed_classes=closed_classes,
        dimension=isolated + slot_span_rank(slots),
        g2=isolated + _support_rank(supports),
    )


def _chains(classes: list[list[int]]) -> Iterator[tuple[int, int]]:
    """The pairs (x, b) of each class's chain: its members side by side, x < b."""
    return (pair for c in classes for pair in zip(c, c[1:]))


def _slot_pairs(kind: str, pairs) -> Iterator[tuple[int, int]]:
    """The int slot pairs (3x + axis, 3b + axis) of ``kind``'s generators on ``pairs``."""
    p, q = _AXIS_SLOTS[kind]
    return ((3 * x + p, 3 * b + q) for x, b in pairs)


def _support_rank(supports) -> int:
    """``g2_rank`` of the vectors of at most two bits given as supports (lo, hi),
    lo < hi, with lo = -1 for the one-bit vector of hi.

    The same elimination, one pivot per top bit, on supports: XOR with the
    pivot (p, hi) of the same top bit hi leaves the two low indices {lo, p},
    zero if they are equal, so no index beyond a vertex's is ever made.
    """
    pivots: dict[int, int] = {}  # top bit -> the pivot's low index
    for lo, hi in supports:
        # A new top bit takes (lo, hi) as its pivot; an equal low index cancels.
        while (p := pivots.setdefault(hi, lo)) != lo:
            lo, hi = (lo, p) if lo < p else (p, lo)
    return len(pivots)


def pair_runs(classes: list[list[int]]) -> Iterator[tuple[int, list[int]]]:
    """The pairs of ``classes`` as runs (x, bs), one per class head x with the
    later members bs of its class: the pairs (x, b) for b in bs, sorted by (x, b).

    The classes are disjoint and ascending, so each vertex heads at most one
    run: sorting those <= n heads, not the pairs, costs O(n log n), and each
    run's tail is sliced only when it is reached.
    """
    for x, c, i in sorted((c[i], c, i) for c in classes for i in range(len(c) - 1)):
        yield x, c[i + 1:]


def iter_configurations(a: Analysis) -> Iterator[Configuration]:
    """Every configuration of ``a`` in report order: twin pairs sorted by
    (a, b), then the leaves, then closed-twin pairs sorted by (a, b)."""
    # tuple.__new__ builds each record in C, where a Configuration(...) call
    # would run the generated Python __new__ per pair.
    make = partial(tuple.__new__, Configuration)
    for x, bs in pair_runs(a.open_classes):
        yield from map(make, zip(repeat(TWIN), repeat(x), bs))
    yield from (make((LEAF, x, b)) for x, b in a.leaves)
    for x, bs in pair_runs(a.closed_classes):
        yield from map(make, zip(repeat(CLOSED_TWIN), repeat(x), bs))


def require_core_input(a: Analysis) -> Analysis:
    """``a``, if the core theory covers its graph (connected, n >= 2)."""
    if a.n < 2:
        raise ConstraintError(f"need n >= 2, got n={a.n}")
    if not a.connected:
        raise ConstraintError("graph is disconnected; analyze per component instead")
    return a


def detect_configurations(g: Graph) -> list[Configuration]:
    """Every twin pair, degree-1 vertex, and closed-twin pair, in kind order."""
    return list(iter_configurations(require_core_input(analyze(g))))


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
    """Rank over the rationals of a set of O_p - O_q difference generators,
    given as pairs (p, q) of slots (``SlotPair``s, or any two hashable keys):
    slots touched minus components of the slot graph, which is the number of
    pairs that join two components."""
    parent: dict = {}

    def find(k):
        while parent.setdefault(k, k) != k:
            parent[k] = k = parent[parent[k]]  # path halving
        return k

    rank = 0
    for p, q in pairs:
        root_p, root_q = find(p), find(q)
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
    return a.dimension, list(iter_configurations(a))
