"""Shared corpus builders, strategies and reference implementations for the test suite."""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from hypothesis import strategies as st

from stabdim.configurations import (
    CLOSED_TWIN,
    LEAF,
    TWIN,
    Configuration,
    SlotPair,
    detect_configurations,
    lie_generator,
    slot_span_rank,
)
from stabdim.errors import ConstraintError
from stabdim.graphs import Graph, bit_indices, connected_components, generate, is_connected
from stabdim.oracle import (
    _bit_pattern,
    _gram_blocks,
    apply_pauli,
    build_statevector,
    matrix_rank,
)
from stabdim.pauli import PauliString, g2_rank, low_weight_elements

# One element theta + sum_a (t_ax X_a + t_ay Y_a + t_az Z_a) of the local
# algebra: theta a number, t one (t_x, t_y, t_z) triple per vertex.
Coefficients = namedtuple("Coefficients", "theta t")

_PAIR_CACHE: dict[int, list[tuple[int, int]]] = {}


def _pairs(n: int) -> list[tuple[int, int]]:
    if n not in _PAIR_CACHE:
        _PAIR_CACHE[n] = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _PAIR_CACHE[n]


def graph_from_bits(n: int, bits: int) -> Graph:
    pairs = _pairs(n)
    return Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1])


@st.composite
def graphs_strategy(draw, min_n: int = 1, max_n: int = 10):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


@st.composite
def connected_graphs_strategy(draw, min_n: int = 2, max_n: int = 8):
    g = draw(
        graphs_strategy(min_n, max_n).filter(lambda g: g.n >= min_n and is_connected(g))
    )
    return g


def all_labeled_graphs(n: int):
    for bits in range(1 << (n * (n - 1) // 2)):
        yield graph_from_bits(n, bits)


def random_connected_corpus(count: int = 200, n_range=(3, 12), seed_base: int = 20_000):
    """Deterministic list of connected G(n, p) draws cycling n and p."""
    ps = (0.2, 0.5, 0.8)
    lo, hi = n_range
    graphs = []
    attempt = 0
    while len(graphs) < count:
        n = lo + len(graphs) % (hi - lo + 1)
        p = ps[len(graphs) % 3]
        g = generate("gnp", n, p=p, seed=seed_base + attempt)
        attempt += 1
        if is_connected(g):
            graphs.append(g)
    return graphs


def named_family_corpus(max_n: int = 12):
    """All named families (path, cycle, star, complete, seeded random tree), n <= max_n."""
    out = []
    for n in range(2, max_n + 1):
        out.append((f"path_{n}", generate("path", n)))
        out.append((f"star_{n}", generate("star", n)))
        out.append((f"complete_{n}", generate("complete", n)))
        out.append((f"tree_{n}", generate("tree", n, seed=1000 + n)))
        if n >= 3:
            out.append((f"cycle_{n}", generate("cycle", n)))
    return out


def rational_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction; reference for rank checks."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def coefficient_vector_row(cv) -> list[Fraction]:
    """Flatten a ``Coefficients`` record to [theta, t_0x, t_0y, t_0z, t_1x, ...]."""
    row = [cv.theta]
    for triple in cv.t:
        row.extend(triple)
    return row


def reference_configurations(g: Graph) -> list[Configuration]:
    """O(n^2) pair-scan detector: every twin pair, leaf and closed-twin pair, in kind order."""
    twins, leaves, closed = [], [], []
    for a in range(g.n):
        if g.adj[a].bit_count() == 1:
            leaves.append(Configuration(LEAF, a, g.adj[a].bit_length() - 1))
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if g.has_edge(a, b):
                if (g.adj[a] | 1 << a) == (g.adj[b] | 1 << b):
                    closed.append(Configuration(CLOSED_TWIN, a, b))
            elif g.adj[a] == g.adj[b]:
                twins.append(Configuration(TWIN, a, b))
    return twins + leaves + closed


def reference_fast_elements(g: Graph) -> list[tuple[int, PauliString]]:
    """O(n^2) pair scan for the weight-<=2 elements: leaves and twin products."""
    gens = graph_generators(g)
    out = [(1 << a, gens[a]) for a in range(g.n) if g.adj[a].bit_count() == 1]
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if g.has_edge(a, b):
                same = (g.adj[a] | 1 << a) == (g.adj[b] | 1 << b)
            else:
                same = g.adj[a] == g.adj[b]
            if same:
                out.append(((1 << a) | (1 << b), multiply(gens[a], gens[b])))
    out.sort(key=lambda pair: pair[0])
    return out


def reference_analysis(g: Graph) -> tuple[list[Configuration], int, int]:
    """(configurations, dimension, g2) of any graph, component by component.

    Each component of >= 2 vertices is cut out with ``induced_subgraph`` and
    scanned pair by pair; each isolated vertex counts 1 towards dimension and
    g2. Configurations come back in global labels, sorted by kind then (a, b).
    """
    kind_order = {TWIN: 0, LEAF: 1, CLOSED_TWIN: 2}
    configs, dimension, g2 = [], 0, 0
    for comp in connected_components(g):
        if len(comp) == 1:
            dimension += 1
            g2 += 1
            continue
        sub = g.induced_subgraph(comp)
        found = reference_configurations(sub)
        dimension += slot_span_rank(lie_generator(c) for c in found)
        g2 += g2_rank(e for e, _ in reference_fast_elements(sub))
        configs += [Configuration(c.kind, comp[c.a], comp[c.b]) for c in found]
    configs.sort(key=lambda c: (kind_order[c.kind], c.a, c.b))
    return configs, dimension, g2


def closed_form_dimension(g: Graph, a) -> int:
    """The paper's first claim in numbers, read off ``analyze(g)``'s held classes:
    isolated vertices + leaves + sum (|C| - 1) over the open classes whose
    members are not leaves + sum (|C| - 1) over the closed classes.

    All leaves at one neighbour form one open class; its chain plus one leaf
    edge spans its k slots, which the leaf count already holds. Closed classes
    touch only Y slots, and no vertex is in both an open and a closed class.
    """
    leaves = {x for x, _ in a.leaves}
    return (
        g.adj.count(0)
        + len(a.leaves)
        + sum(len(c) - 1 for c in a.open_classes if c[0] not in leaves)
        + sum(len(c) - 1 for c in a.closed_classes)
    )


@st.composite
def pendant_graphs_strategy(draw, max_n: int = 8, max_added: int = 8):
    """A random graph plus up to ``max_added`` new vertices, each a pendant leaf
    of, an open twin of, or a closed twin of a vertex drawn so far."""
    g = draw(graphs_strategy(1, max_n))
    rows = list(g.adj)
    for _ in range(draw(st.integers(0, max_added))):
        host = draw(st.integers(0, len(rows) - 1))
        new = len(rows)
        kind = draw(st.sampled_from(["leaf", "open", "closed"]))
        row = {"leaf": 1 << host, "open": rows[host], "closed": rows[host] | 1 << host}[kind]
        for v in bit_indices(row):
            rows[v] |= 1 << new
        rows.append(row)
    return Graph(len(rows), rows)


def reference_twin_classes(g: Graph) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """``graphs.twin_classes`` as it was written with one int-keyed dict per twin
    kind: leaves, open classes, closed classes, in the same order."""
    leaves = []
    by_open: dict[int, list[int]] = {}
    by_closed: dict[int, list[int]] = {}
    for a, row in enumerate(g.adj):
        if not row:
            continue
        if row.bit_count() == 1:
            leaves.append(a)
        by_open.setdefault(row, []).append(a)
        by_closed.setdefault(row | 1 << a, []).append(a)
    open_classes = [c for c in by_open.values() if len(c) > 1]
    closed_classes = [c for c in by_closed.values() if len(c) > 1]
    return leaves, open_classes, closed_classes


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def local_complement(g: Graph, v: int) -> Graph:
    """Graph with the edges among the neighbours of v toggled (local complementation at v)."""
    nbrs = g.adj[v]
    rows = [row ^ (nbrs & ~(1 << u)) if (nbrs >> u) & 1 else row for u, row in enumerate(g.adj)]
    return Graph(g.n, tuple(rows))


def algebra_action(cv, v):
    """Apply theta + sum_a (t . sigma_a) to v; returns exact (re, im) Fraction lists."""
    size = 1 << v.n
    acc_re = [cv.theta * a for a in v.re]
    acc_im = [cv.theta * b for b in v.im]
    for a, (tx, ty, tz) in enumerate(cv.t):
        for coeff, axis in ((tx, "X"), (ty, "Y"), (tz, "Z")):
            if coeff == 0:
                continue
            w = apply_pauli(single(v.n, a, axis), v)
            for y in range(size):
                acc_re[y] += coeff * w.re[y]
                acc_im[y] += coeff * w.im[y]
    return acc_re, acc_im


def annihilates(cv, v) -> bool:
    """True iff the algebra element maps v to the exact zero vector."""
    acc_re, acc_im = algebra_action(cv, v)
    return not any(acc_re) and not any(acc_im)


def _sign_mask(values) -> int:
    # Pack a +-1 vector into an int with bit y set iff entry y is negative.
    mask = 0
    for y, a in enumerate(values):
        if a < 0:
            mask |= 1 << y
    return mask


def theta_is_zero(g: Graph) -> bool:
    """True iff theta = 0 in every solution of the stabilization system: the
    theta column v0 lies outside the span of the X_a and Z_a columns, so
    dropping it from the oracle's real Gram block lowers the rank by one."""
    real, _ = _gram_blocks(g)
    return matrix_rank(real) == matrix_rank([r[1:] for r in real[1:]]) + 1


def reference_gram_blocks(g: Graph):
    """Per-amplitude Gram blocks: apply_pauli on the statevector, then pack each column."""
    v0 = build_statevector(g)
    size = 1 << g.n
    real_masks = [_sign_mask(v0.re)]
    imag_masks = []
    for axis in ("X", "Z"):
        for a in range(g.n):
            col = apply_pauli(single(g.n, a, axis), v0)
            real_masks.append(_sign_mask(col.re))
    for a in range(g.n):
        col = apply_pauli(single(g.n, a, "Y"), v0)
        imag_masks.append(_sign_mask(col.im))

    def gram(masks):
        k = len(masks)
        out = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                dot = size - 2 * (masks[i] ^ masks[j]).bit_count()
                out[i][j] = out[j][i] = dot
        return out

    return gram(real_masks), gram(imag_masks)


def is_stabilized(p: PauliString, v) -> bool:
    """True iff p fixes the ExactStateVector v exactly, sign included."""
    return apply_pauli(p, v) == v


def sign_mask_state(g: Graph) -> tuple[int, list[int]]:
    """The graph state as 2**n-bit sign masks: (v0, bits).

    Bit y of v0 is set iff amplitude y is -1, i.e. y holds both ends of an
    odd number of edges; ``bits[a]`` has bit y set iff bit a of y is set.
    """
    bits = [_bit_pattern(g.n, a) for a in range(g.n)]
    v0 = 0
    for u, v in g.edges():
        v0 ^= bits[u] & bits[v]
    return v0, bits


def is_stabilized_by_masks(p: PauliString, state) -> bool:
    """``is_stabilized`` on the sign masks of ``sign_mask_state``: True iff p
    fixes the graph state exactly, sign included.

    p = i**k X^x Z^z sends amplitude y ^ x, times (-1)**|(y ^ x) & z|, to
    amplitude y. An odd k makes the real state imaginary, Z^z flips the signs
    where an odd number of z's bits is set, X^x swaps the blocks of 2**a
    amplitudes for each bit a of x, and k = 2 flips every sign.
    """
    v0, bits = state
    if p.n != len(bits):
        raise ValueError(f"size mismatch: operator on {p.n} qubits, state on {len(bits)}")
    if p.phase_exp & 1:
        return False
    w = v0
    for a in bit_indices(p.z):
        w ^= bits[a]
    for a in bit_indices(p.x):
        shift = 1 << a
        w = (w & bits[a]) >> shift | (w & ~bits[a]) << shift
    if p.phase_exp == 2:
        w ^= (1 << (1 << p.n)) - 1
    return w == v0


def brute_g2(g: Graph) -> int:
    """g2 by the brute route alone: the rank of its weight-<=2 exponent vectors, so
    it stays independent of the configuration detector that gives the fast g2."""
    return g2_rank(e for e, _ in low_weight_elements(g, "brute"))


def reference_brute_exponents(g: Graph) -> list[int]:
    """Sorted exponent vectors of the weight-<=2 elements by a walk over all
    2**n - 1 non-zero ones: a Gray code toggles one generator per step, which
    keeps the z mask of the product current."""
    hits = []
    e = zmask = 0
    for k in range(1, 1 << g.n):
        i = (k & -k).bit_length() - 1
        e ^= 1 << i
        zmask ^= g.adj[i]
        if (e | zmask).bit_count() <= 2:
            hits.append(e)
    hits.sort()
    return hits


_AXIS_BITS = {"X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def single(n: int, qubit: int, axis: str) -> PauliString:
    """The one-qubit operator ``axis`` in {X, Y, Z} acting on ``qubit``."""
    xb, zb, phase = _AXIS_BITS[axis]
    return PauliString(n, xb << qubit, zb << qubit, phase)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product p*q.

    x and z add mod 2; the phase picks up (-1) for every qubit where a Z of
    ``p`` is reordered past an X of ``q``.
    """
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    phase = (p.phase_exp + q.phase_exp + 2 * (p.z & q.x).bit_count()) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def graph_generators(g: Graph) -> list[PauliString]:
    """Stabilizer generators of the graph state: X on i, Z on every neighbor."""
    return [PauliString(g.n, 1 << i, g.adj[i], 0) for i in range(g.n)]


def reference_letters(p: PauliString) -> str:
    """One letter per qubit, qubit 0 leftmost, looked up one qubit at a time."""
    return "".join(p.letter(a) for a in range(p.n))


def reference_element(gens: list[PauliString], exponents: int) -> PauliString:
    """Product of ``gens[i]`` over the set bits of ``exponents`` as a chain of
    ``multiply`` calls from the identity, one PauliString per factor."""
    out = identity(gens[0].n if gens else 0)
    for i in bit_indices(exponents):
        out = multiply(out, gens[i])
    return out


def reference_brute_elements(g: Graph) -> list[tuple[int, PauliString]]:
    """(exponent vector, element) pairs of ``reference_brute_exponents``."""
    gens = graph_generators(g)
    return [(e, reference_element(gens, e)) for e in reference_brute_exponents(g)]


def corresponding_stabilizer_element(c: Configuration, n: int) -> PauliString:
    """The weight-2 stabilizer element matching a configuration (always sign +1)."""
    a, b = 1 << c.a, 1 << c.b
    if c.kind == TWIN:
        return PauliString(n, a | b, 0, 0)
    if c.kind == LEAF:
        return PauliString(n, a, b, 0)
    if c.kind == CLOSED_TWIN:
        return PauliString(n, a | b, a | b, 2)
    raise ValueError(f"unknown configuration kind {c.kind!r}")


def slot_coefficient_vector(pair: SlotPair, n: int) -> Coefficients:
    """Embed O_p - O_q into the (theta, t) coefficient space of the oracle."""
    axis_index = {"X": 0, "Y": 1, "Z": 2}
    t = [[Fraction(0)] * 3 for _ in range(n)]
    (va, axa), (vb, axb) = pair.p, pair.q
    t[va][axis_index[axa]] += 1
    t[vb][axis_index[axb]] -= 1
    return Coefficients(Fraction(0), tuple(tuple(row) for row in t))


def check_support_pairs(g: Graph) -> bool:
    """Every brute-enumerated weight-2 support is a detected configuration pair,
    and no weight-1 element exists."""
    pairs = {frozenset((c.a, c.b)) for c in detect_configurations(g)}
    for _, p in low_weight_elements(g, mode="brute"):
        support = bit_indices(p.support())
        if len(support) != 2:
            return False
        if frozenset(support) not in pairs:
            return False
    return True


def check_pairwise_overlap(g: Graph) -> bool:
    """Any two weight-2 elements overlap in at most one vertex, with equal letters there.

    Identical supports never occur on a connected graph with n >= 3; the
    2-vertex graph violates this literally (all three of its weight-2
    elements share the same support), matching the theorem's n >= 3 scope.
    """
    elems = [p for _, p in low_weight_elements(g, mode="brute") if p.weight() == 2]
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


def check_correspondence(g: Graph) -> bool:
    """The map O(a)O(b) -> O(a)-O(b) preserves the number of independent elements."""
    if g.n < 3:
        raise ConstraintError(f"correspondence check needs n >= 3, got n={g.n}")
    elems = low_weight_elements(g, mode="brute")
    mapped = []
    for _, p in elems:
        a, b = bit_indices(p.support())
        mapped.append(SlotPair((a, p.letter(a)), (b, p.letter(b))))
    return g2_rank(e for e, _ in elems) == slot_span_rank(mapped)


def reference_report(g: Graph, a, nullity, source: str, components: bool, mode: str) -> str:
    """``cli.format_report``'s text joined, one configuration at a time: the
    configurations of ``reference_analysis``, ``lie_generator`` per text line,
    and ``json.dumps`` of a record with one dict per configuration."""
    configurations = reference_analysis(g)[0]
    holds = a.dimension == a.g2
    agrees = None if nullity is None else nullity == a.dimension
    if mode == "machine":
        record = {
            "n": g.n,
            "m": g.m,
            "connected": a.connected,
            "dimension": a.dimension,
            "g2": a.g2,
            "theorem_holds": holds,
            "configurations": [{"kind": c.kind, "a": c.a, "b": c.b} for c in configurations],
        }
        if nullity is not None:
            record["oracle_nullity"] = nullity
            record["oracle_agrees"] = agrees
        return json.dumps(record, separators=(",", ":")) + "\n"
    yes_no = {True: "yes", False: "no"}
    lines = [f"source: {source}", f"n: {g.n}", f"m: {g.m}", f"connected: {yes_no[a.connected]}"]
    if components:
        lines.append("mode: component-sum extension")
    if configurations:
        lines.append("configurations:")
        lines += [
            f"  {c.kind} a={c.a} b={c.b} generator {lie_generator(c)}" for c in configurations
        ]
    else:
        lines.append("configurations: none")
    lines.append(f"dimension: {a.dimension}")
    lines.append(f"orbit_dimension: {3 * g.n + 1 - a.dimension} (derived)")
    lines.append(f"g2: {a.g2}")
    gap = a.dimension - a.g2
    note = ""
    if gap and gap == sum(len(c) == 2 for c in connected_components(g)):
        plural = "s" if gap > 1 else ""
        note = (
            " (expected boundary for n = 2)"
            if g.n == 2
            else f" (expected boundary: {gap} component{plural} with n = 2)"
        )
    lines.append(f"theorem_holds: {yes_no[holds]}{note}")
    if nullity is not None:
        lines.append(f"oracle_nullity: {nullity}")
        lines.append(f"oracle_agrees: {yes_no[agrees]}")
    return "\n".join(lines) + "\n"
