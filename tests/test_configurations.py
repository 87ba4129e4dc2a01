"""Configuration detection and the union-find slot dimension."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    closed_form_dimension,
    coefficient_vector_row,
    connected_graphs_strategy,
    corresponding_stabilizer_element,
    graph_generators,
    is_stabilized,
    local_complement,
    pendant_graphs_strategy,
    rational_rank,
    relabel,
    slot_coefficient_vector,
)
from stabdim import configurations
from stabdim.configurations import (
    CLOSED_TWIN,
    LEAF,
    TWIN,
    Configuration,
    SlotPair,
    analyze,
    components_with_configurations,
    detect_configurations,
    g2_rank,
    iter_configurations,
    lie_generator,
    slot_span_rank,
    stabilizer_dimension,
)
from stabdim.errors import ConstraintError
from stabdim.graphs import Graph, bit_indices, generate, xorshift64star
from stabdim.oracle import build_statevector, local_algebra_nullity
from stabdim.pauli import element
from stabdim.theorem import check_routes
from test_brute import chorded_tree


class TestDetect:
    def test_k2(self):
        got = detect_configurations(generate("complete", 2))
        assert got == [
            Configuration(LEAF, 0, 1),
            Configuration(LEAF, 1, 0),
            Configuration(CLOSED_TWIN, 0, 1),
        ]

    def test_c5_empty(self):
        assert detect_configurations(generate("cycle", 5)) == []

    def test_star4(self):
        got = detect_configurations(generate("star", 4))
        assert got == [
            Configuration(TWIN, 1, 2),
            Configuration(TWIN, 1, 3),
            Configuration(TWIN, 2, 3),
            Configuration(LEAF, 1, 0),
            Configuration(LEAF, 2, 0),
            Configuration(LEAF, 3, 0),
        ]

    def test_path4_leaves_are_directed(self):
        got = detect_configurations(generate("path", 4))
        assert got == [Configuration(LEAF, 0, 1), Configuration(LEAF, 3, 2)]

    def test_rejects_bad_input(self):
        with pytest.raises(ConstraintError):
            detect_configurations(Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(ConstraintError):
            detect_configurations(Graph.from_edges(1, []))


class TestLieGenerator:
    def test_mapping(self):
        assert lie_generator(Configuration(TWIN, 1, 2)) == SlotPair((1, "X"), (2, "X"))
        assert lie_generator(Configuration(LEAF, 0, 1)) == SlotPair((0, "X"), (1, "Z"))
        assert lie_generator(Configuration(CLOSED_TWIN, 0, 1)) == SlotPair((0, "Y"), (1, "Y"))

    def test_rendering(self):
        assert str(SlotPair((1, "X"), (2, "X"))) == "X(1)-X(2)"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unknown configuration kind 'bogus'$"):
            lie_generator(Configuration("bogus", 0, 1))


class TestDimension:
    def test_k2_is_3(self):
        assert stabilizer_dimension(generate("complete", 2)) == 3

    @pytest.mark.parametrize("n", range(3, 11))
    def test_star_n_minus_1(self, n):
        assert stabilizer_dimension(generate("star", n)) == n - 1

    def test_c4_twins(self):
        assert stabilizer_dimension(generate("cycle", 4)) == 2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_n_minus_1(self, n):
        assert stabilizer_dimension(generate("complete", n)) == n - 1

    @pytest.mark.parametrize("n", range(4, 13))
    def test_paths_are_2(self, n):
        assert stabilizer_dimension(generate("path", n)) == 2

    @given(connected_graphs_strategy(min_n=2, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, g):
        assert stabilizer_dimension(g) == local_algebra_nullity(g)

    @given(connected_graphs_strategy(min_n=2, max_n=8), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_relabel_invariant(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert stabilizer_dimension(relabel(g, perm)) == stabilizer_dimension(g)

    @given(connected_graphs_strategy(min_n=2, max_n=8))
    def test_rank_bound(self, g):
        configs = detect_configurations(g)
        assert stabilizer_dimension(g) <= min(3 * g.n, len(configs))

    @given(connected_graphs_strategy(min_n=2, max_n=7))
    @settings(max_examples=40)
    def test_union_find_rank_equals_rational_rank(self, g):
        pairs = [lie_generator(c) for c in detect_configurations(g)]
        rows = [coefficient_vector_row(slot_coefficient_vector(p, g.n)) for p in pairs]
        assert slot_span_rank(pairs) == rational_rank(rows)

    def test_local_complementation_walks_keep_dimension_and_g2(self):
        # Local complementation is a local Clifford map, so the dimension is the
        # same all along a walk, at sizes no oracle reaches. A vertex of degree
        # above 40 is skipped, so the graph stays sparse.
        starts = [
            generate("tree", 500, seed=21),
            generate("tree", 1000, seed=22),
            generate("tree", 2000, seed=23),
            chorded_tree(1000, 30, seed=24),
            chorded_tree(2000, 60, seed=25),
            twin_rich_tree(500, seed=26),
            twin_rich_tree(1000, seed=27),
            twin_rich_tree(2000, seed=28),
        ]
        for seed, g in enumerate(starts):
            a = analyze(g)
            rng = xorshift64star(seed)
            for _ in range(25):
                v = next(rng) % g.n
                if g.adj[v].bit_count() > 40:
                    continue
                g = local_complement(g, v)
                h = analyze(g)
                check_routes(g, dimension=h.dimension, g2=h.g2)
                assert (h.dimension, h.g2) == (a.dimension, a.g2), (seed, v)


def twin_rich_tree(n, seed):
    """A random tree on n // 2 vertices plus n - n // 2 copies of its vertices,
    each an open or a closed twin of the vertex it copies when it is made."""
    rng = xorshift64star(seed)
    rows = list(generate("tree", n // 2, seed=seed).adj)
    for new in range(n // 2, n):
        src = next(rng) % (n // 2)
        row = rows[src] | (next(rng) & 1) << src
        for v in bit_indices(row):
            rows[v] |= 1 << new
        rows.append(row)
    return Graph(n, tuple(rows))


class TestCorrespondingElement:
    def test_k2_closed_twin(self):
        got = corresponding_stabilizer_element(Configuration(CLOSED_TWIN, 0, 1), 2)
        assert str(got) == "+YY"
        assert got == element(generate("complete", 2), 0b11)

    def test_star_leaf_is_generator(self):
        star = generate("star", 4)
        got = corresponding_stabilizer_element(Configuration(LEAF, 1, 0), 4)
        assert str(got) == "+ZXII"
        assert got == graph_generators(star)[1]

    def test_star_twin_product(self):
        star = generate("star", 4)
        got = corresponding_stabilizer_element(Configuration(TWIN, 1, 2), 4)
        assert str(got) == "+IXXI"
        assert got == element(star, 0b0110)

    @given(connected_graphs_strategy(min_n=2, max_n=7))
    @settings(max_examples=40)
    def test_equals_element_and_stabilizes(self, g):
        v = build_statevector(g)
        for c in detect_configurations(g):
            p = corresponding_stabilizer_element(c, g.n)
            if c.kind == LEAF:
                e = 1 << c.a
            else:
                e = (1 << c.a) | (1 << c.b)
            assert p == element(g, e)
            assert str(p).startswith("+")
            assert is_stabilized(p, v)


class TestComponents:
    def test_isolated_vertices(self):
        assert analyze(Graph.from_edges(5, [])).dimension == 5
        assert analyze(Graph.from_edges(1, [])).dimension == 1

    def test_mixed(self):
        two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert analyze(two_k2).dimension == 6
        k2_plus_isolated = Graph.from_edges(3, [(0, 1)])
        assert analyze(k2_plus_isolated).dimension == 4

    def test_matches_oracle_on_disconnected_samples(self):
        samples = [
            Graph.from_edges(4, [(0, 1), (2, 3)]),
            Graph.from_edges(3, [(0, 1)]),
            Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]),
            Graph.from_edges(5, []),
            Graph.from_edges(7, [(0, 1), (0, 2), (4, 5), (5, 6), (4, 6)]),
        ]
        for g in samples:
            assert analyze(g).dimension == local_algebra_nullity(g)

    def test_global_labels(self):
        g = Graph.from_edges(6, [(1, 4), (2, 3), (2, 5), (3, 5)])
        dim, configs = components_with_configurations(g)
        assert dim == analyze(g).dimension
        for c in configs:
            assert {c.a, c.b} <= {1, 2, 3, 4, 5}
        assert Configuration(LEAF, 1, 4) in configs
        assert Configuration(LEAF, 4, 1) in configs


class TestHeldClasses:
    @given(pendant_graphs_strategy())
    @settings(max_examples=300)
    def test_dimension_in_closed_form(self, g):
        # The union-find stays the route; the closed form checks the held classes.
        a = analyze(g)
        assert a.dimension == closed_form_dimension(g, a)

    @given(pendant_graphs_strategy())
    @settings(max_examples=100)
    def test_configurations_count_from_the_classes(self, g):
        a = analyze(g)
        pairs = sum(len(c) * (len(c) - 1) // 2 for c in a.open_classes + a.closed_classes)
        assert len(list(iter_configurations(a))) == len(a.leaves) + pairs

    def test_star_holds_one_class(self):
        a = analyze(generate("star", 300))
        assert (len(a.leaves), a.open_classes, a.closed_classes) == (299, [list(range(1, 300))], [])
        assert a.dimension == 299


@st.composite
def weight_two_supports(draw):
    """A shuffled multiset of supports (lo, hi) of vectors of one bit (lo = -1)
    or two bits on n <= 40 indices, with repeats and with a closed cycle."""
    n = draw(st.integers(1, 40))
    index = st.integers(0, n - 1)
    pair = st.tuples(index, index).filter(lambda t: t[0] != t[1]).map(lambda t: tuple(sorted(t)))
    single = index.map(lambda x: (-1, x))
    supports = draw(st.lists(single | pair if n > 1 else single, max_size=2 * n))
    cycle = draw(st.lists(index, unique=True, max_size=n))
    if len(cycle) >= 3:
        supports += [tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])]
    if supports:
        supports += draw(st.lists(st.sampled_from(supports), max_size=n))
    return draw(st.permutations(supports))


class TestSupportRank:
    @given(weight_two_supports())
    @settings(max_examples=300)
    def test_equals_g2_rank_of_the_int_vectors(self, supports):
        vectors = [sum(1 << i for i in support if i >= 0) for support in supports]
        assert configurations._support_rank(iter(supports)) == g2_rank(vectors)

    @pytest.mark.parametrize("family", ["tree", "star"])
    def test_traced_peak_is_a_few_hundred_bytes_per_vertex(self, family):
        # The weight-<=2 vectors as n-bit ints held by g2_rank's pivots took
        # about 440 bytes a vertex on this tree (a 565-byte peak) and 1590 on
        # the star; eliminated over supports, analyze peaks at 180-190.
        n = 16384
        g = generate(family, n, seed=1)
        tracemalloc.start()
        try:
            analyze(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 320 * n
