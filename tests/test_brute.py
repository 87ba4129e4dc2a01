"""The polynomial brute route against the 2**n Gray-code walk in helpers.

``low_weight_elements(g, "brute")`` tests only the n singles and n(n-1)/2
pairs of generators; ``helpers.reference_brute_exponents`` walks all 2**n - 1
non-zero exponent vectors. They must return the same (exponent, element)
list on every graph, connected or not, isolated vertices included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_labeled_graphs,
    graphs_strategy,
    local_complement,
    reference_brute_elements,
    relabel,
)
from stabdim.configurations import analyze
from stabdim.graphs import Graph, bit_indices, generate, is_connected, xorshift64star
from stabdim.pauli import g2_rank, low_weight_elements
from stabdim.theorem import check_equivalence, check_routes

MAX_N = 16


def assert_matches_reference(g):
    assert low_weight_elements(g, "brute") == reference_brute_elements(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_labeled_graph(n):
    for g in all_labeled_graphs(n):
        assert_matches_reference(g)


@st.composite
def gnp_graphs(draw, max_n=MAX_N):
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from((0.05, 0.1, 0.2, 0.5, 0.8, 0.95)))
    return generate("gnp", n, p=p, seed=draw(st.integers(0, 2**32)))


@st.composite
def trees(draw, max_n=MAX_N):
    return generate("tree", draw(st.integers(1, max_n)), seed=draw(st.integers(0, 2**32)))


@st.composite
def twin_rich_graphs(draw, max_n=MAX_N):
    """A small graph grown by copying vertices as open or closed twins."""
    base = draw(graphs_strategy(min_n=1, max_n=6))
    rows = list(base.adj)
    for _ in range(draw(st.integers(0, max_n - base.n))):
        new = len(rows)
        src = draw(st.integers(0, new - 1))
        row = rows[src] | (1 << src if draw(st.booleans()) else 0)
        for v in bit_indices(row):
            rows[v] |= 1 << new
        rows.append(row)
    return Graph(len(rows), tuple(rows))


@st.composite
def unions_with_isolated_vertices(draw, max_n=MAX_N):
    """A disjoint union of small graphs and isolated vertices, shuffled."""
    parts = draw(st.lists(graphs_strategy(min_n=1, max_n=5), min_size=1, max_size=3))
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    n = min(max_n, offset + draw(st.integers(0, 3)))  # offset <= 15
    g = Graph.from_edges(n, edges)
    return relabel(g, draw(st.permutations(range(n))))


FAMILIES = {
    "gnp": gnp_graphs(),
    "tree": trees(),
    "twin_rich": twin_rich_graphs(),
    "union": unions_with_isolated_vertices(),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_families_up_to_16(family, data):
    assert_matches_reference(data.draw(FAMILIES[family]))


@given(st.one_of(*FAMILIES.values()), st.data())
@settings(max_examples=40, deadline=None)
def test_local_complement_and_relabel(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    assert_matches_reference(local_complement(g, v))
    assert_matches_reference(relabel(g, data.draw(st.permutations(range(g.n)))))


def chorded_tree(n, chords, seed):
    rng = xorshift64star(seed)
    edges = set(generate("tree", n, seed=seed).edges())
    while len(edges) < n - 1 + chords:
        u, v = sorted((next(rng) % n, next(rng) % n))
        if u != v:
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


FASTPATH_SIZES = {
    "tree_900": lambda: generate("tree", 900, seed=11),
    "tree_500": lambda: generate("tree", 500, seed=12),
    "chorded_tree_700": lambda: chorded_tree(700, 20, seed=13),
    "chorded_tree_850": lambda: chorded_tree(850, 60, seed=14),
    "star_500": lambda: generate("star", 500),
    "gnp_600_p0.5": lambda: generate("gnp", 600, p=0.5, seed=15),
    "gnp_800_p0.02": lambda: generate("gnp", 800, p=0.02, seed=16),
}


@pytest.mark.parametrize("name", sorted(FASTPATH_SIZES))
def test_independent_brute_g2_at_fastpath_sizes(name):
    # The brute route never groups vertices into twin classes, so its g2 is
    # an independent check of the fast path's at sizes no 2**n walk reaches.
    g = FASTPATH_SIZES[name]()
    assert is_connected(g)
    elements = low_weight_elements(g, "brute")
    g2 = g2_rank(e for e, _ in elements)
    assert g2 == analyze(g).g2
    assert all(p.weight() == 2 for _, p in elements)
    # check_routes raises on a dimension/g2 mismatch.
    rep = check_equivalence(g)
    check_routes(g, dimension=rep.dimension, g2=g2)
    assert rep.g2 == g2
