"""The one-pass fast path against the O(n^2) pair-scan references in helpers."""

import json

import pytest

from helpers import (
    all_labeled_graphs,
    reference_analysis,
    reference_configurations,
    reference_fast_elements,
)
from stabdim.cli import run
from stabdim.configurations import (
    analyze,
    components_with_configurations,
    detect_configurations,
    iter_configurations,
    lie_generator,
    slot_span_rank,
    stabilizer_dimension,
)
from stabdim.graphs import Graph, encode_edge_list, generate, is_connected
from stabdim.pauli import g2_rank, low_weight_elements


def check_against_reference(g):
    configs = reference_configurations(g)
    elements = reference_fast_elements(g)
    a = analyze(g)
    assert a.connected
    assert list(iter_configurations(a)) == configs
    assert a.dimension == slot_span_rank(lie_generator(c) for c in configs)
    assert a.g2 == g2_rank(e for e, _ in elements)
    assert low_weight_elements(g, mode="fast") == elements


def complete_bipartite(p, q):
    return Graph.from_edges(p + q, [(u, p + v) for u in range(p) for v in range(q)])


def disjoint_union(parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return Graph.from_edges(offset, edges)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_connected_labeled_graph(n):
    for g in all_labeled_graphs(n):
        if is_connected(g):
            check_against_reference(g)


def test_random_corpus(random_corpus):
    for g in random_corpus:
        check_against_reference(g)
        assert detect_configurations(g) == list(iter_configurations(analyze(g)))
        assert stabilizer_dimension(g) == analyze(g).dimension


@pytest.mark.parametrize("n", range(2, 41))
def test_stars_complete_and_complete_bipartite(n):
    check_against_reference(generate("star", n))
    check_against_reference(generate("complete", n))
    for p in range(1, n // 2 + 1):
        check_against_reference(complete_bipartite(p, n - p))


def union_corpus(random_corpus):
    """Disjoint unions mixing random graphs, K2s, stars and isolated vertices."""
    single, k2 = Graph.from_edges(1, []), generate("complete", 2)
    unions = []
    for i in range(0, 60, 3):
        parts = random_corpus[i:i + 3] + [single, k2, generate("star", 3 + i % 5)]
        unions.append(disjoint_union(parts[i % 6:] + parts[:i % 6]))
    unions.append(disjoint_union([single] * 4))
    unions.append(disjoint_union([k2, k2, single]))
    return unions


def test_disjoint_unions(random_corpus):
    for g in union_corpus(random_corpus):
        configs, dimension, g2 = reference_analysis(g)
        a = analyze(g)
        assert a.connected is False
        assert (list(iter_configurations(a)), a.dimension, a.g2) == (configs, dimension, g2)
        assert analyze(g).dimension == dimension
        assert components_with_configurations(g) == (dimension, configs)


def test_disjoint_unions_through_cli(capsys, tmp_path, random_corpus):
    path = tmp_path / "union.col"
    for g in union_corpus(random_corpus)[::4]:
        configs, dimension, g2 = reference_analysis(g)
        path.write_text(encode_edge_list(g), encoding="utf-8")
        argv = ["analyze", "--components", "--format", "machine", "--file", str(path)]
        assert run(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["connected"], record["dimension"], record["g2"]) == (False, dimension, g2)
        assert record["configurations"] == [
            {"kind": c.kind, "a": c.a, "b": c.b} for c in configs
        ]
