"""Exhaustive sweep over networkx's graph atlas: every graph with at most 7 vertices."""

import pytest

from helpers import (
    brute_g2,
    closed_form_dimension,
    local_complement,
    reference_brute_elements,
    reference_report,
    reference_twin_classes,
)
from stabdim.cli import format_report
from stabdim.configurations import analyze
from stabdim.graphs import Graph, encode_graph6, parse_graph6, twin_classes
from stabdim.oracle import local_algebra_nullity
from stabdim.pauli import g2_rank, low_weight_elements

nx = pytest.importorskip("networkx")


def _atlas():
    """(networkx graph, the same graph as a stabdim Graph) for every non-empty atlas entry."""
    out = []
    for h in nx.graph_atlas_g():
        index = {v: i for i, v in enumerate(h)}
        if index:
            out.append((h, Graph.from_edges(len(index), [(index[u], index[v]) for u, v in h.edges])))
    return out


ATLAS = _atlas()
CONNECTED = [g for h, g in ATLAS if g.n >= 2 and nx.is_connected(h)]


def test_atlas_sizes():
    assert (len(ATLAS), len(CONNECTED)) == (1252, 995)


def test_three_routes_agree_on_every_connected_graph():
    mismatches = []
    for g in CONNECTED:
        a = analyze(g)
        brute_g2 = g2_rank(e for e, _ in low_weight_elements(g, mode="brute"))
        triple = (a.dimension, brute_g2, local_algebra_nullity(g))
        expected = (3, 2, 3) if g.n == 2 else (triple[0],) * 3
        if triple != expected or a.g2 != brute_g2:
            mismatches.append((encode_graph6(g), triple, a.g2))
    assert mismatches == []


def test_local_complementation_keeps_dimension_and_g2():
    # Local complementation at v maps a graph state to a local-Clifford-equivalent
    # one (Van den Nest, Dehaene and De Moor, PRA 69, 022316 (2004)). That keeps
    # the local-unitary stabilizer, so its dimension, and maps weight-<=2
    # stabilizer elements to weight-<=2 ones, so g2: neither needs the paper's
    # theorem, while twins and leaves are not LC-invariant.
    mismatches = []
    checked = 0
    for g in CONNECTED:
        if g.n < 3:
            continue
        a = analyze(g)
        routes = (a.dimension, a.g2, brute_g2(g))
        for v in range(g.n):
            h = local_complement(g, v)
            b = analyze(h)
            if (b.dimension, b.g2, brute_g2(h)) != routes:
                mismatches.append((encode_graph6(g), v))
            checked += 1
    assert (checked, mismatches) == (6778, [])


def test_twin_classes_equal_the_int_keyed_reference_on_every_graph():
    # Disconnected graphs and isolated vertices included; lists and order.
    mismatches = [encode_graph6(g) for _, g in ATLAS if twin_classes(g) != reference_twin_classes(g)]
    assert mismatches == []


def test_brute_route_equals_the_walk_on_every_graph():
    # Disconnected graphs and isolated vertices included.
    mismatches = [
        encode_graph6(g)
        for _, g in ATLAS
        if low_weight_elements(g, mode="brute") != reference_brute_elements(g)
    ]
    assert mismatches == []


def test_graph6_matches_networkx():
    mismatches = []
    for h, g in ATLAS:
        text = encode_graph6(g)
        back = parse_graph6(text)
        if text != nx.to_graph6_bytes(h, header=False).decode().strip() or back != g:
            mismatches.append(text)
    assert mismatches == []


def test_reports_match_the_reference_on_every_graph():
    mismatches = []
    for _, g in ATLAS:
        a = analyze(g)
        components = not a.connected
        for mode in ("text", "machine"):
            got = "".join(format_report(g, a, None, "graph6 G", components, mode))
            if got != reference_report(g, a, None, "graph6 G", components, mode):
                mismatches.append((encode_graph6(g), mode))
    assert mismatches == []


def test_dimension_in_closed_form_on_every_graph():
    # Disconnected graphs included: each isolated vertex adds 1 to both sides.
    mismatches = []
    for _, g in ATLAS:
        a = analyze(g)
        if a.dimension != closed_form_dimension(g, a):
            mismatches.append(encode_graph6(g))
    assert mismatches == []
