"""Cross-route equivalence reports and the two support-structure properties."""

import hashlib

import pytest
from hypothesis import given, settings

from helpers import (
    all_labeled_graphs,
    brute_g2,
    check_correspondence,
    check_pairwise_overlap,
    check_support_pairs,
    connected_graphs_strategy,
)
from stabdim import theorem
from stabdim.configurations import analyze
from stabdim.errors import ConsistencyError, ConstraintError
from stabdim.graphs import Graph, encode_edge_list, encode_graph6, generate, is_connected
from stabdim.pauli import low_weight_elements
from stabdim.theorem import EquivalenceReport, check_equivalence


class TestCheckEquivalence:
    def test_k2_boundary(self):
        rep = check_equivalence(generate("complete", 2))
        assert rep == EquivalenceReport(2, 3, 2, None, False)

    def test_star5(self):
        rep = check_equivalence(generate("star", 5), with_oracle=True)
        assert (rep.dimension, rep.g2, rep.holds) == (4, 4, True)
        assert rep.oracle_nullity == rep.dimension == 4

    def test_c5(self):
        g = generate("cycle", 5)
        rep = check_equivalence(g, with_oracle=True)
        brute = brute_g2(g)
        theorem.check_routes(g, dimension=rep.dimension, g2=brute, nullity=rep.oracle_nullity)
        assert (rep.dimension, rep.g2, rep.holds, rep.oracle_nullity) == (0, 0, True, 0)
        assert brute == 0

    def test_element_modes_agree(self):
        g = generate("tree", 9, seed=5)
        rep = check_equivalence(g)
        brute = brute_g2(g)
        theorem.check_routes(g, dimension=rep.dimension, g2=brute)
        assert brute == rep.g2

    def test_rejects_disconnected(self):
        with pytest.raises(ConstraintError):
            check_equivalence(Graph.from_edges(3, [(0, 1)]))

    @staticmethod
    def _break_dimension(monkeypatch):
        real = theorem.analyze
        monkeypatch.setattr(theorem, "analyze", lambda g: real(g)._replace(dimension=99))

    def test_mismatch_raises_for_n_at_least_3(self, monkeypatch):
        self._break_dimension(monkeypatch)
        with pytest.raises(ConsistencyError):
            check_equivalence(generate("star", 4))

    def test_mismatch_at_n2_only_reported(self):
        # The boundary gap is reported, not raised, on every route: with the
        # oracle run first, and for the fast and the brute g2.
        g = generate("complete", 2)
        rep = check_equivalence(g, with_oracle=True)
        assert (rep.dimension, rep.g2, rep.holds) == (3, 2, False)
        brute = brute_g2(g)
        theorem.check_routes(g, dimension=rep.dimension, g2=brute, nullity=rep.oracle_nullity)
        assert brute == 2

    def test_mismatch_at_n2_other_than_boundary_raises(self, monkeypatch):
        # At n = 2 only the boundary gap (dimension 3, g2 2) is reported.
        self._break_dimension(monkeypatch)
        with pytest.raises(
            ConsistencyError, match=r"^dimension 99 - g2 2 != expected gap 1 on a graph with n=2 "
        ):
            check_equivalence(generate("complete", 2))


class TestBoundaryGap:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_is_dimension_minus_g2_on_every_graph(self, n):
        # Disconnected graphs included: the gap is one per single-edge component.
        for g in all_labeled_graphs(n):
            a = analyze(g)
            assert a.dimension - a.g2 == theorem.boundary_gap(g)

    def test_counts_single_edge_components(self):
        assert theorem.boundary_gap(generate("complete", 2)) == 1
        assert theorem.boundary_gap(generate("path", 3)) == 0
        assert theorem.boundary_gap(Graph.from_edges(7, [(0, 1), (2, 3), (4, 5), (5, 6)])) == 2

    def test_check_routes_passes_the_boundary_only(self):
        k2 = generate("complete", 2)
        theorem.check_routes(k2, dimension=3, g2=2)
        theorem.check_routes(k2, dimension=3, g2=2, nullity=3)
        with pytest.raises(ConsistencyError, match=r"^dimension 3 - g2 3 != expected gap 1 "):
            theorem.check_routes(k2, dimension=3, g2=3, nullity=3)

    def test_check_routes_gates_the_oracle_after_the_gap(self):
        k2 = generate("complete", 2)
        with pytest.raises(
            ConsistencyError,
            match=r"^oracle nullity 2 != dimension 3 "
            r"\(dimension=3 g2=2 oracle_nullity=2 graph6=A_\)$",
        ):
            theorem.check_routes(k2, dimension=3, g2=2, nullity=2)
        # A run that breaks both rules names the gap.
        with pytest.raises(ConsistencyError, match=r"^dimension 3 - g2 3 != expected gap 1 "):
            theorem.check_routes(k2, dimension=3, g2=3, nullity=2)


class TestCheckElements:
    def test_names_each_count_and_the_input(self):
        k2 = generate("complete", 2)
        elements = low_weight_elements(k2, "brute")
        theorem.check_routes(k2, brute=elements, fast=low_weight_elements(k2, "fast"))
        with pytest.raises(
            ConsistencyError,
            match=r"^brute and fast enumerations disagree \(brute=3 fast=2 graph6=A_\)$",
        ):
            theorem.check_routes(k2, brute=elements, fast=elements[:2])


class TestCheckRoutes:
    GAP = "dimension 3 - g2 3 != expected gap 1 on a graph with n=2 (dimension=3 g2=3 "
    ORACLE = "oracle nullity 2 != dimension 3 (dimension=3 "
    ELEMENTS = "brute and fast enumerations disagree (brute=1 fast=0 graph6=A_)"
    EVERY_RULE_BROKEN = dict(dimension=3, g2=3, nullity=2, brute=[1], fast=[])

    @pytest.mark.parametrize(
        "values,message",
        [
            (dict(dimension=3, g2=3), GAP + "oracle_nullity=not-run graph6=A_)"),
            (dict(dimension=3, g2=2, nullity=2), ORACLE + "g2=2 oracle_nullity=2 graph6=A_)"),
            (dict(brute=[1], fast=[]), ELEMENTS),
            # Rules run in order: the gap rule wins over the oracle and element rules.
            (dict(dimension=3, g2=3, nullity=2), GAP + "oracle_nullity=2 graph6=A_)"),
            (EVERY_RULE_BROKEN, GAP + "oracle_nullity=2 graph6=A_)"),
            ({**EVERY_RULE_BROKEN, "g2": 2}, ORACLE + "g2=2 oracle_nullity=2 graph6=A_)"),
            # A None value skips every rule that reads it.
            ({**EVERY_RULE_BROKEN, "g2": None}, ORACLE + "g2=not-run oracle_nullity=2 graph6=A_)"),
            ({**EVERY_RULE_BROKEN, "dimension": None}, ELEMENTS),
            ({**EVERY_RULE_BROKEN, "dimension": None, "fast": None}, None),
            ({**EVERY_RULE_BROKEN, "g2": None, "nullity": None, "brute": None}, None),
            (dict(dimension=3, g2=2, nullity=3, brute=[1], fast=[1]), None),
            (dict(dimension=99), None),
            (dict(fast=[]), None),
            ({}, None),
        ],
        ids=[
            "gap", "oracle", "elements", "gap-before-oracle", "gap-first", "oracle-next",
            "no-g2", "no-dimension", "no-dimension-or-fast", "dimension-and-fast-only",
            "all-agree", "dimension-only", "fast-only", "none",
        ],
    )
    def test_each_rule_raises_its_message_when_its_values_are_given(self, values, message):
        k2 = generate("complete", 2)
        if message is None:
            theorem.check_routes(k2, **values)
            return
        with pytest.raises(ConsistencyError) as caught:
            theorem.check_routes(k2, **values)
        assert str(caught.value) == message

    def test_values_are_keyword_only(self):
        with pytest.raises(TypeError):
            theorem.check_routes(generate("complete", 2), 3, 2, None)


class TestReproduction:
    def test_graph6_only_when_it_fits(self):
        p62 = generate("path", 62)
        assert theorem.reproduction(p62, 2, 1, None) == (
            f"dimension=2 g2=1 oracle_nullity=not-run graph6={encode_graph6(p62)}"
        )
        # Past it, the sha256 of the edge list that gen writes names the input.
        p63 = generate("path", 63)
        digest = hashlib.sha256(encode_edge_list(p63).encode()).hexdigest()
        assert theorem.reproduction(p63, 2, 2, 5) == (
            f"dimension=2 g2=2 oracle_nullity=5 edge_list_sha256={digest}"
        )


class TestSupportPairs:
    @pytest.mark.parametrize(
        "family,n",
        [("path", 6), ("star", 8), ("complete", 6), ("cycle", 7), ("complete", 2)],
    )
    def test_families(self, family, n):
        assert check_support_pairs(generate(family, n))

    def test_c5_vacuous(self):
        assert check_support_pairs(generate("cycle", 5))

    @given(connected_graphs_strategy(min_n=2, max_n=9))
    @settings(max_examples=60)
    def test_random(self, g):
        assert check_support_pairs(g)


class TestPairwiseOverlap:
    def test_star4_shares_center_letter(self):
        assert check_pairwise_overlap(generate("star", 4))

    def test_c6_vacuous(self):
        assert check_pairwise_overlap(generate("cycle", 6))

    def test_k2_is_the_documented_violation(self):
        # All three 2-vertex elements share both support vertices; the
        # property only holds from n = 3 up.
        assert not check_pairwise_overlap(generate("complete", 2))

    @given(connected_graphs_strategy(min_n=3, max_n=9))
    @settings(max_examples=60)
    def test_random(self, g):
        assert check_pairwise_overlap(g)


class TestCorrespondence:
    def test_examples(self):
        assert check_correspondence(generate("star", 6))
        assert check_correspondence(generate("complete", 4))
        assert check_correspondence(generate("cycle", 5))

    def test_needs_n_at_least_3(self):
        with pytest.raises(ConstraintError):
            check_correspondence(generate("complete", 2))

    @given(connected_graphs_strategy(min_n=3, max_n=9))
    @settings(max_examples=60)
    def test_random(self, g):
        assert check_correspondence(g)


class TestTripleAgreement:
    @given(connected_graphs_strategy(min_n=3, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_dimension_g2_nullity(self, g):
        rep = check_equivalence(g, with_oracle=True)
        brute = brute_g2(g)
        theorem.check_routes(g, dimension=rep.dimension, g2=brute, nullity=rep.oracle_nullity)
        assert rep.holds and rep.oracle_nullity == rep.dimension == brute

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small_graphs(self, n):
        # Every connected labeled graph up to 5 vertices, no sampling gaps.
        for g in all_labeled_graphs(n):
            if not is_connected(g):
                continue
            rep = check_equivalence(g, with_oracle=True)
            brute = brute_g2(g)
            theorem.check_routes(g, dimension=rep.dimension, g2=brute, nullity=rep.oracle_nullity)
            assert rep.oracle_nullity == rep.dimension
            assert rep.holds == (rep.dimension == brute) == (g.n != 2)
            assert low_weight_elements(g, "brute") == low_weight_elements(g, "fast")
