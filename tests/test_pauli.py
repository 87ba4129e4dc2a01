"""Symplectic Pauli algebra, phase exactness, and weight-<=2 enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    all_labeled_graphs,
    connected_graphs_strategy,
    graph_generators,
    graphs_strategy,
    identity,
    is_stabilized,
    multiply,
    reference_element,
    reference_letters,
)
from stabdim import pauli
from stabdim.errors import ConsistencyError, ConstraintError
from stabdim.graphs import Graph, bit_indices, generate
from stabdim.oracle import apply_pauli, build_statevector
from stabdim.pauli import PauliString, element, g2_rank, low_weight_elements


def pauli_strategy(n: int):
    full = st.integers(0, (1 << n) - 1)
    return st.builds(PauliString, st.just(n), full, full, st.integers(0, 3))


def single(axis, n=1, qubit=0):
    return helpers.single(n, qubit, axis)


class TestMultiply:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("X", "Z", "-iY"),
            ("Z", "X", "+iY"),
            ("X", "Y", "+iZ"),
            ("Y", "X", "-iZ"),
            ("Y", "Z", "+iX"),
            ("Z", "Y", "-iX"),
            ("X", "X", "+I"),
            ("Y", "Y", "+I"),
            ("Z", "Z", "+I"),
        ],
    )
    def test_single_qubit_table(self, a, b, expected):
        assert str(multiply(single(a), single(b))) == expected

    @given(pauli_strategy(4))
    def test_identity_is_neutral(self, p):
        eye = identity(4)
        assert multiply(eye, p) == p
        assert multiply(p, eye) == p

    @given(pauli_strategy(5), pauli_strategy(5), pauli_strategy(5))
    def test_associative(self, p, q, r):
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multiply(identity(2), identity(3))

    def test_k2_generator_product(self):
        g0, g1 = graph_generators(generate("complete", 2))
        assert str(multiply(g0, g1)) == "+YY"

    @given(connected_graphs_strategy(min_n=2, max_n=6), pauli_strategy(6), pauli_strategy(6))
    @settings(max_examples=40)
    def test_phase_exact_against_oracle(self, g, p, q):
        p = PauliString(g.n, p.x & ((1 << g.n) - 1), p.z & ((1 << g.n) - 1), p.phase_exp)
        q = PauliString(g.n, q.x & ((1 << g.n) - 1), q.z & ((1 << g.n) - 1), q.phase_exp)
        v = build_statevector(g)
        assert apply_pauli(multiply(p, q), v) == apply_pauli(p, apply_pauli(q, v))


class TestRendering:
    def test_letters_and_signs(self):
        assert str(identity(3)) == "+III"
        assert str(PauliString(2, 0b01, 0b10, 0)) == "+XZ"
        assert str(PauliString(1, 1, 1, 1)) == "+Y"
        assert str(PauliString(1, 1, 1, 3)) == "-Y"
        assert str(PauliString(1, 1, 1, 0)) == "-iY"
        assert str(PauliString(2, 0, 0b11, 2)) == "-ZZ"

    def test_letter_lookup(self):
        p = PauliString(4, 0b0011, 0b0101, 1)
        assert p.letters() == "YXZI"

    @given(st.integers(1, 80).flatmap(pauli_strategy))
    @settings(max_examples=300)
    def test_letters_match_the_per_qubit_lookup(self, p):
        assert p.letters() == reference_letters(p)

    def test_letters_past_the_decimal_digit_limit(self):
        # 5000 qubits are more base-4 digits than int() takes in base 10 since Python 3.11.
        n = 5000
        x, z = int("10" * (n // 2), 2), int("1100" * (n // 4), 2)
        p = PauliString(n, x, z)
        assert p.letters() == reference_letters(p)
        assert p.letters()[:4] == "IXZY"


class TestGenerators:
    def test_k2(self):
        gens = graph_generators(generate("complete", 2))
        assert [str(g) for g in gens] == ["+XZ", "+ZX"]

    def test_star3(self):
        gens = graph_generators(generate("star", 3))
        assert [str(g) for g in gens] == ["+XZZ", "+ZXI", "+ZIX"]

    def test_edgeless(self):
        gens = graph_generators(Graph.from_edges(2, []))
        assert [str(g) for g in gens] == ["+XI", "+IX"]

    @given(graphs_strategy(min_n=1, max_n=8))
    def test_support_is_closed_neighborhood(self, g):
        for i, gen in enumerate(graph_generators(g)):
            assert gen.support() == (1 << i) | g.adj[i]

    @given(connected_graphs_strategy(min_n=2, max_n=7))
    @settings(max_examples=30)
    def test_generators_stabilize(self, g):
        v = build_statevector(g)
        assert all(is_stabilized(gen, v) for gen in graph_generators(g))


class TestElement:
    def test_zero_exponents_gives_identity(self):
        assert element(generate("star", 3), 0) == identity(3)

    def test_k2_full_product(self):
        assert str(element(generate("complete", 2), 0b11)) == "+YY"

    def test_star3_leaf_product(self):
        assert str(element(generate("star", 3), 0b110)) == "+IXX"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_multiply_chain_on_every_labeled_graph(self, n):
        for g in all_labeled_graphs(n):
            gens = graph_generators(g)
            for e in range(1 << n):
                assert element(g, e) == reference_element(gens, e)

    @given(graphs_strategy(min_n=1, max_n=10), st.data())
    def test_equals_multiply_chain_on_random_graphs(self, g, data):
        e = data.draw(st.integers(0, (1 << g.n) - 1))
        assert element(g, e) == reference_element(graph_generators(g), e)

    @pytest.mark.parametrize(
        "family,n,seed",
        [("path", 6, 0), ("star", 7, 0), ("cycle", 6, 0), ("tree", 10, 8), ("gnp", 10, 31)],
    )
    def test_every_element_stabilizes_with_even_phase(self, family, n, seed):
        g = generate(family, n, p=0.4 if family == "gnp" else None, seed=seed)
        v = build_statevector(g)
        for e in range(1 << n):
            s = element(g, e)
            assert s.phase_exp in (0, 2)
            assert is_stabilized(s, v)


class TestSupport:
    def test_examples(self):
        assert identity(2).support() == 0
        assert bit_indices(PauliString(2, 0b01, 0b10, 0).support()) == [0, 1]
        assert identity(2).weight() == 0


class TestLowWeight:
    def test_c5_empty(self):
        assert low_weight_elements(generate("cycle", 5), "brute") == []

    def test_k2(self):
        got = low_weight_elements(generate("complete", 2), "brute")
        assert [(e, str(p)) for e, p in got] == [(1, "+XZ"), (2, "+ZX"), (3, "+YY")]

    def test_star4(self):
        got = low_weight_elements(generate("star", 4), "brute")
        assert [(e, str(p)) for e, p in got] == [
            (2, "+ZXII"),
            (4, "+ZIXI"),
            (6, "+IXXI"),
            (8, "+ZIIX"),
            (10, "+IXIX"),
            (12, "+IIXX"),
        ]

    def test_brute_has_no_library_cap(self):
        # The library puts no bound on n; the CLI's fixed n <= 28 brute cap is contract.
        g = generate("path", 30)
        assert low_weight_elements(g, "brute") == low_weight_elements(g, "fast")

    @pytest.mark.parametrize(
        "mode,g,vector,detail",
        [
            ("brute", generate("path", 3), "100", " graph6=Bg"),
            ("fast", generate("path", 3), "100", " graph6=Bg"),
            # Vertex 0 is isolated, so its weight-1 generator passes; vertex 1's does not.
            ("brute", Graph.from_edges(3, [(1, 2)]), "010", " graph6=BG"),
            # Past graph6's one-byte size form (n <= 62) the input is not shown.
            ("brute", generate("path", 63), "1" + "0" * 62, ""),
        ],
        ids=["brute", "fast", "brute-disconnected", "brute-n63"],
    )
    def test_weight_below_two_names_its_exponent_vector(self, monkeypatch, mode, g, vector, detail):
        # Both modes share the tail that builds the elements and checks them.
        monkeypatch.setattr(pauli, "element", lambda g, e: single("X", 3))
        with pytest.raises(
            ConsistencyError,
            match=rf"^weight-1 stabilizer element \+XII from exponent vector {vector}, "
            rf"which is not one isolated vertex{detail}$",
        ):
            low_weight_elements(g, mode)

    def test_isolated_vertex_gives_weight_one_without_error(self):
        got = low_weight_elements(Graph.from_edges(3, [(0, 1)]), "brute")
        assert [(e, str(p)) for e, p in got] == [(1, "+XZI"), (2, "+ZXI"), (3, "+YYI"), (4, "+IIX")]

    def test_fast_requires_connected(self):
        with pytest.raises(ConstraintError):
            low_weight_elements(Graph.from_edges(3, [(0, 1)]), "fast")
        with pytest.raises(ConstraintError):
            low_weight_elements(Graph.from_edges(1, []), "fast")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            low_weight_elements(generate("path", 3), "guess")

    def test_disconnected_brute_allows_weight_one(self):
        g = Graph.from_edges(2, [])
        got = low_weight_elements(g, "brute")
        assert [(e, str(p)) for e, p in got] == [(1, "+XI"), (2, "+IX"), (3, "+XX")]

    @given(connected_graphs_strategy(min_n=2, max_n=9))
    @settings(max_examples=60)
    def test_brute_fast_agree(self, g):
        assert low_weight_elements(g, "brute") == low_weight_elements(g, "fast")

    @pytest.mark.parametrize("family,n", [("star", 14), ("path", 16), ("complete", 13), ("cycle", 16)])
    def test_brute_fast_agree_larger(self, family, n):
        g = generate(family, n)
        assert low_weight_elements(g, "brute") == low_weight_elements(g, "fast")

    @given(connected_graphs_strategy(min_n=2, max_n=8))
    @settings(max_examples=40)
    def test_elements_have_plus_sign_and_weight_two(self, g):
        for _, p in low_weight_elements(g, "brute"):
            assert p.weight() == 2
            assert str(p).startswith("+") and not str(p).startswith("+i")


class TestG2Rank:
    def test_examples(self):
        assert g2_rank([]) == 0
        assert g2_rank([0b01, 0b10, 0b11]) == 2
        for n in range(3, 9):
            star = generate("star", n)
            assert g2_rank(e for e, _ in low_weight_elements(star, "fast")) == n - 1

    def test_gf2_rank_basics(self):
        assert g2_rank([0b100, 0b010, 0b110]) == 2
        assert g2_rank([0, 0]) == 0

    @given(st.lists(st.integers(0, 2**10 - 1), max_size=12), st.randoms(use_true_random=False))
    def test_rank_invariant_under_recombination(self, rows, rnd):
        base = g2_rank(rows)
        mixed = rows[:]
        rnd.shuffle(mixed)
        for _ in range(len(mixed)):
            if len(mixed) >= 2:
                i, j = rnd.randrange(len(mixed)), rnd.randrange(len(mixed))
                if i != j:
                    mixed[i] ^= mixed[j]
        assert g2_rank(mixed) == base
