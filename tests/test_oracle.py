"""Exact statevector oracle: amplitudes, Pauli action, rank, and nullity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Coefficients,
    all_labeled_graphs,
    annihilates,
    coefficient_vector_row,
    connected_graphs_strategy,
    graph_generators,
    graphs_strategy,
    identity,
    is_stabilized,
    is_stabilized_by_masks,
    local_complement,
    rational_rank,
    reference_gram_blocks,
    relabel,
    sign_mask_state,
    single,
    slot_coefficient_vector,
    theta_is_zero,
)
from stabdim.configurations import analyze, detect_configurations, lie_generator
from stabdim.errors import ConstraintError
from stabdim.graphs import Graph, generate
from stabdim.oracle import (
    ExactStateVector,
    _gram_blocks,
    apply_pauli,
    build_statevector,
    local_algebra_nullity,
    matrix_rank,
)
from stabdim.pauli import PauliString, element


def direct_stacked_nullity(g):
    """Reference route: rank of the actual stacked real system, no Gram shortcut."""
    v0 = build_statevector(g)
    cols = [list(v0.re) + list(v0.im)]
    for axis in ("X", "Y", "Z"):
        for a in range(g.n):
            w = apply_pauli(single(g.n, a, axis), v0)
            cols.append(list(w.re) + list(w.im))
    return (3 * g.n + 1) - matrix_rank(cols)


class TestBuildStatevector:
    def test_k2(self):
        v = build_statevector(generate("complete", 2))
        assert v.re == (1, 1, 1, -1)
        assert v.im == (0, 0, 0, 0)

    def test_single_vertex(self):
        v = build_statevector(Graph.from_edges(1, []))
        assert v.re == (1, 1)

    def test_path3_amplitude_formula(self):
        g = generate("path", 3)
        v = build_statevector(g)
        for x in range(8):
            expected = (-1) ** sum((x >> i) & (x >> j) & 1 for i, j in g.edges())
            assert v.re[x] == expected
        assert v.re[0b111] == 1

    def test_cap(self):
        with pytest.raises(ConstraintError, match="caps at n=20, got n=21"):
            build_statevector(generate("path", 21))


class TestApplyPauli:
    def test_identity(self):
        v = build_statevector(generate("complete", 2))
        assert apply_pauli(identity(2), v) == v

    def test_z0_signs(self):
        v = build_statevector(generate("complete", 2))
        w = apply_pauli(single(2, 0, "Z"), v)
        assert w.re == (1, -1, 1, 1)

    def test_x_permutes(self):
        v = build_statevector(generate("complete", 2))
        w = apply_pauli(single(2, 0, "X"), v)
        assert w.re == (1, 1, -1, 1)

    def test_y_is_imaginary_on_real_state(self):
        v = build_statevector(generate("complete", 2))
        w = apply_pauli(single(2, 0, "Y"), v)
        assert w.re == (0, 0, 0, 0)
        assert all(b in (-1, 1) for b in w.im)

    def test_generator_fixes_state(self):
        g = generate("complete", 2)
        v = build_statevector(g)
        g0 = graph_generators(g)[0]
        assert apply_pauli(g0, v) == v

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli(identity(3), build_statevector(generate("path", 2)))

    @given(graphs_strategy(max_n=6), st.data())
    def test_phase_exp_multiplies_by_a_power_of_i(self, g, data):
        # A complex state, so both the real and the imaginary lane turn.
        v0 = build_statevector(g)
        v = ExactStateVector(g.n, v0.re, v0.re[::-1])
        x, z = (data.draw(st.integers(0, (1 << g.n) - 1)) for _ in range(2))
        base = apply_pauli(PauliString(g.n, x, z), v)
        for k in range(4):
            w = apply_pauli(PauliString(g.n, x, z, k), v)
            for y in range(1 << g.n):
                assert complex(w.re[y], w.im[y]) == 1j**k * complex(base.re[y], base.im[y])


class TestIsStabilized:
    def test_generators_and_signs(self):
        g = generate("star", 4)
        v = build_statevector(g)
        for gen in graph_generators(g):
            assert is_stabilized(gen, v)
            negated = PauliString(gen.n, gen.x, gen.z, (gen.phase_exp + 2) % 4)
            assert not is_stabilized(negated, v)

    def test_yy_on_k2(self):
        v = build_statevector(generate("complete", 2))
        assert is_stabilized(PauliString(2, 0b11, 0b11, 2), v)


class TestEliminaton:
    def test_matrix_rank_basics(self):
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([[0, 0], [0, 0]]) == 0
        assert matrix_rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2
        assert matrix_rank([]) == 0

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=5, max_size=5), min_size=1, max_size=7
        )
    )
    @settings(max_examples=120)
    def test_bareiss_matches_rational_elimination(self, rows):
        assert matrix_rank(rows) == rational_rank(rows)


class TestNullity:
    def test_known_values(self):
        assert local_algebra_nullity(generate("complete", 2)) == 3
        assert local_algebra_nullity(generate("star", 7)) == 6
        assert local_algebra_nullity(generate("cycle", 5)) == 0

    def test_cap(self):
        # One hard ceiling, which no argument raises; the CLI's default of 14 is its own.
        with pytest.raises(ConstraintError, match="caps at n=20, got n=21"):
            local_algebra_nullity(generate("path", 21))
        assert local_algebra_nullity(generate("path", 15)) == 2

    def test_gram_route_equals_direct_route_exhaustive(self):
        for n in (1, 2, 3):
            for g in all_labeled_graphs(n):
                assert local_algebra_nullity(g) == direct_stacked_nullity(g)

    @given(connected_graphs_strategy(min_n=2, max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_gram_route_equals_direct_route_random(self, g):
        assert local_algebra_nullity(g) == direct_stacked_nullity(g)


class TestNullspace:
    @given(connected_graphs_strategy(min_n=2, max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_theta_is_zero_on_connected_graphs(self, g):
        assert theta_is_zero(g)

    @given(connected_graphs_strategy(min_n=2, max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_slot_generators_span_nullspace(self, g):
        v = build_statevector(g)
        pairs = [lie_generator(c) for c in detect_configurations(g)]
        embedded = [slot_coefficient_vector(p, g.n) for p in pairs]
        for cv in embedded:
            assert annihilates(cv, v)
        rows = [coefficient_vector_row(cv) for cv in embedded]
        assert rational_rank(rows) == local_algebra_nullity(g)

    def test_single_vertex_allows_nonzero_theta(self):
        # |+> is fixed by X, so X - 1 annihilates it: dropping the theta
        # column leaves the rank equal, not one less.
        g = Graph.from_edges(1, [])
        real, _ = _gram_blocks(g)
        assert local_algebra_nullity(g) == 1
        assert matrix_rank(real) == matrix_rank([r[1:] for r in real[1:]]) == 2
        assert annihilates(Coefficients(-1, ((1, 0, 0),)), build_statevector(g))


class TestAlgebraAction:
    def test_nonmember_does_not_annihilate(self):
        g = generate("cycle", 5)
        v = build_statevector(g)
        tx = tuple((Fraction(1), Fraction(0), Fraction(0)) if a == 0 else
                   (Fraction(0), Fraction(0), Fraction(0)) for a in range(5))
        assert not annihilates(Coefficients(Fraction(0), tx), v)


class TestGramBlocks:
    def test_equal_to_reference_exhaustive(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert _gram_blocks(g) == reference_gram_blocks(g)

    @given(graphs_strategy(min_n=1, max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_equal_to_reference_random(self, g):
        assert _gram_blocks(g) == reference_gram_blocks(g)


def stabilization_probes(g):
    """Every product of at most two generators with each of the four phases,
    plus every single-qubit X, Y and Z: stabilizers, sign-flipped and
    imaginary multiples of them, and mostly non-stabilizers."""
    probes = []
    for e in range(1 << g.n):
        if e.bit_count() <= 2:
            p = element(g, e)
            probes += [PauliString(g.n, p.x, p.z, p.phase_exp + k) for k in range(4)]
    probes += [single(g.n, a, axis) for a in range(g.n) for axis in "XYZ"]
    return probes


class TestSignMaskStabilization:
    def test_equal_to_amplitudes_exhaustive(self):
        fixed = checked = 0
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                v, state = build_statevector(g), sign_mask_state(g)
                for p in stabilization_probes(g):
                    expected = is_stabilized(p, v)
                    assert is_stabilized_by_masks(p, state) == expected, (g, p)
                    fixed += expected
                    checked += 1
        assert 0 < fixed < checked

    @given(graphs_strategy(min_n=1, max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_to_amplitudes_random(self, g, data):
        full = st.integers(0, (1 << g.n) - 1)
        p = data.draw(st.builds(PauliString, st.just(g.n), full, full, st.integers(0, 3)))
        v, state = build_statevector(g), sign_mask_state(g)
        q = element(g, p.x)
        for probe in (p, PauliString(g.n, q.x, q.z, p.phase_exp)):
            assert is_stabilized_by_masks(probe, state) == is_stabilized(probe, v)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_stabilized_by_masks(identity(3), sign_mask_state(generate("path", 2)))


class TestInvariance:
    """Nullity is unchanged under local complementation and relabelling.

    LC maps a graph state to a local-unitary-equivalent one, so the stabilizer
    dimension cannot change; twins and leaves are not LC-invariant, so this
    checks the oracle and the configuration count from outside their theory.
    """

    @given(connected_graphs_strategy(min_n=3, max_n=9), st.data())
    @settings(max_examples=40, deadline=None)
    def test_local_complementation(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        h = local_complement(g, v)
        assert local_algebra_nullity(g) == local_algebra_nullity(h) == analyze(h).dimension

    @given(connected_graphs_strategy(min_n=3, max_n=9), st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabelling(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        h = relabel(g, perm)
        assert local_algebra_nullity(g) == local_algebra_nullity(h) == analyze(h).dimension

    def test_local_complement_closes_triangle(self):
        # LC at the centre of a 3-path closes the triangle, and is an involution.
        g = generate("path", 3)
        h = local_complement(g, 1)
        assert h == generate("complete", 3)
        assert local_complement(h, 1) == g
