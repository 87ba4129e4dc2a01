"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Corpus: 200 seeded connected G(n, p) draws (n in 3..12, p in {0.2, 0.5, 0.8})
plus every named family (path, cycle, star, complete, seeded random tree)
with n <= 12. Everything is exact integer arithmetic; the only tolerances
are the stated wall-clock budgets.
"""

import functools
import json
import time

from helpers import (
    check_pairwise_overlap,
    check_support_pairs,
    coefficient_vector_row,
    is_stabilized_by_masks,
    rational_rank,
    sign_mask_state,
    slot_coefficient_vector,
    theta_is_zero,
)
from stabdim.cli import run
from stabdim.configurations import (
    Configuration,
    detect_configurations,
    lie_generator,
    stabilizer_dimension,
)
from stabdim.graphs import generate, is_connected, parse_edge_list, parse_graph6
from stabdim.graphs import encode_edge_list, encode_graph6
from stabdim.pauli import g2_rank, low_weight_elements


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")

        return wrapper

    return decorate


def slot_rank_rows(pairs, n):
    return [coefficient_vector_row(slot_coefficient_vector(p, n)) for p in pairs]


@criterion(1, "2-qubit graph state: dimension 3 with the expected generator span, < 1 s")
def test_criterion_1_two_qubit(capsys):
    start = time.perf_counter()
    code = run(["analyze", "--graph6", "A_", "--format", "machine"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["dimension"] == 3
    reported = [
        lie_generator(Configuration(c["kind"], c["a"], c["b"]))
        for c in record["configurations"]
    ]
    expected = [
        lie_generator(Configuration("leaf", 0, 1)),
        lie_generator(Configuration("leaf", 1, 0)),
        lie_generator(Configuration("closed_twin", 0, 1)),
    ]
    got_rows = slot_rank_rows(reported, 2)
    exp_rows = slot_rank_rows(expected, 2)
    assert rational_rank(got_rows) == 3
    assert rational_rank(exp_rows) == 3
    assert rational_rank(got_rows + exp_rows) == 3
    assert elapsed < 1.0


@criterion(2, "star graphs: dimension n-1 (n >= 3; n=2 is the 3-dimensional boundary), oracle-confirmed to n=12, < 1 min")
def test_criterion_2_stars(nullity_of):
    start = time.perf_counter()
    # n = 2 is the single-edge graph, whose oracle-frozen value is 3, not
    # n-1; the n-1 law holds from n = 3 on.
    assert stabilizer_dimension(generate("star", 2)) == 3
    for n in range(3, 11):
        assert stabilizer_dimension(generate("star", n)) == n - 1
    for n in range(2, 13):
        star = generate("star", n)
        assert nullity_of(star) == stabilizer_dimension(star)
    assert time.perf_counter() - start < 60.0


@criterion(3, "config dimension equals exact oracle nullity on the full corpus, zero tolerance, < 10 min")
def test_criterion_3_oracle_equivalence(random_corpus, family_corpus, nullity_of):
    start = time.perf_counter()
    assert len(random_corpus) == 200
    for g in random_corpus:
        assert stabilizer_dimension(g) == nullity_of(g)
    for _, g in family_corpus:
        assert stabilizer_dimension(g) == nullity_of(g)
    assert time.perf_counter() - start < 600.0


@criterion(4, "dimension equals g2 rank for every corpus graph with n >= 3; (3, 2) at n = 2")
def test_criterion_4_theorem(random_corpus, family_corpus):
    for g in random_corpus:
        assert stabilizer_dimension(g) == g2_rank(
            e for e, _ in low_weight_elements(g, "brute")
        )
    for _, g in family_corpus:
        g2 = g2_rank(e for e, _ in low_weight_elements(g, "brute"))
        if g.n >= 3:
            assert stabilizer_dimension(g) == g2
        else:
            assert (stabilizer_dimension(g), g2) == (3, 2)


@criterion(5, "support-pair and pairwise-overlap properties hold corpus-wide via brute enumeration")
def test_criterion_5_support_properties(random_corpus, family_corpus):
    corpus = list(random_corpus) + [g for _, g in family_corpus]
    for g in corpus:
        assert check_support_pairs(g)
        # The overlap property lives in the n >= 3 regime: the 2-vertex
        # graph's three elements all share one support.
        if g.n >= 3:
            assert check_pairwise_overlap(g)


@criterion(6, "theta component is zero in every nullspace basis vector, corpus-wide")
def test_criterion_6_theta_zero(random_corpus, family_corpus):
    corpus = list(random_corpus) + [g for _, g in family_corpus]
    for g in corpus:
        assert theta_is_zero(g)


@criterion(7, "brute and configuration enumerations identical to n = 16; all elements +1 and stabilizing")
def test_criterion_7_enumeration_crosscheck(random_corpus, family_corpus):
    extended = []
    for n in range(13, 17):
        extended.append(generate("star", n))
        extended.append(generate("path", n))
        extended.append(generate("cycle", n))
        extended.append(generate("complete", n))
        extended.append(generate("tree", n, seed=1000 + n))
        gnp = generate("gnp", n, p=0.5, seed=3000 + n)
        if is_connected(gnp):
            extended.append(gnp)
    corpus = list(random_corpus) + [g for _, g in family_corpus] + extended
    for g in corpus:
        brute = low_weight_elements(g, "brute")
        assert brute == low_weight_elements(g, "fast")
        state = sign_mask_state(g)
        for _, p in brute:
            assert p.sign() == "+"
            assert is_stabilized_by_masks(p, state)


@criterion(8, "frozen family regressions: cycles, completes, paths")
def test_criterion_8_family_regressions():
    assert stabilizer_dimension(generate("cycle", 3)) == 2
    assert stabilizer_dimension(generate("cycle", 4)) == 2
    for n in range(5, 13):
        assert stabilizer_dimension(generate("cycle", n)) == 0
    # K_2 is the 2-qubit boundary with oracle-frozen value 3; the n-1 law
    # applies from n = 3.
    assert stabilizer_dimension(generate("complete", 2)) == 3
    for n in range(3, 11):
        assert stabilizer_dimension(generate("complete", n)) == n - 1
    for n in range(4, 13):
        assert stabilizer_dimension(generate("path", n)) == 2


@criterion(9, "format round trips on 500 random graphs (n <= 20); byte-stable machine reports")
def test_criterion_9_format_fidelity(capsys):
    for i in range(500):
        n = 1 + i % 20
        p = (0.2, 0.5, 0.8)[i % 3]
        g = generate("gnp", n, p=p, seed=7000 + i)
        assert parse_graph6(encode_graph6(g)) == g
        assert parse_edge_list(encode_edge_list(g)) == g
    outputs = []
    for _ in range(2):
        assert run(["analyze", "--family", "tree", "--n", "10", "--seed", "2",
                    "--format", "machine"]) == 0
        assert run(["verify", "--family", "complete", "--n", "7", "--format", "machine"]) == 0
        assert run(["analyze", "--graph6", "A_", "--format", "machine"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
