"""The oracle agrees with the library on small inputs, computed both ways."""

import random
from fractions import Fraction

import haantjes as lib
import pytest

import oracle
from workloads import commuting_pair, dense_operator, monomials, rand_point, terms_of


def flat(values):
    return [v for plane in values for col in plane for v in col]


@pytest.mark.parametrize("seed", range(3))
def test_tensors_at_a_point_match_the_library(seed):
    rng = random.Random(seed)
    L3 = dense_operator(lib, rng, 3, monomials(3, 2), 2)
    L4 = dense_operator(lib, rng, 4, monomials(4, 1), 1)
    p3, p4 = rand_point(rng, 3), rand_point(rng, 4)
    jet3, jet4 = oracle.jet(terms_of(L3), p3), oracle.jet(terms_of(L4), p4)
    for level in (1, 2, 3):
        assert flat(oracle.torsion_level_at(*jet3, level)) == flat(
            lib.torsion_level(L3, level).evaluate(p3))
    assert flat(oracle.tensor_t_at(*jet4)) == flat(lib.tensor_t(L4).evaluate(p4))
    K = dense_operator(lib, rng, 3, monomials(3, 1), 2)
    jetK = oracle.jet(terms_of(K), p3)
    for level in (1, 2):
        assert flat(oracle.fn_level_at(*jetK, *jet3, level)) == flat(
            lib.fn_bracket_level(K, L3, level).evaluate(p3))


def test_commuting_pairs_have_vanishing_brackets():
    rng = random.Random(5)
    for n in (3, 4):
        K, L = commuting_pair(lib, rng, n)
        assert K.compose(L) == L.compose(K)
        assert lib.fn_bracket_level(K, L, n - 1).is_zero


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("kind", ("nijenhuis", "haantjes", "level:3", "t"))
@pytest.mark.parametrize("eig", (False, True))
def test_linearized_rows_match_the_library(n, kind, eig):
    system = lib.linearized_system(n, kind, eig)
    labels, rows = oracle.system_rows(oracle.linearized_tensor(n, kind, eig),
                                      n ** 3 + (n if eig else 0))
    assert tuple(labels) == system.labels
    assert tuple(rows) == system.matrix.rows


def test_conditions_and_search_dimension_match_the_library():
    assert tuple(oracle.conditions_rows(4)) == lib.cond3_system(4).matrix.rows
    cands = lib.t_pattern_candidates()
    result = lib.search_tensor(3, cands)
    rows = [oracle.candidate_rows(3, c.base, c.powers) for c in cands]
    assert oracle.admissible_dimension(3, rows) == len(result.coefficient_basis)


def test_printed_polynomials_read_back():
    rng = random.Random(9)
    for _ in range(20):
        poly = lib.Poly(3, {m: rng.choice((-3, Fraction(5, 2), 1, -1))
                            for m in rng.sample(monomials(3, 3), 4)})
        assert oracle.parse_printed(str(poly), 3) == poly.terms
    assert oracle.parse_printed("0", 2) == {}


def test_linear_algebra():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    assert oracle.rank(rows) == 1
    assert len(oracle.nullspace(rows, 3)) == 2
    assert oracle.rowspace_contains(rows, [[Fraction(-1), Fraction(-2), Fraction(-3)]])
    assert not oracle.same_rowspace(rows, [[Fraction(1), Fraction(0), Fraction(0)]])
