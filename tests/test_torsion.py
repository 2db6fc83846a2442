"""Torsion tensors of all levels, brackets of operator fields, the obstruction
tensor, and the commuting-triangular test-bed generator.

The strongest checks here recompute each tensor by a second, independent route
(direct evaluation on vector-field arguments, in ``reference``) and require
exact agreement with the contraction-based implementation.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from haantjes.geometry import LOWER_J, OperatorField, Tensor12, contract
from haantjes.polyring import Poly
from haantjes.torsion import (
    fn_bracket,
    fn_bracket_level,
    fn_bracket_step,
    nijenhuis,
    tensor_t,
    torsion_level,
    torsion_step,
)

from conftest import random_operator, random_point, random_poly
from reference import combine, commuting_triangular_pair, fn_bracket_step_full, torsion_step_full
from reference import fn_bracket_direct, level_step_direct, nijenhuis_direct, tensor_t_direct
from reference import total_degree


# ----- level-1 torsion ---------------------------------------------------------


def test_torsion_of_identity_vanishes():
    assert nijenhuis(OperatorField.identity(3)).is_zero


def test_torsion_of_constant_operator_vanishes():
    c = OperatorField([["2", "1", "0"], ["0", "3", "1"], ["0", "0", "5"]])
    assert nijenhuis(c).is_zero


def test_torsion_matches_direct_bracket_evaluation():
    rng = random.Random(41)
    for n in (2, 3, 4):
        L = random_operator(rng, n, max_degree=2)
        assert nijenhuis(L) == nijenhuis_direct(L)


def test_torsion_is_antisymmetric():
    rng = random.Random(43)
    L = random_operator(rng, 3)
    t = nijenhuis(L)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert t.component(i, j, k) == -t.component(i, k, j)


def test_torsion_scales_quadratically():
    rng = random.Random(45)
    L = random_operator(rng, 3, max_degree=1)
    c = Fraction(3)
    assert nijenhuis(c * L) == combine((9, nijenhuis(L)))


def test_level_one_equals_nijenhuis():
    rng = random.Random(47)
    L = random_operator(rng, 3, max_degree=1)
    assert torsion_level(L, 1) == nijenhuis(L)


def test_torsion_level_requires_positive_level():
    with pytest.raises(ValueError):
        torsion_level(OperatorField.identity(2), 0)


# ----- the level recursion -------------------------------------------------------


def test_level_recursion_matches_direct_evaluation():
    rng = random.Random(49)
    for n in (2, 3, 4):
        L = random_operator(rng, n, max_degree=2)
        t1 = nijenhuis(L)
        assert torsion_step(t1, L) == level_step_direct(t1, L)


def test_higher_levels_iterate_the_step():
    rng = random.Random(51)
    L = random_operator(rng, 3, max_degree=1)
    t2 = torsion_level(L, 2)
    assert torsion_level(L, 3) == torsion_step(t2, L)


def test_level_two_is_antisymmetric():
    rng = random.Random(53)
    L = random_operator(rng, 3)
    h = torsion_level(L, 2)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert h.component(i, j, k) == -h.component(i, k, j)


def test_eigenvalue_shift_leaves_level_two_invariant():
    rng = random.Random(55)
    for n in (3, 4):
        L = random_operator(rng, n, max_degree=1)
        f = random_poly(rng, n, 2)
        shifted = L + f * OperatorField.identity(n, nvars=n)
        assert torsion_level(shifted, 2) == torsion_level(L, 2)


# ----- bracket of two operator fields --------------------------------------------


def test_bracket_of_equal_arguments_is_twice_the_torsion():
    rng = random.Random(57)
    for n in (2, 3):
        L = random_operator(rng, n)
        assert fn_bracket(L, L) == combine((2, nijenhuis(L)))


def test_bracket_is_symmetric_in_its_arguments():
    rng = random.Random(59)
    K = random_operator(rng, 3, max_degree=1)
    L = random_operator(rng, 3, max_degree=1)
    assert fn_bracket(K, L) == fn_bracket(L, K)


def test_bracket_is_additive_in_each_argument():
    rng = random.Random(61)
    K = random_operator(rng, 3, max_degree=1)
    K2 = random_operator(rng, 3, max_degree=1)
    L = random_operator(rng, 3, max_degree=1)
    assert fn_bracket(K + K2, L) == combine((1, fn_bracket(K, L)), (1, fn_bracket(K2, L)))


def test_bracket_levels_collapse_to_torsion_levels_on_the_diagonal():
    rng = random.Random(63)
    for n in (3, 2, 4, 5):
        L = random_operator(rng, n, max_degree=1)
        for m in (1, 2, 3):
            assert fn_bracket_level(L, L, m) == combine((2 ** m, torsion_level(L, m)))


def test_bracket_matches_direct_bracket_evaluation():
    rng = random.Random(66)
    for n in (2, 3, 4):
        K = random_operator(rng, n, max_degree=2)
        L = random_operator(rng, n, max_degree=2)
        assert fn_bracket(K, L) == fn_bracket_direct(K, L)


def test_bracket_level_requires_matching_dimensions():
    rng = random.Random(65)
    with pytest.raises(ValueError):
        fn_bracket(random_operator(rng, 2), random_operator(rng, 3))


# ----- 2-forms on j < k against the full n^3 reference ------------------------------


def _reference_torsion(L: OperatorField) -> list:
    """Torsion levels 1-3: the direct Nijenhuis torsion, then full-component steps."""
    levels = [nijenhuis_direct(L)]
    for _ in range(2):
        levels.append(torsion_step_full(levels[-1], L))
    return levels


def _reference_bracket(K: OperatorField, L: OperatorField) -> list:
    """Bracket levels 1-2: the direct bracket, then one full-component step."""
    level1 = fn_bracket_direct(K, L)
    return [level1, fn_bracket_step_full(level1, K, L)]


def _is_antisymmetric(T: Tensor12) -> bool:
    c, r = T.comps, range(T.dim)
    return all(c[i][j][k] == -c[i][k][j] for i in r for j in r for k in r)


def test_levels_equal_the_full_reference_in_dims_2_to_5():
    for n, degree in ((2, 2), (3, 2), (4, 2), (5, 1)):
        rng = random.Random(80 + n)
        K, L = random_operator(rng, n, degree), random_operator(rng, n, degree)
        for m, T in enumerate(_reference_torsion(L), start=1):
            assert torsion_level(L, m) == T
        for m, T in enumerate(_reference_bracket(K, L), start=1):
            assert fn_bracket_level(K, L, m) == T


def test_steps_reject_a_tensor_that_is_not_antisymmetric():
    rng = random.Random(85)
    K, L = random_operator(rng, 3, max_degree=1), random_operator(rng, 3, max_degree=1)
    r = range(3)

    def single(at):  # x1 in one component, zero elsewhere
        return Tensor12([[[Poly.variable(1, 3) if (i, j, k) == at else 0 for k in r] for j in r]
                         for i in r])

    for T in (contract((nijenhuis(L), L, LOWER_J)), single((0, 1, 1)), single((0, 0, 1))):
        assert not _is_antisymmetric(T)
        with pytest.raises(ValueError, match="antisymmetric"):
            torsion_step(T, L)
        with pytest.raises(ValueError, match="antisymmetric"):
            fn_bracket_step(T, K, L)


def _generated_polys(st, n: int):
    """Polynomials in x1..xn with at most two terms of degree <= 2."""
    monomials = st.lists(st.integers(1, n), max_size=2).map(
        lambda vs: tuple((v, vs.count(v)) for v in sorted(set(vs)))
    )
    return st.dictionaries(monomials, st.integers(-3, 3), max_size=2).map(lambda t: Poly(n, t))


def _generated_operators(st, n: int):
    """Operators on Q^n whose entries are ``_generated_polys``."""
    rows = st.lists(_generated_polys(st, n), min_size=n, max_size=n)
    return st.lists(rows, min_size=n, max_size=n).map(lambda m: OperatorField(m, nvars=n))


def _generated_two_forms(st, n: int):
    """Vector-valued 2-forms on Q^n: generated components for j < k, their
    negatives for j > k, zero on the diagonal."""
    slots = [(i, j, k) for i in range(n) for j in range(n) for k in range(j + 1, n)]

    def two_form(polys):
        c = [[[Poly.zero(n)] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), p in zip(slots, polys):
            c[i][j][k], c[i][k][j] = p, -p
        return Tensor12(c, nvars=n)

    return st.lists(_generated_polys(st, n), min_size=len(slots), max_size=len(slots)).map(two_form)


def _operator_tuples(st, size: int):
    """``size`` generated operators of one dimension, 2 to 4."""
    return st.integers(2, 4).flatmap(lambda n: st.tuples(*[_generated_operators(st, n)] * size))


def test_levels_are_2_forms_on_generated_operators():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(_operator_tuples(st, 2))
    def check(pair):
        K, L = pair
        for m, T in enumerate(_reference_torsion(L), start=1):
            assert _is_antisymmetric(T) and torsion_level(L, m) == T
        for m, T in enumerate(_reference_bracket(K, L), start=1):
            assert _is_antisymmetric(T) and fn_bracket_level(K, L, m) == T

    check()


def test_bracket_is_symmetric_and_additive_on_generated_operators():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(_operator_tuples(st, 3))
    def check(triple):
        K, L1, L2 = triple
        for m, T in enumerate(_reference_bracket(L1, K), start=1):
            assert fn_bracket_level(K, L1, m) == T
        parts = [(1, fn_bracket_direct(K, L1)), (1, fn_bracket_direct(K, L2))]
        assert fn_bracket(K, L1 + L2) == combine(*parts)

    check()


def test_steps_equal_the_full_reference_on_generated_2_forms():
    """The factored steps need only that T is a 2-form, not that it is a level
    of some operator; ``reference`` steps every component of any T."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    cases = st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            _generated_two_forms(st, n), _generated_operators(st, n), _generated_operators(st, n)
        )
    )

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(cases)
    def check(case):
        T, K, L = case
        hypothesis.assume(K != L)
        assert torsion_step(T, L) == torsion_step_full(T, L)
        bracket = fn_bracket_step_full(T, K, L)
        assert fn_bracket_step(T, K, L) == bracket and fn_bracket_step(T, L, K) == bracket

    check()


# ----- obstruction tensor ---------------------------------------------------------


def test_obstruction_tensor_matches_direct_evaluation():
    rng = random.Random(67)
    for _ in range(3):
        L = random_operator(rng, 4, max_degree=2)
        assert tensor_t(L) == tensor_t_direct(L)


def test_obstruction_tensor_is_shift_invariant():
    rng = random.Random(69)
    L = random_operator(rng, 4, max_degree=1)
    f = random_poly(rng, 4, 2)
    shifted = L + f * OperatorField.identity(4, nvars=4)
    assert tensor_t(shifted) == tensor_t(L)


def test_obstruction_tensor_rejects_other_dimensions_without_force():
    rng = random.Random(71)
    L = random_operator(rng, 3)
    with pytest.raises(ValueError, match="dimension 4"):
        tensor_t(L)
    assert tensor_t(L, force=True) == tensor_t_direct(L)


# ----- pointwise evaluation from the 1-jet -----------------------------------------


def _constant_values(T: Tensor12) -> tuple:
    """The components of a tensor with constant components, as nested tuples."""
    return tuple(
        tuple(tuple(c.constant_value() for c in col) for col in plane) for plane in T.comps
    )


def test_tensors_at_a_point_equal_the_evaluated_symbolic_tensors():
    rng = random.Random(73)
    for n, degree in ((2, 2), (3, 2), (4, 1)):
        K = random_operator(rng, n, max_degree=degree)
        L = random_operator(rng, n, max_degree=degree)
        p = random_point(rng, n)
        for level in (1, 2, 3):
            assert _constant_values(torsion_level(L, level, at=p)) == (
                torsion_level(L, level).evaluate(p)
            )
        for level in (1, 2):
            assert _constant_values(fn_bracket_level(K, L, level, at=p)) == (
                fn_bracket_level(K, L, level).evaluate(p)
            )
        assert _constant_values(tensor_t(L, force=True, at=p)) == (
            tensor_t(L, force=True).evaluate(p)
        )


def _parametric_operator(rng: random.Random, n: int) -> OperatorField:
    """A random operator in x1..xn and two parameters x{n+1}, x{n+2}; every
    entry has a term parameter * coordinate, so its derivatives keep a parameter."""
    nv = n + 2

    def entry():
        mixed = Poly.variable(rng.choice((n + 1, n + 2)), nv) * Poly.variable(rng.randint(1, n), nv)
        return random_poly(rng, nv, max_degree=2) + mixed

    return OperatorField([[entry() for _ in range(n)] for _ in range(n)], nvars=nv)


def test_tensors_at_a_point_set_only_the_coordinates():
    rng = random.Random(77)
    n = 3
    K, L = _parametric_operator(rng, n), _parametric_operator(rng, n)
    p = (Fraction(0), Fraction(-5, 3), Fraction(2))  # one zero, one non-integer coordinate
    coordinates = dict(enumerate(p, start=1))

    def assert_coordinates_set(at_point: Tensor12, symbolic: Tensor12):
        assert at_point.nvars == symbolic.nvars == n + 2
        for a_plane, s_plane in zip(at_point.comps, symbolic.comps):
            for a_col, s_col in zip(a_plane, s_plane):
                for a, s in zip(a_col, s_col):
                    assert a == s.set_vars(coordinates)

    assert_coordinates_set(nijenhuis(L, at=p), nijenhuis(L))
    assert_coordinates_set(fn_bracket(K, L, at=p), fn_bracket(K, L))
    for level in (1, 2, 3):
        assert_coordinates_set(torsion_level(L, level, at=p), torsion_level(L, level))
    for level in (1, 2):
        assert_coordinates_set(fn_bracket_level(K, L, level, at=p), fn_bracket_level(K, L, level))
    T = tensor_t(L, force=True, at=p)
    assert any(v > n for plane in T.comps for col in plane for c in col
               for mono in c.terms for v, _ in mono)  # the parameters stay symbolic
    assert_coordinates_set(T, tensor_t(L, force=True))


def test_tensors_without_a_point_substitute_nothing(monkeypatch):
    calls = []
    set_vars = Poly.set_vars

    def counted(self, values):
        calls.append(values)
        return set_vars(self, values)

    monkeypatch.setattr(Poly, "set_vars", counted)
    L = random_operator(random.Random(79), 4, max_degree=1)
    torsion_level(L, 2)
    tensor_t(L)
    assert calls == []
    tensor_t(L, at=(0, 1, 0, 0))  # the counter sees the substitutions of a point
    assert calls


def test_tensors_reject_a_point_of_the_wrong_length():
    rng = random.Random(75)
    K, L = random_operator(rng, 3), random_operator(rng, 3)
    for at in ((1, 2), (1, 2, 3, 4)):
        for compute in (
            lambda: nijenhuis(L, at=at),
            lambda: torsion_level(L, 2, at=at),
            lambda: fn_bracket(K, L, at=at),
            lambda: fn_bracket_level(K, L, 2, at=at),
            lambda: tensor_t(L, force=True, at=at),
        ):
            with pytest.raises(ValueError, match="coordinates"):
                compute()


# ----- commuting triangular pairs -------------------------------------------------


def test_commuting_pair_commutes_exactly():
    for n in (3, 4, 5):
        K, L = commuting_triangular_pair(n, seed=12)
        assert K @ L == L @ K


def test_commuting_pair_is_strictly_upper_triangular():
    K, L = commuting_triangular_pair(4, seed=3)
    for M in (K, L):
        for i in range(1, 5):
            for j in range(1, i + 1):
                assert M.entry(i, j).is_zero


def test_commuting_pair_respects_the_degree_bound():
    for seed in range(5):
        K, L = commuting_triangular_pair(4, seed=seed, degree=2)
        for M in (K, L):
            for i in range(1, 5):
                for j in range(1, 5):
                    assert total_degree(M.entry(i, j)) <= 2


def test_commuting_pair_is_reproducible_and_seed_sensitive():
    # The 300 pairs of acceptance criterion 8, printed, hash to the value they
    # had when the generator moved from the library into ``reference``.
    text = "".join(f"{K}\n{L}\n" for n in (3, 4, 5) for seed in range(100)
                   for K, L in [commuting_triangular_pair(n, seed, degree=2)])
    digest = "9abfa307fe0f6d3292ce39badef3fe9b1813277156a1c08bca327e1ea3dfdb5e"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    a = commuting_triangular_pair(3, seed=8)
    b = commuting_triangular_pair(3, seed=8)
    c = commuting_triangular_pair(3, seed=9)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[0] != c[0] or a[1] != c[1]
