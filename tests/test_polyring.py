"""Exact polynomial arithmetic, parsing, printing, and rational linear algebra."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from functools import cmp_to_key

import pytest

from haantjes import polyring
from haantjes.polyring import Poly, PolyParseError, RationalMatrix, sum_of_products
from haantjes.torsion import tensor_t

from conftest import random_operator, random_poly
from reference import evaluate_term_by_term, grlex_cmp, total_degree


# ----- construction and canonical form ---------------------------------------


def test_zero_polynomial_has_no_terms():
    z = Poly.zero(3)
    assert z.is_zero
    assert z.terms == {}
    assert str(z) == "0"


def test_zero_coefficients_are_dropped_on_construction():
    p = Poly(2, {((1, 1),): 0, ((2, 1),): 5})
    assert p == Poly(2, {((2, 1),): 5})
    assert ((1, 1),) not in p.terms


def test_constant_and_variable_constructors():
    c = Poly.constant(Fraction(7, 2), 4)
    assert c.is_constant and c.constant_value() == Fraction(7, 2)
    x3 = Poly.variable(3, 4)
    assert str(x3) == "x3"
    assert total_degree(x3) == 1
    with pytest.raises(ValueError, match="not constant"):
        x3.constant_value()


def test_printing_is_graded_lexicographic():
    # higher total degree first; ties broken lexicographically with x1 > x2 > x3
    p = Poly.parse("x3 + x1*x2 + 1 + x2^2 + x1", 3)
    assert str(p) == "x1*x2 + x2^2 + x1 + x3 + 1"


def test_equal_polynomials_print_identically():
    p = Poly.parse("(x1 + x2)^2", 2)
    q = Poly.parse("x1^2 + 2*x1*x2 + x2^2", 2)
    assert p == q
    assert str(p) == str(q)


# ----- parsing ----------------------------------------------------------------


def test_parse_zero():
    assert Poly.parse("0", 3).is_zero


def test_parse_example_matrix_entry():
    p = Poly.parse("44*x1^2 - 16*x1*x2 + 43*x2 + 45*x3", 3)
    assert p.terms[((1, 2),)] == 44
    assert p.terms[((1, 1), (2, 1))] == -16
    assert p.terms[((2, 1),)] == 43
    assert p.terms[((3, 1),)] == 45


def test_parse_cancellation_yields_constant():
    p = Poly.parse("x1*x2 - x2*x1 + 5", 3)
    assert p.is_constant and p.constant_value() == 5


def test_parse_rational_literals_and_parentheses():
    p = Poly.parse("1/2*(x1 + x2)^2 - 3/4", 2)
    assert p.terms[((1, 1), (2, 1))] == 1
    assert p.terms[()] == Fraction(-3, 4)


def test_parse_accepts_caret_and_double_star_powers():
    assert Poly.parse("x1^3", 1) == Poly.parse("x1**3", 1)


def test_parse_roundtrips_through_printer():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng, 3, max_degree=3, max_terms=4)
        assert Poly.parse(str(p), 3) == p


def test_parse_reports_position_of_syntax_error():
    with pytest.raises(PolyParseError, match=r"position"):
        Poly.parse("x1 + * x2", 3)


def test_parse_rejects_variable_out_of_range():
    with pytest.raises(PolyParseError, match="x5 out of range"):
        Poly.parse("x5", 3)


def test_parse_rejects_zero_denominator():
    with pytest.raises(PolyParseError, match="zero denominator"):
        Poly.parse("1/0", 2)


def test_parse_rejects_empty_input():
    with pytest.raises(PolyParseError, match="empty"):
        Poly.parse("   ", 2)


def test_parse_rejects_negative_exponent():
    with pytest.raises(PolyParseError):
        Poly.parse("x1^-2", 2)


# ----- ring operations --------------------------------------------------------


def test_addition_cancels_exactly():
    p = Poly.parse("x1 + x2", 3)
    q = Poly.parse("-x2", 3)
    assert p + q == Poly.variable(1, 3)


def test_difference_of_squares():
    p = Poly.parse("x1 + 1", 1)
    q = Poly.parse("x1 - 1", 1)
    assert p * q == Poly.parse("x1^2 - 1", 1)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        r = random_poly(rng, 3)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_power_matches_repeated_multiplication(monkeypatch):
    # and builds no product of higher degree than the power itself
    p = Poly.parse("x1 - 1/2*x2 + 3", 2)
    products = [Poly.constant(1, 2)]
    for _ in range(9):
        products.append(products[-1] * p)
    kernel, degrees = polyring._sum_of_products, []

    def recording(pairs, nvars):
        pairs = list(pairs)
        degrees.extend(total_degree(a) + total_degree(b) for a, b in pairs)
        return kernel(pairs, nvars)

    monkeypatch.setattr(polyring, "_sum_of_products", recording)
    for e, product in enumerate(products):
        degrees.clear()
        assert p ** e == product
        assert max(degrees, default=0) <= e * total_degree(p), e


def test_nvars_mismatch_is_rejected():
    with pytest.raises(ValueError):
        Poly.variable(1, 2) + Poly.variable(1, 3)


def test_scalar_comparison():
    assert Poly.constant(5, 3) == 5
    assert Poly.zero(3) == 0
    assert Poly.variable(1, 3) != 5


# ----- differentiation and evaluation ----------------------------------------


def test_partial_derivatives():
    p = Poly.parse("x1^2*x2 + 3*x2", 2)
    assert p.diff(1) == Poly.parse("2*x1*x2", 2)
    assert Poly.parse("x2^3", 2).diff(2) == Poly.parse("3*x2^2", 2)
    assert Poly.variable(3, 3).diff(3) == Poly.constant(1, 3)


def test_derivative_index_out_of_range():
    with pytest.raises(ValueError):
        Poly.variable(1, 2).diff(3)


def test_leibniz_rule_on_random_polynomials():
    rng = random.Random(13)
    for _ in range(25):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        k = rng.randint(1, 3)
        assert (p * q).diff(k) == p.diff(k) * q + p * q.diff(k)


def test_evaluation_is_exact():
    p = Poly.parse("x1^2 + x2", 2)
    assert p((2, 3)) == 7
    assert Poly.zero(2)((9, -4)) == 0
    assert Poly.parse("1/3*x1", 1)((Fraction(1, 2),)) == Fraction(1, 6)


def test_evaluation_arity_is_checked():
    with pytest.raises(ValueError):
        Poly.variable(1, 2)((1,))


def test_substitute_composes_polynomials():
    p = Poly.parse("x1^2 + x2", 2)
    image = {1: Poly.parse("x1 + x2", 2), 2: Poly.parse("x1*x2", 2)}
    assert p.substitute(image) == Poly.parse("(x1 + x2)^2 + x1*x2", 2)


def test_set_vars_freezes_a_subset_of_variables():
    p = Poly.parse("x1*x3 + x2", 3)
    assert p.set_vars({3: Fraction(2)}) == Poly.parse("2*x1 + x2", 3)


def test_poly_rejects_a_ring_without_variables():
    for nvars in (0, -4, 2.5):
        with pytest.raises(ValueError, match="nvars must be a positive integer"):
            Poly(nvars)


# ----- rational matrices ------------------------------------------------------


def test_matrix_prints_right_aligned_columns():
    m = RationalMatrix([[1, Fraction(-1, 2)], [-10, 3], [Fraction(7, 3), 0]])
    assert str(m) == "[   1  -1/2 ]\n[ -10     3 ]\n[ 7/3     0 ]"
    assert str(RationalMatrix.zero(0, 3)) == "[]"


def test_rref_of_identity_is_identity():
    m = RationalMatrix.identity(3)
    assert m.rref() == m
    assert m.rank == 3


def test_rref_of_zero_matrix():
    m = RationalMatrix.zero(2, 4)
    assert m.rref() == m
    assert m.rank == 0


def test_empty_matrix_keeps_its_width():
    m = RationalMatrix.zero(0, 5)
    assert m.shape == (0, 5)
    assert m.rank == 0
    assert len(m.nullspace_basis()) == 5
    assert m.transpose().shape == (5, 0)
    assert m.stack(RationalMatrix([[1, 0, 0, 0, 0]])).shape == (1, 5)
    assert m != RationalMatrix.zero(0, 4)


def test_width_mismatch_raises_even_when_one_side_is_empty():
    empty, row = RationalMatrix.zero(0, 3), RationalMatrix([[1, 0]])
    for a, b in ((empty, row), (row, empty)):
        for compare in (a.rowspace_equal, a.rowspace_contains, a.stack):
            with pytest.raises(ValueError, match="column count mismatch"):
                compare(b)


def test_single_row_system_has_rank_one():
    m = RationalMatrix([[3, -3, 0, 0]])
    assert m.rank == 1
    assert m.rref() == RationalMatrix([[1, -1, 0, 0]])


def test_rank_equals_rank_of_transpose():
    rng = random.Random(17)
    for _ in range(15):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        m = RationalMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(cols)]
                            for _ in range(rows)])
        assert m.rank == m.transpose().rank


def test_rowspace_equal_under_row_permutation_and_scaling():
    m = RationalMatrix([[1, 2, 3], [0, 1, 1]])
    p = RationalMatrix([[0, 5, 5], [2, 4, 6]])
    assert m.rowspace_equal(p)
    assert m.rowspace_contains(p) and p.rowspace_contains(m)


def test_rowspace_equal_is_an_equivalence_relation():
    rng = random.Random(19)
    mats = [RationalMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                            for _ in range(3)]) for _ in range(6)]
    for a in mats:
        assert a.rowspace_equal(a)
        for b in mats:
            assert a.rowspace_equal(b) == b.rowspace_equal(a)
            for c in mats:
                if a.rowspace_equal(b) and b.rowspace_equal(c):
                    assert a.rowspace_equal(c)


def test_strict_rowspace_containment():
    big = RationalMatrix([[1, 0, 0], [0, 1, 0]])
    small = RationalMatrix([[1, 1, 0]])
    assert big.rowspace_contains(small)
    assert not small.rowspace_contains(big)
    assert not big.rowspace_equal(small)


def test_nullspace_vectors_annihilate_the_matrix():
    m = RationalMatrix([[1, 2, 0, 1], [0, 0, 1, -1]])
    basis = m.nullspace_basis()
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[j] * v[j] for j in range(4)) == 0 for row in m.rows)


def test_inverse_of_invertible_matrix():
    m = RationalMatrix([[2, 1], [1, 1]])
    assert m @ m.inverse() == RationalMatrix.identity(2)
    assert m.inverse() @ m == RationalMatrix.identity(2)


def test_inverse_of_singular_matrix_is_rejected():
    with pytest.raises(ValueError, match="singular"):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_matrix_vector_product():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m.mul_vector((Fraction(1), Fraction(-1))) == (Fraction(-1), Fraction(-1))


# ----- the integer kernel against the tuple/Fraction reference ----------------
#
# ``_sum_of_products_reference`` is the loop the kernel replaced: monomials as
# sorted (variable, exponent) tuples merged pair by pair, coefficients as
# Fractions.  The kernel must agree with it term for term.


def _mono_mul(a, b):
    """Merge two sorted (variable, exponent) tuples, adding exponents."""
    out = dict(a)
    for var, exp in b:
        out[var] = out.get(var, 0) + exp
    return tuple(sorted(out.items()))


def _sum_of_products_reference(pairs):
    acc = {}
    for p, q in pairs:
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in acc.items() if c}


def _diff_reference(terms, var):
    out = {}
    for mono, c in terms.items():
        exps = dict(mono)
        e = exps.pop(var, 0)
        if e > 1:
            exps[var] = e - 1
        if e:
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, Fraction(0)) + c * e
    return {m: c for m, c in out.items() if c}


def _set_vars_reference(terms, values):
    out = {}
    for mono, c in terms.items():
        kept = []
        for var, exp in mono:
            if var in values:
                c *= Fraction(values[var]) ** exp
            else:
                kept.append((var, exp))
        out[tuple(kept)] = out.get(tuple(kept), Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


MIXED = (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4), Fraction(5, 6), Fraction(-7, 9),
         Fraction(2), Fraction(-1), Fraction(1, 8))


def _random_rational_poly(rng, variables, nvars, max_degree=3, max_terms=4):
    """A sparse polynomial over ``variables`` with mixed-denominator coefficients,
    built by ring arithmetic so that it starts out in the packed form."""
    p = Poly.zero(nvars)
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.constant(rng.choice(MIXED), nvars)
        for _ in range(rng.randint(0, max_degree)):
            term = term * Poly.variable(rng.choice(variables), nvars)
        p = p + term
    return p


def _check_kernel(pairs, nvars):
    result = sum_of_products(pairs, nvars)
    expected = _sum_of_products_reference(pairs)
    assert result.terms == expected
    assert result == Poly(nvars, expected)
    assert str(result) == str(Poly(nvars, expected))
    if expected:
        assert result != Poly(nvars, {m: c / 2 for m, c in expected.items()})
    return result, expected


def test_kernel_matches_the_reference_on_mixed_denominators():
    rng = random.Random(23)
    variables = (1, 2, 3, 4)
    for _ in range(60):
        pairs = [(_random_rational_poly(rng, variables, 4), _random_rational_poly(rng, variables, 4))
                 for _ in range(rng.randint(0, 6))]
        _check_kernel(pairs, 4)


def test_kernel_cancels_to_zero_exactly():
    rng = random.Random(29)
    for _ in range(20):
        p = _random_rational_poly(rng, (1, 2, 3), 3)
        q = _random_rational_poly(rng, (1, 2, 3), 3)
        half = Fraction(1, 2)
        for pairs in ([(p, q), (-p, q)], [(p * half, q), (p, q * -half)],
                      [(p, q), (q, p), (-2 * q, p)]):
            result = sum_of_products(pairs, 3)
            assert result.is_zero and result == 0 and result == Poly.zero(3)
            assert str(result) == "0"
            assert result.terms == {}
            assert total_degree(result) == 0 and result.constant_value() == 0


def test_kernel_matches_the_reference_in_the_wide_linearizer_ring():
    # n + n^3 + n = 135 variables at n = 5; x130 is the last coefficient a^5_{5;5}.
    rng = random.Random(31)
    nvars = 135
    variables = (1, 2, 3, 4, 5, 64, 127, 128, 129, 130)
    for _ in range(30):
        pairs = [(_random_rational_poly(rng, variables, nvars, max_degree=2),
                  _random_rational_poly(rng, variables, nvars, max_degree=2))
                 for _ in range(rng.randint(1, 5))]
        result, expected = _check_kernel(pairs, nvars)
        assert result == Poly(nvars, expected)
    corner = Poly.variable(130, nvars) * Poly.variable(1, nvars) ** 2
    assert str(corner) == "x1^2*x130"


def test_kernel_results_stay_usable_after_terms_is_read():
    rng = random.Random(37)
    for _ in range(30):
        nvars = rng.choice((3, 130))
        variables = (1, 2, 3) if nvars == 3 else (1, 2, 3, 129, 130)
        pairs = [(_random_rational_poly(rng, variables, nvars),
                  _random_rational_poly(rng, variables, nvars)) for _ in range(3)]
        result = sum_of_products(pairs, nvars)
        terms = dict(result.terms)  # decodes the result
        var = rng.choice(variables)
        assert result.diff(var).terms == _diff_reference(terms, var)
        values = {v: rng.choice(MIXED + (0,)) for v in rng.sample(variables, 2)}
        assert result.set_vars(values).terms == _set_vars_reference(terms, values)
        assert str(result) == str(Poly(nvars, terms))
        assert result == Poly(nvars, terms) and Poly(nvars, terms) == result
        other = _random_rational_poly(rng, variables, nvars)
        again = sum_of_products([(result, other), (other, result)], nvars)
        assert again.terms == _sum_of_products_reference([(result, other), (other, result)])
        assert result.terms == terms  # the operands were not changed


def test_terms_is_a_view_that_leaves_the_packed_form_alone(monkeypatch):
    p = Poly.parse("1/2*x1^2*x3 - x2 + 3", 3)
    num = p._num
    expected = {((1, 2), (3, 1)): Fraction(1, 2), ((2, 1),): -1, (): 3}
    view = p.terms
    assert len(view) == 3 and view and not Poly.zero(3).terms
    assert sorted(view) == sorted(expected) and dict(view.items()) == expected
    assert view[((2, 1),)] == -1 and ((1, 1),) not in view and view.get(((1, 1),)) is None
    assert dict(view) == expected and view == expected and expected == view
    assert p._num is num and p == Poly(3, expected)
    # counting decodes nothing
    monkeypatch.setattr(polyring, "_decode", lambda m, width: pytest.fail("decoded"))
    assert len(p.terms) == 3 and p.terms and not Poly.zero(3).terms


def test_terms_lookup_does_not_alias_an_overflowing_monomial():
    # x1^300 packed into 8-bit fields would read as x1^44*x2
    p = Poly.parse("x1^44*x2", 2)
    assert p._width == 8
    with pytest.raises(KeyError):
        p.terms[((1, 300),)]
    assert ((1, 300),) not in p.terms and p.terms[((1, 44), (2, 1))] == 1


def test_terms_lookups_decode_linearly_and_reject_malformed_keys(monkeypatch):
    p = Poly.parse("(1 + x1 - 2*x2 + 1/3*x3)^5", 3)
    expected, n = dict(p.terms.items()), len(p.terms)
    decode, calls = polyring._decode, []
    monkeypatch.setattr(polyring, "_decode", lambda m, width: calls.append(m) or decode(m, width))
    assert dict(p.terms) == expected and len(calls) <= 2 * n
    calls.clear()
    assert list(p.terms.values()) == list(expected.values()) and len(calls) <= 2 * n
    # unsorted, repeated, zero-exponent, out-of-range or non-integer keys are
    # absent, never aliases of a stored monomial and never a TypeError
    for key in (((2, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 0),), ((0, 1),), ((4, 1),),
                ((1, 1.0),), ((1, 1, 1),), [(1, 1)], ([1, 1],), "x1", None):
        assert key not in p.terms
    assert ((1, 2),) in p.terms and ((1, 1), (2, 1)) in p.terms


def test_terms_is_read_only():
    p, q = Poly.parse("x1", 1), Poly.parse("x1 + 1", 1)
    with pytest.raises(TypeError):
        p.terms[()] = 0
    with pytest.raises(AttributeError):
        q.terms.clear()
    assert p == Poly.parse("x1", 1) and str(p) == "x1"
    assert q == Poly.parse("x1 + 1", 1) and str(q) == "x1 + 1"


def test_the_views_of_a_tensor_keep_no_decoded_copy():
    T = tensor_t(random_operator(random.Random(69), 4, max_degree=1))
    comps = [c for plane in T.comps for col in plane for c in col]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        views = [c.terms for c in comps]
        for view in views:  # read every view in every way
            assert len(list(view)) == len(dict(view.items())) == len(view)
            assert all(mono in view for mono in list(view)[:1])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a view costs a few dozen bytes; a decoded copy, hundreds per term
    assert sum(len(view) for view in views) > 100 * len(views)
    assert retained < 256 * len(views)


def test_exponent_fields_widen_instead_of_wrapping():
    for e in (40000, 70000):
        x = Poly.parse(f"x1^{e}", 2)
        assert (x * x).terms == {((1, 2 * e),): 1}
        assert sum_of_products([(x, x)], 2).terms == _sum_of_products_reference([(x, x)])
    # across the narrowest field: a wrapped x1^300 would read as x1^44*x2
    a, b = Poly.parse("x1^200*x2 + 1", 3), Poly.parse("x1^100 - x3", 3)
    product = a * b
    assert product.terms == _sum_of_products_reference([(a, b)])
    assert str(product) == "x1^300*x2 - x1^200*x2*x3 + x1^100 - x3"
    assert product.diff(1).terms == _diff_reference(product.terms, 1)
    assert product == a * b and product - a * b == 0
    narrow = Poly.parse("x2 + x3", 3)
    mixed = sum_of_products([(narrow, narrow), (a, b)], 3)
    assert mixed.terms == _sum_of_products_reference([(narrow, narrow), (a, b)])
    assert Poly.parse("x1^255", 1) * Poly.parse("x1", 1) == Poly.parse("x1^256", 1)


def test_kernel_matches_the_reference_on_generated_inputs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    monomials = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 300)), max_size=3).map(
        lambda pairs: tuple(sorted(dict(pairs).items())))
    polys = st.dictionaries(monomials, coefficients, max_size=4).map(lambda t: Poly(4, t))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(st.tuples(polys, polys), max_size=4))
    def check(pairs):
        _check_kernel(pairs, 4)

    check()


# ----- exact division ------------------------------------------------------------


def test_exact_quotient_inverts_multiplication_on_generated_inputs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    monomials = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 130)), max_size=3).map(
        lambda pairs: tuple(sorted(dict(pairs).items())))
    polys = st.dictionaries(monomials, coefficients, max_size=4).map(lambda t: Poly(3, t))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(polys, polys)
    def check(p, q):
        hypothesis.assume(not q.is_zero)
        assert (p * q).exact_quotient(q) == p
        if not p.is_zero:
            assert (p * q).exact_quotient(p) == q

    check()


def test_exact_quotient_by_a_constant_scales():
    p = Poly.parse("1/2*x1^2*x3 - x2 + 3", 3)
    assert p.exact_quotient(Poly.constant(Fraction(-3, 4), 3)) == p * Fraction(-4, 3)
    assert p.exact_quotient(Poly.constant(1, 3)) == p


def test_exact_quotient_keeps_a_remainder_wider_than_eight_bits():
    # Dividing x1^200*x2 by x2 + x1^100 leaves -x1^300; at the dividend's
    # 8-bit width it would wrap into x1^44*x2, which x2 divides.
    p = Poly.parse("x1^200*x2", 3)
    with pytest.raises(ValueError, match="nonzero remainder"):
        p.exact_quotient(Poly.parse("x2 + x1^100", 3))
    for q, d in (("x1^200 - 1/3*x2", "x2 + x1^100"), ("x1^100 + x2", "x1^100 - 2*x3")):
        q, d = Poly.parse(q, 3), Poly.parse(d, 3)
        assert (q * d).exact_quotient(d) == q


def test_exact_quotient_rejects_what_does_not_divide():
    x1, x2 = Poly.variable(1, 2), Poly.variable(2, 2)
    with pytest.raises(ValueError, match="nonzero remainder"):
        (x1 + 1).exact_quotient(x2)
    with pytest.raises(ValueError, match="nonzero remainder"):
        (x1 * x1 + 1).exact_quotient(x1 + 1)
    with pytest.raises(ValueError, match="zero polynomial"):
        x1.exact_quotient(Poly.zero(2))
    with pytest.raises(ValueError, match="zero polynomial"):
        Poly.zero(2).exact_quotient(Poly.zero(2))


def test_exact_quotient_rejects_a_divisor_that_is_not_a_polynomial():
    p = Poly.parse("x1^2", 2)
    for divisor in ("x1", 2.0, None):
        with pytest.raises(TypeError, match=type(divisor).__name__):
            p.exact_quotient(divisor)
    assert p.exact_quotient(2) == p.exact_quotient(Fraction(4, 2)) == Poly.parse("1/2*x1^2", 2)
    with pytest.raises(ValueError, match="mixing polynomials"):
        p.exact_quotient(Poly.variable(1, 3))


def test_zero_divided_by_anything_is_zero():
    q = Poly.parse("x1 - 2/3*x2^5", 2)
    assert Poly.zero(2).exact_quotient(q) == 0
    assert Poly.zero(2).exact_quotient(q).is_zero


# ----- printing order and evaluation against the old loops ---------------------
#
# ``grlex_cmp`` and ``evaluate_term_by_term`` (tests/reference.py) are the
# comparator and the Fraction loop that the sort key of ``sorted_terms`` and
# the ``set_vars`` route of ``__call__`` replaced.


def _check_order_and_value(p, point):
    order, value = [m for m, _ in p.sorted_terms()], p(point)  # before .terms decodes p
    assert order == sorted(p.terms, key=cmp_to_key(grlex_cmp), reverse=True)
    assert value == evaluate_term_by_term(p, point)


def test_order_and_evaluation_match_the_old_loops_on_seeded_inputs():
    rng = random.Random(41)
    rings = ((4, (1, 2, 3, 4)), (130, (1, 2, 3, 64, 129, 130)))
    for _ in range(60):
        nvars, variables = rng.choice(rings)
        p = _random_rational_poly(rng, variables, nvars, max_terms=6)
        if rng.random() < 0.3:  # exponents beyond the narrowest field
            p = p * Poly.variable(rng.choice(variables), nvars) ** rng.choice((256, 300, 1000))
            p = p + _random_rational_poly(rng, variables, nvars)
        point = tuple(rng.choice(MIXED + (0,)) for _ in range(nvars))
        _check_order_and_value(p, point)
    for nvars in (1, 4, 130):
        point = tuple(rng.choice(MIXED) for _ in range(nvars))
        for p in (Poly.zero(nvars), Poly.constant(Fraction(-7, 9), nvars)):
            _check_order_and_value(p, point)
            assert p(point) == p.constant_value()
    for nvars, length in ((3, 2), (3, 4), (130, 129)):
        p, point = Poly.variable(1, nvars), (Fraction(1, 2),) * length
        message = f"expected {nvars} coordinates, got {length}"
        with pytest.raises(ValueError, match=message):
            p(point)
        with pytest.raises(ValueError, match=message):
            evaluate_term_by_term(p, point)


def test_order_and_evaluation_match_the_old_loops_on_generated_inputs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    exponents = st.one_of(st.integers(1, 3), st.integers(254, 300))  # ties and wide fields
    monomials = st.lists(st.tuples(st.integers(1, 4), exponents), max_size=3).map(
        lambda pairs: tuple(sorted(dict(pairs).items())))
    polys = st.dictionaries(monomials, coefficients, max_size=6).map(lambda t: Poly(4, t))
    points = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                      min_size=4, max_size=4)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(polys, points)
    def check(p, point):
        _check_order_and_value(p, point)
        _check_order_and_value(p * Fraction(1, 3), point)  # starts packed

    check()
