"""Vector fields, operator fields, (1,2)-tensors, Lie brackets, coordinate changes."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from haantjes.geometry import (
    LOWER_J,
    LOWER_K,
    UPPER,
    AffineChange,
    OperatorField,
    Tensor12,
    VectorField,
    contract,
    contract_lower_j,
    contract_lower_k,
    contract_upper,
    lie_bracket,
    load_operator,
    operator_from_json,
    operator_to_json,
)
from haantjes.polyring import Poly, RationalMatrix

from conftest import (
    random_affine_change,
    random_operator,
    random_point,
    random_poly,
    random_vector_field,
)
from reference import apply_operator, apply_point, apply_tensor, basis_field, combine


# ----- vector fields and Lie brackets -----------------------------------------


def test_lie_bracket_of_coordinate_fields_vanishes():
    e1 = basis_field(1, 3)
    e2 = basis_field(2, 3)
    assert lie_bracket(e1, e2).components == (Poly.zero(3),) * 3


def test_lie_bracket_textbook_example():
    # [x1 d1, d2] = -d2(x1) d1 = 0 ; [x2 d1, d2] = -d1
    x2 = Poly.variable(2, 2)
    xi = VectorField((x2, Poly.zero(2)), dim=2)
    eta = basis_field(2, 2)
    assert lie_bracket(xi, eta).component(1) == -1


def test_lie_bracket_is_antisymmetric_and_bilinear():
    rng = random.Random(3)
    for _ in range(10):
        xi = random_vector_field(rng, 3)
        eta = random_vector_field(rng, 3)
        zeta = random_vector_field(rng, 3)
        assert lie_bracket(xi, eta) == combine((-1, lie_bracket(eta, xi)))
        assert lie_bracket(combine((1, xi), (1, zeta)), eta) == combine(
            (1, lie_bracket(xi, eta)), (1, lie_bracket(zeta, eta))
        )


def test_lie_bracket_satisfies_jacobi_identity():
    rng = random.Random(5)
    for _ in range(6):
        a = random_vector_field(rng, 3, max_degree=1)
        b = random_vector_field(rng, 3, max_degree=1)
        c = random_vector_field(rng, 3, max_degree=1)
        total = combine(
            (1, lie_bracket(a, lie_bracket(b, c))),
            (1, lie_bracket(b, lie_bracket(c, a))),
            (1, lie_bracket(c, lie_bracket(a, b))),
        )
        assert all(comp.is_zero for comp in total.components)


# ----- operator fields ----------------------------------------------------------


def test_identity_operator_acts_trivially():
    rng = random.Random(7)
    one = OperatorField.identity(3)
    xi = random_vector_field(rng, 3)
    assert apply_operator(one, xi) == xi


def test_jordan_block_shifts_basis_fields():
    j = OperatorField.jordan_block(3)
    assert apply_operator(j, basis_field(1, 3)).components == (Poly.zero(3),) * 3
    assert apply_operator(j, basis_field(2, 3)) == basis_field(1, 3)
    assert apply_operator(j, basis_field(3, 3)) == basis_field(2, 3)


def test_jordan_block_with_eigenvalue():
    j = OperatorField.jordan_block(2, eigenvalue=Fraction(5))
    assert j.entry(1, 1) == 5 and j.entry(2, 2) == 5 and j.entry(1, 2) == 1


def test_composition_matches_matrix_product_pointwise():
    rng = random.Random(9)
    for _ in range(5):
        a = random_operator(rng, 3, max_degree=1)
        b = random_operator(rng, 3, max_degree=1)
        pt = random_point(rng, 3)
        assert (a @ b).evaluate(pt) == a.evaluate(pt) @ b.evaluate(pt)


def test_power_matches_repeated_composition():
    rng = random.Random(11)
    l = random_operator(rng, 3, max_degree=1)
    assert l.power(3) == l @ l @ l
    composed = OperatorField.identity(3)
    for k in range(6):
        assert l.power(k) == composed
        composed = composed @ l


def test_trace_and_traceless_part():
    l = OperatorField([["x1", "x2"], ["0", "x1"]])
    assert l.trace() == Poly.parse("2*x1", 2)
    m = l.traceless_part()
    assert m.trace().is_zero
    assert m.entry(1, 1) == Poly.zero(2)
    assert m.entry(1, 2) == Poly.variable(2, 2)


def test_operator_prints_right_aligned_columns():
    l = OperatorField([["x1", "0"], ["-1/2*x2 + 3", "x1^2"]])
    assert str(l) == "[          x1     0 ]\n[ -1/2*x2 + 3  x1^2 ]"


def test_column_extraction():
    l = OperatorField([["0", "x2"], ["1", "0"]])
    col1 = l.column(1)
    assert col1.component(1).is_zero and col1.component(2) == 1


# ----- (1,2)-tensors and contractions -------------------------------------------


def _random_tensor(rng: random.Random, n: int) -> Tensor12:
    comps = [[[random_poly(rng, n, 1) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    return Tensor12(comps, nvars=n)


def test_tensor_component_indexing_is_one_based():
    n = 2
    comps = [[[Poly.zero(n) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    comps[0][1][0] = Poly.variable(1, n)
    s = Tensor12(comps, nvars=n)
    assert s.component(1, 2, 1) == Poly.variable(1, n)
    assert s.nonzero_components() == [((1, 2, 1), Poly.variable(1, n))]


def test_tensor_apply_agrees_with_componentwise_sum():
    rng = random.Random(13)
    s = _random_tensor(rng, 3)
    xi = random_vector_field(rng, 3)
    eta = random_vector_field(rng, 3)
    out = apply_tensor(s, xi, eta)
    for i in range(1, 4):
        expected = Poly.zero(3)
        for j in range(1, 4):
            for k in range(1, 4):
                expected = expected + s.component(i, j, k) * xi.component(j) * eta.component(k)
        assert out.component(i) == expected


def test_contract_upper_composes_with_the_operator():
    rng = random.Random(15)
    a = random_operator(rng, 3, max_degree=1)
    s = _random_tensor(rng, 3)
    c = contract_upper(a, s)
    xi = random_vector_field(rng, 3)
    eta = random_vector_field(rng, 3)
    assert apply_tensor(c, xi, eta) == apply_operator(a, apply_tensor(s, xi, eta))


def test_contract_lower_slots_feed_the_operator_into_arguments():
    rng = random.Random(17)
    a = random_operator(rng, 3, max_degree=1)
    s = _random_tensor(rng, 3)
    xi = random_vector_field(rng, 3)
    eta = random_vector_field(rng, 3)
    a_xi, a_eta = apply_operator(a, xi), apply_operator(a, eta)
    assert apply_tensor(contract_lower_j(s, a), xi, eta) == apply_tensor(s, a_xi, eta)
    assert apply_tensor(contract_lower_k(s, a), xi, eta) == apply_tensor(s, xi, a_eta)


def test_contract_sums_its_single_slot_terms():
    rng = random.Random(23)
    a = random_operator(rng, 3, max_degree=1)
    b = random_operator(rng, 3, max_degree=1)
    s = _random_tensor(rng, 3)
    t = _random_tensor(rng, 3)
    fused = contract((s, a, UPPER), (t, -b, LOWER_J), (s, b, LOWER_K), (t, a, LOWER_J))
    expected = combine(
        (1, contract_upper(a, s)),
        (-1, contract_lower_j(t, b)),
        (1, contract_lower_k(s, b)),
        (1, contract_lower_j(t, a)),
    )
    assert fused == expected


def test_antisymmetric_contract_computes_j_below_k_and_mirrors_the_rest():
    rng = random.Random(31)
    a = random_operator(rng, 3, max_degree=1)
    s = _random_tensor(rng, 3)
    r = range(3)
    two_form = Tensor12(
        [[[s.comps[i][j][k] - s.comps[i][k][j] for k in r] for j in r] for i in r], nvars=3
    )
    assert contract((two_form, a, UPPER), antisymmetric=True) == contract_upper(a, two_form)
    # The switch is a promise about the sum: on any other sum it keeps j < k.
    full, half = contract((s, a, LOWER_J)), contract((s, a, LOWER_J), antisymmetric=True)
    for i in r:
        for j in r:
            assert half.comps[i][j][j].is_zero
            for k in range(j + 1, 3):
                assert half.comps[i][j][k] == full.comps[i][j][k] == -half.comps[i][k][j]


def test_contract_rejects_an_operator_from_another_space():
    rng = random.Random(29)
    s = _random_tensor(rng, 3)
    wider = OperatorField.identity(3, nvars=4)
    smaller = OperatorField.identity(2)
    for slot in (UPPER, LOWER_J, LOWER_K):
        with pytest.raises(ValueError):
            contract((s, OperatorField.identity(3), UPPER), (s, wider, slot))
        with pytest.raises(ValueError):
            contract((s, smaller, slot))
    with pytest.raises(ValueError, match="slot"):
        contract((s, OperatorField.identity(3), "middle"))


def test_tensor_evaluation_at_a_point():
    rng = random.Random(19)
    s = _random_tensor(rng, 2)
    pt = random_point(rng, 2)
    values = s.evaluate(pt)
    assert values[0][1][0] == s.component(1, 2, 1)(pt)


# ----- affine coordinate changes -------------------------------------------------


def test_affine_change_requires_invertible_matrix():
    with pytest.raises(ValueError):
        AffineChange(RationalMatrix([[1, 2], [2, 4]]))


def test_pushforward_by_identity_is_identity():
    rng = random.Random(25)
    l = random_operator(rng, 3, max_degree=1)
    assert AffineChange(RationalMatrix.identity(3).rows).pushforward_operator(l) == l


def test_pushforward_operator_conjugates_pointwise():
    rng = random.Random(27)
    for _ in range(5):
        phi = random_affine_change(rng, 3)
        l = random_operator(rng, 3, max_degree=1)
        pt = random_point(rng, 3)
        m = phi.matrix
        lhs = phi.pushforward_operator(l).evaluate(apply_point(phi, pt))
        rhs = m @ l.evaluate(pt) @ m.inverse()
        assert lhs == rhs


def test_pushforward_tensor_transforms_with_one_up_two_down():
    rng = random.Random(29)
    phi = random_affine_change(rng, 2)
    s = _random_tensor(rng, 2)
    pt = random_point(rng, 2)
    m = phi.matrix
    minv = m.inverse()
    pushed = phi.pushforward_tensor(s).evaluate(apply_point(phi, pt))
    raw = s.evaluate(pt)
    n = 2
    for i in range(n):
        for j in range(n):
            for k in range(n):
                expected = sum(
                    m.rows[i][a] * raw[a][b][c] * minv.rows[b][j] * minv.rows[c][k]
                    for a in range(n) for b in range(n) for c in range(n)
                )
                assert pushed[i][j][k] == expected


# ----- operator file format -------------------------------------------------------


def test_operator_json_roundtrip():
    rng = random.Random(31)
    l = random_operator(rng, 3)
    text = operator_to_json(l)
    again = operator_from_json(text, "buffer")
    assert again == l


def test_load_operator_from_disk(operators_dir):
    l = load_operator(operators_dir / "ex3.json")
    assert l.dim == 3
    assert l.entry(1, 1) == Poly.variable(1, 3)
    assert l.entry(2, 3) == Poly.variable(2, 3)


def test_operator_json_reports_bad_entry():
    doc = json.dumps({"dim": 2, "matrix": [["x1", "x9"], ["0", "0"]]})
    with pytest.raises(ValueError, match=r"bad\.json: matrix\[0\]\[1\]"):
        operator_from_json(doc, "bad.json")


def test_operator_json_rejects_non_square_matrix():
    doc = json.dumps({"dim": 2, "matrix": [["x1", "0"]]})
    with pytest.raises(ValueError):
        operator_from_json(doc, "bad.json")


def test_operator_json_rejects_missing_keys():
    with pytest.raises(ValueError):
        operator_from_json(json.dumps({"matrix": []}), "bad.json")
    with pytest.raises(ValueError, match="'dim' must be a positive integer"):
        operator_from_json(json.dumps({"dim": True, "matrix": [["x1"]]}), "bad.json")
