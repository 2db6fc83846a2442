"""The linearized operator family, extracted linear systems, and the
coefficient search over candidate tensor combinations."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from haantjes.geometry import Tensor12, load_operator
from haantjes.linearizer import (
    Candidate,
    ParamOperator,
    _linear_forms,
    _unknown_columns,
    build_linearized,
    cond3_system,
    default_candidates,
    extract_system,
    linearized_system,
    search_tensor,
    t_pattern_candidates,
)
from haantjes.polyring import Poly
from haantjes.torsion import tensor_t, torsion_level

from conftest import random_operator
from reference import combine, specialize


# ----- the linearized family -----------------------------------------------------


def test_family_shape_and_unknown_count():
    family = build_linearized(3)
    assert family.dim == 3
    assert family.operator.nvars == 3 + 27
    with_eigen = build_linearized(3, include_eigenvalue=True)
    assert with_eigen.operator.nvars == 3 + 30


def test_family_entries_are_first_order():
    family = build_linearized(3)
    op = family.operator
    # (1,2) entry starts at 1 (the nilpotent block) plus a linear form
    entry12 = op.entry(1, 2)
    assert entry12.terms[()] == 1
    # every entry minus its constant part is bilinear in (coordinate, parameter)
    for i in range(1, 4):
        for j in range(1, 4):
            p = op.entry(i, j)
            for mono, _ in p.terms.items():
                if mono == ():
                    continue
                assert sum(e for _, e in mono) == 2
                coords = [v for v, _ in mono if v <= 3]
                params = [v for v, _ in mono if v > 3]
                assert len(coords) == 1 and len(params) == 1


def test_unknown_labels_follow_lexicographic_layout():
    family = build_linearized(2)
    sys2 = linearized_system(2, "nijenhuis")
    assert sys2.unknowns[0] == "a^1_{1;1}"
    assert sys2.unknowns[-1] == "a^2_{2;2}"
    assert len(sys2.unknowns) == family.operator.nvars - 2 == 8


def test_specialize_reproduces_a_concrete_operator(operators_dir):
    # Freezing a^4_{3;2} = -1 gives the first-order part of the nilpotent
    # 4x4 example operator.
    family = build_linearized(4)
    frozen = specialize(family, {(4, 3, 2): Fraction(-1)})
    ex1 = load_operator(operators_dir / "ex1.json")
    for i in range(1, 5):
        for j in range(1, 5):
            truncated = Poly(
                4,
                {m: c for m, c in ex1.entry(i, j).terms.items()
                 if sum(e for _, e in m) <= 1},
            )
            assert frozen.entry(i, j) == truncated


def test_specialize_sets_the_eigenvalue_part():
    frozen = specialize(build_linearized(3, include_eigenvalue=True), {}, {2: Fraction(5)})
    for i in range(1, 4):
        for j in range(1, 4):
            expected = "5*x2" if i == j else "1" if j == i + 1 else "0"
            assert frozen.entry(i, j) == Poly.parse(expected, 3)


# ----- the reference linear system ------------------------------------------------


def test_cond3_row_count_and_rank():
    for n in (3, 4, 5):
        sys_n = cond3_system(n)
        assert len(sys_n.labels) == comb(n, 3)
        assert sys_n.rank == comb(n, 3)


def test_cond3_system_in_dim2_is_empty_and_keeps_its_width():
    assert cond3_system(2).matrix.shape == (0, 8)


def test_cond3_dim3_single_row():
    sys3 = cond3_system(3)
    assert sys3.equation_strings() == [
        "a^3_{1;2} - a^3_{2;1}: a^3_{1;2} - a^3_{2;1} = 0"
    ]


# ----- extraction -----------------------------------------------------------------


def test_extract_system_matches_full_symbolic_computation():
    # The production path evaluates base tensors at the origin before the
    # level-2 contraction; the reference path runs the full symbolic torsion
    # on the parametric family. They must agree row for row.
    family = build_linearized(3)
    reference = extract_system(torsion_level(family.operator, 2))
    fast = linearized_system(3, "haantjes")
    assert reference.labels == fast.labels
    assert reference.matrix == fast.matrix


def test_extract_system_rejects_nonlinear_rows():
    n = 3
    nvars = n + n ** 3
    quadratic = Poly(nvars, {((4, 2),): 1})  # square of a parameter
    comps = [[[Poly.zero(nvars) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    comps[0][0][0] = quadratic
    with pytest.raises(ValueError, match=r"S\^1_\{1,1\}"):
        extract_system(Tensor12(comps, nvars=nvars))


def test_linear_forms_drop_the_terms_that_vanish_at_the_origin():
    n = 3
    nvars = n + n ** 3
    column = _unknown_columns(n, False)[1, 2, 3]
    u = Poly.variable(n + 1 + column, nvars)
    x1, x2, x3 = (Poly.variable(v, nvars) for v in (1, 2, 3))
    comps = [[[Poly.zero(nvars) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    comps[0][1][2] = x1 * u ** 2 + 3 * u
    comps[1][0][0] = x2 ** 3
    forms = _linear_forms(Tensor12(comps, nvars=nvars))
    assert forms[5] == ("S^1_{2,3}", {column: 3})
    assert forms[9] == ("S^2_{1,1}", {})
    comps[2][2][1] = x3 * u + 5
    with pytest.raises(ValueError, match=r"component S\^3_\{3,2\} is not a linear form .*: 5$"):
        _linear_forms(Tensor12(comps, nvars=nvars))


def test_linearized_system_rejects_unknown_kind():
    with pytest.raises(ValueError):
        linearized_system(3, "bogus")


def test_linearized_level_kinds_scale_together():
    # level:2 is the same request as "haantjes"
    assert linearized_system(3, "level:2").matrix == linearized_system(3, "haantjes").matrix


# ----- dimension-specific systems ---------------------------------------------------


def test_dim3_haantjes_system_is_the_integrability_condition():
    sys3 = linearized_system(3, "haantjes")
    assert sys3.rank == 1
    assert sys3.rowspace_equal(cond3_system(3))


def test_dim4_haantjes_system_strictly_contains_the_conditions():
    sys4 = linearized_system(4, "haantjes")
    c3 = cond3_system(4)
    assert sys4.rank == 6
    assert sys4.rowspace_contains(c3)
    assert not sys4.rowspace_equal(c3)


def test_dim4_level3_system_has_rank_two():
    assert linearized_system(4, "level:3").rank == 2


def test_dim4_obstruction_system_matches_the_conditions():
    sys_t = linearized_system(4, "t")
    assert sys_t.rank == 4
    assert sys_t.rowspace_equal(cond3_system(4))


def test_system_serializes():
    doc = linearized_system(3, "haantjes").to_dict()
    assert doc["rank"] == 1
    assert doc["dim"] == 3


# ----- candidates and search ----------------------------------------------------------


def test_default_candidate_family_is_deduplicated_and_labeled():
    cands = default_candidates()
    assert len(cands) == 20
    labels = [c.label for c in cands]
    assert len(set(labels)) == 20
    assert "N(0,0,0)" in labels and "H(0,0,0)" in labels


def test_t_pattern_candidates_match_the_obstruction_contractions(operators_dir):
    cands = t_pattern_candidates()
    assert [c.label for c in cands] == ["H(1,1,0)", "H(1,0,1)", "H(0,2,0)"]
    rng = random.Random(41)
    operators = [load_operator(operators_dir / f"{name}.json") for name in ("ex1", "ex4", "ex5")]
    operators += [random_operator(rng, 4, 1) for _ in range(2)]
    c1, c2, c3 = cands
    for L in operators:
        H, M = torsion_level(L, 2), L.traceless_part()
        assert tensor_t(L) == combine((1, c1.build(H, M)), (-1, c2.build(H, M)), (1, c3.build(H, M)))


def test_extract_system_names_the_expected_unknown_counts():
    S = Tensor12([[[0] * 3] * 3] * 3, nvars=3 + 5)
    with pytest.raises(ValueError, match="has 5 non-coordinate variables, expected 27 or 30"):
        extract_system(S)


def test_candidate_rejects_negative_powers():
    with pytest.raises(ValueError):
        Candidate("haantjes", (1, -1, 0))
    with pytest.raises(ValueError):
        Candidate("bogus", (0, 0, 0))


def test_candidate_apply_matches_manual_contraction(operators_dir):
    from haantjes.geometry import contract_lower_j, contract_upper

    L = load_operator(operators_dir / "ex5.json")
    cand = Candidate("haantjes", (1, 1, 0))
    m = L.traceless_part()
    expected = contract_upper(m, contract_lower_j(torsion_level(L, 2), m))
    assert cand.build(torsion_level(L, 2), m) == expected


def test_search_in_dim4_over_the_obstruction_patterns():
    result = search_tensor(4, t_pattern_candidates())
    assert len(result.coefficient_basis) == 2
    target = (Fraction(1), Fraction(-1), Fraction(1))
    assert result.contains(target)
    combined = result.combined_system(target)
    assert combined.rowspace_equal(cond3_system(4))
    assert any(result.basis_equivalent)
    assert result.random_equivalent


def test_search_rejects_the_bare_level2_tensor_in_dim4():
    bare = (Candidate("haantjes", (0, 0, 0)),)
    assert search_tensor(4, bare).coefficient_basis == ()


def test_search_accepts_the_bare_level2_tensor_in_dim3():
    bare = (Candidate("haantjes", (0, 0, 0)),)
    result = search_tensor(3, bare)
    assert result.coefficient_basis == ((Fraction(1),),)
    assert result.basis_equivalent == (True,)


def test_search_contains_the_zero_vector_and_nothing_else_of_an_empty_basis():
    bare = (Candidate("haantjes", (0, 0, 0)),)
    empty = search_tensor(4, bare)
    assert empty.coefficient_basis == ()
    assert empty.contains((0,))
    assert not empty.contains((1,))
    assert search_tensor(3, bare).contains((0,))


def test_search_in_dim2_has_no_equations():
    # Every candidate vanishes at the origin in dimension 2, and there are
    # no integrability conditions: every combination is admissible.
    result = search_tensor(2)
    assert len(result.coefficient_basis) == 20
    assert result.coefficient_basis == tuple(
        tuple(Fraction(int(i == j)) for j in range(20)) for i in range(20)
    )
    assert all(result.basis_equivalent)
    assert result.random_equivalent is True


def test_search_is_seed_reproducible():
    a = search_tensor(4, t_pattern_candidates(), seed=5)
    b = search_tensor(4, t_pattern_candidates(), seed=5)
    assert a.random_coefficients == b.random_coefficients


def test_search_serializes():
    doc = search_tensor(3, (Candidate("haantjes", (0, 0, 0)),)).to_dict()
    assert doc["dim"] == 3
    assert doc["candidates"] == ["H(0,0,0)"]
    assert doc["basis"] == [{"coefficients": ["1"], "equivalent": True}]
