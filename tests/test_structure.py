"""Regularity profiles, image distributions, Frobenius tests, and verdicts."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from haantjes.geometry import OperatorField, VectorField, load_operator
from haantjes.polyring import Poly
from haantjes.structure import (
    NOT_TRIANGULARIZABLE,
    PRECONDITION_VIOLATED,
    TRIANGULARIZABLE,
    Distribution,
    default_sample_points,
    image_flag,
    is_integrable,
    regularity_check,
    verdict,
)

from reference import (
    basis_field,
    combine,
    conjugated_block,
    image_flag_by_minors,
    is_integrable_by_minors,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


# ----- sample points -----------------------------------------------------------


def test_default_sample_points_are_deterministic_and_nonzero():
    a = default_sample_points(3)
    b = default_sample_points(3)
    assert a == b
    assert len(a) == 2
    for pt in a:
        assert len(pt) == 3
        assert all(coord != 0 for coord in pt)


def test_default_sample_points_vary_with_dimension():
    assert default_sample_points(3) != default_sample_points(4)[:2]


# ----- regularity --------------------------------------------------------------


def test_regularity_profile_of_single_block_operator(operators_dir):
    L = load_operator(operators_dir / "ex2.json")
    report = regularity_check(L, default_sample_points(3))
    assert report.eigenvalue == Poly.parse("x3 - x2", 3)
    assert report.expected == (2, 1, 0)
    assert report.regular
    assert all(profile == (2, 1, 0) for profile in report.rank_profiles)
    assert report.failing_points() == []


def test_regularity_flags_degenerate_points(operators_dir):
    L = load_operator(operators_dir / "ex5.json")
    good = default_sample_points(4)
    degenerate = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    report = regularity_check(L, list(good) + [degenerate])
    assert not report.regular
    assert report.failing_points() == [(degenerate, (1, 0, 0, 0))]


def test_regularity_report_serializes(operators_dir):
    L = load_operator(operators_dir / "ex2.json")
    report = regularity_check(L, default_sample_points(3))
    doc = report.to_dict()
    assert doc["regular"] is True
    assert doc["eigenvalue"] == "-x2 + x3"


def test_regularity_requires_points():
    L = OperatorField.identity(3)
    with pytest.raises(ValueError):
        regularity_check(L, [])


def test_a_point_of_the_wrong_length_is_rejected(operators_dir):
    L = load_operator(operators_dir / "ex2.json")
    for point in ((1, 2), (1, 2, 3, 4)):
        message = f"point has {len(point)} coordinates, expected 3"
        with pytest.raises(ValueError, match=message):
            regularity_check(L, [point])
        with pytest.raises(ValueError, match=message):
            verdict(L, points=[point])


# ----- image distributions and integrability ------------------------------------


def test_image_flag_of_nilpotent_block(operators_dir):
    L = load_operator(operators_dir / "ex1.json")
    d1 = image_flag(L, 1)
    assert d1.rank == 3
    # lexicographically first independent columns of the matrix itself
    assert d1.generators[0] == basis_field(1, 4)
    expected_second = VectorField(
        (Poly.zero(4), Poly.constant(1, 4),
         Poly.parse("-x2", 4), Poly.parse("-x2^2", 4)),
        dim=4,
    )
    assert d1.generators[1] == expected_second
    d2 = image_flag(L, 2)
    assert d2.rank == 2
    d3 = image_flag(L, 3)
    assert d3.rank == 1


def test_image_flag_power_bounds(operators_dir):
    L = load_operator(operators_dir / "ex1.json")
    with pytest.raises(ValueError):
        image_flag(L, 0)
    with pytest.raises(ValueError):
        image_flag(L, 4)


def test_flag_of_nilpotent_block_is_not_integrable(operators_dir):
    L = load_operator(operators_dir / "ex1.json")
    assert not is_integrable(image_flag(L, 1))


def test_flags_of_triangularizable_operator_are_integrable(operators_dir):
    L = load_operator(operators_dir / "ex2.json")
    assert is_integrable(image_flag(L, 1))
    assert is_integrable(image_flag(L, 2))


def test_coordinate_planes_are_integrable():
    D = Distribution((basis_field(1, 3), basis_field(2, 3)), 3)
    assert is_integrable(D)


def test_full_tangent_space_is_integrable():
    D = Distribution(tuple(basis_field(i, 3) for i in (1, 2, 3)), 3)
    assert is_integrable(D)


def test_dependent_generators_are_rejected():
    x1 = Poly.variable(1, 3)
    xi = VectorField((x1, Poly.zero(3), Poly.zero(3)), dim=3)
    with pytest.raises(ValueError, match="generically dependent"):
        is_integrable(Distribution((xi, combine((2, xi))), 3))


def test_elimination_matches_the_minors_reference(operators_dir):
    cases = [(path.name, load_operator(path)) for path in sorted(operators_dir.glob("*.json"))]
    cases += [
        (f"conjugated_block({n}, {seed})", conjugated_block(n, seed))
        for n, seeds in ((3, (3, 13)), (4, (4, 14)))
        for seed in seeds
    ]
    for name, L in cases:
        for k in range(1, L.dim):
            D, expected = image_flag(L, k), image_flag_by_minors(L, k)
            assert [str(g) for g in D.generators] == [str(g) for g in expected.generators], (name, k)
            assert is_integrable(D) == is_integrable_by_minors(expected), (name, k)
    # At n = 5 the reference's cofactor expansions take about ten seconds, so
    # its answers are recorded by ``golden/record.py``.
    recorded = json.loads((GOLDEN / "minors.json").read_text(encoding="utf-8"))
    assert [(r["case"], r["k"]) for r in recorded] == [("conjugated_block(5, 5)", k) for k in range(1, 5)]
    L = conjugated_block(5, 5)
    for r in recorded:
        D = image_flag(L, r["k"])
        assert [str(g) for g in D.generators] == r["generators"], r["k"]
        assert is_integrable(D) == r["integrable"], r["k"]


def test_dependence_over_the_function_field_is_rejected_in_either_order():
    # third = (x2 - x1) xi + eta, so each of the three lies in the span of
    # the other two, though no two of them are proportional.
    x1, x2 = Poly.variable(1, 3), Poly.variable(2, 3)
    xi = VectorField((x1, x2, Poly.zero(3)), dim=3)
    eta = basis_field(3, 3)
    third = VectorField(((x2 - x1) * x1, (x2 - x1) * x2, Poly.constant(1, 3)), dim=3)
    for generators in ((xi, eta, third), (third, eta, xi)):
        with pytest.raises(ValueError, match="generically dependent"):
            is_integrable(Distribution(generators, 3))


def test_distribution_serializes():
    D = Distribution((basis_field(1, 2),), 2)
    doc = D.to_dict()
    assert doc["rank"] == 1
    assert doc["generators"] == [["1", "0"]]


# ----- verdicts -----------------------------------------------------------------


def test_verdict_not_triangularizable(operators_dir):
    v = verdict(load_operator(operators_dir / "ex1.json"))
    assert v.kind == NOT_TRIANGULARIZABLE
    assert v.obstruction_name == "tensor_t"
    assert not v.obstruction_zero
    assert v.certificates  # nonzero witnesses are exhibited


def test_verdict_triangularizable_dim3(operators_dir):
    v = verdict(load_operator(operators_dir / "ex2.json"))
    assert v.kind == TRIANGULARIZABLE
    assert v.obstruction_name == "haantjes"
    assert v.obstruction_zero


def test_verdict_triangularizable_dim4(operators_dir):
    v = verdict(load_operator(operators_dir / "ex5.json"))
    assert v.kind == TRIANGULARIZABLE
    assert v.obstruction_name == "tensor_t"
    assert v.obstruction_zero


def test_verdict_detects_precondition_violation(operators_dir):
    bad_point = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    v = verdict(load_operator(operators_dir / "ex5.json"), points=[bad_point])
    assert v.kind == PRECONDITION_VIOLATED


def test_verdict_rejects_unsupported_dimension(operators_dir):
    with pytest.raises(ValueError, match="dimensions 3 and 4"):
        verdict(load_operator(operators_dir / "dim2a.json"))


def test_verdict_serializes(operators_dir):
    doc = verdict(load_operator(operators_dir / "ex2.json")).to_dict()
    assert doc["verdict"] == TRIANGULARIZABLE
    assert doc["eigenvalue"] == "-x2 + x3"
    assert doc["regularity"]["rank_profiles"] == [[2, 1, 0], [2, 1, 0]]
    assert doc["obstruction_zero"] is True
