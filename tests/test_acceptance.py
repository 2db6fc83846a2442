"""Acceptance suite: one test per published claim the package must reproduce.

Every check is exact — symbolic zero tests and exact ranks over the rationals,
no tolerances anywhere.  Each test prints a single ``[criterion N] PASS/FAIL``
line (bypassing capture) so a full run yields a twelve-line scoreboard.
"""

from __future__ import annotations

import random
from fractions import Fraction

from haantjes.geometry import (
    OperatorField,
    Tensor12,
    load_operator,
)
from haantjes.linearizer import (
    cond3_system,
    linearized_system,
    search_tensor,
    t_pattern_candidates,
)
from haantjes.polyring import Poly
from haantjes.structure import (
    NOT_TRIANGULARIZABLE,
    TRIANGULARIZABLE,
    default_sample_points,
    image_flag,
    is_integrable,
    regularity_check,
    verdict,
)
from haantjes.torsion import (
    fn_bracket_level,
    nijenhuis,
    tensor_t,
    torsion_level,
)

from conftest import (
    OPERATORS,
    random_affine_change,
    random_poly,
    random_sparse_affine_change,
)
from reference import commuting_triangular_pair


def _report(capsys, number: int, description: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number:2d}] {status} — {description}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed: {', '.join(failed)}"


def test_criterion_01_nilpotent_block_example(capsys):
    L = load_operator(OPERATORS / "ex1.json")
    checks = {
        "level-3 torsion vanishes": torsion_level(L, 3).is_zero,
        "image distribution is not integrable": not is_integrable(image_flag(L, 1)),
        "verdict is NotTriangularizable": verdict(L).kind == NOT_TRIANGULARIZABLE,
        "obstruction tensor is nonzero": not tensor_t(L).is_zero,
    }
    _report(capsys, 1, "nilpotent 4x4 block: flat torsion, obstructed chart", checks)


def test_criterion_02_conjugated_jordan_block(capsys):
    L = load_operator(OPERATORS / "ex2.json")
    report = regularity_check(L, default_sample_points(3))
    checks = {
        "eigenvalue is x3 - x2": report.eigenvalue == Poly.parse("x3 - x2", 3),
        "rank profile is (2, 1, 0) at all sample points": report.regular
        and all(profile == (2, 1, 0) for profile in report.rank_profiles),
        "level-2 torsion vanishes": torsion_level(L, 2).is_zero,
        "verdict is Triangularizable": verdict(L).kind == TRIANGULARIZABLE,
    }
    _report(capsys, 2, "3x3 polynomial conjugate of a Jordan block", checks)


def test_criterion_03_upper_triangular_with_torsion(capsys):
    L = load_operator(OPERATORS / "ex3.json")
    checks = {"level-2 torsion is nonzero": not torsion_level(L, 2).is_zero}
    _report(capsys, 3, "triangular 3x3 operator with nonvanishing level-2 torsion",
            checks)


def _strict_4x4(a: Poly, b: Poly, c: Poly) -> OperatorField:
    z = Poly.zero(4)
    return OperatorField(
        [[z, a, z, z], [z, z, b, z], [z, z, z, c], [z, z, z, z]], nvars=4
    )


def _expected_level2_of_strict(a: Poly, b: Poly, c: Poly) -> Tensor12:
    """Closed-form level-2 torsion of the strictly-triangular 4x4 family.

    Three scalar functions determine the tensor:

        F1 = 2 a^2 (b c_x1 - b_x1 c)
        F2 = b (a_x2 b c + b_x2 a c - 2 a b c_x2)
        F3 = a b (b c_x1 - b_x1 c)

    placed antisymmetrically at S^1_{2,4} = F1, S^1_{4,3} = F2, S^2_{4,3} = F3.
    """
    two = Poly.constant(Fraction(2), 4)
    wedge = b * c.diff(1) - b.diff(1) * c
    f1 = two * a * a * wedge
    f2 = b * (a.diff(2) * b * c + b.diff(2) * a * c - two * a * b * c.diff(2))
    f3 = a * b * wedge
    comps = [[[Poly.zero(4) for _ in range(4)] for _ in range(4)] for _ in range(4)]
    comps[0][1][3], comps[0][3][1] = f1, -f1
    comps[0][3][2], comps[0][2][3] = f2, -f2
    comps[1][3][2], comps[1][2][3] = f3, -f3
    return Tensor12(comps, nvars=4)


def test_criterion_04_strictly_triangular_4x4_family(capsys):
    x1, x2, x3 = (Poly.variable(i, 4) for i in (1, 2, 3))
    first = (x1, x2, x3)
    second = (x2, x1 * x2, x1)
    checks = {}
    for tag, (a, b, c) in (("first", first), ("second", second)):
        L = _strict_4x4(a, b, c)
        computed = torsion_level(L, 2)
        expected = _expected_level2_of_strict(a, b, c)
        checks[f"{tag} instantiation matches the closed form"] = computed == expected
        checks[f"{tag} instantiation has zero obstruction tensor"] = tensor_t(L).is_zero
    # the closed form is trivial in neither case by accident:
    checks["first instantiation: the 2 a^2 (...) component vanishes"] = (
        _expected_level2_of_strict(*first).component(1, 2, 4).is_zero
    )
    checks["second instantiation is nonzero"] = (
        not _expected_level2_of_strict(*second).is_zero
    )
    _report(capsys, 4, "strictly triangular 4x4 family against its closed form",
            checks)


def test_criterion_05_traceless_4x4_operator(capsys):
    L = load_operator(OPERATORS / "ex5.json")
    checks = {
        "level-2 torsion is nonzero": not torsion_level(L, 2).is_zero,
        "obstruction tensor vanishes": tensor_t(L).is_zero,
        "verdict is Triangularizable": verdict(L).kind == TRIANGULARIZABLE,
        "trace vanishes": L.trace().is_zero,
    }
    _report(capsys, 5, "traceless 4x4 operator with zero obstruction tensor", checks)


def test_criterion_06_linearized_system_dim3(capsys):
    sys3 = linearized_system(3, "haantjes")
    family_unknowns = sys3.unknowns
    expected_row = [Fraction(0)] * len(family_unknowns)
    expected_row[family_unknowns.index("a^3_{1;2}")] = Fraction(3)
    expected_row[family_unknowns.index("a^3_{2;1}")] = Fraction(-3)
    row_by_label = dict(zip(sys3.labels, sys3.matrix.rows))
    checks = {
        "rank is 1": sys3.rank == 1,
        "row S^1_{2,3} is 3 a^3_{1;2} - 3 a^3_{2;1}": list(
            row_by_label.get("S^1_{2,3}", ())
        ) == expected_row,
        "row space equals the integrability conditions": sys3.rowspace_equal(
            cond3_system(3)
        ),
    }
    _report(capsys, 6, "dimension-3 linearized level-2 system", checks)


def _dim4_obstruction_table() -> dict[tuple[int, int, int], list[tuple[int, tuple[int, int, int]]]]:
    """The six published linear forms of the linearized obstruction tensor,
    keyed by component; each is a list of (coefficient, (i, j, k)) terms in
    the unknowns a^i_{j;k}."""
    t124 = [(-2, (4, 1, 2)), (2, (4, 2, 1))]
    t133 = [(4, (4, 1, 2)), (-4, (4, 2, 1))]
    t134 = [(-1, (3, 1, 2)), (1, (3, 2, 1)), (2, (4, 1, 3)), (-2, (4, 3, 1))]
    t143 = [(1, (3, 1, 2)), (-1, (3, 2, 1)), (2, (4, 1, 3)), (-2, (4, 3, 1))]
    t144 = [(4, (4, 2, 3)), (-4, (4, 3, 2))]
    t234 = [(-1, (4, 1, 2)), (1, (4, 2, 1))]
    return {
        (1, 2, 4): t124, (1, 4, 2): t124,
        (1, 3, 3): t133,
        (1, 3, 4): t134, (1, 4, 3): t143,
        (1, 4, 4): t144,
        (2, 3, 4): t234, (2, 4, 3): t234,
    }


def _is_scalar_multiple(row: tuple, expected: list) -> bool:
    """True when row = c * expected for a nonzero rational c."""
    if all(v == 0 for v in expected):
        return all(v == 0 for v in row)
    pivot = next(idx for idx, v in enumerate(expected) if v != 0)
    if row[pivot] == 0:
        return False
    c = Fraction(row[pivot], 1) / expected[pivot]
    return all(row[idx] == c * expected[idx] for idx in range(len(expected)))


def test_criterion_07_linearized_systems_dim4(capsys):
    sys_t = linearized_system(4, "t")
    c3 = cond3_system(4)
    unknowns = list(sys_t.unknowns)

    def to_vector(terms):
        vec = [Fraction(0)] * len(unknowns)
        for coeff, (i, j, k) in terms:
            vec[unknowns.index(f"a^{i}_{{{j};{k}}}")] += Fraction(coeff)
        return vec

    row_by_label = dict(zip(sys_t.labels, sys_t.matrix.rows))
    table = _dim4_obstruction_table()
    support_matches = set(row_by_label) == {
        f"S^{i}_{{{j},{k}}}" for (i, j, k) in table
    }
    rows_match = support_matches and all(
        _is_scalar_multiple(row_by_label[f"S^{i}_{{{j},{k}}}"], to_vector(terms))
        for (i, j, k), terms in table.items()
    )
    sys_h = linearized_system(4, "haantjes")
    sys_3 = linearized_system(4, "level:3")
    checks = {
        "obstruction rows match the published table up to scaling": rows_match,
        "obstruction system has rank 4": sys_t.rank == 4,
        "obstruction row space equals the conditions": sys_t.rowspace_equal(c3),
        "level-2 system has rank 6": sys_h.rank == 6,
        "level-2 system strictly contains the conditions": sys_h.rowspace_contains(c3)
        and not sys_h.rowspace_equal(c3),
        "level-3 system has rank 2": sys_3.rank == 2,
    }
    _report(capsys, 7, "dimension-4 linearized systems", checks)


def test_criterion_08_commuting_triangular_pairs(capsys):
    failures = []
    for n in (3, 4, 5):
        for seed in range(100):
            K, L = commuting_triangular_pair(n, seed, degree=2)
            if not fn_bracket_level(K, L, n - 1).is_zero:
                failures.append((n, seed))
    checks = {"all 300 bracket levels vanish": not failures}
    _report(capsys, 8,
            "level n-1 bracket of 100 commuting triangular pairs per n in 3..5",
            checks)


def _random_strict_upper(n: int, seed: int) -> OperatorField:
    rng = random.Random(seed)
    z = Poly.zero(n)
    rows = [
        [random_poly(rng, n, max_degree=2) if j > i else z for j in range(n)]
        for i in range(n)
    ]
    return OperatorField(rows, nvars=n)


def test_criterion_09_strictly_triangular_vanishing(capsys):
    failures = []
    for n in (3, 4, 5):
        for seed in range(50):
            L = _random_strict_upper(n, seed)
            if not torsion_level(L, n - 1).is_zero:
                failures.append((n, seed))
    checks = {"all 150 torsion levels vanish": not failures}
    _report(capsys, 9,
            "level n-1 torsion of 50 strictly upper triangular fields per n",
            checks)


def test_criterion_10_invariance_suite(capsys):
    rng = random.Random(2024)
    tensorial, shift_invariant = [], []
    for trial in range(25):
        n = 3 if trial % 2 == 0 else 4
        # Random affine entries; in dimension 4 roughly half are zeroed and the
        # coordinate change is kept sparse so the degree-6 obstruction
        # components stay small enough for 25 exact runs.
        entries = [[random_poly(rng, n, max_degree=1)
                    if n == 3 or rng.random() < 0.5
                    else Poly.zero(n)
                    for _ in range(n)] for _ in range(n)]
        L = OperatorField(entries, nvars=n)
        if n == 3:
            phi = random_affine_change(rng, n)
        else:
            phi = random_sparse_affine_change(rng, n)
        lam = random_poly(rng, n, max_degree=2 if n == 3 else 1)

        h = torsion_level(L, 2)
        pushed_l = phi.pushforward_operator(L)
        tensorial.append(torsion_level(pushed_l, 2) == phi.pushforward_tensor(h))
        shifted = L + lam * OperatorField.identity(n, nvars=n)
        shift_invariant.append(torsion_level(shifted, 2) == h)
        if n == 4:
            t = tensor_t(L)
            tensorial.append(tensor_t(pushed_l) == phi.pushforward_tensor(t))
            shift_invariant.append(tensor_t(shifted) == t)
    checks = {
        "level-2 and obstruction tensors transform tensorially": all(tensorial),
        "both are invariant under eigenvalue shifts": all(shift_invariant),
    }
    _report(capsys, 10, "pushforward tensoriality and shift invariance, 25 trials",
            checks)


def test_criterion_11_search_recovers_the_obstruction_pattern(capsys):
    result = search_tensor(4, t_pattern_candidates())
    target = (Fraction(1), Fraction(-1), Fraction(1))
    inside = result.contains(target)
    equivalent = (
        inside
        and result.combined_system(target).rowspace_equal(cond3_system(4))
    )
    checks = {
        "coefficients (1, -1, 1) lie in the solution space": inside,
        "their combined system is equivalent to the conditions": equivalent,
    }
    _report(capsys, 11, "search over the obstruction contraction patterns", checks)


def test_criterion_12_dimension_two_oracles(capsys):
    A = load_operator(OPERATORS / "dim2a.json")
    B = load_operator(OPERATORS / "dim2b.json")
    origin = (Fraction(0), Fraction(0))
    report_a = regularity_check(A, [origin])
    report_b = regularity_check(B, [origin])
    checks = {
        "first operator has zero torsion": nijenhuis(A).is_zero,
        "second operator has zero torsion": nijenhuis(B).is_zero,
        "origin degeneracy is flagged for the first": not report_a.regular
        and report_a.failing_points()[0][0] == origin,
        "origin degeneracy is flagged for the second": not report_b.regular
        and report_b.failing_points()[0][0] == origin,
    }
    _report(capsys, 12, "dimension-2 torsion-free operators with degenerate origin",
            checks)
