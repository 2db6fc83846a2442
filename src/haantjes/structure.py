"""Regularity checks, image flags, integrability, triangularizability verdicts.

An operator field L with scalar eigenvalue function lam = trace(L)/dim is
*regular* at a point when L - lam Id has the rank profile of a single
nilpotent Jordan block there: rank (L - lam Id)^k = dim - k.  Regularity is
certified by exact evaluation at finitely many rational sample points; the
image distributions Im (L - lam Id)^k and their integrability are handled
symbolically, with Frobenius' condition tested through exact vanishing of
bordered minors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .geometry import OperatorField, VectorField, as_point, lie_bracket
from .polyring import Poly, RationalMatrix
from .torsion import tensor_t, torsion_level

Rational = Union[int, Fraction]
Point = tuple[Fraction, ...]

TRIANGULARIZABLE = "Triangularizable"
NOT_TRIANGULARIZABLE = "NotTriangularizable"
PRECONDITION_VIOLATED = "PreconditionViolated"


def default_sample_points(dim: int, count: int = 2) -> tuple[Point, ...]:
    """Fixed pseudo-random rational sample points with nonzero coordinates.

    The stream is seeded by the dimension only, so the same points are used
    on every run.  The origin is deliberately not included: homogeneous
    operator fields vanish there, and a verdict should not fail its
    regularity precondition at a single special point.
    """
    rng = random.Random(0x4A61 + dim)
    points = []
    for _ in range(count):
        coords = []
        for _ in range(dim):
            value = 0
            while value == 0:
                value = rng.randint(-9, 9)
            coords.append(Fraction(value))
        points.append(tuple(coords))
    return tuple(points)


@dataclass(frozen=True)
class RegularityReport:
    """Rank profiles of (L - lam Id)^k at the sampled points.

    ``rank_profiles[p][k-1]`` is the rank of the k-th power at point p; the
    operator is regular at a point when the profile equals ``expected``,
    i.e. (dim-1, dim-2, ..., 0).
    """

    dim: int
    eigenvalue: Poly
    points: tuple[Point, ...]
    rank_profiles: tuple[tuple[int, ...], ...]

    @property
    def expected(self) -> tuple[int, ...]:
        return tuple(self.dim - k for k in range(1, self.dim + 1))

    @property
    def regular(self) -> bool:
        return all(profile == self.expected for profile in self.rank_profiles)

    def failing_points(self) -> list[tuple[Point, tuple[int, ...]]]:
        return [
            (pt, profile)
            for pt, profile in zip(self.points, self.rank_profiles)
            if profile != self.expected
        ]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "eigenvalue": str(self.eigenvalue),
            "points": [[str(c) for c in pt] for pt in self.points],
            "rank_profiles": [list(profile) for profile in self.rank_profiles],
            "expected": list(self.expected),
            "regular": self.regular,
        }


def regularity_check(L: OperatorField, points: Sequence[Sequence[Rational]]) -> RegularityReport:
    """Evaluate the Jordan-block rank profile of L at each given point."""
    if L.nvars != L.dim:
        raise ValueError("regularity is defined for operator fields without parameters")
    pts = [as_point(p, L.dim) for p in points]
    if not pts:
        raise ValueError("at least one sample point is required")
    n = L.dim
    lam = L.trace() * Fraction(1, n)
    profiles = []
    for pt in pts:
        matrix = L.evaluate(pt)
        shift = lam(pt)
        nilpotent_part = matrix - RationalMatrix.identity(n).scale(shift)
        ranks = []
        power = RationalMatrix.identity(n)
        for _ in range(n):
            power = power @ nilpotent_part
            ranks.append(power.rank)
        profiles.append(tuple(ranks))
    return RegularityReport(
        dim=n, eigenvalue=lam, points=tuple(pts), rank_profiles=tuple(profiles)
    )


# ----- polynomial minors ------------------------------------------------------


def _poly_det(rows: list, nvars: int) -> Poly:
    """Determinant of a small square matrix of polynomials, by expansion."""
    size = len(rows)
    if size == 0:
        return Poly.constant(1, nvars)
    if size == 1:
        return rows[0][0]
    if size == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Poly.zero(nvars)
    sign = 1
    for col in range(size):
        pivot = rows[0][col]
        if not pivot.is_zero:
            minor = [
                [row[c] for c in range(size) if c != col] for row in rows[1:]
            ]
            total = total + sign * pivot * _poly_det(minor, nvars)
        sign = -sign
    return total


def _generic_rank(columns: list[list[Poly]], nvars: int) -> int:
    """The rank of a polynomial matrix over the rational function field.

    ``columns`` is a list of columns, each a list of Poly entries.  The rank
    is the largest size of a square submatrix with a not-identically-zero
    determinant.
    """
    if not columns:
        return 0
    nrows = len(columns[0])
    for size in range(min(nrows, len(columns)), 0, -1):
        for col_set in itertools.combinations(range(len(columns)), size):
            for row_set in itertools.combinations(range(nrows), size):
                sub = [[columns[c][r] for c in col_set] for r in row_set]
                if not _poly_det(sub, nvars).is_zero:
                    return size
    return 0


@dataclass(frozen=True)
class Distribution:
    """A distribution on Q^dim spanned by finitely many vector fields."""

    generators: tuple[VectorField, ...]
    dim: int

    def __post_init__(self):
        if len(self.generators) > self.dim:
            raise ValueError("more generators than the dimension of the space")
        for g in self.generators:
            if g.dim != self.dim:
                raise ValueError("generator dimension mismatch")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rank": self.rank,
            "generators": [[str(c) for c in g.components] for g in self.generators],
        }


def image_flag(L: OperatorField, k: int) -> Distribution:
    """The image distribution of (L - (trace/dim) Id)^k.

    Spanned by the columns of the k-th power of the traceless shift; the
    generators returned are the lexicographically first maximal subset of
    columns that is independent over the rational function field.
    """
    n = L.dim
    if L.nvars != n:
        raise ValueError("image flags are defined for operator fields without parameters")
    if not (isinstance(k, int) and 1 <= k <= n - 1):
        raise ValueError(f"power must satisfy 1 <= k <= {n - 1}, got {k!r}")
    power = L.traceless_part().power(k)
    columns = [[power.entries[i][j] for i in range(n)] for j in range(n)]
    rank = _generic_rank(columns, L.nvars)
    for col_set in itertools.combinations(range(n), rank):
        chosen = [columns[c] for c in col_set]
        if _generic_rank(chosen, L.nvars) == rank:
            return Distribution(
                generators=tuple(power.column(c + 1) for c in col_set), dim=n
            )
    return Distribution(generators=(), dim=n)  # k-th power vanished identically


def is_integrable(
    D: Distribution, points: Sequence[Sequence[Rational]] = ()
) -> bool:
    """Frobenius test: do all Lie brackets of generators stay in the span?

    Membership is decided symbolically: the bracket of two generators lies
    in the span iff every (r+1) x (r+1) minor of the generators extended by
    the bracket vanishes identically (r = number of generators).  Sample
    ``points`` are only used to certify that the generators are generically
    independent; when none is given, independence is checked symbolically.
    Generically dependent generator lists are rejected.
    """
    r = D.rank
    if r == 0:
        return True
    n = D.dim
    nvars = D.generators[0].nvars
    columns = [list(g.components) for g in D.generators]

    certified = False
    for point in points:
        pt = as_point(point, nvars)
        matrix = RationalMatrix([[g.components[i](pt) for g in D.generators] for i in range(n)])
        if matrix.rank == r:
            certified = True
            break
    if not certified and _generic_rank(columns, nvars) < r:
        raise ValueError("the generators are generically dependent")

    if r == n:
        return True  # the full tangent space: nothing to leave
    for a, b in itertools.combinations(range(r), 2):
        bracket = lie_bracket(D.generators[a], D.generators[b])
        extended = columns + [list(bracket.components)]
        for row_set in itertools.combinations(range(n), r + 1):
            sub = [[extended[c][i] for c in range(r + 1)] for i in row_set]
            if not _poly_det(sub, nvars).is_zero:
                return False
    return True


# ----- the verdict ------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of the triangularizability decision in dimension 3 or 4."""

    kind: str  # TRIANGULARIZABLE, NOT_TRIANGULARIZABLE or PRECONDITION_VIOLATED
    dim: int
    report: RegularityReport
    obstruction_name: str  # "haantjes" (dim 3) or "tensor_t" (dim 4)
    obstruction_zero: bool | None  # None when the precondition failed
    certificates: tuple
    detail: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.kind,
            "dim": self.dim,
            "eigenvalue": str(self.report.eigenvalue),
            "regularity": self.report.to_dict(),
            "obstruction": self.obstruction_name,
            "obstruction_zero": self.obstruction_zero,
            "failing_certificates": [dict(c) for c in self.certificates],
            "detail": self.detail,
        }


def verdict(L: OperatorField, points: Sequence[Sequence[Rational]] = ()) -> Verdict:
    """Decide triangularizability of a regular operator field (dim 3 or 4).

    Regularity is sampled at fixed pseudo-random points plus any caller
    supplied ``points``; when it fails, the verdict is PreconditionViolated
    and carries the failing rank profiles.  Otherwise the decision is the
    exact vanishing of the Haantjes torsion (dim 3) or of the obstruction
    tensor built from it (dim 4).
    """
    n = L.dim
    if n not in (3, 4):
        raise ValueError(f"the decision procedure covers dimensions 3 and 4, got {n}")
    if L.nvars != n:
        raise ValueError("verdict is defined for operator fields without parameters")
    sample = default_sample_points(n) + tuple(as_point(p, n) for p in points)
    report = regularity_check(L, sample)
    obstruction_name = "haantjes" if n == 3 else "tensor_t"
    if not report.regular:
        kind, zero = PRECONDITION_VIOLATED, None
        certificates = tuple(
            {
                "point": [str(c) for c in pt],
                "ranks": list(profile),
                "expected": list(report.expected),
            }
            for pt, profile in report.failing_points()
        )
        detail = (
            "the rank profile of (L - (trace/dim) Id)^k deviates from a "
            "single Jordan block at a sampled point"
        )
    else:
        obstruction = torsion_level(L, 2) if n == 3 else tensor_t(L)
        zero = obstruction.is_zero
        kind = TRIANGULARIZABLE if zero else NOT_TRIANGULARIZABLE
        certificates = tuple(
            {"component": f"S^{i}_{{{j},{k}}}", "value": str(value)}
            for (i, j, k), value in obstruction.nonzero_components()[:3]
        )
        state = "vanishes identically" if zero else "has nonzero components"
        detail = f"the {obstruction_name} obstruction {state}"
    return Verdict(
        kind=kind,
        dim=n,
        report=report,
        obstruction_name=obstruction_name,
        obstruction_zero=zero,
        certificates=certificates,
        detail=detail,
    )
