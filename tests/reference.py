"""Direct oracles: each tensor from its defining identity on coordinate fields,
with ``lie_bracket`` and a few plain helpers over ``VectorField.components``
and ``sum_of_products``, where the library contracts the 1-jet instead.
``torsion_step_full`` and ``fn_bracket_step_full`` keep the recursion step on
all n^3 components, with both lower contractions, where the library computes
a 2-form on j < k and derives one contraction from the other.
``commuting_triangular_pair`` seeds the bracket test-bed of criterion 8.
The image flags and the Frobenius test are checked against minor
enumerations, on operators that ``conjugated_block`` draws.
``grlex_cmp`` and ``evaluate_term_by_term`` are the comparator and the
Fraction loop behind ``Poly.sorted_terms`` and ``Poly.__call__``, where the
library sorts by a key and evaluates through ``set_vars``.
``total_degree``, ``apply_point`` and ``specialize`` are the test-only
readings of a polynomial, an affine change and the linearized family: the
degree of a polynomial, the image of a point, and the family with numbers
put in for its unknowns.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations

from haantjes.geometry import (
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
)
from haantjes.linearizer import ParamOperator, _unknown_columns
from haantjes.polyring import Poly, sum_of_products
from haantjes.structure import Distribution
from haantjes.torsion import torsion_level


# ----- printing order and evaluation of one polynomial -----------------------


def grlex_cmp(a: tuple, b: tuple) -> int:
    """Graded lexicographic comparison (degree first, then lex on x1 > x2 > ...)."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return da - db
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        va, ea = a[ia]
        vb, eb = b[ib]
        if va != vb:
            # The monomial with a positive exponent on the smaller variable
            # wins, since x1 > x2 > ... in the lexicographic order.
            return 1 if va < vb else -1
        if ea != eb:
            return ea - eb
        ia += 1
        ib += 1
    if ia < len(a):
        return 1
    if ib < len(b):
        return -1
    return 0


def evaluate_term_by_term(p: Poly, point) -> Fraction:
    """p at a rational point, summed term by term in Fractions."""
    if len(point) != p.nvars:
        raise ValueError(f"expected {p.nvars} coordinates, got {len(point)}")
    vals = [Fraction(v) for v in point]
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = coeff
        for var, exp in mono:
            term *= vals[var - 1] ** exp
        total += term
    return total


def total_degree(p: Poly) -> int:
    """The largest degree of a term of p; 0 for the zero polynomial."""
    return max((sum(e for _, e in mono) for mono in p.terms), default=0)


# ----- affine changes and the linearized family ------------------------------


def apply_point(phi: AffineChange, point) -> tuple[Fraction, ...]:
    """The image M x + b of a point under the affine change y = M x + b."""
    image = phi.matrix.mul_vector(point)
    return tuple(a + b for a, b in zip(image, phi.shift))


def specialize(family: ParamOperator, coefficients, eigenvalue=None) -> OperatorField:
    """The family with numbers for its unknowns, as an operator field on Q^dim.

    ``coefficients`` maps (i, j, k) to the value of a^i_{j;k} and
    ``eigenvalue`` maps k to lam_k; every unknown not given is 0.
    """
    n = family.dim
    columns = _unknown_columns(n, family.include_eigenvalue)
    values = dict.fromkeys(range(n + 1, family.operator.nvars + 1), 0)
    lams = (((k,), value) for k, value in (eigenvalue or {}).items())
    for key, value in [*coefficients.items(), *lams]:
        values[n + 1 + columns[key]] = value
    plain = family.operator.set_vars(values)
    return OperatorField([[Poly(n, e.terms) for e in row] for row in plain.entries], nvars=n)


# ----- vector fields and tensors on coordinate fields ------------------------


def basis_field(index: int, dim: int, nvars: int | None = None) -> VectorField:
    """The coordinate field d/dx{index} (1-based)."""
    return VectorField([int(i == index) for i in range(1, dim + 1)], nvars=nvars or dim, dim=dim)


def apply_operator(A: OperatorField, xi: VectorField) -> VectorField:
    """(A xi)^i = A^i_j xi^j."""
    if (xi.dim, xi.nvars) != (A.dim, A.nvars):
        raise ValueError("operator and field live on different spaces")
    comps = [sum_of_products(zip(row, xi.components), A.nvars) for row in A.entries]
    return VectorField(comps, nvars=A.nvars, dim=A.dim)


def apply_tensor(S: Tensor12, xi: VectorField, eta: VectorField) -> VectorField:
    """S(xi, eta)^i = S^i_{jk} xi^j eta^k."""
    if not (xi.dim, xi.nvars) == (eta.dim, eta.nvars) == (S.dim, S.nvars):
        raise ValueError("tensor and fields live on different spaces")
    products = [x * y for x in xi.components for y in eta.components]  # (j, k) row-major
    comps = [sum_of_products(zip(chain(*plane), products), S.nvars) for plane in S.comps]
    return VectorField(comps, nvars=S.nvars, dim=S.dim)


def combine(*terms):
    """sum_m c_m X_m over pairs (c_m, X_m): a rational and a vector field or a
    (1,2)-tensor, all on one space."""
    first = terms[0][1]
    n, nv, r = first.dim, first.nvars, range(first.dim)
    if any((type(X), X.dim, X.nvars) != (type(first), n, nv) for _, X in terms):
        raise ValueError("terms live on different spaces")
    coefficients = [Poly.constant(c, nv) for c, _ in terms]

    def total(parts):
        return sum_of_products(zip(coefficients, parts), nv)

    if isinstance(first, VectorField):
        return VectorField([total(X.components[i] for _, X in terms) for i in r], nvars=nv, dim=n)
    return Tensor12(
        [[[total(X.comps[i][j][k] for _, X in terms) for k in r] for j in r] for i in r], nvars=nv
    )


def tensor_on_basis(dim: int, nvars: int, value) -> Tensor12:
    """The (1,2)-tensor S with S(d/dx_j, d/dx_k) = value(d/dx_j, d/dx_k)."""
    basis = [basis_field(j, dim, nvars) for j in range(1, dim + 1)]
    fields = [[value(ej, ek).components for ek in basis] for ej in basis]
    r = range(dim)
    return Tensor12([[[fields[j][k][i] for k in r] for j in r] for i in r], nvars=nvars)


def nijenhuis_direct(L: OperatorField) -> Tensor12:
    """T(xi, eta) = L^2 [xi, eta] + [L xi, L eta] - L [L xi, eta] - L [xi, L eta]."""
    l2 = L.power(2)

    def value(xi, eta):
        lxi, leta = apply_operator(L, xi), apply_operator(L, eta)
        return combine(
            (1, apply_operator(l2, lie_bracket(xi, eta))),
            (1, lie_bracket(lxi, leta)),
            (-1, apply_operator(L, lie_bracket(lxi, eta))),
            (-1, apply_operator(L, lie_bracket(xi, leta))),
        )

    return tensor_on_basis(L.dim, L.nvars, value)


def fn_bracket_direct(K: OperatorField, L: OperatorField) -> Tensor12:
    """[[K, L]](xi, eta) = [K xi, L eta] + [L xi, K eta] + (K L + L K) [xi, eta]
                          - K([L xi, eta] + [xi, L eta]) - L([K xi, eta] + [xi, K eta])."""
    kl_lk = K.compose(L) + L.compose(K)

    def value(xi, eta):
        kxi, keta = apply_operator(K, xi), apply_operator(K, eta)
        lxi, leta = apply_operator(L, xi), apply_operator(L, eta)
        return combine(
            (1, lie_bracket(kxi, leta)),
            (1, lie_bracket(lxi, keta)),
            (1, apply_operator(kl_lk, lie_bracket(xi, eta))),
            (-1, apply_operator(K, lie_bracket(lxi, eta))),
            (-1, apply_operator(K, lie_bracket(xi, leta))),
            (-1, apply_operator(L, lie_bracket(kxi, eta))),
            (-1, apply_operator(L, lie_bracket(xi, keta))),
        )

    return tensor_on_basis(K.dim, K.nvars, value)


def level_step_direct(T: Tensor12, L: OperatorField) -> Tensor12:
    """T'(xi, eta) = L^2 T(xi, eta) + T(L xi, L eta) - L T(L xi, eta) - L T(xi, L eta)."""
    l2 = L.power(2)

    def value(xi, eta):
        lxi, leta = apply_operator(L, xi), apply_operator(L, eta)
        return combine(
            (1, apply_operator(l2, apply_tensor(T, xi, eta))),
            (1, apply_tensor(T, lxi, leta)),
            (-1, apply_operator(L, apply_tensor(T, lxi, eta))),
            (-1, apply_operator(L, apply_tensor(T, xi, leta))),
        )

    return tensor_on_basis(L.dim, L.nvars, value)


def tensor_t_direct(L: OperatorField) -> Tensor12:
    """T(xi, eta) = M H(M xi, eta) - M H(xi, M eta) + H(M^2 xi, eta), with M
    the traceless part of L and H the level-2 torsion."""
    m, h = L.traceless_part(), torsion_level(L, 2)
    m2 = m.power(2)

    def value(xi, eta):
        return combine(
            (1, apply_operator(m, apply_tensor(h, apply_operator(m, xi), eta))),
            (-1, apply_operator(m, apply_tensor(h, xi, apply_operator(m, eta)))),
            (1, apply_tensor(h, apply_operator(m2, xi), eta)),
        )

    return tensor_on_basis(L.dim, L.nvars, value)


# ----- the recursion steps on all n^3 components -----------------------------


def _step_terms_full(T: Tensor12, A: OperatorField, B: OperatorField) -> list:
    """A B T(xi, eta) + T(A xi, B eta) - B T(A xi, eta) - A T(xi, B eta), with
    T(A xi, eta) and T(xi, B eta) contracted separately."""
    jA = contract_lower_j(T, A)
    return [
        (contract_upper(B, T), A, UPPER),
        (jA, B, LOWER_K),
        (jA, -B, UPPER),
        (contract_lower_k(T, B), -A, UPPER),
    ]


def torsion_step_full(T: Tensor12, L: OperatorField) -> Tensor12:
    """One level of the torsion recursion on every component; any T."""
    return contract(*_step_terms_full(T, L, L))


def fn_bracket_step_full(T: Tensor12, K: OperatorField, L: OperatorField) -> Tensor12:
    """One level of the bracket recursion on every component; any T."""
    return contract(*_step_terms_full(T, K, L), *_step_terms_full(T, L, K))


# ----- random commuting pairs for the bracket test-bed -----------------------


def _random_poly(rng: random.Random, nvars: int, degree: int, nonzero: bool = True) -> Poly:
    """A small random polynomial with integer coefficients in [-4, 4]."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(0, degree)
            exps = [0] * nvars
            for _ in range(d):
                exps[rng.randrange(nvars)] += 1
            mono = tuple((v + 1, e) for v, e in enumerate(exps) if e)
            coeff = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            terms[mono] = terms.get(mono, 0) + coeff
        p = Poly(nvars, terms)
        if not (nonzero and p.is_zero):
            return p


def commuting_triangular_pair(
    n: int, seed: int, degree: int = 2
) -> tuple[OperatorField, OperatorField]:
    """A deterministic pair of commuting strictly upper triangular fields.

    Both operators are polynomial series p_1 N + p_2 N^2 + ... in one shared
    strictly upper triangular nilpotent N with scalar polynomial
    coefficients, so they commute pointwise by construction and every entry
    has total degree at most ``degree``.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    rng = random.Random(seed)
    entry_degree = 1 if degree >= 1 else 0
    rows = [[Poly.zero(n)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = _random_poly(rng, n, entry_degree)
    N = OperatorField(rows, nvars=n)

    def series() -> OperatorField:
        # The (1,2)-entry is p_1 * N[1][2] with both factors nonzero, so the
        # result is never the zero operator.
        total = OperatorField([[0] * n for _ in range(n)], nvars=n)
        power = OperatorField.identity(n, n)
        for i in range(1, n):
            power = power.compose(N)
            coeff_degree = degree - i * entry_degree
            if coeff_degree < 0:
                break
            total = total + power * _random_poly(rng, n, coeff_degree)
        return total

    return series(), series()


# ----- generic rank by minors: the oracle for structure's elimination --------


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
        for col_set in combinations(range(len(columns)), size):
            for row_set in combinations(range(nrows), size):
                sub = [[columns[c][r] for c in col_set] for r in row_set]
                if not _poly_det(sub, nvars).is_zero:
                    return size
    return 0


def image_flag_by_minors(L: OperatorField, k: int) -> Distribution:
    """The lexicographically first maximal independent subset of the columns
    of (L - (trace/dim) Id)^k, each subset tested by its minors."""
    n = L.dim
    power = L.traceless_part().power(k)
    columns = [[power.entries[i][j] for i in range(n)] for j in range(n)]
    rank = _generic_rank(columns, L.nvars)
    for col_set in combinations(range(n), rank):
        chosen = [columns[c] for c in col_set]
        if _generic_rank(chosen, L.nvars) == rank:
            return Distribution(
                generators=tuple(power.column(c + 1) for c in col_set), dim=n
            )
    return Distribution(generators=(), dim=n)  # k-th power vanished identically


def is_integrable_by_minors(D: Distribution) -> bool:
    """Frobenius test: the bracket of two generators lies in the span iff
    every (r+1) x (r+1) minor of the generators bordered by it vanishes."""
    r = D.rank
    if r == 0:
        return True
    n = D.dim
    nvars = D.generators[0].nvars
    columns = [list(g.components) for g in D.generators]
    if _generic_rank(columns, nvars) < r:
        raise ValueError("the generators are generically dependent")
    if r == n:
        return True  # the full tangent space: nothing to leave
    for a, b in combinations(range(r), 2):
        bracket = lie_bracket(D.generators[a], D.generators[b])
        extended = columns + [list(bracket.components)]
        for row_set in combinations(range(n), r + 1):
            sub = [[extended[c][i] for c in range(r + 1)] for i in row_set]
            if not _poly_det(sub, nvars).is_zero:
                return False
    return True


def conjugated_block(n: int, seed: int) -> OperatorField:
    """L = P J P^-1 for the nilpotent Jordan block J and a unipotent P = I + N.

    N is strictly lower triangular; row by row, each entry is
    c0 + c1 x1 + ... + cn xn with every c drawn as randint(-2, 2) from
    ``random.Random(seed)``.  P^-1 is the finite series sum_{k<n} (-N)^k.
    """
    rng = random.Random(seed)
    x = [Poly.constant(1, n)] + [Poly.variable(v, n) for v in range(1, n + 1)]
    rows = [[Poly.zero(n)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = sum_of_products(((xv, Poly.constant(rng.randint(-2, 2), n)) for xv in x), n)
    N = OperatorField(rows, nvars=n)
    identity = OperatorField.identity(n, n)
    inverse, term, minus_N = identity, identity, -N
    for _ in range(1, n):
        term = term.compose(minus_N)
        inverse = inverse + term
    return (identity + N).compose(OperatorField.jordan_block(n)).compose(inverse)
