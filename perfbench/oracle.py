"""Independent reference computations for checking the library's results.

Nothing here calls into ``haantjes``.  Polynomials are read as the plain
``{monomial: coefficient}`` dicts that ``Poly.terms`` exposes, where a
monomial is a sorted tuple of ``(variable, exponent)`` pairs.

The tensors of the calculus only need the 1-jet of an operator field: at a
point p, the Nijenhuis torsion is built from L(p) and the first derivatives
dL(p), and every higher level, the Froelicher-Nijenhuis bracket levels and
the dimension-four obstruction are contractions of it with L(p).  So the
value of any of them at p is a small computation on numbers, written here
from the formulas rather than from the library's code.  The same formulas
run over linear forms give the linearized systems of the tensor search.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = Fraction(0)


# ----- polynomials given as term dicts -----------------------------------------


def _powers(point, terms):
    """Powers of each coordinate up to the highest exponent used."""
    top = {}
    for mono in terms:
        for var, exp in mono:
            if exp > top.get(var, 0):
                top[var] = exp
    table = {}
    for var, exp in top.items():
        x = point[var - 1]
        row = [Fraction(1)]
        for _ in range(exp):
            row.append(row[-1] * x)
        table[var] = row
    return table


def value_at(terms, point) -> Fraction:
    """The value of a polynomial at a rational point."""
    powers = _powers(point, terms)
    total = ZERO
    for mono, coeff in terms.items():
        term = coeff
        for var, exp in mono:
            term *= powers[var][exp]
        total += term
    return total


def derivative_at(terms, var, point) -> Fraction:
    """The partial derivative d/dx{var} of a polynomial at a point."""
    powers = _powers(point, terms)
    total = ZERO
    for mono, coeff in terms.items():
        exps = dict(mono)
        e = exps.get(var, 0)
        if not e:
            continue
        term = coeff * e
        for v, x in mono:
            term *= powers[v][x - 1] if v == var else powers[v][x]
        total += term
    return total


def jet(entries, point):
    """L(p) and dL(p) of an operator given as rows of term dicts.

    ``dL[a][i][j]`` is the derivative of entry (i, j) along x{a+1}.
    """
    n = len(entries)
    Lp = [[value_at(entries[i][j], point) for j in range(n)] for i in range(n)]
    dLp = [
        [[derivative_at(entries[i][j], a + 1, point) for j in range(n)] for i in range(n)]
        for a in range(n)
    ]
    return Lp, dLp


# ----- tensors at a point ------------------------------------------------------
#
# A (1,2)-tensor is a nested list T[i][j][k] for T^i_{jk}.  Entries of L are
# numbers; entries of dL and of the tensors may be numbers or Lin forms.


def _sum(values):
    total = ZERO
    for v in values:
        total = v + total
    return total


def matmul(A, B):
    n = len(A)
    return [[_sum(A[i][s] * B[s][j] for s in range(n)) for j in range(n)] for i in range(n)]


def nijenhuis_at(Lp, dLp):
    """N^i_{jk} = L^a_j d_a L^i_k - L^a_k d_a L^i_j + L^i_s (d_k L^s_j - d_j L^s_k)."""
    n = len(Lp)
    return [
        [
            [
                _sum(
                    dLp[a][i][k] * Lp[a][j] - dLp[a][i][j] * Lp[a][k]
                    + (dLp[k][a][j] - dLp[j][a][k]) * Lp[i][a]
                    for a in range(n)
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def upper(A, T):
    """(A T)^i_{jk} = A^i_s T^s_{jk}."""
    n = len(A)
    return [
        [[_sum(T[s][j][k] * A[i][s] for s in range(n)) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def lower_j(T, A):
    """T(A xi, eta): T^i_{rk} A^r_j."""
    n = len(A)
    return [
        [[_sum(T[i][r][k] * A[r][j] for r in range(n)) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def lower_k(T, A):
    """T(xi, A eta): T^i_{jt} A^t_k."""
    n = len(A)
    return [
        [[_sum(T[i][j][t] * A[t][k] for t in range(n)) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def _combine(signs_and_tensors):
    n = len(signs_and_tensors[0][1])
    return [
        [
            [_sum(s * T[i][j][k] for s, T in signs_and_tensors) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def torsion_step_at(T, Lp):
    """L^2 T(xi, eta) + T(L xi, L eta) - L T(L xi, eta) - L T(xi, L eta)."""
    jT = lower_j(T, Lp)
    return _combine([
        (1, upper(matmul(Lp, Lp), T)),
        (1, lower_k(jT, Lp)),
        (-1, upper(Lp, jT)),
        (-1, upper(Lp, lower_k(T, Lp))),
    ])


def torsion_level_at(Lp, dLp, level):
    T = nijenhuis_at(Lp, dLp)
    for _ in range(level - 1):
        T = torsion_step_at(T, Lp)
    return T


def traceless(Lp):
    n = len(Lp)
    shift = _sum(Lp[i][i] for i in range(n)) / n
    return [[Lp[i][j] - shift if i == j else Lp[i][j] for j in range(n)] for i in range(n)]


def tensor_t_at(Lp, dLp):
    """M^i_s H^s_{rk} M^r_j - M^i_s H^s_{jr} M^r_k + H^i_{rk} (M^2)^r_j,
    with H the level-2 torsion and M the traceless part of L(p)."""
    return obstruction_from(torsion_level_at(Lp, dLp, 2), traceless(Lp))


def obstruction_from(H, M):
    MH = upper(M, H)
    return _combine([
        (1, lower_j(MH, M)),
        (-1, lower_k(MH, M)),
        (1, lower_j(H, matmul(M, M))),
    ])


def fn_bracket_at(Kp, dKp, Lp, dLp):
    """[[K, L]] on coordinate fields, from the 1-jets of K and L."""
    n = len(Kp)
    return [
        [
            [
                _sum(
                    dLp[a][i][k] * Kp[a][j] - dKp[a][i][j] * Lp[a][k]
                    + dKp[a][i][k] * Lp[a][j] - dLp[a][i][j] * Kp[a][k]
                    + (dLp[k][a][j] - dLp[j][a][k]) * Kp[i][a]
                    + (dKp[k][a][j] - dKp[j][a][k]) * Lp[i][a]
                    for a in range(n)
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def fn_step_at(T, Kp, Lp):
    """The eight-term bracket recursion at a point."""
    jK, jL = lower_j(T, Kp), lower_j(T, Lp)
    return _combine([
        (1, upper(matmul(Kp, Lp), T)),
        (1, lower_k(jK, Lp)),
        (-1, upper(Lp, jK)),
        (-1, upper(Kp, lower_k(T, Lp))),
        (1, upper(matmul(Lp, Kp), T)),
        (1, lower_k(jL, Kp)),
        (-1, upper(Kp, jL)),
        (-1, upper(Lp, lower_k(T, Kp))),
    ])


def fn_level_at(Kp, dKp, Lp, dLp, level):
    T = fn_bracket_at(Kp, dKp, Lp, dLp)
    for _ in range(level - 1):
        T = fn_step_at(T, Kp, Lp)
    return T


def tensor_values(comps, point):
    """Evaluate a tensor given as nested lists of term dicts."""
    return [[[value_at(c, point) for c in col] for col in plane] for plane in comps]


def flat_nonzero(T):
    """{(i, j, k): value} over nonzero components, 1-based."""
    n = len(T)
    return {
        (i + 1, j + 1, k + 1): T[i][j][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if T[i][j][k]
    }


# ----- printed polynomials -------------------------------------------------------

_TERM_RE = re.compile(r"\s*([+-])?\s*([^+\-\s][^\s]*)")


def parse_printed(text, nvars):
    """Read a polynomial in the canonical printed form, e.g. ``-3/2*x1^2*x3 + 5``.

    Only the library's own output format is accepted (terms joined by ' + '
    or ' - ', each a coefficient and/or a '*'-joined product of powers).
    """
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match:
            raise ValueError(f"unreadable polynomial {text!r}")
        sign, body = match.groups()
        pos = match.end()
        coeff = Fraction(1)
        exps = {}
        for factor in body.split("*"):
            if factor.startswith("x"):
                name, _, exp = factor.partition("^")
                var = int(name[1:])
                if not 1 <= var <= nvars:
                    raise ValueError(f"variable {name} out of range in {text!r}")
                exps[var] = exps.get(var, 0) + (int(exp) if exp else 1)
            else:
                coeff *= Fraction(factor)
        mono = tuple(sorted(exps.items()))
        terms[mono] = terms.get(mono, ZERO) + (-coeff if sign == "-" else coeff)
    return {m: c for m, c in terms.items() if c}


# ----- exact linear algebra ------------------------------------------------------


def rref(rows):
    """(nonzero reduced rows, pivot columns) of a list of Fraction rows."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        head = m[r][c]
        m[r] = [v / head for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(rows):
    return len(rref(rows)[1])


def same_rowspace(a, b):
    return rref(a)[0] == rref(b)[0]


def rowspace_contains(big, small):
    """Every row of ``small`` lies in the row space of ``big``."""
    return not small or rank(list(big) + list(small)) == rank(big)


def nullspace(rows, ncols):
    reduced, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(vec)
    return basis


# ----- the linearized family -----------------------------------------------------


class Lin:
    """A linear form sum_c coeff_c u_c in the family's unknowns u_c."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = coeffs or {}

    def __add__(self, other):
        if not isinstance(other, Lin):
            if other:
                raise TypeError("only homogeneous linear forms occur")
            return self
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            s = out.get(c, ZERO) + v
            if s:
                out[c] = s
            else:
                out.pop(c, None)
        return Lin(out)

    __radd__ = __add__

    def __neg__(self):
        return Lin({c: -v for c, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, factor):
        if isinstance(factor, Lin):
            raise TypeError("a product of two linear forms is not linear")
        if not factor:
            return Lin()
        return Lin({c: v * factor for c, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.coeffs)

    def row(self, width):
        out = [ZERO] * width
        for c, v in self.coeffs.items():
            out[c] = v
        return tuple(out)


def _column(n, i, j, k):
    """System column of a^{i+1}_{j+1;k+1} (0-based i, j, k)."""
    return i * n * n + j * n + k


def linearized_jet(n, include_eigenvalue):
    """L(0) = J and dL(0) of the family J + J A(x) - A(x) J (+ lam(x) Id)."""
    J = [[Fraction(1) if j == i + 1 else ZERO for j in range(n)] for i in range(n)]
    dL = []
    for k in range(n):
        # d_k (J A - A J)^i_j = a^{i+1}_{j;k} - a^i_{j-1;k}
        plane = []
        for i in range(n):
            row = []
            for j in range(n):
                coeffs = {}
                if i + 1 < n:
                    coeffs[_column(n, i + 1, j, k)] = Fraction(1)
                if j >= 1:
                    coeffs[_column(n, i, j - 1, k)] = Fraction(-1)
                if include_eigenvalue and i == j:
                    coeffs[n ** 3 + k] = Fraction(1)
                row.append(Lin(coeffs))
            plane.append(row)
        dL.append(plane)
    return J, dL


def linearized_tensor(n, kind, include_eigenvalue=False):
    """The tensor of ``kind`` of the linearized family at the origin."""
    J, dL = linearized_jet(n, include_eigenvalue)
    if kind == "t":
        return obstruction_from(torsion_level_at(J, dL, 2), traceless(J))
    if kind == "nijenhuis":
        level = 1
    elif kind == "haantjes":
        level = 2
    else:
        level = int(kind.split(":", 1)[1])
    return torsion_level_at(J, dL, level)


def system_rows(T, width, include_zero_rows=False):
    """(labels, rows) of the components, in (i, j, k) order."""
    n = len(T)
    labels, rows = [], []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                value = T[i][j][k]
                row = value.row(width) if isinstance(value, Lin) else (ZERO,) * width
                if include_zero_rows or any(row):
                    labels.append(f"S^{i + 1}_{{{j + 1},{k + 1}}}")
                    rows.append(row)
    return labels, rows


def conditions_rows(n):
    """a^k_{i;j} - a^k_{j;i} = 0 for i < j < k (1-based)."""
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row = [ZERO] * n ** 3
                row[_column(n, k, i, j)] = Fraction(1)
                row[_column(n, k, j, i)] = Fraction(-1)
                rows.append(tuple(row))
    return rows


def candidate_rows(n, base, powers):
    """All n^3 component rows of M^u B(M^p ., M^q .) at the origin."""
    J, dL = linearized_jet(n, False)
    B = torsion_level_at(J, dL, 1 if base == "nijenhuis" else 2)
    M = traceless(J)

    def power(k):
        P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(k):
            P = matmul(P, M)
        return P

    u, p, q = powers
    T = B
    if p:
        T = lower_j(T, power(p))
    if q:
        T = lower_k(T, power(q))
    if u:
        T = upper(power(u), T)
    return system_rows(T, n ** 3, include_zero_rows=True)[1]


def combined_rows(cand_rows, coefficients):
    width = len(cand_rows[0][0])
    out = []
    for idx in range(len(cand_rows[0])):
        row = [ZERO] * width
        for c, rows in zip(coefficients, cand_rows):
            if c:
                for col, v in enumerate(rows[idx]):
                    if v:
                        row[col] += c * v
        if any(row):
            out.append(tuple(row))
    return out


def admissible_dimension(n, cand_rows):
    """Dimension of the space of combinations whose rows lie in the span of
    the integrability conditions."""
    conds = conditions_rows(n)
    kernel = nullspace(conds, n ** 3)
    equations = []
    for idx in range(n ** 3):
        for vec in kernel:
            eq = [_sum(rows[idx][c] * vec[c] for c in range(n ** 3) if rows[idx][c])
                  for rows in cand_rows]
            if any(eq):
                equations.append(eq)
    return len(cand_rows) - rank(equations)
