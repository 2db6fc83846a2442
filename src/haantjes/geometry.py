"""Differential-geometric objects on Q^n with polynomial components.

All fields are expressed in the standard coordinates x1..xn.  An object of
dimension ``dim`` may live in a polynomial ring with ``nvars >= dim``
variables: the first ``dim`` variables are the coordinates themselves and
any extra variables act as formal parameters (the linearizer uses this to
carry unknown coefficients through the torsion calculus).  Differentiation
only ever touches the coordinate block x1..x{dim}.

Tensors are built by ``contract``, never evaluated on vector fields;
``VectorField`` and ``lie_bracket`` serve the image distributions of
``structure``, and a field is its tuple of components, without arithmetic.

Index conventions: raw component containers are plain 0-based Python
sequences, while the ``component``/``entry`` accessors take 1-based indices
matching the coordinate names, so ``L.entry(1, 2)`` is the coefficient of
dx2 (x-notation: column 2) in the first row.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Mapping, Sequence, Union

from .polyring import Poly, RationalMatrix, format_table, sum_of_products

Rational = Union[int, Fraction]


def as_point(point: Sequence[Rational], dim: int) -> tuple[Fraction, ...]:
    """The point as exact coordinates; ValueError unless it has ``dim`` of them."""
    values = tuple(Fraction(v) for v in point)
    if len(values) != dim:
        raise ValueError(f"point has {len(values)} coordinates, expected {dim}")
    return values


def component_label(i: int, j: int, k: int) -> str:
    """The name ``S^i_{j,k}`` of a tensor component, 1-based."""
    return f"S^{i}_{{{j},{k}}}"


def _as_poly(value, nvars: int) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError(f"component has {value.nvars} variables, expected {nvars}")
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value, nvars)
    if isinstance(value, str):
        return Poly.parse(value, nvars)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


class VectorField:
    """A polynomial vector field sum_i f^i d/dx_i on Q^dim."""

    __slots__ = ("dim", "nvars", "components")

    def __init__(self, components: Sequence, nvars: int | None = None, dim: int | None = None):
        comps = list(components)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        if dim is None:
            dim = len(comps)
        if len(comps) != dim:
            raise ValueError(f"expected {dim} components, got {len(comps)}")
        if nvars is None:
            nvars = next((c.nvars for c in comps if isinstance(c, Poly)), dim)
        if nvars < dim:
            raise ValueError(f"nvars={nvars} smaller than dim={dim}")
        self.dim = dim
        self.nvars = nvars
        self.components = tuple(_as_poly(c, nvars) for c in comps)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def component(self, i: int) -> Poly:
        """The i-th component (1-based)."""
        if not (1 <= i <= self.dim):
            raise ValueError(f"component index {i} out of range 1..{self.dim}")
        return self.components[i - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return (self.dim, self.nvars, self.components) == (other.dim, other.nvars, other.components)

    __hash__ = None

    def _check_compatible(self, other: "VectorField") -> None:
        if self.dim != other.dim or self.nvars != other.nvars:
            raise ValueError("vector fields live on different spaces")

    def evaluate(self, point: Sequence[Rational]) -> tuple[Fraction, ...]:
        return tuple(c(point) for c in self.components)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.components, start=1):
            if not c.is_zero:
                parts.append(f"({c})*d/dx{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"VectorField([{', '.join(str(c) for c in self.components)}])"


def lie_bracket(xi: VectorField, eta: VectorField) -> VectorField:
    """The Lie bracket [xi, eta]^i = xi^j d_j(eta^i) - eta^j d_j(xi^i).

    Derivatives run over the coordinate block x1..x{dim} only; parameter
    variables are constants for the bracket.
    """
    xi._check_compatible(eta)
    dim, nvars = xi.dim, xi.nvars
    comps = []
    for i in range(dim):
        pairs = []
        for j in range(dim):
            pairs.append((xi.components[j], eta.components[i].diff(j + 1)))
            pairs.append((-eta.components[j], xi.components[i].diff(j + 1)))
        comps.append(sum_of_products(pairs, nvars))
    return VectorField(comps, nvars=nvars, dim=dim)


class OperatorField:
    """A (1,1)-tensor field: a dim x dim matrix of polynomial entries.

    ``entries`` is a tuple of rows; ``entry(i, j)`` reads 1-based.
    """

    __slots__ = ("dim", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence], nvars: int | None = None):
        rows = [list(r) for r in entries]
        dim = len(rows)
        if dim < 1 or any(len(r) != dim for r in rows):
            raise ValueError("an operator field must be a square matrix")
        if nvars is None:
            nvars = next(
                (e.nvars for row in rows for e in row if isinstance(e, Poly)), dim
            )
        if nvars < dim:
            raise ValueError(f"nvars={nvars} smaller than dim={dim}")
        self.dim = dim
        self.nvars = nvars
        self.entries = tuple(tuple(_as_poly(e, nvars) for e in row) for row in rows)

    # ----- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, dim: int, nvars: int | None = None) -> "OperatorField":
        nv = nvars or dim
        return cls(
            [[1 if i == j else 0 for j in range(dim)] for i in range(dim)], nvars=nv
        )

    @classmethod
    def jordan_block(cls, dim: int, eigenvalue=0, nvars: int | None = None) -> "OperatorField":
        """The single Jordan block with ones on the first superdiagonal."""
        nv = nvars or dim
        lam = _as_poly(eigenvalue, nv)
        rows = []
        for i in range(dim):
            row = [Poly.zero(nv)] * dim
            row[i] = lam
            if i + 1 < dim:
                row[i + 1] = Poly.constant(1, nv)
            rows.append(row)
        return cls(rows, nvars=nv)

    # ----- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def entry(self, i: int, j: int) -> Poly:
        """Entry in row i, column j (1-based)."""
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"entry index ({i},{j}) out of range 1..{self.dim}")
        return self.entries[i - 1][j - 1]

    def column(self, j: int) -> VectorField:
        """Column j (1-based) as a vector field: the image of d/dx{j}."""
        if not (1 <= j <= self.dim):
            raise ValueError(f"column index {j} out of range 1..{self.dim}")
        return VectorField(
            [self.entries[i][j - 1] for i in range(self.dim)],
            nvars=self.nvars, dim=self.dim,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorField):
            return NotImplemented
        return (self.dim, self.nvars, self.entries) == (other.dim, other.nvars, other.entries)

    __hash__ = None

    def _check_compatible(self, other: "OperatorField") -> None:
        if self.dim != other.dim or self.nvars != other.nvars:
            raise ValueError("operator fields live on different spaces")

    # ----- algebra -----------------------------------------------------------

    def __add__(self, other: "OperatorField") -> "OperatorField":
        self._check_compatible(other)
        return OperatorField(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            nvars=self.nvars,
        )

    def __sub__(self, other: "OperatorField") -> "OperatorField":
        self._check_compatible(other)
        return OperatorField(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            nvars=self.nvars,
        )

    def __neg__(self) -> "OperatorField":
        return OperatorField([[-e for e in row] for row in self.entries], nvars=self.nvars)

    def __mul__(self, factor) -> "OperatorField":
        """Scalar multiplication by a polynomial or rational."""
        f = _as_poly(factor, self.nvars)
        return OperatorField([[f * e for e in row] for row in self.entries], nvars=self.nvars)

    __rmul__ = __mul__

    def compose(self, other: "OperatorField") -> "OperatorField":
        """Operator composition (matrix product): (self o other)^i_j."""
        self._check_compatible(other)
        n, nv = self.dim, self.nvars
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                row.append(
                    sum_of_products(
                        ((self.entries[i][s], other.entries[s][j]) for s in range(n)), nv
                    )
                )
            rows.append(row)
        return OperatorField(rows, nvars=nv)

    __matmul__ = compose

    def power(self, k: int) -> "OperatorField":
        """The k-th composition power; power(0) is the identity."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"power must be a non-negative integer, got {k!r}")
        result = self if k else OperatorField.identity(self.dim, self.nvars)
        for _ in range(k - 1):  # not by squaring, which multiplies the largest factors
            result = result.compose(self)
        return result

    def trace(self) -> Poly:
        total = Poly.zero(self.nvars)
        for i in range(self.dim):
            total = total + self.entries[i][i]
        return total

    def traceless_part(self) -> "OperatorField":
        """L - (trace(L)/dim) * Id, the unique traceless shift of L."""
        shift = self.trace() * Fraction(1, self.dim)
        rows = [
            [
                self.entries[i][j] - shift if i == j else self.entries[i][j]
                for j in range(self.dim)
            ]
            for i in range(self.dim)
        ]
        return OperatorField(rows, nvars=self.nvars)

    # ----- evaluation -----------------------------------------------------------

    def evaluate(self, point: Sequence[Rational]) -> RationalMatrix:
        """The numeric matrix at a rational point (all nvars values given)."""
        return RationalMatrix([[e(point) for e in row] for row in self.entries])

    def set_vars(self, values: Mapping[int, Rational]) -> "OperatorField":
        return OperatorField(
            [[e.set_vars(values) for e in row] for row in self.entries], nvars=self.nvars
        )

    def __str__(self) -> str:
        return format_table([[str(e) for e in row] for row in self.entries])

    def __repr__(self) -> str:
        return f"OperatorField(dim={self.dim}, nvars={self.nvars})"


class Tensor12:
    """A (1,2)-tensor field S^i_{jk}: one upper slot, two lower slots.

    Components are stored as a dim x dim x dim nested tuple indexed
    [i-1][j-1][k-1]; ``component(i, j, k)`` reads 1-based.  Torsions and
    brackets are 2-forms, antisymmetric in (j, k), and ``contract`` computes
    them on j < k only; the container itself does not assume it.
    A tensor has no arithmetic: a signed sum of contractions is one
    ``contract`` call.
    """

    __slots__ = ("dim", "nvars", "comps")

    def __init__(self, comps: Sequence[Sequence[Sequence]], nvars: int | None = None):
        grid = [[list(col) for col in plane] for plane in comps]
        dim = len(grid)
        if dim < 1 or any(len(p) != dim for p in grid) or any(
            len(col) != dim for p in grid for col in p
        ):
            raise ValueError("a (1,2)-tensor needs dim x dim x dim components")
        if nvars is None:
            nvars = next(
                (c.nvars for p in grid for col in p for c in col if isinstance(c, Poly)),
                dim,
            )
        if nvars < dim:
            raise ValueError(f"nvars={nvars} smaller than dim={dim}")
        self.dim = dim
        self.nvars = nvars
        self.comps = tuple(
            tuple(tuple(_as_poly(c, nvars) for c in col) for col in plane)
            for plane in grid
        )

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for p in self.comps for col in p for c in col)

    def component(self, i: int, j: int, k: int) -> Poly:
        """S^i_{jk} with 1-based indices."""
        d = self.dim
        if not (1 <= i <= d and 1 <= j <= d and 1 <= k <= d):
            raise ValueError(f"component index ({i},{j},{k}) out of range 1..{d}")
        return self.comps[i - 1][j - 1][k - 1]

    def nonzero_components(self) -> list[tuple[tuple[int, int, int], Poly]]:
        """1-based ((i, j, k), value) pairs for all nonzero components, sorted."""
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    c = self.comps[i][j][k]
                    if not c.is_zero:
                        out.append(((i + 1, j + 1, k + 1), c))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor12):
            return NotImplemented
        return (self.dim, self.nvars, self.comps) == (other.dim, other.nvars, other.comps)

    __hash__ = None

    def set_vars(self, values: Mapping[int, Rational]) -> "Tensor12":
        return Tensor12(
            [[[c.set_vars(values) for c in col] for col in p] for p in self.comps],
            nvars=self.nvars,
        )

    def evaluate(self, point: Sequence[Rational]) -> tuple:
        """Nested tuples of Fractions: the component values at a point."""
        return tuple(
            tuple(tuple(c(point) for c in col) for col in p) for p in self.comps
        )

    def __str__(self) -> str:
        nz = self.nonzero_components()
        if not nz:
            return "0"
        return "\n".join(f"{component_label(*ijk)} = {val}" for ijk, val in nz)

    def __repr__(self) -> str:
        return f"Tensor12(dim={self.dim}, nvars={self.nvars})"


# ----- slotwise contractions of a (1,2)-tensor with an operator -------------
#
# Every tensor in ``torsion`` is a signed sum of these: over the first
# derivatives of the operators for Nijenhuis and the bracket, over the
# previous tensor for the higher levels and the dimension-four obstruction.
# ``contract`` computes such a sum with one accumulator per component.

UPPER, LOWER_J, LOWER_K = "upper", "lower_j", "lower_k"


def _factor_pairs(S: Tensor12, A: OperatorField, slot: str):
    """The factor pairs of one contraction term, as a function of (i, j, k)."""
    s, a, r = S.comps, A.entries, range(S.dim)
    if slot == UPPER:  # A^i_m S^m_{jk}
        fibres = [[tuple(s[m][j][k] for m in r) for k in r] for j in r]
        return lambda i, j, k: zip(a[i], fibres[j][k])
    columns = tuple(zip(*a))
    if slot == LOWER_J:  # S^i_{mk} A^m_j
        fibres = [[tuple(s[i][m][k] for m in r) for k in r] for i in r]
        return lambda i, j, k: zip(fibres[i][k], columns[j])
    if slot == LOWER_K:  # S^i_{jm} A^m_k
        return lambda i, j, k: zip(s[i][j], columns[k])
    raise ValueError(f"unknown contraction slot {slot!r}")


def contract(*terms: tuple[Tensor12, OperatorField, str], antisymmetric: bool = False) -> Tensor12:
    """The sum of slotwise contractions, each term given as (S, A, slot).

    ``slot`` is UPPER for (A S)^i_{jk} = A^i_m S^m_{jk}, LOWER_J for
    S(A xi, eta) = S^i_{mk} A^m_j, or LOWER_K for S(xi, A eta) =
    S^i_{jm} A^m_k.  A term is subtracted by passing -A.  All products of a
    component land in one ``sum_of_products`` accumulator, so no
    intermediate tensor is built per term.

    ``antisymmetric=True`` is the caller's promise that the sum is a 2-form,
    S^i_{jk} = -S^i_{kj}: only the components with j < k are computed, the
    ones with j > k are their negatives and the diagonal is zero.
    """
    if not terms:
        raise ValueError("a contraction needs at least one term")
    n, nv = terms[0][0].dim, terms[0][0].nvars
    for S, A, _ in terms:
        if (S.dim, S.nvars) != (n, nv) or (A.dim, A.nvars) != (n, nv):
            raise ValueError("operator and tensor live on different spaces")
    pairs = [_factor_pairs(S, A, slot) for S, A, slot in terms]
    r, zero = range(n), Poly.zero(nv)
    comps = [[[zero] * n for _ in r] for _ in r]
    for i, j, k in product(r, r, r):
        if not antisymmetric or j < k:
            comps[i][j][k] = sum_of_products(chain.from_iterable(p(i, j, k) for p in pairs), nv)
        elif j > k and not comps[i][k][j].is_zero:  # (i, k, j) came first
            comps[i][j][k] = -comps[i][k][j]
    return Tensor12(comps, nvars=nv)


def contract_upper(A: OperatorField, S: Tensor12) -> Tensor12:
    """(A S)^i_{jk} = A^i_s S^s_{jk}: compose the output slot with A."""
    return contract((S, A, UPPER))


def contract_lower_j(S: Tensor12, A: OperatorField) -> Tensor12:
    """S'(xi, eta) = S(A xi, eta): S'^i_{jk} = S^i_{rk} A^r_j."""
    return contract((S, A, LOWER_J))


def contract_lower_k(S: Tensor12, A: OperatorField) -> Tensor12:
    """S'(xi, eta) = S(xi, A eta): S'^i_{jk} = S^i_{jt} A^t_k."""
    return contract((S, A, LOWER_K))


# ----- affine coordinate changes ---------------------------------------------


class AffineChange:
    """An invertible affine map y = M x + b of Q^n.

    A singular linear part is rejected at construction.  ``pushforward``
    transports operator and tensor fields along the map; since the Jacobian
    is the constant matrix M, the transport is exact matrix conjugation
    combined with substituting the inverse map into each component.
    """

    __slots__ = ("dim", "matrix", "shift", "inverse_matrix")

    def __init__(self, matrix: Iterable[Iterable[Rational]], shift: Sequence[Rational] | None = None):
        mat = RationalMatrix(matrix)
        if mat.nrows != mat.ncols:
            raise ValueError("the linear part must be square")
        self.dim = mat.nrows
        self.matrix = mat
        self.inverse_matrix = mat.inverse()  # raises ValueError when singular
        if shift is None:
            shift = [0] * self.dim
        if len(shift) != self.dim:
            raise ValueError(f"shift has length {len(shift)}, expected {self.dim}")
        self.shift = tuple(Fraction(s) for s in shift)

    def _substitution(self, nvars: int) -> dict[int, Poly]:
        """Polynomials for x_r in terms of the new coordinates y (named x again)."""
        inv = self.inverse_matrix
        offset = inv.mul_vector(self.shift)
        sub = {}
        for r in range(self.dim):
            terms = {(): -offset[r]} if offset[r] else {}
            for s in range(self.dim):
                c = inv.rows[r][s]
                if c:
                    terms[((s + 1, 1),)] = c
            sub[r + 1] = Poly(nvars, terms)
        return sub

    def _jacobians(self, nvars: int) -> tuple[OperatorField, OperatorField]:
        """The constant matrices M and M^{-1} as operator fields."""
        return (
            OperatorField(self.matrix.rows, nvars=nvars),
            OperatorField(self.inverse_matrix.rows, nvars=nvars),
        )

    def pushforward_operator(self, L: OperatorField) -> OperatorField:
        """The operator field in the new coordinates: M L(x(y)) M^{-1}."""
        if L.dim != self.dim:
            raise ValueError("operator and affine change act on different spaces")
        sub = self._substitution(L.nvars)
        moved = OperatorField(
            [[e.substitute(sub) for e in row] for row in L.entries], nvars=L.nvars
        )
        M, W = self._jacobians(L.nvars)
        return M.compose(moved).compose(W)

    def pushforward_tensor(self, S: Tensor12) -> Tensor12:
        """Transport of a (1,2)-tensor: one Jacobian up, two inverses down."""
        if S.dim != self.dim:
            raise ValueError("tensor and affine change act on different spaces")
        sub = self._substitution(S.nvars)
        moved = Tensor12(
            [[[c.substitute(sub) for c in col] for col in plane] for plane in S.comps],
            nvars=S.nvars,
        )
        M, W = self._jacobians(S.nvars)
        return contract_upper(M, contract_lower_k(contract_lower_j(moved, W), W))


# ----- operator files ---------------------------------------------------------
#
# Operator fields are stored as JSON documents:
#
#     {"dim": 3, "matrix": [["x1", "x2", "0"], ...]}
#
# with one polynomial string per entry in the grammar of Poly.parse.


def operator_from_json(text: str, filename: str = "<string>") -> OperatorField:
    """Parse an operator-field document; errors identify the file and entry."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{filename}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{filename}: expected a JSON object")
    dim = doc.get("dim")
    matrix = doc.get("matrix")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{filename}: 'dim' must be a positive integer")
    if (
        not isinstance(matrix, list)
        or len(matrix) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in matrix)
    ):
        raise ValueError(f"{filename}: 'matrix' must be a {dim}x{dim} array of strings")
    rows = []
    for i, row in enumerate(matrix):
        parsed = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise ValueError(f"{filename}: matrix[{i}][{j}] is not a string")
            try:
                parsed.append(Poly.parse(cell, dim))
            except Exception as exc:
                raise ValueError(f"{filename}: matrix[{i}][{j}]: {exc}") from exc
        rows.append(parsed)
    return OperatorField(rows, nvars=dim)


def load_operator(path) -> OperatorField:
    """Read an operator field from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return operator_from_json(text, filename=str(path))


def operator_to_json(L: OperatorField) -> str:
    """Serialize an operator field; parse(to_json(L)) round-trips exactly."""
    if L.nvars != L.dim:
        raise ValueError("only operator fields without extra parameters can be saved")
    doc = {
        "dim": L.dim,
        "matrix": [[str(e) for e in row] for row in L.entries],
    }
    return json.dumps(doc, indent=2) + "\n"
