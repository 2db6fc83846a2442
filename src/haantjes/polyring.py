"""Exact multivariate polynomial arithmetic and linear algebra over Q.

Polynomials live in Q[x1, ..., xn].  A monomial is encoded as a tuple of
(variable, exponent) pairs with 1-based variable indices, strictly ascending
variables and positive exponents; the empty tuple is the constant monomial.
A polynomial is a dict mapping monomials to nonzero Fraction coefficients,
so equality, zero tests and cancellation are exact by construction.

The module also provides RationalMatrix, a dense matrix of Fractions with
reduced row echelon form, rank, row-space comparison and nullspace
computation.  No floating point arithmetic is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Mapping, Sequence, Union

Mono = tuple  # tuple[tuple[int, int], ...]
Rational = Union[int, Fraction]


class PolyParseError(ValueError):
    """Raised for malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted (variable, exponent) tuples, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia, ib = 0, 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_cmp(a: Mono, b: Mono) -> int:
    """Graded lexicographic comparison (degree first, then lex on x1 > x2 > ...)."""
    da, db = _mono_degree(a), _mono_degree(b)
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


_GRLEX_KEY = cmp_to_key(_mono_cmp)


def _mono_str(m: Mono) -> str:
    parts = []
    for var, exp in m:
        parts.append(f"x{var}" if exp == 1 else f"x{var}^{exp}")
    return "*".join(parts)


def format_signed_sum(terms: Iterable[tuple[Rational, str]]) -> str:
    """Print sum c * name as ``name - 2*other + 1/2*third``.

    Zero coefficients are skipped, an empty name stands for a constant term
    and the empty sum prints as ``0``.
    """
    chunks = []
    for coeff, name in terms:
        if not coeff:
            continue
        mag = -coeff if coeff < 0 else coeff
        if not name:
            body = str(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{mag}*{name}"
        if not chunks:
            chunks.append(f"-{body}" if coeff < 0 else body)
        else:
            chunks.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(chunks) if chunks else "0"


class Poly:
    """A polynomial in Q[x1, ..., x{nvars}] with exact rational coefficients.

    Instances are treated as immutable: every operation returns a new Poly.
    The ``terms`` dict is exposed for read access (contractions iterate over
    it heavily) but must never be mutated.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Mono, Rational] | None = None):
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
        clean: dict[Mono, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            last = 0
            for var, exp in mono:
                if not (isinstance(var, int) and 1 <= var <= nvars):
                    raise ValueError(f"variable index {var!r} out of range 1..{nvars}")
                if not (isinstance(exp, int) and exp >= 1):
                    raise ValueError(f"exponent {exp!r} must be a positive integer")
                if var <= last:
                    raise ValueError(f"monomial {mono!r} is not sorted by variable")
                last = var
            c = Fraction(coeff)
            if c:
                clean[mono] = clean.get(mono, Fraction(0)) + c
                if not clean[mono]:
                    del clean[mono]
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Poly":
        """Internal fast constructor; ``terms`` must already be canonical."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, value: Rational, nvars: int) -> "Poly":
        return cls(nvars, {(): value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Poly":
        """The coordinate polynomial x{index} (1-based)."""
        return cls(nvars, {((index, 1),): 1})

    # ----- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; error if non-constant."""
        if not self.terms:
            return Fraction(0)
        if self.is_constant:
            return self.terms[()]
        raise ValueError(f"polynomial {self} is not constant")

    @property
    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def sorted_terms(self) -> list:
        """(monomial, coefficient) pairs in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _GRLEX_KEY(kv[0]), reverse=True)

    # ----- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"mixing polynomials in {self.nvars} and {other.nvars} variables"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other, self.nvars)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in o.terms.items():
            s = terms.get(mono, _ZERO) + c
            if s:
                terms[mono] = s
            elif mono in terms:
                del terms[mono]
        return Poly._raw(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return Poly._raw(self.nvars, {})
        acc: dict[Mono, Fraction] = {}
        a, b = self.terms, o.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                prev = acc.get(m)
                s = c1 * c2 if prev is None else prev + c1 * c2
                if s:
                    acc[m] = s
                elif prev is not None:
                    del acc[m]
        return Poly._raw(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = Poly.constant(1, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            o = Fraction(other)
            if not o:
                return not self.terms
            return self.terms == {(): o}
        return NotImplemented

    __hash__ = None  # mutable-dict backed; polynomials are not hashable

    # ----- calculus and substitution --------------------------------------

    def diff(self, var: int) -> "Poly":
        """Partial derivative with respect to x{var} (1-based)."""
        if not (1 <= var <= self.nvars):
            raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
        terms: dict[Mono, Fraction] = {}
        for mono, coeff in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        new = mono[:pos] + mono[pos + 1:]
                    else:
                        new = mono[:pos] + ((v, e - 1),) + mono[pos + 1:]
                    terms[new] = terms.get(new, _ZERO) + coeff * e
                    if not terms[new]:
                        del terms[new]
                    break
        return Poly._raw(self.nvars, terms)

    def __call__(self, point: Sequence[Rational]) -> Fraction:
        """Evaluate at a rational point; ``point`` must list all nvars values."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for var, exp in mono:
                term *= vals[var - 1] ** exp
            total += term
        return total

    def set_vars(self, values: Mapping[int, Rational]) -> "Poly":
        """Substitute constants for some variables, leaving the rest intact."""
        vals = {}
        for var, value in values.items():
            if not (1 <= var <= self.nvars):
                raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
            vals[var] = Fraction(value)
        terms: dict[Mono, Fraction] = {}
        for mono, coeff in self.terms.items():
            kept = []
            c = coeff
            for var, exp in mono:
                if var in vals:
                    c *= vals[var] ** exp
                    if not c:
                        break
                else:
                    kept.append((var, exp))
            if not c:
                continue
            key = tuple(kept)
            terms[key] = terms.get(key, _ZERO) + c
            if not terms[key]:
                del terms[key]
        return Poly._raw(self.nvars, terms)

    def substitute(self, images: Mapping[int, "Poly"]) -> "Poly":
        """Substitute polynomials for variables.

        Every image must live in the same target ring; variables without an
        image are carried over unchanged (their index must stay in range in
        the target ring).
        """
        if not images:
            return self
        target = next(iter(images.values())).nvars
        for var, img in images.items():
            if img.nvars != target:
                raise ValueError("substitution images live in different rings")
            if not (1 <= var <= self.nvars):
                raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
        result = Poly.zero(target)
        for mono, coeff in self.terms.items():
            term = Poly.constant(coeff, target)
            for var, exp in mono:
                if var in images:
                    term = term * images[var] ** exp
                else:
                    if var > target:
                        raise ValueError(
                            f"variable x{var} has no image and exceeds the target ring"
                        )
                    term = term * Poly.variable(var, target) ** exp
            result = result + term
        return result

    def with_nvars(self, nvars: int) -> "Poly":
        """Reinterpret in Q[x1..x{nvars}]; shrinking checks no variable is lost."""
        if nvars < self.nvars:
            for mono in self.terms:
                for var, _ in mono:
                    if var > nvars:
                        raise ValueError(
                            f"cannot restrict to {nvars} variables: term uses x{var}"
                        )
        return Poly._raw(nvars, dict(self.terms))

    # ----- printing and parsing -------------------------------------------

    def __str__(self) -> str:
        return format_signed_sum((c, _mono_str(m)) for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"

    @classmethod
    def parse(cls, text: str, nvars: int) -> "Poly":
        """Parse ``text`` into a polynomial in Q[x1..x{nvars}].

        Grammar: integer and p/q rational literals, variables x1..x{nvars},
        operators + - * ^ (also **), and parentheses.  There is no implicit
        multiplication.  Malformed input raises PolyParseError with the
        offending position.
        """
        return _Parser(text, nvars).run()


_ZERO = Fraction(0)

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<var>x\d+)|(?P<op>\*\*|[+\-*/^()])")


class _Parser:
    """Recursive-descent parser for the polynomial grammar above."""

    def __init__(self, text: str, nvars: int):
        self.text = text.replace("−", "-")  # accept the unicode minus sign
        self.nvars = nvars
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        n = len(self.text)
        while pos < n:
            if self.text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(self.text, pos)
            if m is None:
                raise PolyParseError(f"unexpected character {self.text[pos]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.index = 0

    def run(self) -> Poly:
        if not self.tokens:
            raise PolyParseError("empty expression", 0)
        result = self.expr()
        if self.index < len(self.tokens):
            kind, tok, pos = self.tokens[self.index]
            raise PolyParseError(f"unexpected {tok!r}", pos)
        return result

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expr(self) -> Poly:
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Poly:
        sign = 1
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.advance()
                if tok[1] == "-":
                    sign = -sign
            else:
                break
        value = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ("^", "**"):
            self.advance()
            kind, text, pos = self.advance()
            if kind != "int":
                raise PolyParseError("expected a non-negative integer exponent", pos)
            value = value ** int(text)
        return value if sign > 0 else -value

    def atom(self) -> Poly:
        kind, text, pos = self.advance()
        if kind == "int":
            numerator = int(text)
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "/":
                self.advance()
                dkind, dtext, dpos = self.advance()
                if dkind != "int":
                    raise PolyParseError("expected an integer denominator", dpos)
                if int(dtext) == 0:
                    raise PolyParseError("zero denominator", dpos)
                return Poly.constant(Fraction(numerator, int(dtext)), self.nvars)
            return Poly.constant(numerator, self.nvars)
        if kind == "var":
            index = int(text[1:])
            if not (1 <= index <= self.nvars):
                raise PolyParseError(
                    f"variable {text} out of range (expected x1..x{self.nvars})", pos
                )
            return Poly.variable(index, self.nvars)
        if kind == "op" and text == "(":
            value = self.expr()
            kind2, text2, pos2 = self.advance()
            if text2 != ")":
                raise PolyParseError("expected ')'", pos2)
            return value
        raise PolyParseError(f"unexpected {text!r}", pos)


def sum_of_products(pairs: Iterable[tuple[Poly, Poly]], nvars: int) -> Poly:
    """Exact sum of pairwise products, accumulated in a single dict.

    This is the workhorse of all tensor contractions: computing
    sum_i p_i * q_i through repeated Poly.__add__ would rebuild the
    accumulator dict per summand, while here every partial product lands
    directly in one shared accumulator.
    """
    acc: dict[Mono, Fraction] = {}
    for p, q in pairs:
        if p.nvars != nvars or q.nvars != nvars:
            raise ValueError("sum_of_products operands live in different rings")
        a, b = p.terms, q.terms
        if not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                prev = acc.get(m)
                s = c1 * c2 if prev is None else prev + c1 * c2
                if s:
                    acc[m] = s
                elif prev is not None:
                    del acc[m]
    return Poly._raw(nvars, acc)


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------


class RationalMatrix:
    """A dense matrix of Fractions with exact row-reduction.

    The width is part of the value, so a matrix without rows keeps its
    ``ncols``.  The reduced row echelon form is canonical (unique), so two
    matrices of one width have equal row spaces iff their RREFs coincide
    after dropping zero rows.
    """

    __slots__ = ("rows", "ncols", "_rref", "_pivots")

    def __init__(
        self,
        rows: "Iterable[Iterable[Rational]] | RationalMatrix",
        ncols: int | None = None,
    ):
        """``ncols`` defaults to the length of the first row (0 without rows)."""
        if isinstance(rows, RationalMatrix):
            rows, ncols = rows.rows, rows.ncols
        data = tuple(tuple(Fraction(entry) for entry in row) for row in rows)
        if ncols is None:
            ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError(f"every row must have {ncols} entries")
        self.rows = data
        self.ncols = ncols
        self._rref: tuple | None = None
        self._pivots: tuple[int, ...] | None = None

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    __hash__ = None

    def __str__(self) -> str:
        if not self.rows:
            return "[]"
        cells = [[str(entry) for entry in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    # ----- arithmetic -----------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[row[j] for row in self.rows] for j in range(self.ncols)], self.nrows
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        cols = other.transpose().rows
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows],
            other.ncols,
        )

    def mul_vector(self, vector: Sequence[Rational]) -> tuple[Fraction, ...]:
        if len(vector) != self.ncols:
            raise ValueError(f"vector length {len(vector)} != {self.ncols} columns")
        vec = [Fraction(v) for v in vector]
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, factor: Rational) -> "RationalMatrix":
        c = Fraction(factor)
        return RationalMatrix([[c * entry for entry in row] for row in self.rows], self.ncols)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        """Vertical concatenation."""
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return RationalMatrix(self.rows + other.rows, self.ncols)

    # ----- elimination ------------------------------------------------------

    def _reduce(self) -> None:
        if self._rref is not None:
            return
        m = [list(row) for row in self.rows]
        nrows, ncols = self.nrows, self.ncols
        pivots = []
        pr = 0
        for pc in range(ncols):
            pivot_row = None
            for r in range(pr, nrows):
                if m[r][pc]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            scale = m[pr][pc]
            if scale != 1:
                m[pr] = [entry / scale for entry in m[pr]]
            for r in range(nrows):
                if r != pr and m[r][pc]:
                    factor = m[r][pc]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == nrows:
                break
        self._rref = tuple(tuple(row) for row in m)
        self._pivots = tuple(pivots)

    def rref(self) -> "RationalMatrix":
        """The reduced row echelon form (computed once, then cached)."""
        self._reduce()
        out = RationalMatrix(self._rref, self.ncols)
        out._rref = self._rref
        out._pivots = self._pivots
        return out

    @property
    def rank(self) -> int:
        self._reduce()
        return len(self._pivots)

    def pivot_columns(self) -> tuple[int, ...]:
        self._reduce()
        return self._pivots

    def nonzero_rref_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        self._reduce()
        return tuple(self._rref[: len(self._pivots)])

    def rowspace_contains(self, other: "RationalMatrix") -> bool:
        """True iff every row of ``other`` lies in the row space of ``self``."""
        return self.stack(other).rank == self.rank

    def rowspace_equal(self, other: "RationalMatrix") -> bool:
        """True iff both matrices span the same row space."""
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return self.nonzero_rref_rows() == other.nonzero_rref_rows()

    def nullspace_basis(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right kernel, one vector per free column."""
        self._reduce()
        pivots = self._pivots
        ncols = self.ncols
        pivot_set = set(pivots)
        basis = []
        for free in range(ncols):
            if free in pivot_set:
                continue
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -self._rref[r][free]
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "RationalMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("only square matrices can be inverted")
        if self.rank != n:
            raise ValueError("matrix is singular")
        augmented = RationalMatrix(
            [list(row) + [1 if i == j else 0 for j in range(n)]
             for i, row in enumerate(self.rows)]
        )
        reduced = augmented.rref()
        return RationalMatrix([row[n:] for row in reduced.rows], n)
