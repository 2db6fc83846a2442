"""Exact multivariate polynomial arithmetic and linear algebra over Q.

Polynomials live in Q[x1, ..., xn].  A Poly is stored as one positive
integer denominator and a dict {packed monomial: nonzero integer numerator}.
A packed monomial is one Python int in which every variable owns a bit field
of the same width: the exponent of x{v} sits at bit ``width * (v - 1)``, so
the product of two monomials is one integer addition and the product of two
coefficients is one ``int * int``.  The form is canonical: no zero
numerators and gcd(denominator, *numerators) == 1, so equality, zero tests
and cancellation are exact by construction.  Every Poly carries an upper
bound on its largest exponent; an operation whose result could outgrow a
field repacks its operands into wider fields first, so exponents never wrap.

The packed form is the only one a Poly holds.  ``Poly.terms`` is a
read-only view {monomial: Fraction} over it, where a monomial is a tuple of
(variable, exponent) pairs with 1-based, strictly ascending variables and
positive exponents, and the empty tuple is the constant monomial.  The view
is decoded as it is read, never stored: counting its terms decodes nothing,
and reading the view of a large tensor adds no copy of it.

All sums of products, and with them ``*``, ``+``, ``-`` and ``**``, run
through one kernel, ``sum_of_products``, which accumulates integers only and
normalises its result once.  Evaluation at a point is ``set_vars`` on every
variable, and printing sorts terms by one graded-lex key.

The module also provides RationalMatrix, a dense matrix of Fractions with
reduced row echelon form, rank, row-space comparison and nullspace
computation.  No floating point arithmetic is used anywhere.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import Union

Mono = tuple  # tuple[tuple[int, int], ...]
Rational = Union[int, Fraction]

_WIDTH = 8  # bits per exponent field, doubled while an exponent needs more


class PolyParseError(ValueError):
    """Raised for malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _width_for(top: int, width: int = _WIDTH) -> int:
    """The field width, ``width`` doubled as often as needed, that holds ``top``."""
    while top >> width:
        width *= 2
    return width


def _encode(mono: Mono, width: int) -> int:
    return sum(e << width * (v - 1) for v, e in mono)


def _decode(m: int, width: int) -> Mono:
    """The (variable, exponent) pairs of a packed monomial, lowest variable first."""
    mask = (1 << width) - 1
    out = []
    while m:
        low = (m & -m).bit_length() - 1
        shift = low - low % width
        exp = (m >> shift) & mask
        out.append((shift // width + 1, exp))
        m -= exp << shift
    return tuple(out)


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


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


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells as ``[ a  b ]`` lines, each column right-aligned to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]" for row in rows
    )


class Poly:
    """A polynomial in Q[x1, ..., x{nvars}] with exact rational coefficients.

    Instances are treated as immutable: every operation returns a new Poly.
    A Poly holds only the packed form (denominator, {packed monomial: numerator},
    field width, exponent bound) described in the module docstring; the
    constructor validates its {monomial: coefficient} terms and packs them
    at once.  ``terms`` is the read-only {monomial: Fraction} view of it.
    """

    __slots__ = ("nvars", "_den", "_num", "_width", "_top")

    def __init__(self, nvars: int, terms: Mapping[Mono, Rational] | None = None):
        _check_nvars(nvars)
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
        den = lcm(*(c.denominator for c in clean.values()))
        top = max((e for mono in clean for _, e in mono), default=0)
        width = _width_for(top)
        self.nvars, self._den, self._width, self._top = nvars, den, width, top
        self._num = {_encode(mono, width): c.numerator * (den // c.denominator)
                     for mono, c in clean.items()}

    def _num_at(self, width: int) -> dict:
        """The packed numerators with fields ``width`` bits wide (>= own width)."""
        if width == self._width:
            return self._num
        return {_encode(_decode(m, self._width), width): c for m, c in self._num.items()}

    @property
    def terms(self) -> Mapping[Mono, Fraction]:
        """The read-only {monomial: Fraction} view, decoded as it is read, never stored."""
        return _Terms(self)

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls.constant(0, nvars)

    @classmethod
    def constant(cls, value: Rational, nvars: int) -> "Poly":
        return _scalar(value, _check_nvars(nvars))

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Poly":
        """The coordinate polynomial x{index} (1-based)."""
        return cls(nvars, {((index, 1),): 1})

    # ----- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; error if non-constant."""
        if self.is_constant:
            return Fraction(self._num.get(0, 0), self._den)
        raise ValueError(f"polynomial {self} is not constant")

    def sorted_terms(self) -> list:
        """(monomial, coefficient) pairs in descending graded-lex order: degree
        first, then lex on x1 > x2 > ..., hence the negated variable index."""
        return sorted(self.terms.items(), reverse=True,
                      key=lambda kv: (_mono_degree(kv[0]), [(-v, e) for v, e in kv[0]]))

    # ----- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"mixing polynomials in {self.nvars} and {other.nvars} variables"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return _scalar(other, self.nvars)
        return None

    def _combine(self, other, sign: int) -> "Poly":
        """self + sign * other, as one call into the kernel."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nv = self.nvars
        one = _from_packed(nv, 1, {0: 1}, _WIDTH, 0)
        signed = _from_packed(nv, 1, {0: sign}, _WIDTH, 0)
        return _sum_of_products(((self, one), (o, signed)), nv)

    def __add__(self, other) -> "Poly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Poly":
        return (-self)._combine(other, 1)

    def __neg__(self) -> "Poly":
        num = {m: -c for m, c in self._num.items()}
        return _from_packed(self.nvars, self._den, num, self._width, self._top)

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum_of_products(((self, o),), self.nvars)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        """Binary powering; the base is squared only while exponent bits remain."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = Poly.constant(1, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _scalar(other, self.nvars)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        width = max(self._width, other._width)
        return self._den == other._den and self._num_at(width) == other._num_at(width)

    __hash__ = None  # mutable-dict backed; polynomials are not hashable

    # ----- calculus and substitution --------------------------------------

    def diff(self, var: int) -> "Poly":
        """Partial derivative with respect to x{var} (1-based)."""
        if not (1 <= var <= self.nvars):
            raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
        shift, mask = self._width * (var - 1), (1 << self._width) - 1
        unit = 1 << shift
        num = {}
        for m, c in self._num.items():
            e = (m >> shift) & mask
            if e:
                num[m - unit] = c * e
        return _reduced(self.nvars, self._den, num, self._width, self._top)

    def exact_quotient(self, divisor: "Poly") -> "Poly":
        """The q with q * divisor == self; ValueError when there is none.

        Long division on the packed form, where integer order is a monomial
        order (lex), so ``max`` is the leading term.  Fields hold both exponent
        bounds summed plus a spare top bit: one subtraction tests that the
        next quotient monomial exists and stays within this Poly's bound.
        """
        d = self._coerce(divisor)
        if d is None:
            raise TypeError(f"cannot divide a polynomial by {type(divisor).__name__}")
        if d.is_zero:
            raise ValueError("division by the zero polynomial")
        if d.is_constant:
            return self * (1 / d.constant_value())
        width = _width_for((self._top + d._top) << 1)
        ones = sum(1 << width * v for v in range(self.nvars))
        spare, bound = ones << width - 1, self._top * ones
        rem, div = dict(self._num_at(width)), d._num_at(width)
        lead = max(div)
        quo, scale, lc = {}, 1, div[lead]
        while rem:
            m = max(rem)
            t, c = m - lead, rem[m]
            # (a | spare) - b keeps every spare bit iff no field of b exceeds a's
            if ((m | spare) - lead) & spare != spare or ((bound | spare) - t) & spare != spare:
                raise ValueError("the division leaves a nonzero remainder")
            if c % lc:  # scale quotient and remainder so that c / lc is an integer
                f = abs(lc) // gcd(c, lc)
                c, scale = c * f, scale * f
                rem, quo = ({k: v * f for k, v in x.items()} for x in (rem, quo))
            quo[t] = c = c // lc
            for m2, c2 in div.items():
                v = rem.pop(t + m2, 0) - c * c2
                if v:
                    rem[t + m2] = v
        num = {m: v * d._den for m, v in quo.items()}
        return _reduced(self.nvars, self._den * scale, num, width, self._top)

    def __call__(self, point: Sequence[Rational]) -> Fraction:
        """The value at a rational point of all nvars coordinates, by ``set_vars``."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        return self.set_vars(dict(enumerate(point, start=1))).constant_value()

    def set_vars(self, values: Mapping[int, Rational]) -> "Poly":
        """Substitute constants for some variables, leaving the rest intact."""
        width, top = self._width, self._top
        mask = (1 << width) - 1
        den = self._den
        fixed = []
        for var, value in values.items():
            if not (1 <= var <= self.nvars):
                raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
            value = Fraction(value)
            # value = a/b: a term with x{var}^e gains a^e * b^(top - e) / b^top,
            # so every coefficient stays an integer over den * b^top.
            fixed.append((width * (var - 1), value.numerator, value.denominator))
            den *= value.denominator ** top
        num: dict[int, int] = {}
        for m, c in self._num.items():
            for shift, a, b in fixed:
                e = (m >> shift) & mask
                c *= a ** e if b == 1 else a ** e * b ** (top - e)
                m -= e << shift
            if c:
                num[m] = num.get(m, 0) + c
        return _reduced(self.nvars, den, num, width, top)

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
        pairs = []
        for mono, coeff in self.terms.items():
            term = Poly.constant(1, target)
            for var, exp in mono:
                if var in images:
                    term = term * images[var] ** exp
                else:
                    if var > target:
                        raise ValueError(
                            f"variable x{var} has no image and exceeds the target ring"
                        )
                    term = term * Poly.variable(var, target) ** exp
            pairs.append((_scalar(coeff, target), term))
        return _sum_of_products(pairs, target)

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


class _Terms(Mapping):
    """The read-only {monomial: Fraction} view of a Poly, decoded as it is read.

    Nothing decoded is kept.  A lookup packs only a sorted monomial whose
    exponents fit the fields, so one that would overflow them cannot alias another."""

    __slots__ = ("_poly",)

    def __init__(self, poly: Poly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._num)

    def __iter__(self):
        width = self._poly._width
        return (_decode(m, width) for m in self._poly._num)

    def items(self) -> Iterable[tuple[Mono, Fraction]]:
        """(monomial, coefficient) pairs, decoded one at a time."""
        width, den = self._poly._width, self._poly._den
        return ((_decode(m, width), Fraction(c, den)) for m, c in self._poly._num.items())

    def __getitem__(self, mono) -> Fraction:
        p, last = self._poly, 0
        if not isinstance(mono, tuple):
            raise KeyError(mono)
        for pair in mono:
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(x, int) for x in pair)
                    and last < pair[0] <= p.nvars and 0 < pair[1] < 1 << p._width):
                raise KeyError(mono)
            last = pair[0]
        if (c := p._num.get(_encode(mono, p._width))) is None:
            raise KeyError(mono)
        return Fraction(c, p._den)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _from_packed(nvars: int, den: int, num: dict, width: int, top: int) -> Poly:
    """A Poly from a packed form that is already canonical."""
    p = object.__new__(Poly)
    p.nvars, p._den, p._num, p._width, p._top = nvars, den, num, width, top
    return p


def _reduced(nvars: int, den: int, num: dict, width: int, top: int) -> Poly:
    """A Poly from ``num``, after dropping its zero numerators and dividing
    out gcd(den, *numerators) in place."""
    for m in [m for m, c in num.items() if not c]:
        del num[m]
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            for m in num:
                num[m] //= g
    return _from_packed(nvars, den, num, width, top)


def _check_nvars(nvars) -> int:
    if not isinstance(nvars, int) or nvars < 1:
        raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
    return nvars


def _scalar(value: Rational, nvars: int) -> Poly:
    """The constant ``value`` in packed form (``nvars`` is taken as valid)."""
    c = Fraction(value)
    return _from_packed(nvars, c.denominator, {0: c.numerator} if c else {}, _WIDTH, 0)


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

    This is the workhorse of all tensor contractions: every partial product
    of sum_i p_i * q_i lands directly in one shared accumulator of integer
    numerators over the least common denominator of the pairs, and the
    result is normalised once.
    """
    return _sum_of_products(pairs, nvars)


def _sum_of_products(pairs: Iterable[tuple[Poly, Poly]], nvars: int) -> Poly:
    """The kernel behind ``sum_of_products`` and Poly's ring operations.

    The operators call it under this name, so that a profile tells their
    products apart from the contractions' sums.
    """
    ops = []
    den, width, top = 1, _WIDTH, 0
    for p, q in pairs:
        if p.nvars != nvars or q.nvars != nvars:
            raise ValueError("sum_of_products operands live in different rings")
        if p._num and q._num:
            d = p._den * q._den
            if den % d:
                den = lcm(den, d)
            if p._top + q._top > top:
                top = p._top + q._top
            if p._width != width or q._width != width:
                width = max(width, p._width, q._width)
            ops.append((p, q, d))
    if not ops:
        return _from_packed(nvars, 1, {}, _WIDTH, 0)
    # A product's exponents are at most top, so no field can overflow into
    # the next one at this width.
    if top >> width:
        width = _width_for(top, width)
    acc: dict[int, int] = {}
    get = acc.get
    for p, q, d in ops:
        a = p._num if p._width == width else p._num_at(width)
        b = q._num if q._width == width else q._num_at(width)
        if len(a) > len(b):
            a, b = b, a
        scale = den // d
        for m1, c1 in a.items():
            c1 *= scale
            for m2, c2 in b.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    return _reduced(nvars, den, acc, width, top)




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
        return format_table([[str(entry) for entry in row] for row in self.rows])

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
