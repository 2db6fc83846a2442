"""First-order models of regular operator fields and the tensor search.

Around a regular point, an operator field with nilpotent Jordan-block
leading term can be written to first order as

    L(x) = J + J A(x) - A(x) J + O(|x|^2),

where J is the single nilpotent Jordan block and A(x)^i_j = sum_k a^i_{j;k} x_k
collects the unknown first-order coefficients; an optional scalar eigenvalue
part lam(x) = sum_k lam_k x_k enters on the diagonal.  Torsion tensors of
this family, evaluated at x = 0, are linear forms in the unknowns, so each
choice of tensor yields an exact linear system over Q whose row space can
be compared with the integrability conditions

    a^k_{i;j} - a^k_{j;i} = 0   for all  1 <= i < j < k <= n

of the flag of coordinate distributions.  ``search_tensor`` looks for
rational combinations of candidate tensors whose system is equivalent to
those conditions.

``build_linearized`` returns the family as one ``OperatorField``; whether it
has the eigenvalue part is read back from its number of variables.

Every tensor of the family is read at x = 0 once, by ``_linear_forms``,
as one sparse linear form {column: coefficient} per component; systems,
combinations and the search are built from these forms.  The one column
layout of the unknowns is ``_unknown_columns``: a^i_{j;k} in lexicographic
order of (i, j, k), then lam_k with the eigenvalue part enabled.  In the
polynomial ring, variables 1..n are the coordinates x1..xn and the unknown
in column c is variable n + 1 + c.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence, Union

from .geometry import (
    OperatorField,
    Tensor12,
    component_label,
    contract_lower_j,
    contract_lower_k,
    contract_upper,
)
from .polyring import Poly, RationalMatrix, format_signed_sum
from .torsion import nijenhuis, tensor_t, torsion_level, torsion_step

Rational = Union[int, Fraction]


def _unknown_columns(n: int, include_eigenvalue: bool) -> dict[tuple[int, ...], int]:
    """The column of each unknown, keyed (i, j, k) for a^i_{j;k} and (k,) for lam_k."""
    keys = list(product(range(1, n + 1), repeat=3))
    if include_eigenvalue:
        keys += [(k,) for k in range(1, n + 1)]
    return {key: column for column, key in enumerate(keys)}


def _unknown_name(key: tuple[int, ...]) -> str:
    if len(key) == 3:
        i, j, k = key
        return f"a^{i}_{{{j};{k}}}"
    return f"lam_{key[0]}"


def build_linearized(n: int, include_eigenvalue: bool = False) -> OperatorField:
    """The family J + J A(x) - A(x) J (+ lam(x) Id) in dimension n: an operator
    field in n + n^3 variables, n + n^3 + n with the eigenvalue part."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    columns = _unknown_columns(n, include_eigenvalue)
    nvars = n + len(columns)
    r = range(1, n + 1)

    def linear_form(keys):
        """sum_k x_k u_k, where u_k is the unknown keys[k - 1]."""
        return Poly(nvars, {((k, 1), (n + 1 + columns[key], 1)): 1 for k, key in zip(r, keys)})

    J = OperatorField.jordan_block(n, nvars=nvars)
    A = OperatorField(
        [[linear_form([(i, j, k) for k in r]) for j in r] for i in r], nvars=nvars
    )
    L = J + J.compose(A) - A.compose(J)
    if include_eigenvalue:
        lam = linear_form([(k,) for k in r])
        L = L + lam * OperatorField.identity(n, nvars=nvars)
    return L


# ----- linear systems over the unknown coefficients ---------------------------


@dataclass(frozen=True)
class LinearSystemQ:
    """A homogeneous linear system in the coefficients a^i_{j;k} (and lam_k).

    Columns are ordered lexicographically in (i, j, k), with the lam block
    appended; ``labels`` names the source of each row.
    """

    matrix: RationalMatrix
    labels: tuple[str, ...]
    dim: int
    include_eigenvalue: bool

    def __post_init__(self):
        expected = len(_unknown_columns(self.dim, self.include_eigenvalue))
        if self.matrix.nrows != len(self.labels):
            raise ValueError("one label per row is required")
        if self.matrix.ncols != expected:
            raise ValueError(
                f"system has {self.matrix.ncols} columns, expected {expected}"
            )

    @classmethod
    def _from_forms(cls, dim: int, include_eigenvalue: bool, forms) -> "LinearSystemQ":
        """The system of the nonzero forms among (label, {column: coefficient})."""
        width = len(_unknown_columns(dim, include_eigenvalue))
        rows, labels = [], []
        for label, form in forms:
            if any(form.values()):
                row = [0] * width
                for column, coefficient in form.items():
                    row[column] = coefficient
                rows.append(row)
                labels.append(label)
        return cls(RationalMatrix(rows, width), tuple(labels), dim, include_eigenvalue)

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def unknowns(self) -> tuple[str, ...]:
        return tuple(map(_unknown_name, _unknown_columns(self.dim, self.include_eigenvalue)))

    def _check_comparable(self, other: "LinearSystemQ") -> None:
        if self.dim != other.dim or self.include_eigenvalue != other.include_eigenvalue:
            raise ValueError("systems are over different unknowns")

    def rowspace_equal(self, other: "LinearSystemQ") -> bool:
        self._check_comparable(other)
        return self.matrix.rowspace_equal(other.matrix)

    def rowspace_contains(self, other: "LinearSystemQ") -> bool:
        self._check_comparable(other)
        return self.matrix.rowspace_contains(other.matrix)

    def equation_strings(self) -> list[str]:
        """Human-readable equations, one per row, zeros omitted."""
        names = self.unknowns
        return [
            f"{label}: {format_signed_sum(zip(row, names))} = 0"
            for label, row in zip(self.labels, self.matrix.rows)
        ]

    def to_dict(self) -> dict:
        names = self.unknowns
        return {
            "dim": self.dim,
            "include_eigenvalue": self.include_eigenvalue,
            "rank": self.rank,
            "rows": [
                {
                    "label": label,
                    "coefficients": {name: str(c) for name, c in zip(names, row) if c},
                }
                for label, row in zip(self.labels, self.matrix.rows)
            ],
        }


def cond3_system(n: int) -> LinearSystemQ:
    """The integrability conditions a^k_{i;j} = a^k_{j;i} for i < j < k.

    These express that all coordinate distributions <d/dx1, ..., d/dxm> stay
    involutive under the linearized family; there are C(n, 3) of them.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    columns = _unknown_columns(n, False)
    forms = (
        (
            f"{_unknown_name((k, i, j))} - {_unknown_name((k, j, i))}",
            {columns[k, i, j]: 1, columns[k, j, i]: -1},
        )
        for i, j, k in combinations(range(1, n + 1), 3)
    )
    return LinearSystemQ._from_forms(n, False, forms)


def _linear_forms(S: Tensor12) -> list[tuple[str, dict[int, Fraction]]]:
    """Every component S^i_{jk} at x = 0 as (label, {column: coefficient}),
    in lexicographic order of (i, j, k).

    ``S`` must be a tensor over the ring of ``build_linearized``; a
    component that is not a linear form in the unknowns there is reported
    by name.
    """
    n = S.dim
    forms = []
    for i, j, k in product(range(n), repeat=3):
        label = component_label(i + 1, j + 1, k + 1)
        component, form = S.comps[i][j][k], {}
        for mono, coeff in component.terms.items():
            if mono and mono[0][0] <= n:  # a term with a coordinate vanishes at x = 0
                continue
            if len(mono) != 1 or mono[0][1] != 1:
                value = component.set_vars(dict.fromkeys(range(1, n + 1), 0))
                raise ValueError(
                    f"component {label} is not a linear form in the coefficients: {value}"
                )
            form[mono[0][0] - n - 1] = coeff
        forms.append((label, form))
    return forms


def extract_system(S: Tensor12) -> LinearSystemQ:
    """The linear system { S^i_{jk}(0) = 0 } in the unknown coefficients,
    one row per component with a nonzero linear form."""
    n = S.dim
    counts = {eig: len(_unknown_columns(n, eig)) for eig in (False, True)}
    for include_eigenvalue, count in counts.items():
        if S.nvars == n + count:
            return LinearSystemQ._from_forms(n, include_eigenvalue, _linear_forms(S))
    raise ValueError(
        f"tensor has {S.nvars - n} non-coordinate variables, expected {counts[False]} "
        f"or {counts[True]}; not a linearized family tensor"
    )


def linearized_system(
    n: int, kind: str = "haantjes", include_eigenvalue: bool = False
) -> LinearSystemQ:
    """The system cut out by a torsion tensor of the linearized family.

    ``kind`` is one of ``nijenhuis``, ``haantjes``, ``level:m`` (the level-m
    torsion) or ``t`` (the dimension-four obstruction contraction).  The
    tensor is computed at x = 0 from the 1-jet of the family there.
    """
    level = _resolve_kind(kind)
    L = build_linearized(n, include_eigenvalue)
    origin = (0,) * n
    if level == "t":
        return extract_system(tensor_t(L, force=True, at=origin))
    return extract_system(torsion_level(L, level, at=origin))


def _resolve_kind(kind: str):
    if kind == "nijenhuis":
        return 1
    if kind == "haantjes":
        return 2
    if kind == "t":
        return "t"
    if kind.startswith("level:"):
        try:
            level = int(kind.split(":", 1)[1])
        except ValueError:
            level = 0
        if level >= 1:
            return level
    raise ValueError(
        f"unknown tensor kind {kind!r}; expected nijenhuis, haantjes, level:m or t"
    )


# ----- candidate tensors and the search ---------------------------------------


@dataclass(frozen=True)
class Candidate:
    """A candidate tensor: a torsion decorated with traceless-part powers.

    With M the traceless part of L and B the base tensor (the Nijenhuis or
    the Haantjes torsion), the candidate is

        C^i_{jk} = (M^u)^i_s B^s_{rt} (M^p)^r_j (M^q)^t_k,

    encoded as ``powers = (u, p, q)``.
    """

    base: str  # "nijenhuis" or "haantjes"
    powers: tuple[int, int, int]

    def __post_init__(self):
        if self.base not in ("nijenhuis", "haantjes"):
            raise ValueError(f"unknown base tensor {self.base!r}")
        if len(self.powers) != 3 or any(
            not isinstance(p, int) or p < 0 for p in self.powers
        ):
            raise ValueError("powers must be three non-negative integers")

    @property
    def label(self) -> str:
        symbol = "N" if self.base == "nijenhuis" else "H"
        u, p, q = self.powers
        return f"{symbol}({u},{p},{q})"

    def build(self, base_tensor: Tensor12, traceless: OperatorField) -> Tensor12:
        """Contract a precomputed base tensor with traceless-part powers."""
        u, p, q = self.powers
        T = base_tensor
        if p:
            T = contract_lower_j(T, traceless.power(p))
        if q:
            T = contract_lower_k(T, traceless.power(q))
        if u:
            T = contract_upper(traceless.power(u), T)
        return T


def default_candidates() -> tuple[Candidate, ...]:
    """Both torsions decorated with up to two traceless-part factors.

    Ordered by total decoration degree, then lexicographically; twenty
    candidates in total.
    """
    out = []
    for base in ("nijenhuis", "haantjes"):
        decorations = sorted(
            (
                (u, p, q)
                for u in range(3)
                for p in range(3)
                for q in range(3)
                if u + p + q <= 2
            ),
            key=lambda t: (sum(t), tuple(-v for v in t)),
        )
        out.extend(Candidate(base, powers) for powers in decorations)
    return tuple(out)


def t_pattern_candidates() -> tuple[Candidate, ...]:
    """The three contraction patterns of the dimension-four obstruction.

    The obstruction tensor is their combination with coefficients (1, -1, 1).
    """
    return (
        Candidate("haantjes", (1, 1, 0)),
        Candidate("haantjes", (1, 0, 1)),
        Candidate("haantjes", (0, 2, 0)),
    )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the search for combinations matching the integrability
    conditions of the linearized family.

    The equivalence flags are computed at construction against
    ``conditions``, which is not stored.
    """

    dim: int
    candidates: tuple[Candidate, ...]
    coefficient_basis: tuple[tuple[Fraction, ...], ...]
    random_coefficients: tuple[Fraction, ...] | None
    _candidate_forms: tuple  # per candidate: one linear form per component
    _component_labels: tuple[str, ...]
    conditions: InitVar[LinearSystemQ]
    basis_equivalent: tuple[bool, ...] = field(init=False)
    random_equivalent: bool | None = field(init=False)

    def __post_init__(self, conditions: LinearSystemQ):
        def equivalent(coefficients):
            return self.combined_system(coefficients).rowspace_equal(conditions)

        object.__setattr__(
            self, "basis_equivalent", tuple(map(equivalent, self.coefficient_basis))
        )
        object.__setattr__(
            self,
            "random_equivalent",
            None if self.random_coefficients is None else equivalent(self.random_coefficients),
        )

    def combined_system(self, coefficients: Sequence[Rational]) -> LinearSystemQ:
        """The system of the combination sum_m c_m * candidate_m."""
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) != len(self.candidates):
            raise ValueError(
                f"expected {len(self.candidates)} coefficients, got {len(coeffs)}"
            )
        forms = []
        for idx, label in enumerate(self._component_labels):
            form = defaultdict(int)
            for c, cand_forms in zip(coeffs, self._candidate_forms):
                for column, value in cand_forms[idx].items():
                    form[column] += c * value
            forms.append((label, form))
        return LinearSystemQ._from_forms(self.dim, False, forms)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "candidates": [c.label for c in self.candidates],
            "solution_dimension": len(self.coefficient_basis),
            "basis": [
                {
                    "coefficients": [str(c) for c in vec],
                    "equivalent": flag,
                }
                for vec, flag in zip(self.coefficient_basis, self.basis_equivalent)
            ],
            "random_combination": None
            if self.random_coefficients is None
            else {
                "coefficients": [str(c) for c in self.random_coefficients],
                "equivalent": self.random_equivalent,
            },
        }


def search_tensor(
    n: int,
    candidates: Sequence[Candidate] | None = None,
    seed: int = 0,
) -> SearchResult:
    """Search for combinations of candidate tensors matching the
    integrability conditions.

    For each candidate the linear system of its components at x = 0 is
    computed over the linearized family.  A combination is admissible when
    its row space is contained in that of the integrability conditions;
    the admissible coefficient vectors form a linear space, returned by an
    exact basis.  For every basis vector (and for one seeded random
    combination of them) the stronger property of row-space *equality* is
    recorded.
    """
    cands = tuple(candidates) if candidates is not None else default_candidates()
    if not cands:
        raise ValueError("at least one candidate tensor is required")
    L = build_linearized(n)
    N0 = nijenhuis(L, at=(0,) * n)
    L0 = L.set_vars(dict.fromkeys(range(1, n + 1), 0))
    bases = {"nijenhuis": N0, "haantjes": torsion_step(N0, L0)}
    traceless = L0.traceless_part()

    candidate_forms = []
    for cand in cands:
        labelled = _linear_forms(cand.build(bases[cand.base], traceless))
        candidate_forms.append(tuple(form for _, form in labelled))
    component_labels = tuple(label for label, _ in labelled)  # the same for all

    conditions = cond3_system(n)
    # c is admissible iff sum_m c_m form_m annihilates the kernel of the
    # integrability conditions, for every component.  A kernel vector has one
    # or two nonzeros; ``touching`` lists them by column.
    touching = defaultdict(list)
    for v, vec in enumerate(conditions.matrix.nullspace_basis()):
        for column, value in enumerate(vec):
            if value:
                touching[column].append((v, value))
    equations = defaultdict(lambda: [0] * len(cands))  # (component, kernel vector)
    for m, forms in enumerate(candidate_forms):
        for idx, form in enumerate(forms):
            for column, coefficient in form.items():
                for v, value in touching[column]:
                    equations[idx, v][m] += coefficient * value
    rows = sorted({tuple(eq) for eq in equations.values() if any(eq)})
    coefficient_space = RationalMatrix(rows, len(cands)).nullspace_basis()

    random_coefficients = None
    if coefficient_space:
        rng = random.Random(seed)
        weights = [Fraction(rng.randint(1, 9)) for _ in coefficient_space]
        random_coefficients = tuple(
            sum(w * vec[m] for w, vec in zip(weights, coefficient_space))
            for m in range(len(cands))
        )
    return SearchResult(
        dim=n,
        candidates=cands,
        coefficient_basis=tuple(coefficient_space),
        random_coefficients=random_coefficients,
        _candidate_forms=tuple(candidate_forms),
        _component_labels=component_labels,
        conditions=conditions,
    )
