"""Nijenhuis and higher Haantjes torsions, Froelicher-Nijenhuis brackets.

For an operator field L the Nijenhuis torsion is the (1,2)-tensor

    T_L(xi, eta) = L^2 [xi, eta] + [L xi, L eta] - L [L xi, eta] - L [xi, L eta],

and the level-m torsion is defined recursively by applying the same
four-term scheme to the previous level, with every bracket replaced by the
stored tensor:

    T^(m)(xi, eta) = L^2 T^(m-1)(xi, eta) + T^(m-1)(L xi, L eta)
                     - L T^(m-1)(L xi, eta) - L T^(m-1)(xi, L eta).

Level 1 is the Nijenhuis torsion, level 2 the classical Haantjes torsion.  With
L_out = L on the upper slot, R_j T = T(L xi, eta) and R_k T = T(xi, L eta), three
commuting operators, the step is (L_out - R_j)(L_out - R_k): the binomial form of
Tempesta and Tondo, "Higher Haantjes brackets and integrability" (Commun. Math.
Phys. 2022).  The Froelicher-Nijenhuis bracket of two operator fields and its
levels follow with an eight-term scheme that factors the same way.

Every tensor here is a contraction of the 1-jet of its operators, the
entries L^i_j and their first derivatives d_k L^i_j, in
``geometry.contract``.  Its value at a point depends only on L(p) and
dL(p), so ``at=point`` sets the coordinates in L and in each derivative as
it is taken, before any contraction; parameter variables beyond the
coordinate block stay symbolic.

Torsion and bracket levels are vector-valued 2-forms, S^i_{jk} = -S^i_{kj}:
only their components with j < k are computed.
"""

from __future__ import annotations

from .geometry import (
    LOWER_J,
    LOWER_K,
    UPPER,
    OperatorField,
    Tensor12,
    as_point,
    contract,
    contract_upper,
)


def _at(field, at):
    """The field with the coordinates x1..x{dim} set to the point ``at``;
    unchanged for ``at=None``."""
    if at is None:
        return field
    return field.set_vars(dict(enumerate(as_point(at, field.dim), start=1)))


def _transposed(S: Tensor12) -> Tensor12:
    """S with its lower slots swapped: S'^i_{jk} = S^i_{kj}."""
    s, r = S.comps, range(S.dim)
    return Tensor12([[[s[i][k][j] for k in r] for j in r] for i in r], nvars=S.nvars)


def _jet(L: OperatorField, at) -> tuple[OperatorField, Tensor12, Tensor12]:
    """The 1-jet (L, D, Dt) at ``at``: D^i_{jk} = d_k L^i_j, Dt^i_{jk} = d_j L^i_k;
    the point goes into each derivative as it is taken, so D is built once."""
    r = range(L.dim)
    if at is None:
        D = Tensor12([[[e.diff(k + 1) for k in r] for e in row] for row in L.entries])
        return L, D, _transposed(D)
    point = dict(enumerate(as_point(at, L.dim), start=1))
    D = Tensor12([[[e.diff(k + 1).set_vars(point) for k in r] for e in row] for row in L.entries])
    return L.set_vars(point), D, _transposed(D)


def _first_terms(D: Tensor12, Dt: Tensor12, A: tuple) -> list:
    """The four jet terms of the Nijenhuis torsion, with the jet (D, Dt) of
    one operator and ``A`` = (A, -A) the other:

        Dt^i_{mk} A^m_j - A^i_m Dt^m_{jk} - D^i_{jm} A^m_k + A^i_m D^m_{jk}.
    """
    A, minus_A = A
    return [(Dt, A, LOWER_J), (Dt, minus_A, UPPER), (D, minus_A, LOWER_K), (D, A, UPPER)]


def _half_step(T: Tensor12, A: OperatorField) -> Tensor12:
    """(A_out - R^A_j) T = A T(xi, eta) - T(A xi, eta), not a 2-form: all n^3 components."""
    return contract((T, A, UPPER), (T, -A, LOWER_J))


def _two_form(T: Tensor12) -> None:
    """ValueError unless T^i_{jk} = -T^i_{kj}, as the steps' ``antisymmetric=True`` needs."""
    c, r = T.comps, range(T.dim)
    for a, b in ((c[i][j][k], c[i][k][j]) for i in r for j in r for k in range(j, T.dim)):
        if not (a.is_zero and b.is_zero) and a != -b:
            raise ValueError("a recursion step needs an antisymmetric T, T^i_{jk} = -T^i_{kj}")


def nijenhuis(L: OperatorField, at=None) -> Tensor12:
    """The Nijenhuis torsion of L on the coordinate fields:

        T^i_{jk} = L^m_j d_m L^i_k - L^m_k d_m L^i_j
                   + L^i_m d_k L^m_j - L^i_m d_j L^m_k.

    Coordinate fields commute, so the L^2 [xi, eta] term drops out.
    """
    L, D, Dt = _jet(L, at)
    return contract(*_first_terms(D, Dt, (L, -L)), antisymmetric=True)


def torsion_step(T: Tensor12, L: OperatorField) -> Tensor12:
    """One level of the torsion recursion, T' = (L_out - R_j)(L_out - R_k) T.

    L_out is L on the upper slot, R_j T = T(L xi, eta), R_k T = T(xi, L eta);
    the three commute (Tempesta and Tondo, Commun. Math. Phys. 2022), and no
    derivatives of L enter.  T must be a 2-form, as every level is; ValueError otherwise.
    """
    _two_form(T)
    U = _half_step(T, L)
    return contract((U, L, UPPER), (U, -L, LOWER_K), antisymmetric=True)


def torsion_level(L: OperatorField, level: int, at=None) -> Tensor12:
    """The level-m torsion of L: level 1 is Nijenhuis, level 2 Haantjes."""
    if not isinstance(level, int) or level < 1:
        raise ValueError(f"level must be a positive integer, got {level!r}")
    T = nijenhuis(L, at=at)
    L = _at(L, at)
    for _ in range(level - 1):
        T = torsion_step(T, L)
    return T


def fn_bracket(K: OperatorField, L: OperatorField, at=None) -> Tensor12:
    """The Froelicher-Nijenhuis bracket [[K, L]] of two operator fields.

    On vector fields:

        [[K, L]](xi, eta) = [K xi, L eta] + [L xi, K eta]
                            + (K L + L K) [xi, eta]
                            - K([L xi, eta] + [xi, L eta])
                            - L([K xi, eta] + [xi, K eta]).

    [[L, L]] is twice the Nijenhuis torsion of L.
    """
    K._check_compatible(L)
    K, DK, DtK = _jet(K, at)
    L, DL, DtL = _jet(L, at)
    K, L = (K, -K), (L, -L)
    return contract(*_first_terms(DL, DtL, K), *_first_terms(DK, DtK, L), antisymmetric=True)


def fn_bracket_step(T: Tensor12, K: OperatorField, L: OperatorField) -> Tensor12:
    """One level of the bracket recursion: the eight-term contraction scheme

        T'(xi, eta) = K L T(xi, eta) + T(K xi, L eta)
                      - L T(K xi, eta) - K T(xi, L eta)
                      + L K T(xi, eta) + T(L xi, K eta)
                      - K T(L xi, eta) - L T(xi, K eta)
                    = (L_out - R^L_k)(K_out - R^K_j) T + (K_out - R^K_k)(L_out - R^L_j) T,

    factored as in ``torsion_step``.  Neither summand is a 2-form, but their
    sum is.  With K = L it collapses to twice the torsion step; T must be a 2-form.
    """
    K._check_compatible(L)
    _two_form(T)
    UK, UL = _half_step(T, K), _half_step(T, L)
    return contract((UK, L, UPPER), (UK, -L, LOWER_K), (UL, K, UPPER), (UL, -K, LOWER_K),
                    antisymmetric=True)


def fn_bracket_level(K: OperatorField, L: OperatorField, level: int, at=None) -> Tensor12:
    """The level-m bracket: level 1 is [[K, L]], higher levels iterate the
    eight-term scheme.  For K = L, level m equals 2^m times the level-m
    torsion of L."""
    if not isinstance(level, int) or level < 1:
        raise ValueError(f"level must be a positive integer, got {level!r}")
    T = fn_bracket(K, L, at=at)
    K, L = _at(K, at), _at(L, at)
    for _ in range(level - 1):
        T = fn_bracket_step(T, K, L)
    return T


def obstruction(H: Tensor12, M: OperatorField) -> Tensor12:
    """The obstruction contraction of a tensor H with an operator M:

        T^i_{jk} = M^i_s H^s_{rk} M^r_j - M^i_s H^s_{jr} M^r_k
                   + H^i_{sk} M^s_r M^r_j.

    ``tensor_t`` applies it to the Haantjes torsion and the traceless part.
    """
    MH = contract_upper(M, H)
    return contract((MH, M, LOWER_J), (MH, -M, LOWER_K), (H, M.compose(M), LOWER_J))


def tensor_t(L: OperatorField, force: bool = False, at=None) -> Tensor12:
    """The obstruction tensor built from the Haantjes torsion of L.

    With M = L - (trace(L)/dim) Id the traceless part and H the Haantjes
    torsion, T = obstruction(H, M).  Its vanishing characterizes
    triangularizability for regular operator fields in dimension four,
    which is why other dimensions are rejected unless ``force=True`` (the
    trace/dim normalization then makes the same contraction well defined,
    but no equivalence is claimed).
    """
    if L.dim != 4 and not force:
        raise ValueError(
            f"tensor_t targets dimension 4, got dim={L.dim}; "
            "pass force=True to evaluate the same contraction anyway"
        )
    L_at = _at(L, at)
    return obstruction(torsion_step(nijenhuis(L, at=at), L_at), L_at.traceless_part())

