"""The model's numpy-free half: parameters, brackets, orbit cases, particle.

Basis order (P0, P1, J, I).  The defining brackets

    [P_a, J] = sqrt(-h) eps_a^b P_b,   [P_a, P_b] = B eps_{ab} I,

with J and I commuting with I, are stated here once; `group` builds its
float structure constants from them, and `cohomology` its exact ones.
One exact elimination here (`rank`, `row_basis`, `kernel`, with `bracket`
and the Kirillov form `kirillov` on the table) decides every algebra
dimension: in Fractions at a float B, or for every B != 0 at once with B
a laurent.Laurent variable (`exact`, `nonzero`).  The Casimir on components, the three coadjoint orbit cases
and the classical particle's closed forms, with the two drift integrals
of its velocity that the dynamics oracles need, are here too, which
`group`, `orbits` and `dynamics` use or re-export.  Without numpy,
`cohomology`, `orbit classify` and `trajectory` load this module alone.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

__all__ = ["ModelParams", "BASIS_NAMES", "brackets", "bracket", "exact",
           "nonzero", "rank", "row_basis", "kernel", "casimir", "kirillov",
           "OrbitClass",
           "classify", "ClassicalState", "kinematical_momentum",
           "relativistic_energy", "classical_trajectory",
           "proper_time", "drift_integrals"]

BASIS_NAMES = ("P0", "P1", "J", "I")


class _Record:
    """An immutable record: its fields are the subclass's __slots__, and ==,
    hash, repr and assignment behave as in a frozen dataclass, whose import
    would cost a cold numpy-free command about 10 ms."""

    __slots__ = ()

    def __init__(self, *values):  # the subclass's __init__ validates first
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class ModelParams(_Record):
    """Central charge B and hbar."""

    __slots__ = ("B", "hbar")

    def __init__(self, B: float = 1.0, hbar: float = 1.0):
        for name, value in (("B", B), ("hbar", hbar)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if B == 0:
            raise ValueError("central charge B must be nonzero (the extension degenerates)")
        if not hbar > 0:
            raise ValueError("hbar must be positive")
        super().__init__(B, hbar)


def brackets(B) -> tuple:
    """The nonzero [T_A, T_C], A < C, as rows (A, C, (c^0, c^1, c^2, c^3)).

    With eps_{01} = -1, eps_0^1 = eps_1^0 = 1 and sqrt(-h) = 1 (see
    `conventions`).  The constants are exact in the type of B.
    """
    return ((0, 1, (0, 0, 0, -B)),   # [P0, P1] = B eps_{01} I
            (0, 2, (0, 1, 0, 0)),    # [P0, J] = eps_0^1 P1
            (1, 2, (1, 0, 0, 0)))    # [P1, J] = eps_1^0 P0


_LAURENT = f"{__package__}.laurent"


def _is_laurent(x) -> bool:
    """Whether x is a laurent.Laurent; without that module loaded, none is."""
    laurent = sys.modules.get(_LAURENT)
    return laurent is not None and isinstance(x, laurent.Laurent)


def exact(x):
    """x held exactly: a laurent.Laurent (a variable B, say) as it is, any
    other number as its Fraction, which raises for one that is not finite."""
    return x if _is_laurent(x) else Fraction(x)


def nonzero(x) -> bool:
    """x != 0 for a number.  A laurent.Laurent is decided at every value of
    its variables by the one-term rule (Laurent.nowhere_zero): one term
    c B^k is nonzero at every B != 0, and any longer polynomial raises."""
    return x.nowhere_zero() if _is_laurent(x) else bool(x)


def bracket(x, y, B) -> tuple:
    """[x, y] from the table; exact for int or Fraction x and y (B is read
    exactly, `exact`)."""
    z = [0, 0, 0, 0]
    for a, c, coeffs in brackets(exact(B)):
        minor = x[a] * y[c] - x[c] * y[a]
        if minor:
            z = [s + minor * k if k else s for s, k in zip(z, coeffs)]
    return tuple(z)


def row_basis(rows) -> list:
    """An integer basis of the span of rows: their reduced echelon form.

    Rows are scaled to integers (`as_integer_ratio` is exact for int, float,
    Fraction and laurent.Laurent) and reduced fraction-free (Bareiss, Math.
    Comp. 22 (1968) 565): each division by the last pivot is exact over any
    integral domain, and all pivots end equal.  Entries that are Laurent
    polynomials in B decide the span for every B != 0 at once: each pivot
    must pass `nonzero`'s one-term rule, so it is nonzero at every such B,
    and each B's Fractions pick the same pivot rows.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    rows = [[n * (lcm // d) for n, d in ratio]
            for ratio, lcm in ((q, math.lcm(*(d for _, d in q))) for q in ratios)]
    r, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pick = next((i for i in range(r, len(rows)) if nonzero(rows[i][col])), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        top = rows[r]
        rows = [row if i == r else
                [(top[col] * a - row[col] * b) // prev for a, b in zip(row, top)]
                for i, row in enumerate(rows)]
        prev, r = top[col], r + 1
    return rows[:r]


def rank(rows) -> int:
    """The exact rank of rows of int, float, Fraction or laurent.Laurent."""
    return len(row_basis(rows))


def kernel(rows, n: int) -> list:
    """An integer basis of {x in Q^n : r . x = 0 for every row r}."""
    basis = row_basis(rows)
    pivots = [next(j for j, v in enumerate(row) if v) for row in basis]
    kern = []
    for free in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[free] = basis[0][pivots[0]] if basis else 1  # the common pivot
        for row, col in zip(basis, pivots):
            x[col] = -row[free]
        g = math.gcd(*x)
        kern.append([v // g for v in x])
    return kern


def casimir(u, B):
    """u^A u_A = u^a u_a - 2 (B / sqrt(-h)) u_2 u_3, on floats, arrays or
    Fractions (exact for Fraction u and B)."""
    u0, u1, u2, u3 = u  # x * x rounds as numpy's x ** 2
    return u0 * u0 - u1 * u1 - 2 * B * u2 * u3


def kirillov(u, B) -> list:
    """K_{AC} = <u, [T_A, T_C]> on the table, as rows; exact in the type of u and B."""
    k = [[0] * 4 for _ in range(4)]
    for a, c, coeffs in brackets(B):
        k[a][c] = sum(x * y for x, y in zip(u, coeffs) if y)
        k[c][a] = -k[a][c]
    return k


class OrbitClass(_Record):
    """Orbit tag ("CaseA", "CaseB" or "CaseC") with its classifying labels."""

    __slots__ = ("tag", "labels", "orbit_dim")

    def __init__(self, tag: str, labels: dict, orbit_dim: int):
        if tag not in ("CaseA", "CaseB", "CaseC"):
            raise ValueError(f"unknown orbit tag {tag!r}")
        super().__init__(tag, labels, orbit_dim)


_FAMILY_ORDER = {
    (1, 1): 1, (-1, -1): 2,       # u^a u_a > 0 branches
    (1, -1): 3, (-1, 1): 4,       # u^a u_a < 0 branches
    (1, 0): 5, (0, 1): 6,         # null half-planes
    (-1, 0): 7, (0, -1): 8,
}


def classify(zeta, p: ModelParams = ModelParams()) -> OrbitClass:
    """Sort zeta (a CoadjointPoint or 4 floats) into the orbit cases."""
    u0, u1, u2, u3 = getattr(zeta, "u", zeta)
    if u3 != 0.0:
        return OrbitClass("CaseA",
                          {"casimir": casimir((u0, u1, u2, u3), p.B), "zeta3": u3},
                          orbit_dim=2)
    if u0 == 0.0 and u1 == 0.0:
        return OrbitClass("CaseB", {"zeta2": u2}, orbit_dim=0)
    # the signs of the light-cone components u0 + u1 and u0 - u1
    family = _FAMILY_ORDER[tuple((x > 0) - (x < 0) for x in (u0 + u1, u0 - u1))]
    return OrbitClass("CaseC",
                      {"zeta_a": (u0, u1),
                       "mass_square": u0 * u0 - u1 * u1,
                       "family": family},
                      orbit_dim=2)


# ---------------------------------------------------------------------------
# the classical particle, with ptilde(tau) = ptilde0 + B (tau - tau0)


class ClassicalState(_Record):
    """Initial data of the uniformly accelerated particle."""

    __slots__ = ("q1_0", "ptilde_0", "tau0", "m", "params")

    def __init__(self, q1_0: float = 0.0, ptilde_0: float = 0.0, tau0: float = 0.0,
                 m: float = 1.0, params: ModelParams = ModelParams()):
        if not math.isfinite(m):
            raise ValueError(f"mass must be finite, got {m!r}")
        if m <= 0.0:
            raise ValueError("mass must be positive")
        super().__init__(q1_0, ptilde_0, tau0, m, params)


def kinematical_momentum(cs: ClassicalState, tau: float) -> float:
    return cs.ptilde_0 + cs.params.B * (tau - cs.tau0)


def relativistic_energy(cs: ClassicalState, tau: float) -> float:
    pt = kinematical_momentum(cs, tau)
    return math.hypot(cs.m, pt)


def _displacement(cs: ClassicalState, tau: float) -> float:
    """D = q1(tau) - q1(tau0), the integral of the velocity from tau0.

    (E(tau) - E(tau0)) / B is evaluated in the equal form
    (tau - tau0)(ptilde + ptilde0) / (E(tau) + E(tau0)), finite at any B.
    """
    return (tau - cs.tau0) * (kinematical_momentum(cs, tau) + cs.ptilde_0) \
        / (relativistic_energy(cs, tau) + relativistic_energy(cs, cs.tau0))


def classical_trajectory(cs: ClassicalState, tau: float):
    """(q0, q1, ptilde) at time tau; q0 is the time coordinate itself."""
    return tau, cs.q1_0 + _displacement(cs, tau), kinematical_momentum(cs, tau)


def proper_time(cs: ClassicalState, tau: float) -> float:
    """(m/B) asinh(ptilde/m), evaluated as m (asinh(ptilde/m) / B).

    ptilde = 0 then gives 0 at any B, and ptilde = B tau gives about tau
    even at subnormal B, where m/B alone overflows.  A true value past
    the float range comes out as inf.
    """
    return cs.m * (math.asinh(kinematical_momentum(cs, tau) / cs.m)
                   / cs.params.B)


#: 1/(2k+3)!, k = 8..0: (sinh a - a)/a^2 = sum_k a^(2k+1)/(2k+3)! to round-off
#: for |a| < 1, where the direct quotient would lose up to 6 eps/a^2
_SINH_SERIES = [1.0 / math.factorial(n) for n in range(19, 2, -2)]


def _sinh_defect(a: float) -> float:
    """(sinh a - a) / a^2."""
    if abs(a) < 1.0:
        x, out = a * a, 0.0
        for c in _SINH_SERIES:  # Horner's rule, as numpy.polyval
            out = out * x + c
        return a * out
    return (math.sinh(a) - a) / (a * a)


def drift_integrals(cs: ClassicalState, tau: float):
    """(D, W, delta/B): the time integrals of the velocity v from tau0 to tau.

    With u = s - tau0 and T = tau - tau0, D = int v du and W = int u v du.
    In the rapidity theta = asinh(ptilde/m), ptilde = m sinh theta and
    u = m (sinh theta - sinh theta0) / B, which gives D and W in the forms
    of `dynamics._rapidity_forms` (Rindler, Relativity, 2nd ed., OUP 2006,
    on hyperbolic motion), with delta = theta(tau) - theta(tau0) and c the
    mean of the two; m delta / B is the proper time elapsed.  Every 1/B
    comes out exactly: D is `_displacement`'s form, and sinh delta / B =
    T (1 + cosh delta) / (E0 + E1).  The hyperbolic functions of delta and
    c are algebraic in the momenta,

        cosh delta = (E0 E1 - p0 p1) / m^2,   m^2 sinh 2c = p0 E1 + E0 p1,

    each taken as a quotient where its terms would cancel.  So W =
    m^2 (delta/B)^2 S(delta) / 2 + m^2 sinh 2c (sinh delta / B)^2 /
    (2 (1 + cosh delta)) with S = _sinh_defect, and no term cancels as
    B -> 0 or grows with |B|.  An m^2 so small that cosh delta overflows
    raises ValueError naming m.
    """
    m, T = cs.m, tau - cs.tau0
    p0, p1 = cs.ptilde_0, kinematical_momentum(cs, tau)
    e0, e1 = math.hypot(m, p0), math.hypot(m, p1)
    if p0 * p1 > 0.0:
        h = math.hypot(m, p0, p1)
        cosh_d = h / (e0 * e1 + p0 * p1) * h
        m2_sinh_2c = p0 * e1 + e0 * p1
    else:
        gap = e0 * e1 - p0 * p1
        cosh_d = gap / m / m  # m * m underflows from m ~ 1e-162
        if math.isfinite(gap) and math.isinf(cosh_d):  # m^2 too small
            raise ValueError(f"mass m = {m!r}: cosh delta = (E0 E1 - p0 p1) / m^2 "
                             "leaves the float range")
        m2_sinh_2c = (p0 - p1) / (p0 * e1 - e0 * p1) * (p0 + p1) * m * m \
            if p0 != p1 else 0.0
    sinh_b = T * (1.0 + cosh_d) / (e0 + e1)
    s = cs.params.B * sinh_b
    delta = math.asinh(s)
    delta_b = (delta / s if s else 1.0) * sinh_b
    W = 0.5 * m * m * delta_b * delta_b * _sinh_defect(delta) \
        + m2_sinh_2c * sinh_b * sinh_b / (2.0 * (1.0 + cosh_d))
    return _displacement(cs, tau), W, delta_b
