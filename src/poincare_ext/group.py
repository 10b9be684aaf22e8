"""Extended Poincare group in 1+1 dimensions: algebra and group layer.

Basis order for the algebra is (P0, P1, J, I); group elements carry the
global coordinates (theta0, theta1, alpha, beta) of the coset
decomposition exp(theta^a P_a) exp(alpha J) exp(beta I).  The defining
brackets are

    [P_a, J] = sqrt(-h) eps_a^b P_b,   [P_a, P_b] = B eps_{ab} I,

with J and I commuting with I.  The group is solvable exponential, so
exp is a global diffeomorphism; exp and log are evaluated in closed form
and every operation here is total.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .conventions import (
    EPS_LOWER,
    EPS_MIXED_LOWER,
    SQRT_MINUS_H,
    lorentz_matrix,
    minkowski_square,
)

__all__ = [
    "ModelParams",
    "AlgebraElement",
    "GroupElement",
    "CoadjointPoint",
    "bracket",
    "ad_matrix",
    "compose",
    "inverse",
    "identity",
    "exp_map",
    "log_map",
    "adjoint_matrix",
    "coadjoint_action",
    "casimir_pairing",
    "structural_report",
    "lorentz_matrix",
]


def _finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must have finite real components, got {values!r}")
    return arr


@dataclass(frozen=True)
class ModelParams:
    """Central charge B and hbar."""

    B: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.B == 0:
            raise ValueError("central charge B must be nonzero (the extension degenerates)")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class AlgebraElement:
    """Coefficient vector V^A over the ordered basis (P0, P1, J, I)."""

    v: tuple

    def __init__(self, v0, v1=None, v2=None, v3=None):
        if v1 is None:
            vec = _finite(v0, "AlgebraElement")
        else:
            vec = _finite([v0, v1, v2, v3], "AlgebraElement")
        if vec.shape != (4,):
            raise ValueError("AlgebraElement takes 4 coefficients")
        object.__setattr__(self, "v", tuple(float(c) for c in vec))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.v)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.array + other.array)

    def __rmul__(self, c: float) -> "AlgebraElement":
        return AlgebraElement(c * self.array)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.array)


@dataclass(frozen=True)
class GroupElement:
    """Global coordinates (theta0, theta1, alpha, beta)."""

    theta0: float
    theta1: float
    alpha: float
    beta: float

    def __post_init__(self):
        _finite([self.theta0, self.theta1, self.alpha, self.beta], "GroupElement")

    @property
    def theta(self) -> np.ndarray:
        return np.array([self.theta0, self.theta1])

    @property
    def array(self) -> np.ndarray:
        return np.array([self.theta0, self.theta1, self.alpha, self.beta])


@dataclass(frozen=True)
class CoadjointPoint:
    """Covector components (u0, u1, u2, u3) in the dual basis."""

    u: tuple

    def __init__(self, u0, u1=None, u2=None, u3=None):
        if u1 is None:
            vec = _finite(u0, "CoadjointPoint")
        else:
            vec = _finite([u0, u1, u2, u3], "CoadjointPoint")
        if vec.shape != (4,):
            raise ValueError("CoadjointPoint takes 4 components")
        object.__setattr__(self, "u", tuple(float(c) for c in vec))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.u)


IDENTITY = GroupElement(0.0, 0.0, 0.0, 0.0)


def identity() -> GroupElement:
    return IDENTITY


# ---------------------------------------------------------------------------
# algebra layer


def structure_constants(p: ModelParams) -> np.ndarray:
    """c[C, A, B] with [T_A, T_B] = c^C_{AB} T_C."""
    c = np.zeros((4, 4, 4))
    # [P_a, J] = sqrt(-h) eps_a^b P_b
    for a in range(2):
        for b in range(2):
            c[b, a, 2] = SQRT_MINUS_H * EPS_MIXED_LOWER[a, b]
            c[b, 2, a] = -SQRT_MINUS_H * EPS_MIXED_LOWER[a, b]
    # [P_a, P_b] = B eps_{ab} I
    for a in range(2):
        for b in range(2):
            c[3, a, b] = p.B * EPS_LOWER[a, b]
    return c


def bracket(x: AlgebraElement, y: AlgebraElement, p: ModelParams = ModelParams()) -> AlgebraElement:
    """Lie bracket [x, y] extended bilinearly from the defining relations."""
    c = structure_constants(p)
    return AlgebraElement(np.einsum("cab,a,b->c", c, x.array, y.array))


def ad_matrix(x: AlgebraElement, p: ModelParams = ModelParams()) -> np.ndarray:
    """Matrix of ad(x) acting on coefficient vectors: (ad x) y = [x, y]."""
    c = structure_constants(p)
    return np.einsum("cab,a->cb", c, x.array)


# ---------------------------------------------------------------------------
# group layer


def compose(g2: GroupElement, g1: GroupElement, p: ModelParams = ModelParams()) -> GroupElement:
    """Group product g2 * g1 in global coordinates."""
    lam = lorentz_matrix(g2.alpha)
    rotated = lam @ g1.theta
    theta = g2.theta + rotated
    alpha = g2.alpha + g1.alpha
    beta = g2.beta + g1.beta + (p.B / 2.0) * g2.theta @ EPS_LOWER @ rotated
    return GroupElement(theta[0], theta[1], alpha, beta)


def inverse(g: GroupElement, p: ModelParams = ModelParams()) -> GroupElement:
    """Unique h with compose(h, g) = compose(g, h) = e."""
    lam = lorentz_matrix(-g.alpha)
    theta_inv = -(lam @ g.theta)
    # solve beta'' = 0 in compose(g^-1, g)
    beta_inv = -g.beta - (p.B / 2.0) * theta_inv @ EPS_LOWER @ (lam @ g.theta)
    return GroupElement(theta_inv[0], theta_inv[1], -g.alpha, beta_inv)


#: log of the largest float; beyond it e^x overflows and expm1, sinh raise
_LOG_MAX = math.log(sys.float_info.max)


def _phi(x: float) -> float:
    """expm1(x) / x, continued by phi(0) = 1."""
    return math.expm1(x) / x if x else 1.0


def _exp_times(x: float, c: float) -> float:
    """c e^x, with e^x in two halves so that a finite product survives."""
    if c == 0.0:
        return 0.0
    try:
        half = math.exp(0.5 * x)
    except OverflowError:
        return math.copysign(math.inf, c)
    return c * half * half


def _phi_times(c: float, x: float) -> float:
    """c phi(x); past _LOG_MAX, phi(x) = e^x / x to round-off."""
    if x <= _LOG_MAX:
        return c * _phi(x)
    return _exp_times(x, c / x)


def _phi_divide(c: float, x: float) -> float:
    """c / phi(x); past _LOG_MAX, 1 / phi(x) = x e^-x to round-off."""
    if x <= _LOG_MAX:
        return c / _phi(x)
    return _exp_times(-x, c * x)


#: 1/(2k+3)!, k = 8..0: (sinh a - a)/a^2 = sum_k a^(2k+1)/(2k+3)! to round-off
#: for |a| < 1, where the direct quotient would lose up to 6 eps/a^2
_SINH_SERIES = [1.0 / math.factorial(n) for n in range(19, 2, -2)]


def _sinh_defect(a: float) -> float:
    """(sinh a - a) / a^2."""
    if abs(a) < 1.0:
        return a * float(np.polyval(_SINH_SERIES, a * a))
    return (math.sinh(a) - a) / (a * a)


def _sinh_defect_times(c: float, a: float) -> float:
    """c (sinh a - a) / a^2; past _LOG_MAX, sinh a = sign(a) e^|a| / 2."""
    if abs(a) <= _LOG_MAX:
        return c * _sinh_defect(a)
    return _exp_times(abs(a), math.copysign(0.5, a) * c / (a * a))


def _overflow_check(what: str, alpha: float, *values: float) -> None:
    if not math.isfinite(sum(values)):
        raise ValueError(f"{what} overflows the float range at alpha = {alpha!r}")


def exp_map(x: AlgebraElement, p: ModelParams = ModelParams()) -> GroupElement:
    """Exponential map in closed form, a global diffeomorphism onto the group.

    alpha = V^2 and theta integrates Lambda(s alpha) V over s in [0, 1];
    Lambda is diagonal in light-cone components, so with phi(x) = expm1(x)/x

        theta0 - theta1 = (V0 - V1) phi(alpha),
        theta0 + theta1 = (V0 + V1) phi(-alpha),
        beta = V^3 + (B/2) (V0^2 - V1^2) (sinh alpha - alpha) / alpha^2.

    Past |alpha| = 709.78 a factor e^|alpha| remains; ValueError where the
    result overflows.
    """
    v0, v1, alpha, v3 = x.v
    minus = _phi_times(v0 - v1, alpha)
    plus = _phi_times(v0 + v1, -alpha)
    beta = v3 + _sinh_defect_times(0.5 * p.B * (v0 - v1) * (v0 + v1), alpha)
    _overflow_check("exp_map", alpha, minus, plus, beta)
    return GroupElement(0.5 * (plus + minus), 0.5 * (plus - minus), alpha, beta)


def log_map(g: GroupElement, p: ModelParams = ModelParams()) -> AlgebraElement:
    """Inverse of exp_map in closed form; phi > 0, so it is defined everywhere.

    ValueError where the result overflows.  The central term divides exp's (sinh a - a) / a^2 by phi(a) phi(-a) =
    4 sinh^2(a/2) / a^2; past |alpha| = 709.78 the quotient
    (sinh a - a) / (4 sinh^2(a/2)) is sign(a) / 2 to round-off.
    """
    a = g.alpha
    minus = _phi_divide(g.theta0 - g.theta1, a)
    plus = _phi_divide(g.theta0 + g.theta1, -a)
    if abs(a) <= _LOG_MAX:
        v3 = g.beta - 0.5 * p.B * minus * plus * _sinh_defect(a)
    else:
        v3 = g.beta - 0.5 * p.B * (g.theta0 - g.theta1) * (g.theta0 + g.theta1) \
            * math.copysign(0.5, a)
    _overflow_check("log_map", a, minus, plus, v3)
    return AlgebraElement(0.5 * (plus + minus), 0.5 * (plus - minus), a, v3)


def adjoint_matrix(g: GroupElement, p: ModelParams = ModelParams()) -> np.ndarray:
    """(Ad g)^A_B in the (P0, P1, J, I) basis."""
    lam = lorentz_matrix(g.alpha)
    t = g.theta
    ad = np.zeros((4, 4))
    ad[:2, :2] = lam
    # column J, rows a: theta^c eps_c^a sqrt(-h)
    ad[:2, 2] = SQRT_MINUS_H * (t @ EPS_MIXED_LOWER)
    ad[2, 2] = 1.0
    # row I: B theta^c eps_{cd} Lambda^d_b  |  -(B / 2 sqrt(-h)) theta^a theta_a
    ad[3, :2] = p.B * (t @ EPS_LOWER @ lam)
    ad[3, 2] = -(p.B / (2.0 * SQRT_MINUS_H)) * minkowski_square(t)
    ad[3, 3] = 1.0
    return ad


def coadjoint_action(g: GroupElement, zeta: CoadjointPoint,
                     p: ModelParams = ModelParams()) -> CoadjointPoint:
    """u_A = zeta_B (Ad g^-1)^B_A."""
    ad_inv = adjoint_matrix(inverse(g, p), p)
    return CoadjointPoint(zeta.array @ ad_inv)


def casimir_pairing(u, p: ModelParams = ModelParams()) -> float:
    """u^A u_A = u^a u_a - 2 (B / sqrt(-h)) u_2 u_3."""
    arr = u.array if hasattr(u, "array") else np.asarray(u, dtype=float)
    return minkowski_square(arr[:2]) - 2.0 * (p.B / SQRT_MINUS_H) * arr[2] * arr[3]


# ---------------------------------------------------------------------------
# structural classification


def row_and_null_space(mat, rcond: float = 1e-10):
    """Orthonormal bases, as rows, of the row space and the null space of mat.

    Singular values at most rcond times the largest one count as zero.
    """
    _, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > rcond * s[0])) if s.size else 0
    return vt[:rank], vt[rank:]


def _bracket_span(basis_a, basis_b, p: ModelParams):
    """Orthonormal basis of span{[x, y] : x in A, y in B}."""
    prods = [bracket(AlgebraElement(a), AlgebraElement(b), p).array
             for a in basis_a for b in basis_b]
    if not prods:
        return np.zeros((0, 4))
    return row_and_null_space(prods)[0]


def structural_report(p: ModelParams = ModelParams(), samples: int = 1000,
                      seed: int = 0) -> dict:
    """Numerical evidence for the structural claims about the algebra.

    Returns the descending central and derived series dimensions, the
    largest imaginary part and trace of ad(X) over random samples, and
    whether some sampled ad(X) has a nonzero real eigenvalue.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    full = np.eye(4)

    central = [4]
    term = full
    for _ in range(8):
        term = _bracket_span(full, term, p)
        central.append(term.shape[0])
        if len(central) >= 3 and central[-1] == central[-2]:
            break

    derived = [4]
    term = full
    while term.shape[0] > 0:
        term = _bracket_span(term, term, p)
        derived.append(term.shape[0])

    rng = np.random.default_rng(seed)
    max_imag = 0.0
    max_trace = 0.0
    has_real_eig = False
    for _ in range(samples):
        x = AlgebraElement(rng.uniform(-5.0, 5.0, 4))
        m = ad_matrix(x, p)
        eigs = np.linalg.eigvals(m)
        max_imag = max(max_imag, float(np.max(np.abs(eigs.imag))))
        max_trace = max(max_trace, abs(float(np.trace(m))))
        if np.any(np.abs(eigs.real) > 1e-8):
            has_real_eig = True

    return {
        "central_series_dims": central,
        "derived_series_dims": derived,
        "max_imag_eigenvalue": max_imag,
        "max_abs_trace": max_trace,
        "has_nonzero_real_eigenvalue": has_real_eig,
        "samples": samples,
    }
