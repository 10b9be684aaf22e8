"""Extended Poincare group in 1+1 dimensions: algebra and group layer.

Basis order for the algebra is (P0, P1, J, I); group elements carry the
global coordinates (theta0, theta1, alpha, beta) of the coset
decomposition exp(theta^a P_a) exp(alpha J) exp(beta I).  The defining
brackets, ModelParams, the Casimir on components and the exact elimination
that decides the central and derived series (decided_series, for every
B != 0 at once) live in `model`.  The group
is solvable exponential (decided_ad_spectrum), so exp is a global
diffeomorphism; exp and log are evaluated in closed form and every
operation here is total.
"""

from __future__ import annotations

import functools
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
from . import model
from .model import (_LAURENT, ModelParams, _sinh_defect, brackets, casimir,
                    row_basis)

__all__ = [
    "ModelParams",
    "AlgebraElement",
    "GroupElement",
    "CoadjointPoint",
    "bracket",
    "compose",
    "inverse",
    "identity",
    "exp_map",
    "log_map",
    "adjoint_matrix",
    "coadjoint_action",
    "casimir_pairing",
    "structural_series",
    "structural_report",
    "decided_series",
    "decided_ad_spectrum",
    "lorentz_matrix",
]


def _finite(values, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} components must be numbers, or arrays of "
                         "one shape") from None
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise ValueError(f"{what} must have finite real components, got {bad} "
                         f"not finite of shape {arr.shape}")
    return arr


def _stack_last(coords) -> np.ndarray:
    """Coordinates of one shape S, stacked on a new last axis: S + (k,).

    Object arrays of laurent.Laurent stay object arrays (_generic)."""
    if np.ndim(coords[0]) == 0:
        return np.array(coords, dtype=float)
    out = np.stack(coords, axis=-1)
    return out if out.dtype == object else out.astype(float, copy=False)


def _generic(coords) -> bool:
    """Whether coords are object arrays of laurent.Laurent polynomials: a
    generic element, on which the decided identities run the group law.
    Without the laurent module loaded there are none."""
    laurent = sys.modules.get(_LAURENT)
    return laurent is not None and all(
        isinstance(c, np.ndarray) and c.dtype == object
        and all(isinstance(x, laurent.Laurent) for x in c.flat) for c in coords)


def _components(what: str, c0, rest) -> tuple:
    """The four validated components of a 4-vector, or of a batch of them.

    Takes one array-like of shape S + (4,), or four components of one
    shape S; components of shape () come back as floats.
    """
    stacked = rest[0] is None
    arr = _finite(c0 if stacked else (c0,) + rest, what)
    if stacked and arr.ndim > 1:
        arr = np.moveaxis(arr, -1, 0)
    if arr.ndim == 0 or len(arr) != 4:
        raise ValueError(f"{what} takes 4 components")
    return tuple(arr.tolist()) if arr.ndim == 1 else tuple(arr)


@dataclass(frozen=True)
class AlgebraElement:
    """Coefficient vector V^A over the ordered basis (P0, P1, J, I).

    Like GroupElement's coordinates, the coefficients may be arrays of one
    shape S, a batch of elements; an array of shape S + (4,) gives the same
    batch.  array carries S in front of its last axis.
    """

    v: tuple

    def __init__(self, v0, v1=None, v2=None, v3=None):
        object.__setattr__(self, "v", _components("AlgebraElement", v0,
                                                  (v1, v2, v3)))

    @property
    def array(self) -> np.ndarray:
        return _stack_last(self.v)


@dataclass(frozen=True)
class GroupElement:
    """Global coordinates (theta0, theta1, alpha, beta).

    The coordinates may be arrays of one shape S, a batch of elements that
    compose, inverse and rep_apply act on at once; floats are the batch of
    shape ().  theta and array then carry S in front of their last axis.
    Object arrays of laurent.Laurent variables make a generic element,
    real and finite for every value of them.
    """

    theta0: float
    theta1: float
    alpha: float
    beta: float

    def __post_init__(self):
        coords = [self.theta0, self.theta1, self.alpha, self.beta]
        if not _generic(coords):
            _finite(coords, "GroupElement")

    @property
    def theta(self) -> np.ndarray:
        return _stack_last((self.theta0, self.theta1))

    @property
    def array(self) -> np.ndarray:
        return _stack_last((self.theta0, self.theta1, self.alpha, self.beta))


@dataclass(frozen=True)
class CoadjointPoint:
    """Covector components (u0, u1, u2, u3) in the dual basis.

    A batch of points, like AlgebraElement: components of one shape S, or
    an array of shape S + (4,).
    """

    u: tuple

    def __init__(self, u0, u1=None, u2=None, u3=None):
        object.__setattr__(self, "u", _components("CoadjointPoint", u0,
                                                  (u1, u2, u3)))

    @property
    def array(self) -> np.ndarray:
        return _stack_last(self.u)


IDENTITY = GroupElement(0.0, 0.0, 0.0, 0.0)


def identity() -> GroupElement:
    return IDENTITY


# ---------------------------------------------------------------------------
# algebra layer


def structure_constants(p: ModelParams) -> np.ndarray:
    """c[C, A, B] with [T_A, T_B] = c^C_{AB} T_C, from `model.brackets`."""
    c = np.zeros((4, 4, 4))
    for a, b, coeffs in brackets(p.B):
        c[:, a, b] = coeffs
        c[:, b, a] = np.negative(coeffs)
    return c


def bracket(x: AlgebraElement, y: AlgebraElement, p: ModelParams = ModelParams()) -> AlgebraElement:
    """Lie bracket [x, y] extended bilinearly from the defining relations.

    Batches of x and y broadcast against each other, as numpy arrays do.
    """
    c = structure_constants(p)
    return AlgebraElement(np.einsum("cab,...a,...b->...c", c, x.array, y.array))


# ---------------------------------------------------------------------------
# group layer


def _boost(alpha, theta) -> np.ndarray:
    """Lambda(alpha) theta, over the last axis of a batch."""
    return (lorentz_matrix(alpha) @ theta[..., None])[..., 0]


def _row_times(row, mat) -> np.ndarray:
    """row @ mat over a batch, one vector-matrix product per member.

    Each member's product is the one a single vector @ matrix call makes,
    so a batch row is bit-for-bit that member's scalar result.
    """
    return (row[..., None, :] @ mat)[..., 0, :]


def _eps_pairing(x, y) -> np.ndarray:
    """x^a eps_{ab} y^b, over the last axis of a batch."""
    return np.vecdot(x @ EPS_LOWER, y)


def compose(g2: GroupElement, g1: GroupElement, p: ModelParams = ModelParams()) -> GroupElement:
    """Group product g2 * g1 in global coordinates."""
    t2 = g2.theta
    rotated = _boost(g2.alpha, g1.theta)
    theta = t2 + rotated
    alpha = g2.alpha + g1.alpha
    beta = g2.beta + g1.beta + _eps_pairing((p.B / 2.0) * t2, rotated)
    return GroupElement(theta[..., 0], theta[..., 1], alpha, beta)


def inverse(g: GroupElement, p: ModelParams = ModelParams()) -> GroupElement:
    """Unique h with compose(h, g) = compose(g, h) = e."""
    rotated = _boost(-g.alpha, g.theta)
    theta_inv = -rotated
    # solve beta'' = 0 in compose(g^-1, g)
    beta_inv = -g.beta - _eps_pairing((p.B / 2.0) * theta_inv, rotated)
    return GroupElement(theta_inv[..., 0], theta_inv[..., 1], -g.alpha, beta_inv)


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
    """(Ad g)^A_B in the (P0, P1, J, I) basis; S + (4, 4) for a batch g."""
    lam = lorentz_matrix(g.alpha)
    t = g.theta
    ad = np.zeros(t.shape[:-1] + (4, 4))
    ad[..., :2, :2] = lam
    # column J, rows a: theta^c eps_c^a sqrt(-h)
    ad[..., :2, 2] = SQRT_MINUS_H * (t @ EPS_MIXED_LOWER)
    ad[..., 2, 2] = 1.0
    # row I: B theta^c eps_{cd} Lambda^d_b  |  -(B / 2 sqrt(-h)) theta^a theta_a
    ad[..., 3, :2] = p.B * _row_times(t @ EPS_LOWER, lam)
    ad[..., 3, 2] = -(p.B / (2.0 * SQRT_MINUS_H)) * minkowski_square(t)
    ad[..., 3, 3] = 1.0
    return ad


def coadjoint_action(g: GroupElement, zeta: CoadjointPoint,
                     p: ModelParams = ModelParams()) -> CoadjointPoint:
    """u_A = zeta_B (Ad g^-1)^B_A, over the batches of g and zeta."""
    ad_inv = adjoint_matrix(inverse(g, p), p)
    return CoadjointPoint(_row_times(zeta.array, ad_inv))


def casimir_pairing(u, p: ModelParams = ModelParams()):
    """u^A u_A = u^a u_a - 2 (B / sqrt(-h)) u_2 u_3, one value per member."""
    arr = u.array if hasattr(u, "array") else np.asarray(u, dtype=float)
    return casimir(np.moveaxis(arr, -1, 0), p.B)


# ---------------------------------------------------------------------------
# structural classification


def _det(rows):
    """The determinant of a square matrix, by expansion along its first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** c * x * _det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c, x in enumerate(rows[0]) if x)


@functools.cache
def decided_ad_spectrum() -> float:
    """det(lam - ad V) against lam^2 (lam^2 - V2^2), as laurent.relative_defect:
    0.0 where they are equal.

    ad V, with (ad V) y = [V, y], is built on `model.brackets` with lam, the
    components of V and B laurent.Laurent variables, so the identity is
    decided once, on first use, for every V and every B != 0.  Where it
    holds, ad V has the real spectrum {0, 0, +-V2}: the trace vanishes and
    no eigenvalue is imaginary, so the group is exponential, and it is not
    nilpotent.
    """
    from .laurent import Laurent, relative_defect
    lam, B = Laurent.var("lam"), Laurent.var("B")
    v = [Laurent.var(f"V{k}") for k in range(4)]
    ad = [[0] * 4 for _ in range(4)]
    for a, b, coeffs in brackets(B):
        for c, k in enumerate(coeffs):
            if k:
                ad[c][b] = ad[c][b] + v[a] * k
                ad[c][a] = ad[c][a] - v[b] * k
    det = _det([[(lam if r == c else 0) - ad[r][c] for c in range(4)]
                for r in range(4)])
    return relative_defect([det, -lam ** 4, lam ** 2 * v[2] ** 2])


def structural_series(B) -> dict:
    """The descending central and derived series dimensions of the algebra
    at B, as exact ranks (`model.row_basis`): in Fractions at a float B,
    and for every B != 0 at once at B a laurent.Laurent variable."""
    full = [[int(a == b) for b in range(4)] for a in range(4)]

    central = [4]
    term = full
    for _ in range(8):
        term = row_basis([model.bracket(x, y, B) for x in full for y in term])
        central.append(len(term))
        if len(central) >= 3 and central[-1] == central[-2]:
            break

    derived = [4]
    term = full
    while len(term):
        term = row_basis([model.bracket(x, y, B) for x in term for y in term])
        derived.append(len(term))

    return {"central_series_dims": central, "derived_series_dims": derived}


@functools.cache
def decided_series() -> dict:
    """structural_series at B the laurent.Laurent variable: the series
    dimensions for every B != 0, decided once per process, on first use."""
    from .laurent import Laurent
    return structural_series(Laurent.var("B"))


def structural_report(p: ModelParams = ModelParams()) -> dict:
    """The structural claims about the algebra, decided for every B != 0,
    so the same at every p: the central and derived series dimensions
    (decided_series) and ad_spectrum, the decided_ad_spectrum defect.
    Each call returns lists of its own."""
    return {**{name: list(dims) for name, dims in decided_series().items()},
            "ad_spectrum": decided_ad_spectrum()}
