"""Classical observables on the reduced phase space and their quantization.

Phase space is the plane with coordinates (q, p), q = q0 - q1 the
light-cone position and p = -B q0 the momentum coordinate; the Poisson
bracket orientation is the one that makes the comoments a Lie-algebra
homomorphism onto the group brackets.

Symbols and operators are coefficient arrays: an observable is a real
array c[i, j] multiplying q^i p^j, an operator a complex array c[i, j]
multiplying x^i (d/dx)^j.  Quantization is one Weyl-ordering rule that
maps the first to the second, term by term.  Observables of degree
three and higher are rejected: no consistent extension of the degree
<= 2 map exists (Groenewold--Van Hove obstruction).

The Dirac, hermiticity and covariance checks are exact algebra, with no
quadrature, on the operator algebra of irreps, which the representation
checks share.  Operators multiply in the Weyl algebra (QuantOperator @),
family A's T(g) conjugates a polynomial operator into another
(QuantOperator.conjugated), and the residuals are norms and inner
products on the probes' Hermite coefficients, in irreps' Gaussian-moment
matrix kernel.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .conventions import SQRT_MINUS_H
from .group import (
    AlgebraElement,
    CoadjointPoint,
    GroupElement,
    ModelParams,
    ad_matrix,
    bracket,
    inverse,
)
from .irreps import (
    AffinePhase,
    QuantOperator,
    RepParams,
    _affine_phase,
    _columns,
    _in_float_range,
    _poly_pullback,
    _polymul2,
    _relative_residual,
    _size,
    _terms,
    case_a,
    default_probes,
    hermiticity_residual,
)
from .wavefunctions import _window

__all__ = [
    "NoGoError",
    "PhasePoint",
    "PolynomialObservable",
    "QuantOperator",
    "parse_poly",
    "poisson_bracket",
    "comoments",
    "comoment_observables",
    "momentum_map",
    "quantize",
    "hermiticity_residual",
    "verify_dirac",
    "dirac_residuals",
    "verify_covariance",
    "covariance_suite",
    "pullback_residual",
    "rep_for_mass",
]


class NoGoError(ValueError):
    """Raised when quantization of a degree >= 3 observable is requested."""


@dataclass(frozen=True)
class PhasePoint:
    """Point of the reduced phase space in (q, p) coordinates.

    q and p may be arrays of one shape S, a batch of points.
    """

    q: float
    p: float

    def lightcone(self, params: ModelParams):
        """The underlying (q0, q1) pair; the bijection is exact."""
        q0 = -self.p / params.B
        return q0, -self.q + q0

    @staticmethod
    def from_lightcone(q0: float, q1: float, params: ModelParams) -> "PhasePoint":
        return PhasePoint(q0 - q1, -params.B * q0)


@dataclass(frozen=True)
class PolynomialObservable:
    """Real polynomial in (q, p) of total degree at most 2.

    c[i, j] multiplies q^i p^j in a fixed 3 x 3 array, and coeffs holds
    its nonzero entries as ((i, j), value) pairs sorted by (i, j).  The
    table is a dict keyed by (i, j), or such an array.  The degree gate
    is structural: higher-degree tables cannot be constructed.
    """

    coeffs: tuple
    c: np.ndarray = field(compare=False, repr=False)

    def __init__(self, table):
        if isinstance(table, np.ndarray):
            table = np.ndenumerate(table)
        items = tuple(sorted((k, float(v)) for k, v in dict(table).items()
                             if v != 0.0))
        c = np.zeros((3, 3))
        for (i, j), v in items:
            if i < 0 or j < 0:
                raise ValueError("negative monomial exponent")
            if i + j > 2:
                raise NoGoError(
                    "observables of degree >= 3 admit no consistent "
                    "quantization extending the degree <= 2 map")
            c[i, j] = v
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "coeffs", items)

    def __getitem__(self, key) -> float:
        return dict(self.coeffs).get(key, 0.0)

    @property
    def degree(self) -> int:
        return max((i + j for (i, j), _ in self.coeffs), default=0)

    def __call__(self, s: PhasePoint) -> float:
        # squares as products: pow(q, 2) can miss the rounded q * q by a
        # bit, and numpy squares arrays as q * q, so a point and a batch agree
        q, p = ((x ** 0, x, x * x) for x in (s.q, s.p))
        return sum(v * q[i] * p[j] for (i, j), v in self.coeffs)

    def __add__(self, other):
        return PolynomialObservable(self.c + other.c)

    def __rmul__(self, c: float):
        return PolynomialObservable(c * self.c)

    def __sub__(self, other):
        return self + (-1.0) * other

    def substitute_affine(self, q_map, p_map) -> "PolynomialObservable":
        """Compose with q -> q_map, p -> p_map, both affine (cq, cp, c0)."""
        return PolynomialObservable(_substituted(self.c, q_map, p_map))


def _substituted(c, q_map, p_map):
    """sum c[i, j] q'^i p'^j, q' and p' affine (cq, cp, c0); batch axes allowed."""
    lin = []
    for cq, cp, c0 in (q_map, p_map):
        m = np.array(np.broadcast_arrays(c0, cp, cq, 0.0))  # [[c0, cp], [cq, 0]]
        lin.append(m.reshape((2, 2) + m.shape[1:]))
    out = np.zeros(c.shape[:2] + np.broadcast_shapes(
        c.shape[2:], *(m.shape[2:] for m in lin)))
    for i, j in _terms(c):
        term = c[i:i + 1, j:j + 1]
        for m in [lin[0]] * i + [lin[1]] * j:
            term = _polymul2(term, m)
        out[:len(term), :term.shape[1]] += term
    return out


_TERM_RE = re.compile(
    r"([+-]?\s*\d*\.?\d*(?:[eE][+-]?\d+)?)\s*"
    r"(q(?:\^?(\d))?)?\s*\*?\s*(p(?:\^?(\d))?)?$")


def parse_poly(text: str) -> PolynomialObservable:
    """Parse expressions like 'q^2 + 2qp - 0.5' into an observable."""
    table = {}
    chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (not m.group(1).strip("+-") and not m.group(2) and not m.group(4)):
            raise ValueError(f"cannot parse polynomial term {chunk!r}")
        coeff_txt = m.group(1).replace(" ", "")
        coeff = float(coeff_txt) if coeff_txt not in ("", "+", "-") \
            else (-1.0 if coeff_txt == "-" else 1.0)
        i = int(m.group(3)) if m.group(3) else (1 if m.group(2) else 0)
        j = int(m.group(5)) if m.group(5) else (1 if m.group(4) else 0)
        table[(i, j)] = table.get((i, j), 0.0) + coeff
    return PolynomialObservable(table)


def poisson_bracket(f: PolynomialObservable, g: PolynomialObservable,
                    params: ModelParams) -> PolynomialObservable:
    """{f, g} = df/dp dg/dq - df/dq dg/dp.

    The orientation is the one under which the comoments realize the
    group brackets; with it {q, p} = -1 and {q^a, q^b} = eps^{ab}/B.
    """
    # numpy's polyder, without its import: the same products k * c[k]
    k = np.arange(1, 3)
    fq, fp = f.c[1:] * k[:, None], f.c[:, 1:] * k
    gq, gp = g.c[1:] * k[:, None], g.c[:, 1:] * k
    return PolynomialObservable(_polymul2(fp, gq) - _polymul2(fq, gp))


# ---------------------------------------------------------------------------
# comoments and momentum map


def comoment_observables(params: ModelParams, m: float,
                         u2_offset: float = 0.0):
    """The four comoments as polynomial observables (u0, u1, u2, u3).

    u2 is defined up to an additive constant; u2_offset shifts the
    standard representative.
    """
    B = params.B
    u0 = PolynomialObservable({(1, 0): -B, (0, 1): -1.0})
    u1 = PolynomialObservable({(0, 1): 1.0})
    u2 = PolynomialObservable({(0, 0): m * m / (2.0 * B) + u2_offset,
                               (2, 0): -B / 2.0, (1, 1): -1.0})
    u3 = PolynomialObservable({(0, 0): -1.0})
    return u0, u1, u2, u3


def comoments(s: PhasePoint, params: ModelParams, m: float) -> CoadjointPoint:
    """The comoments (u0, u1, u2, u3) at s, as one CoadjointPoint.

    A batch s of shape S gives a batch of shape S, each point bit for bit
    the comoments of that point alone.
    """
    return CoadjointPoint(*(u(s) for u in comoment_observables(params, m)))


def momentum_map(s: PhasePoint, params: ModelParams, m: float) -> CoadjointPoint:
    """comoments / hbar, over the batch of s as comoments."""
    return CoadjointPoint(comoments(s, params, m).array / params.hbar)


def rep_for_mass(params: ModelParams, m: float) -> RepParams:
    """Representation labels selected by the quantum condition."""
    hbar = params.hbar
    return case_a(m * m / (SQRT_MINUS_H * hbar * hbar), -1.0 / hbar, params)


# ---------------------------------------------------------------------------
# quantization map


def quantize(f: PolynomialObservable, params: ModelParams) -> QuantOperator:
    """Schroedinger quantization with Weyl (symmetric) ordering.

    The Weyl symbol q^i p^j is the operator
        sum_k k! C(i, k) C(j, k) (-i hbar/2)^k x^(i-k) (-i hbar d/dx)^(j-k)
    in x-left order, and the map is linear on coefficient tables: q -> x,
    p -> -i hbar d/dx, qp -> -i hbar (x d/dx + 1/2).
    """
    return QuantOperator(_weyl(f.c, params.hbar)[None])


def _weyl(c, h: float):
    """quantize on a symbol array c[i, j] of q^i p^j, which may carry batch axes."""
    out = np.zeros(c.shape, dtype=complex)
    for i, j in _terms(c):
        for k in range(min(i, j) + 1):
            out[i - k, j - k] += (math.factorial(k) * math.comb(i, k)
                                  * math.comb(j, k) * c[i, j] * (-0.5j * h) ** k
                                  * (-1j * h) ** (j - k))
    return out


# ---------------------------------------------------------------------------
# verification


def verify_dirac(params: ModelParams, m: float, probes,
                 z3: float | None = None) -> float:
    """Residual of Q({u_A, u_B}) = -i z3 [Q(u_A), Q(u_B)] over all pairs.

    z3 defaults to -1/hbar, the value of the orbit's representation.
    """
    if z3 is None:
        z3 = -1.0 / params.hbar
    return dirac_residuals(params, m, probes, (z3,))[0]


@_in_float_range("Dirac")
def dirac_residuals(params: ModelParams, m: float, probes, z3s) -> list:
    """verify_dirac's residual at each z3 of z3s.

    Each pair's defect Q({u_A, u_B}) + i z3 [Q(u_A), Q(u_B)] is one
    operator array, from the x-left product, and its residual is
    ||R f|| / ||f|| on each probe, exact in Gaussian moments.
    """
    if not probes:
        return [0.0] * len(z3s)
    us = comoment_observables(params, m)
    ops = [quantize(u, params) for u in us]
    pairs = [(quantize(poisson_bracket(us[a], us[b], params), params),
              ops[a] @ ops[b] - ops[b] @ ops[a])
             for a in range(4) for b in range(a + 1, 4)]
    res = _relative_residual(QuantOperator.stack(
        [qbr + (1j * z3) * comm for z3 in z3s for qbr, comm in pairs]), probes)
    return [float(np.max(r)) for r in np.split(res, len(z3s))]


def _left_action_maps(g: GroupElement, params: ModelParams):
    """Affine maps (q, p) -> (q', p') of the point action q -> Lambda q + theta.

    A batch g gives batch columns (a trailing axis), as _affine_phase does.
    """
    B = params.B
    t0, t1, alpha, _ = _columns(g)
    q_map = (np.exp(alpha), 0.0, t0 - t1)
    p_map = (-B * np.sinh(alpha), np.exp(-alpha), -B * t0)
    return q_map, p_map


def _covariance_residual(g: GroupElement, pulled: QuantOperator,
                         qf: QuantOperator, params: ModelParams, m: float,
                         probes):
    """max over probes of ||pulled psi - T(g^-1) qf T(g) psi|| / ||pulled psi||.

    One value per member of a batch g, whose operators are batch columns.
    T(g^-1) qf T(g) is taken as U^-1 qf U with U = T(g) (conjugated), and
    the gap of T(g^-1) T(g) to the identity on the probes' window
    (AffinePhase.gap) is added, so T(g^-1) is still checked.  That gap's
    phase is relative to the two phases the composition cancels, sized on
    the window: its constant reads one ulp of them, of order 1/B.  The
    residual is relative to the image, whose size grows with hbar^2 for a
    p^2 term.
    """
    if not probes:
        return 0.0
    rep = rep_for_mass(params, m)
    u = _affine_phase(rep, g)
    inv = _affine_phase(rep, inverse(g, params))
    ident = AffinePhase(1.0, 1.0, 0.0, (0.0,) * len(u.c))
    lo, hi = _window(*probes)
    sups = ident._sups(lo, hi)[1]
    cancelled = _size(inv.c, sups) + _size(_poly_pullback(u.c, inv.a, inv.b), sups)
    gap = inv.compose(u).gap(ident, lo, hi, cancelled)
    return _relative_residual(pulled - qf.conjugated(u), probes, pulled) + gap


@_in_float_range("covariance")
def verify_covariance(g: GroupElement, f: PolynomialObservable,
                      params: ModelParams, m: float, probes) -> float:
    """Residual of Q(f . l_g) = T(g^-1) Q(f) T(g) on the probe class."""
    q_map, p_map = _left_action_maps(g, params)
    pulled = quantize(f.substitute_affine(q_map, p_map), params)
    return float(_covariance_residual(g, pulled, quantize(f, params),
                                      params, m, probes))


def _covariance_observables(params: ModelParams, m: float):
    """The observables covariance_suite cycles through, trial k taking k mod 7."""
    return [PolynomialObservable({(0, 0): 1.0}),
            PolynomialObservable({(1, 0): 1.0}),
            PolynomialObservable({(0, 1): 1.0}),
            PolynomialObservable({(2, 0): 1.0}),
            PolynomialObservable({(1, 1): 1.0}),
            PolynomialObservable({(0, 2): 1.0}),
            comoment_observables(params, m)[2]]


@_in_float_range("covariance")
def covariance_suite(params: ModelParams, m: float, trials: int = 50,
                     seed: int = 42, probes=None) -> float:
    """Largest verify_covariance residual over random (g, observable) trials.

    The trials run as one batch: the observables' tables are stacked as
    batch columns, and pulled back and quantized together.
    """
    if probes is None:
        probes = default_probes(2)
    coords = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(trials, 4))
    base = _covariance_observables(params, m)
    c = np.stack([base[k % len(base)].c for k in range(trials)], axis=-1)[..., None]
    g = GroupElement(*coords.T)
    pulled = _substituted(c, *_left_action_maps(g, params))
    res = _covariance_residual(g, QuantOperator(_weyl(pulled, params.hbar)[None]),
                               QuantOperator(_weyl(c, params.hbar)[None]),
                               params, m, probes)
    return float(np.max(res, initial=0.0))


def pullback_residual(s: PhasePoint, params: ModelParams, m: float) -> float:
    """Symplectic-form pullback along the momentum map by central differences.

    The orbit form evaluated on the pushed-forward coordinate directions
    must equal the phase-space pairing of those directions divided by
    hbar; the pairing of (e_q, e_p) is -1 in this orientation.  The
    differences take steps of 1e-5 in q and in p; s and its four
    neighbours go through the momentum map as one batch.
    """
    h = 1e-5
    z, q_plus, q_minus, p_plus, p_minus = momentum_map(
        PhasePoint(s.q + np.array([0.0, h, -h, 0.0, 0.0]),
                   s.p + np.array([0.0, 0.0, 0.0, h, -h])), params, m).array
    v_q = (q_plus - q_minus) / (2.0 * h)
    v_p = (p_plus - p_minus) / (2.0 * h)

    # express each tangent vector as a coadjoint direction ad*_X zeta; the
    # column of basis element T_k is -z ad(T_k)
    M = (-z @ ad_matrix(AlgebraElement(np.eye(4)), params)).T
    X, *_ = np.linalg.lstsq(M, v_q, rcond=None)
    Y, *_ = np.linalg.lstsq(M, v_p, rcond=None)
    b = float(z @ bracket(AlgebraElement(tuple(X)),
                          AlgebraElement(tuple(Y)), params).array)
    return abs(b - (-1.0) / params.hbar)
