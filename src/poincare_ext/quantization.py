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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

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
from .irreps import RepParams, case_a, rep_apply
from .wavefunctions import (
    WaveFunction,
    _latest_values,
    _relative_l2,
    _window,
    integrate_stack,
    integrate_vec,
    wf_add,
    wf_mul_poly,
    wf_scale,
    wf_stack,
    wf_sub,
)

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
    """Point of the reduced phase space in (q, p) coordinates."""

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
        return sum(v * s.q ** i * s.p ** j for (i, j), v in self.coeffs)

    def __add__(self, other):
        return PolynomialObservable(self.c + other.c)

    def __rmul__(self, c: float):
        return PolynomialObservable(c * self.c)

    def __sub__(self, other):
        return self + (-1.0) * other

    def substitute_affine(self, q_map, p_map) -> "PolynomialObservable":
        """Compose with q -> q_map, p -> p_map, both affine (cq, cp, c0)."""
        lin = [np.array([[c0, cp], [cq, 0.0]]) for cq, cp, c0 in (q_map, p_map)]
        out = np.zeros((3, 3))
        for (i, j), v in self.coeffs:
            term = np.array([[v]])
            for m in [lin[0]] * i + [lin[1]] * j:
                term = _polymul2(term, m)
            out[:len(term), :term.shape[1]] += term
        return PolynomialObservable(out)


def _polymul2(a, b):
    """Product of two polynomials in (q, p) given as 2-D coefficient arrays."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for (i, j), v in np.ndenumerate(a):
        out[i:i + b.shape[0], j:j + b.shape[1]] += v * b
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
    fq, fp = P.polyder(f.c, axis=0), P.polyder(f.c, axis=1)
    gq, gp = P.polyder(g.c, axis=0), P.polyder(g.c, axis=1)
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
    return CoadjointPoint(tuple(u(s) for u in comoment_observables(params, m)))


def momentum_map(s: PhasePoint, params: ModelParams, m: float) -> CoadjointPoint:
    u = comoments(s, params, m)
    return CoadjointPoint(tuple(c / params.hbar for c in u.u))


def rep_for_mass(params: ModelParams, m: float) -> RepParams:
    """Representation labels selected by the quantum condition."""
    hbar = params.hbar
    return case_a(m * m / (SQRT_MINUS_H * hbar * hbar), -1.0 / hbar, params)


# ---------------------------------------------------------------------------
# quantization map


@dataclass(frozen=True, eq=False)
class QuantOperator:
    """Operator sum of c[i, j] x^i (d/dx)^j, with complex coefficients.

    c is square and of total degree below its size: c[i, j] = 0 for
    i + j >= len(c).  It may carry batch columns on trailing axes (shape
    (3, 3, n, 1)), one operator per member; apply then gives a batch
    image.
    """

    c: np.ndarray

    @staticmethod
    def stack(ops) -> "QuantOperator":
        """One batch operator whose member k is ops[k]."""
        return QuantOperator(np.stack([op.c for op in ops], axis=-1)[..., None])

    def apply(self, f: WaveFunction) -> WaveFunction:
        """The image of f; f is differentiated only as far as c needs."""
        out = wf_scale(f, 0.0)
        for j in range(len(self.c)):
            col = self.c[:len(self.c) - j, j]  # the x^i with i + j < len(c)
            if np.any(col):
                dj = f
                for _ in range(j):
                    dj = dj.derivative()
                term = wf_mul_poly(dj, col)
                out = term if j == 0 else wf_add(out, term)
        return out

    def __add__(self, other: "QuantOperator") -> "QuantOperator":
        return QuantOperator(self.c + other.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantOperator) and np.array_equal(self.c, other.c)

    def describe(self) -> str:
        terms = []
        for (j, i), v in np.ndenumerate(self.c.T):
            if v:
                x = "" if i == 0 else "x" if i == 1 else f"x^{i}"
                d = "" if j == 0 else "d/dx" if j == 1 else f"d{j}/dx{j}"
                terms.append("*".join([f"({v:g})"] + [s for s in (x, d) if s]))
        return " + ".join(terms) if terms else "0"


def quantize(f: PolynomialObservable, params: ModelParams) -> QuantOperator:
    """Schroedinger quantization with Weyl (symmetric) ordering.

    The Weyl symbol q^i p^j is the operator
        sum_k k! C(i, k) C(j, k) (-i hbar/2)^k x^(i-k) (-i hbar d/dx)^(j-k)
    in x-left order, and the map is linear on coefficient tables: q -> x,
    p -> -i hbar d/dx, qp -> -i hbar (x d/dx + 1/2).
    """
    h = params.hbar
    c = np.zeros(f.c.shape, dtype=complex)
    for (i, j), v in f.coeffs:
        for k in range(min(i, j) + 1):
            c[i - k, j - k] += (math.factorial(k) * math.comb(i, k)
                                * math.comb(j, k) * v * (-0.5j * h) ** k
                                * (-1j * h) ** (j - k))
    return QuantOperator(c)


# ---------------------------------------------------------------------------
# verification


def hermiticity_residual(op: QuantOperator, probes) -> float:
    """max over probe pairs (i, j) of |<A f_i, f_j> - <f_i, A f_j>|.

    A acts once, on the stacked probes, and one integrate_vec call takes
    both inner products of every pair.
    """
    if not probes:
        return 0.0
    f = wf_stack(probes)
    af = op.apply(f)

    def integrand(x):
        fx, ax = f.fn(x, 0), af.fn(x, 0)
        return ([np.conj(ax)[:, None] * fx, np.conj(fx)[:, None] * ax],)

    lhs, rhs = integrate_stack(integrand, f, af)[0]
    return float(np.max(np.abs(lhs - rhs)))


def verify_dirac(params: ModelParams, m: float, probes,
                 z3: float | None = None) -> float:
    """Residual of Q({u_A, u_B}) = -i z3 [Q(u_A), Q(u_B)] over all pairs.

    z3 defaults to -1/hbar, the value of the orbit's representation.
    """
    if z3 is None:
        z3 = -1.0 / params.hbar
    return dirac_residuals(params, m, probes, (z3,))[0]


def dirac_residuals(params: ModelParams, m: float, probes, z3s) -> list:
    """verify_dirac's residual at each z3 of z3s, all from one quadrature.

    The bracket and commutator chains act once, on the stacked probes, and
    each is evaluated once per quadrature level however many z3 there are.
    """
    if not probes:
        return [0.0] * len(z3s)
    us = comoment_observables(params, m)
    ops = [quantize(u, params) for u in us]
    f = wf_stack(probes)
    chains = []
    for a in range(4):
        for b in range(a + 1, 4):
            qbr = quantize(poisson_bracket(us[a], us[b], params), params)
            comm = wf_sub(ops[a].apply(ops[b].apply(f)),
                          ops[b].apply(ops[a].apply(f)))
            chains.append((_kept(qbr.apply(f)), _kept(comm)))
    diffs = [(lhs, wf_scale(comm, -1j * z3))
             for z3 in z3s for lhs, comm in chains]
    res = _relative_l2(diffs, f)[0]
    return [float(np.max(r)) for r in np.split(res, len(z3s))]


def _kept(wf: WaveFunction) -> WaveFunction:
    """wf's values alone, evaluated once per node array (_latest_values)."""
    vals = _latest_values(lambda x: wf.fn(x, 0))
    return WaveFunction(lambda x, k: vals(x), 0, wf.center, wf.width)


def _left_action_maps(g: GroupElement, params: ModelParams):
    """Affine maps (q, p) -> (q', p') of the point action q -> Lambda q + theta."""
    B = params.B
    ea = math.exp(g.alpha)
    sh = math.sinh(g.alpha)
    q_map = (ea, 0.0, g.theta0 - g.theta1)
    p_map = (-B * sh, math.exp(-g.alpha), -B * g.theta0)
    return q_map, p_map


def _covariance_residual(g: GroupElement, pulled: QuantOperator,
                         qf: QuantOperator, params: ModelParams, m: float,
                         probes):
    """max over probes of ||pulled psi - T(g^-1) qf T(g) psi|| / ||pulled psi||.

    One value per member of a batch g, whose operators are batch columns.
    The residual is relative to the image, whose size grows with hbar^2
    for a p^2 term; both norms come from one integrate_vec call per probe.
    """
    rep = rep_for_mass(params, m)
    ginv = inverse(g, params)
    worst = 0.0
    for psi in probes:
        lhs = pulled.apply(psi)
        rhs = rep_apply(rep, ginv, qf.apply(rep_apply(rep, g, psi)))

        def integrand(x):
            vals = lhs.fn(x, 0)
            return np.abs(vals - rhs.fn(x, 0)) ** 2, np.abs(vals) ** 2

        sq, n2 = integrate_vec(integrand, *_window(lhs, rhs))
        worst = np.maximum(worst, np.sqrt(sq / n2))
    return worst


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


def covariance_suite(params: ModelParams, m: float, trials: int = 50,
                     seed: int = 42, probes=None) -> float:
    """Largest verify_covariance residual over random (g, observable) trials.

    The trials run as one batch: each pulled observable is quantized on
    its own, and the operators are stacked as batch columns.
    """
    from .irreps import default_probes

    if probes is None:
        probes = default_probes(2)
    coords = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(trials, 4))
    base = _covariance_observables(params, m)
    fs = [base[k % len(base)] for k in range(trials)]
    pulled = [quantize(f.substitute_affine(
        *_left_action_maps(GroupElement(*c), params)), params)
        for f, c in zip(fs, coords)]
    qf = [quantize(f, params) for f in fs]
    res = _covariance_residual(GroupElement(*coords.T),
                               QuantOperator.stack(pulled),
                               QuantOperator.stack(qf), params, m, probes)
    return float(np.max(res, initial=0.0))


def pullback_residual(s: PhasePoint, params: ModelParams, m: float) -> float:
    """Symplectic-form pullback along the momentum map by central differences.

    The orbit form evaluated on the pushed-forward coordinate directions
    must equal the phase-space pairing of those directions divided by
    hbar; the pairing of (e_q, e_p) is -1 in this orientation.  The
    differences take steps of 1e-5 in q and in p.
    """
    zeta = momentum_map(s, params, m)
    h = 1e-5

    def mu(q, p):
        return np.array(momentum_map(PhasePoint(q, p), params, m).u)

    v_q = (mu(s.q + h, s.p) - mu(s.q - h, s.p)) / (2.0 * h)
    v_p = (mu(s.q, s.p + h) - mu(s.q, s.p - h)) / (2.0 * h)

    # express each tangent vector as a coadjoint direction ad*_X zeta
    z = np.array(zeta.u)
    cols = []
    for k in range(4):
        e = AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))
        cols.append(-z @ ad_matrix(e, params))
    M = np.column_stack(cols)
    X, *_ = np.linalg.lstsq(M, v_q, rcond=None)
    Y, *_ = np.linalg.lstsq(M, v_p, rcond=None)
    b = float(z @ bracket(AlgebraElement(tuple(X)),
                          AlgebraElement(tuple(Y)), params).array)
    return abs(b - (-1.0) / params.hbar)
