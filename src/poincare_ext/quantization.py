"""Classical observables on the reduced phase space and their quantization.

Phase space is the plane with coordinates (q, p), q = q0 - q1 the
light-cone position and p = -B q0 the momentum coordinate; the Poisson
bracket orientation is the one that makes the comoments a Lie-algebra
homomorphism onto the group brackets.

Quantization maps polynomials of degree at most two to Schroedinger
operators (Weyl symmetric ordering for the quadratics).  Degree three
and higher is rejected: no consistent extension exists
(Groenewold--Van Hove obstruction).
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
from .irreps import RepParams, case_a, rep_apply
from .wavefunctions import WaveFunction, inner, l2_diff, norm, wf_mul_poly, wf_scale, wf_sub

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

    Coefficients are keyed by (i, j) for q^i p^j.  The degree gate is
    structural: higher-degree tables cannot be constructed.
    """

    coeffs: tuple  # sorted tuple of ((i, j), value)

    def __init__(self, table):
        items = tuple(sorted((k, float(v)) for k, v in dict(table).items()
                             if v != 0.0))
        for (i, j), _ in items:
            if i < 0 or j < 0:
                raise ValueError("negative monomial exponent")
            if i + j > 2:
                raise NoGoError(
                    "observables of degree >= 3 admit no consistent "
                    "quantization extending the degree <= 2 map")
        object.__setattr__(self, "coeffs", items)

    def __getitem__(self, key) -> float:
        return dict(self.coeffs).get(key, 0.0)

    @property
    def degree(self) -> int:
        return max((i + j for (i, j), _ in self.coeffs), default=0)

    def __call__(self, s: PhasePoint) -> float:
        return sum(v * s.q ** i * s.p ** j for (i, j), v in self.coeffs)

    def __add__(self, other):
        t = dict(self.coeffs)
        for k, v in other.coeffs:
            t[k] = t.get(k, 0.0) + v
        return PolynomialObservable(t)

    def __rmul__(self, c: float):
        return PolynomialObservable({k: c * v for k, v in self.coeffs})

    def __sub__(self, other):
        return self + (-1.0) * other

    def substitute_affine(self, q_map, p_map) -> "PolynomialObservable":
        """Compose with q -> q_map, p -> p_map, both affine (cq, cp, c0)."""
        def lin(c):
            return {(1, 0): c[0], (0, 1): c[1], (0, 0): c[2]}

        def mul(a, b):
            out = {}
            for (i1, j1), v1 in a.items():
                for (i2, j2), v2 in b.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, 0.0) + v1 * v2
            return out

        table = {}
        for (i, j), v in self.coeffs:
            term = {(0, 0): v}
            for _ in range(i):
                term = mul(term, lin(q_map))
            for _ in range(j):
                term = mul(term, lin(p_map))
            for k, val in term.items():
                table[k] = table.get(k, 0.0) + val
        return PolynomialObservable(table)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), v in self.coeffs:
            mono = ("" if i == 0 else ("q" if i == 1 else f"q^{i}")) \
                + ("" if j == 0 else ("p" if j == 1 else f"p^{j}"))
            parts.append(f"{v:g}{'*' + mono if mono else ''}")
        return " + ".join(parts)


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


def _partial(f: PolynomialObservable, var: int):
    """Derivative table; var 0 = q, var 1 = p."""
    out = {}
    for (i, j), v in f.coeffs:
        e = (i, j)[var]
        if e:
            k = (i - 1, j) if var == 0 else (i, j - 1)
            out[k] = out.get(k, 0.0) + v * e
    return out


def poisson_bracket(f: PolynomialObservable, g: PolynomialObservable,
                    params: ModelParams) -> PolynomialObservable:
    """{f, g} = df/dp dg/dq - df/dq dg/dp.

    The orientation is the one under which the comoments realize the
    group brackets; with it {q, p} = -1 and {q^a, q^b} = eps^{ab}/B.
    """
    fq, fp = _partial(f, 0), _partial(f, 1)
    gq, gp = _partial(g, 0), _partial(g, 1)

    table = {}
    for (i1, j1), v1 in fp.items():
        for (i2, j2), v2 in gq.items():
            k = (i1 + i2, j1 + j2)
            table[k] = table.get(k, 0.0) + v1 * v2
    for (i1, j1), v1 in fq.items():
        for (i2, j2), v2 in gp.items():
            k = (i1 + i2, j1 + j2)
            table[k] = table.get(k, 0.0) - v1 * v2
    return PolynomialObservable(table)


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


@dataclass(frozen=True)
class QuantOperator:
    """Operator a(x) + b(x) d/dx + s d2/dx2 with polynomial a, linear b."""

    m_coeffs: tuple  # multiplication polynomial, degree <= 2
    n_coeffs: tuple  # coefficient of d/dx, degree <= 1
    s2: complex      # coefficient of d2/dx2

    def apply(self, f: WaveFunction) -> WaveFunction:
        out = wf_mul_poly(f, self.m_coeffs) if any(self.m_coeffs) \
            else wf_scale(f, 0.0)
        if any(self.n_coeffs):
            out = wf_sub(out, wf_scale(wf_mul_poly(f.derivative(),
                                                   self.n_coeffs), -1.0))
        if self.s2:
            d2 = f.derivative().derivative()
            out = wf_sub(out, wf_scale(d2, -self.s2))
        return out

    def __add__(self, other: "QuantOperator") -> "QuantOperator":
        mc = tuple(a + b for a, b in zip(self.m_coeffs, other.m_coeffs))
        nc = tuple(a + b for a, b in zip(self.n_coeffs, other.n_coeffs))
        return QuantOperator(mc, nc, self.s2 + other.s2)

    def describe(self) -> str:
        terms = []
        names = ["1", "x", "x^2"]
        for c, n in zip(self.m_coeffs, names):
            if c:
                terms.append(f"({c:g})*{n}" if n != "1" else f"({c:g})")
        for c, n in zip(self.n_coeffs, ["d/dx", "x*d/dx"]):
            if c:
                terms.append(f"({c:g})*{n}")
        if self.s2:
            terms.append(f"({self.s2:g})*d2/dx2")
        return " + ".join(terms) if terms else "0"


def quantize(f: PolynomialObservable, params: ModelParams) -> QuantOperator:
    """Schroedinger quantization with Weyl ordering on quadratics.

    q -> x, p -> -i hbar d/dx, qp -> symmetrized product; linear on
    coefficient tables.  Degree >= 3 never reaches this point: the
    observable type rejects it at construction.
    """
    h = params.hbar
    mc = [0j, 0j, 0j]
    nc = [0j, 0j]
    s2 = 0j
    for (i, j), v in f.coeffs:
        if (i, j) == (0, 0):
            mc[0] += v
        elif (i, j) == (1, 0):
            mc[1] += v
        elif (i, j) == (2, 0):
            mc[2] += v
        elif (i, j) == (0, 1):
            nc[0] += -1j * h * v
        elif (i, j) == (0, 2):
            s2 += -h * h * v
        elif (i, j) == (1, 1):
            # (q p + p q)/2 -> -i hbar (x d/dx + 1/2)
            nc[1] += -1j * h * v
            mc[0] += -0.5j * h * v
        else:  # pragma: no cover - unreachable through the type gate
            raise NoGoError("degree >= 3 observable")
    return QuantOperator(tuple(mc), tuple(nc), s2)


# ---------------------------------------------------------------------------
# verification


def hermiticity_residual(op: QuantOperator, probes) -> float:
    worst = 0.0
    for i in range(len(probes)):
        for j in range(len(probes)):
            lhs = inner(op.apply(probes[i]), probes[j])
            rhs = inner(probes[i], op.apply(probes[j]))
            worst = max(worst, abs(lhs - rhs))
    return worst


def verify_dirac(params: ModelParams, m: float, probes,
                 z3: float | None = None) -> float:
    """Residual of Q({u_A, u_B}) = -i z3 [Q(u_A), Q(u_B)] over all pairs."""
    if z3 is None:
        z3 = -1.0 / params.hbar
    us = comoment_observables(params, m)
    ops = [quantize(u, params) for u in us]
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            qbr = quantize(poisson_bracket(us[a], us[b], params), params)
            for f in probes:
                comm = wf_sub(ops[a].apply(ops[b].apply(f)),
                              ops[b].apply(ops[a].apply(f)))
                lhs = qbr.apply(f)
                rhs = wf_scale(comm, -1j * z3)
                worst = max(worst, l2_diff(lhs, rhs) / norm(f))
    return worst


def _left_action_maps(g: GroupElement, params: ModelParams):
    """Affine maps (q, p) -> (q', p') of the point action q -> Lambda q + theta."""
    B = params.B
    ea = math.exp(g.alpha)
    sh, ch = math.sinh(g.alpha), math.cosh(g.alpha)
    q_map = (ea, 0.0, g.theta0 - g.theta1)
    p_map = (-B * sh, math.exp(-g.alpha), -B * g.theta0)
    return q_map, p_map


def verify_covariance(g: GroupElement, f: PolynomialObservable,
                      params: ModelParams, m: float, probes) -> float:
    """Residual of Q(f . l_g) = T(g^-1) Q(f) T(g) on the probe class."""
    rep = rep_for_mass(params, m)
    q_map, p_map = _left_action_maps(g, params)
    pulled = quantize(f.substitute_affine(q_map, p_map), params)
    qf = quantize(f, params)
    ginv = inverse(g, params)
    worst = 0.0
    for psi in probes:
        lhs = pulled.apply(psi)
        rhs = rep_apply(rep, ginv, qf.apply(rep_apply(rep, g, psi)))
        worst = max(worst, l2_diff(lhs, rhs) / norm(psi))
    return worst


def covariance_suite(params: ModelParams, m: float, trials: int = 50,
                     seed: int = 42, probes=None) -> float:
    from .irreps import default_probes

    if probes is None:
        probes = default_probes(2)
    rng = np.random.default_rng(seed)
    base = [PolynomialObservable({(0, 0): 1.0}),
            PolynomialObservable({(1, 0): 1.0}),
            PolynomialObservable({(0, 1): 1.0}),
            PolynomialObservable({(2, 0): 1.0}),
            PolynomialObservable({(1, 1): 1.0}),
            PolynomialObservable({(0, 2): 1.0}),
            comoment_observables(params, m)[2]]
    worst = 0.0
    for k in range(trials):
        g = GroupElement(*rng.uniform(-1.5, 1.5, size=4))
        f = base[k % len(base)]
        worst = max(worst, verify_covariance(g, f, params, m, probes))
    return worst


def pullback_residual(s: PhasePoint, params: ModelParams, m: float,
                      h: float = 1e-5) -> float:
    """Symplectic-form pullback along the momentum map by central differences.

    The orbit form evaluated on the pushed-forward coordinate directions
    must equal the phase-space pairing of those directions divided by
    hbar; the pairing of (e_q, e_p) is -1 in this orientation.
    """
    zeta = momentum_map(s, params, m)

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
