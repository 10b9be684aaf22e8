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

The comoments are one table in any number type (comoment_table), which
the classical checks (Casimir, pullback) read exactly in Fractions.

The Dirac, hermiticity and covariance checks are exact algebra, with no
quadrature, on the operator algebra of irreps, which the representation
checks share: operators multiply in the Weyl algebra (QuantOperator @).
The Dirac condition and hermiticity hold at every B, hbar and m, and are
decided once (decided_identities), on the comoment table and the Weyl
rule run on `laurent.Laurent` variables.  Covariance reads T(g) at the
report's B: family A's T(g) conjugates a polynomial operator into another
(QuantOperator.conjugated), and the residual is a norm on the probes'
Hermite coefficients, in irreps' Gaussian-moment matrix kernel.  A probe
is a coefficient record (wavefunctions.Probe): no operator here acts on a
function.  The float versions of the decided checks on that kernel, and
the operator chains on derivative evaluators with their quadrature, are
the test oracle.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .conventions import SQRT_MINUS_H
from .group import GroupElement, ModelParams, inverse
from .irreps import (
    AffinePhase,
    QuantOperator,
    RepParams,
    _affine_phase,
    _columns,
    _in_float_range,
    _operator_defect,
    _poly_pullback,
    _polymul2,
    _relative_residual,
    _size,
    _terms,
    default_probes,
)
from .model import kirillov, row_basis
from .wavefunctions import WINDOW

__all__ = [
    "NoGoError",
    "PolynomialObservable",
    "QuantOperator",
    "parse_poly",
    "poisson_bracket",
    "comoment_table",
    "comoment_observables",
    "casimir_defect",
    "pullback_defect",
    "quantize",
    "decided_identities",
    "covariance_suite",
    "rep_for_mass",
]


class NoGoError(ValueError):
    """Raised when quantization of a degree >= 3 observable is requested."""


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
    return PolynomialObservable(_poisson(f.c, g.c))


def _poisson(f, g):
    """poisson_bracket on coefficient arrays, in any number type."""
    # numpy's polyder, without its import: the same products k * c[k]
    k = np.arange(1, 3)
    fq, fp = f[1:] * k[:, None], f[:, 1:] * k
    gq, gp = g[1:] * k[:, None], g[:, 1:] * k
    return _polymul2(fp, gq) - _polymul2(fq, gp)


# ---------------------------------------------------------------------------
# comoments and momentum map


def comoment_table(B, m) -> tuple:
    """The comoments (u0, u1, u2, u3) as {(i, j): c} tables of q^i p^j.

    One formula for every number type, as `model.brackets`: float B and m
    give comoment_observables' coefficients, Fractions the exact ones.  u2
    is defined up to an additive constant; this is its standard
    representative.
    """
    return ({(1, 0): -B, (0, 1): -1},
            {(0, 1): 1},
            {(0, 0): m * m / (2 * B), (2, 0): -B / 2, (1, 1): -1},
            {(0, 0): -1})


def comoment_observables(params: ModelParams, m: float):
    """The four comoments as polynomial observables (u0, u1, u2, u3)."""
    return tuple(PolynomialObservable(t) for t in comoment_table(params.B, m))


def _product(f, g, scale=1) -> dict:
    """scale f g on {(i, j): c} tables."""
    out = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + scale * a * b
    return out


def casimir_defect(params: ModelParams, m: float) -> float:
    """The comoments' Casimir minus m^2, a coefficient identity on the
    exact table.

    u0^2 - u1^2 - 2B u2 u3 - m^2 (`model.casimir`) is summed from four
    tables; each of its coefficients is read relative to the largest of
    the four it sums, so a wrong entry reads of order 1 at every B.  0.0
    where the identity holds.
    """
    B, m = Fraction(params.B), Fraction(m)
    u0, u1, u2, u3 = comoment_table(B, m)
    parts = (_product(u0, u0), _product(u1, u1, -1), _product(u2, u3, -2 * B),
             {(0, 0): -m * m})
    return float(max(abs(sum(t.get(k, 0) for t in parts))
                     / max(abs(t.get(k, 0)) for t in parts)
                     for k in set().union(*parts)))


def _jets(tables, q, p) -> list:
    """(f, df/dq, df/dp) at (q, p) of each {(i, j): c} table of q^i p^j,
    of degree <= 2."""
    mono = {(0, 0): 1, (1, 0): q, (0, 1): p, (2, 0): q * q, (1, 1): q * p,
            (0, 2): p * p}
    return [(sum(c * mono[i, j] for (i, j), c in t.items()),
             sum(i * c * mono[i - 1, j] for (i, j), c in t.items() if i),
             sum(j * c * mono[i, j - 1] for (i, j), c in t.items() if j))
            for t in tables]


def pullback_defect(params: ModelParams, m: float, points) -> float:
    """max over the phase points (q, p) of |<z, [X, Y]> + 1/hbar|, exact.

    z = u/hbar is the momentum map, u the comoments, and ad*_X z = K X for
    the Kirillov form K at z (`model.kirillov`).  With K X = dz/dq and
    K Y = dz/dp the orbit form <z, [X, Y]> = X . K Y = X . dz/dp must be
    the phase-space pairing of (e_q, e_p) over hbar, -1/hbar.  K and dz
    scale as 1/hbar, so X solves K(u) X = du/dq and the defect is
    |X . du/dp + 1| / hbar.  One elimination of [K | du/dq | du/dp] gives
    X; a tangent K does not reach, off the orbit, raises ValueError.
    """
    B = Fraction(params.B)
    table = comoment_table(B, Fraction(m))
    worst = 0
    for q, p in points:
        u, du_dq, du_dp = zip(*_jets(table, Fraction(q), Fraction(p)))
        k = kirillov(u, B)
        x = [0] * 4
        for row in row_basis([k[r] + [du_dq[r], du_dp[r]] for r in range(4)]):
            col = next(j for j, v in enumerate(row) if v)
            if col >= 4:
                raise ValueError(f"the momentum map at (q, p) = ({q!r}, {p!r}) "
                                 "leaves the orbit")
            x[col] = Fraction(row[4], row[col])
        worst = max(worst, abs(sum(a * b for a, b in zip(x, du_dp)) + 1))
    return float(worst / Fraction(params.hbar))


def rep_for_mass(params: ModelParams, m: float) -> RepParams:
    """Representation labels selected by the quantum condition."""
    hbar = params.hbar
    return RepParams("A", params, c2=m * m / (SQRT_MINUS_H * hbar * hbar),
                     z3=-1.0 / hbar)


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
    out = np.zeros(c.shape, dtype=np.result_type(c, complex))
    for i, j in _terms(c):
        for k in range(min(i, j) + 1):
            out[i - k, j - k] += (math.factorial(k) * math.comb(i, k)
                                  * math.comb(j, k) * c[i, j] * (-0.5j * h) ** k
                                  * (-1j * h) ** (j - k))
    return out


# ---------------------------------------------------------------------------
# verification


@functools.cache
def decided_identities() -> dict:
    """{"dirac", "dirac_wrong_sign", "hermiticity"}: the Weyl-ordered
    comoments' identities, decided once, on first use, as identities of
    laurent.Laurent polynomials in B, hbar and m, so for all of them at once.

    dirac: Q({u_A, u_B}) = -i z3 [Q(u_A), Q(u_B)] over all pairs at the
    orbit's z3 = -1/hbar; dirac_wrong_sign: the same at +1/hbar, the
    negative control.  hermiticity: Q(u) = Q(u)^dagger, the formal adjoint
    (QuantOperator.adjoint), for each comoment.  Each reads as
    irreps._operator_defect, its worst over the pairs or comoments: 0.0
    where it holds.
    """
    from .laurent import Laurent
    B, hbar, m = (Laurent.var(name) for name in ("B", "hbar", "m"))
    tables = [np.array([[t.get((i, j), 0) for j in range(3)] for i in range(3)],
                       dtype=object) for t in comoment_table(B, m)]
    ops = [QuantOperator(_weyl(c, hbar)[None]) for c in tables]
    pairs = [(QuantOperator(_weyl(_poisson(tables[a], tables[b]), hbar)[None]),
              ops[a] @ ops[b], ops[b] @ ops[a])
             for a in range(4) for b in range(a + 1, 4)]
    out = {field: max(_operator_defect([qbr, (1j * z3) * ab, (-1j * z3) * ba])
                      for qbr, ab, ba in pairs)
           for field, z3 in (("dirac", -1 / hbar), ("dirac_wrong_sign", 1 / hbar))}
    out["hermiticity"] = max(_operator_defect([op, -1 * op.adjoint()]) for op in ops)
    return out


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
    the gap of T(g^-1) T(g) to the identity on the probes' WINDOW
    (AffinePhase.gap) is added, so T(g^-1) is still checked.  That gap's
    phase is relative to the two phases the composition cancels, sized on
    the window: its constant reads one ulp of them, of order 1/B.  The
    residual is relative to the image, whose size grows with hbar^2 for a
    p^2 term.
    """
    rep = rep_for_mass(params, m)
    u = _affine_phase(rep, g)
    inv = _affine_phase(rep, inverse(g, params))
    ident = AffinePhase(1.0, 1.0, 0.0, (0.0,) * len(u.c))
    lo, hi = WINDOW
    sups = ident._sups(lo, hi)[1]
    cancelled = _size(inv.c, sups) + _size(_poly_pullback(u.c, inv.a, inv.b), sups)
    gap = inv.compose(u).gap(ident, lo, hi, cancelled)
    return _relative_residual(pulled - qf.conjugated(u), probes, pulled) + gap


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
                     seed: int = 42) -> float:
    """Largest residual of Q(f . l_g) = T(g^-1) Q(f) T(g) over random
    (g, observable f) trials, on the first two probes.

    The trials run as one batch: the observables' tables are stacked as
    batch columns, and pulled back and quantized together.
    """
    coords = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(trials, 4))
    base = _covariance_observables(params, m)
    c = np.stack([base[k % len(base)].c for k in range(trials)], axis=-1)[..., None]
    g = GroupElement(*coords.T)
    pulled = _substituted(c, *_left_action_maps(g, params))
    res = _covariance_residual(g, QuantOperator(_weyl(pulled, params.hbar)[None]),
                               QuantOperator(_weyl(c, params.hbar)[None]),
                               params, m, default_probes(2))
    return float(np.max(res, initial=0.0))
