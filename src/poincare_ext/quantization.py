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

The comoments are one table in any number type (comoment_table).  The
Dirac condition, hermiticity and covariance (exact algebra on irreps'
operators, QuantOperator @ and .conjugated), and the comoments' Casimir
u^A u_A = m^2, the light-cone bracket {q^0, q^1} = 1/B and the pullback
of the orbit form, hold at every B, hbar and m; each is decided once per
process, on first use, as an identity of `laurent.Laurent` polynomials
(decided_identities, decided_covariance).  No operator here acts on a
function; the float, Fraction and quadrature versions are the test oracle.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .conventions import SQRT_MINUS_H
from .group import GroupElement, ModelParams, inverse
from .irreps import (
    AffinePhase,
    QuantOperator,
    RepParams,
    _columns,
    _generic_element,
    _generic_phase,
    _operator_defect,
    _phase_defect,
    _polymul2,
    _term_factors,
    _terms,
)
from .model import kirillov

__all__ = [
    "NoGoError",
    "PolynomialObservable",
    "QuantOperator",
    "parse_poly",
    "comoment_table",
    "quantize",
    "decided_identities",
    "decided_covariance",
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


def _substituted(c, q_map, p_map):
    """sum c[i, j] q'^i p'^j, q' and p' affine (cq, cp, c0); batch axes allowed.

    The result takes its dtype from c and the maps: float, or object for
    laurent.Laurent ones."""
    lin = []
    for cq, cp, c0 in (q_map, p_map):
        m = np.array(np.broadcast_arrays(c0, cp, cq, 0.0))  # [[c0, cp], [cq, 0]]
        lin.append(m.reshape((2, 2) + m.shape[1:]))
    out = np.zeros(c.shape[:2] + np.broadcast_shapes(
        c.shape[2:], *(m.shape[2:] for m in lin)), dtype=np.result_type(c, *lin))
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
    """Parse expressions like 'q^2 + 2qp - 0.5' into an observable; a
    coefficient that is not finite, or sums past the float range, raises
    ValueError."""
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
        if not math.isfinite(table[(i, j)]):
            raise ValueError(f"the coefficient of term {chunk!r} is not finite")
    return PolynomialObservable(table)


def _poisson(f, g):
    """{f, g} = df/dp dg/dq - df/dq dg/dp on 3 x 3 coefficient arrays of
    q^i p^j, in any number type.

    The orientation is the one under which the comoments realize the
    group brackets; with it {q, p} = -1 and {q^a, q^b} = eps^{ab}/B.
    """
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
    give the float coefficients, Fractions the exact ones, laurent.Laurent
    variables the decided ones.  u2
    is defined up to an additive constant; this is its standard
    representative.
    """
    return ({(1, 0): -B, (0, 1): -1},
            {(0, 1): 1},
            {(0, 0): m * m / (2 * B), (2, 0): -B / 2, (1, 1): -1},
            {(0, 0): -1})


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
    p -> -i hbar d/dx, qp -> -i hbar (x d/dx + 1/2).  A coefficient whose
    powers of hbar leave the float range raises ValueError naming its term.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = _weyl(f.c, params.hbar)
    for i, j in np.argwhere(~np.isfinite(c))[:1]:
        term = "*".join(_term_factors(i, j))
        what = f"coefficient of {term}" if term else "constant term"
        raise ValueError(f"the operator's {what} at hbar={params.hbar!r} "
                         "leaves the float range")
    return QuantOperator(c[None])


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


def _array(table):
    """A {(i, j): c} table of q^i p^j as its 3 x 3 object array."""
    return np.array([[table.get((i, j), 0) for j in range(3)] for i in range(3)],
                    dtype=object)


def _at(c, q, p):
    """sum c[i, j] q^i p^j of a coefficient array, at q and p."""
    return sum(v * q ** i * p ** j for (i, j), v in np.ndenumerate(c) if v)


@functools.cache
def decided_identities() -> dict:
    """{"dirac", "dirac_wrong_sign", "hermiticity", "comoment_casimir",
    "lightcone_bracket", "pullback"}: the comoments' identities, quantum
    and classical,
    decided once, on first use, as identities of laurent.Laurent
    polynomials in B, hbar, m, q and p, so for all of them at once.

    dirac: Q({u_A, u_B}) = -i z3 [Q(u_A), Q(u_B)] over all pairs at the
    orbit's z3 = -1/hbar; dirac_wrong_sign: the same at +1/hbar, the
    negative control.  hermiticity: Q(u) = Q(u)^dagger, the formal adjoint
    (QuantOperator.adjoint), for each comoment.  Each reads as
    irreps._operator_defect, its worst over the pairs or comoments.
    comoment_casimir: u0^2 - u1^2 - 2B u2 u3 - m^2 (`model.casimir`), and
    lightcone_bracket: {q^0, q^1} - 1/B for the light-cone coordinates
    q^0 = -p/B and q^1 = -q - p/B, each read by laurent.relative_defect,
    every coefficient relative to the largest the summed terms hold.

    pullback: {u_A, u_B} - <u, [T_A, T_B]> (`model.kirillov(u, B)[A][B]`)
    over all pairs, read by relative_defect, its worst.  Where it vanishes
    the comoments are a Poisson map onto the orbit with its Kirillov form
    (Kirillov, Lectures on the Orbit Method, AMS GSM 64 (2004), ch. 1), a
    nondegenerate bracket on a 2-dimensional orbit, as the plane's is: the
    map's Jacobian has rank 2, and it pulls the orbit form back to the
    plane's, J* omega_O = omega.  The momentum map z = u/hbar is a Poisson
    map for hbar times the plane's bracket, hbar {z_A, z_B} = <z, [T_A,
    T_B]>, so it pulls omega_O back to omega/hbar by the same identity.
    0.0 where each identity holds.
    """
    from .laurent import Laurent, relative_defect
    B, hbar, m, q, p = (Laurent.var(name) for name in ("B", "hbar", "m", "q", "p"))
    tables = [_array(t) for t in comoment_table(B, m)]
    ops = [QuantOperator(_weyl(c, hbar)[None]) for c in tables]
    pairs = [(QuantOperator(_weyl(_poisson(tables[a], tables[b]), hbar)[None]),
              ops[a] @ ops[b], ops[b] @ ops[a])
             for a in range(4) for b in range(a + 1, 4)]
    out = {field: max(_operator_defect([qbr, (1j * z3) * ab, (-1j * z3) * ba])
                      for qbr, ab, ba in pairs)
           for field, z3 in (("dirac", -1 / hbar), ("dirac_wrong_sign", 1 / hbar))}
    out["hermiticity"] = max(_operator_defect([op, -1 * op.adjoint()]) for op in ops)
    u0, u1, u2, u3 = (_at(c, q, p) for c in tables)
    out["comoment_casimir"] = relative_defect(
        [u0 * u0, -(u1 * u1), -2 * B * u2 * u3, -m * m])
    bracket = _poisson(_array({(0, 1): -1 / B}), _array({(1, 0): -1, (0, 1): -1 / B}))
    out["lightcone_bracket"] = relative_defect([_at(bracket, q, p), -1 / B])
    k = kirillov((u0, u1, u2, u3), B)
    out["pullback"] = max(relative_defect([_at(_poisson(tables[a], tables[b]), q, p),
                                           -k[a][b]])
                          for a in range(4) for b in range(a + 1, 4))
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


@functools.cache
def decided_covariance() -> float:
    """Q(f . l_g) = T(g^-1) Q(f) T(g), with its round trip T(g^-1) T(g) = 1,
    decided once, on first use, as identities of laurent.Laurent
    polynomials: for every B, hbar, m, group element and observable of
    degree <= 2 at once.

    f is the generic observable sum f_ij q^i p^j, g the generic element of
    irreps (its T(g) at the labels rep_for_mass selects).  Q(f . l_g) is
    f pulled back by _left_action_maps and quantized; T(g^-1) Q(f) T(g) is
    U^-1 Q(f) U for U = T(g) (QuantOperator.conjugated), and the round
    trip, which checks T(g^-1) and group.inverse, is irreps._phase_defect
    of T(g^-1) T(g) against the identity.  The worst of the two: 0.0 where
    both hold.
    """
    from .laurent import Laurent
    var = Laurent.var
    params = SimpleNamespace(B=var("B"), hbar=var("hbar"))
    rep, g = rep_for_mass(params, var("m")), _generic_element("")
    f = np.array([[var(f"f{i}{j}") if i + j <= 2 else 0 for j in range(3)]
                  for i in range(3)], dtype=object)
    pulled = _weyl(_substituted(f, *_left_action_maps(g, params)), params.hbar)
    u = _generic_phase(rep, g)
    conjugate = QuantOperator(_weyl(f, params.hbar)[None]).conjugated(u)
    identity = AffinePhase(1.0, 1.0, 0.0, (0.0,) * len(u.c))
    round_trip = _generic_phase(rep, inverse(g, params)).compose(u)
    return max(_operator_defect([QuantOperator(pulled[None]), -1 * conjugate]),
               _phase_defect(round_trip, identity))

