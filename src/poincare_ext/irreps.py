"""Unitary irreducible representations of the extended Poincare group.

Every operator T(g) is an AffinePhase, f(x) -> A e^{phi(x)} f(a x + b),
held as its coefficients:

* family A (nonzero central label z3): operators on L2(R) with an affine
  argument map, a quadratic multiplicative phase, and a Jacobian factor;
* family B (point orbits, label zeta2): one-dimensional, the pure phase
  exp(i alpha zeta2);
* family C (massive/tachyonic/null orbits at z3 = 0): operators on
  L2(R, d alpha) with a hyperbolic multiplicative phase and a shift.

rep_apply evaluates the image of a probe by value, A e^{phi(x)} f(a x + b)
at the nodes asked for; no operator here acts on a function otherwise.

The generators dT(X) are written once, as coefficient arrays (_generators),
each a differential operator sum_k e^{kx} sum c_k[i, j] x^i D^j
(QuantOperator): families A and B at k = 0 alone, family C with its
hyperbolic phases' e^{+-x}.  The operators add and multiply exactly in
their coefficients.  On the Hermite coefficients of the probes
r(y) e^{-y^2/2}, each is one matrix per exponent e^{kx}, and the inner
products are Gaussian-moment matrices (_kernel): every operator residual
is a few contractions over all probes and batch members at once.

The module also carries the verification harness.  The homomorphism and
unitarity checks are closed form: AffinePhase.compose multiplies two
operators exactly in their coefficients, and the residuals are relative
coefficient gaps, each function's size taken as its coefficient bound
on the probes' image window (AffinePhase.gap, AffinePhase.unitarity_gap).
The commutator-table and Casimir checks are exact operator products on
the generator table, their residuals ||R f|| / ||f|| in Gaussian moments.
Generator consistency is exact too: dT(X) = d/dt T(exp tX) at t = 0, the
derivative taken on first-order jets (Jet) run through the coefficient
code of T(g) itself, and compared with the table coefficient by
coefficient (generator_gaps).  No check here integrates or differentiates
a function; the quadrature versions, with the derivative evaluators they
act on, are the test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .conventions import SQRT_MINUS_H
from .group import GroupElement, ModelParams, compose, structure_constants
from .model import BASIS_NAMES
from .wavefunctions import WINDOW, Probe, _horner, hermite_probe

__all__ = [
    "AffinePhase",
    "Jet",
    "QuantOperator",
    "RepParams",
    "rep_from_orbit",
    "rep_apply",
    "hermiticity_residual",
    "verify_homomorphism",
    "verify_unitarity",
    "verify_commutators",
    "verify_casimir",
    "generator_gaps",
    "default_probes",
    "rep_suite",
    "BASIS_NAMES",
]


@dataclass(frozen=True)
class RepParams:
    """Labels of one irreducible family plus the model constants."""

    family: str  # "A", "B", or "C"
    params: ModelParams = field(default_factory=ModelParams)
    c2: float = 0.0      # family A: invariant quadratic label
    z3: float = 0.0      # family A: central label, nonzero
    zeta2: float = 0.0   # family B
    zeta0: float = 0.0   # family C
    zeta1: float = 0.0   # family C

    def __post_init__(self):
        if self.family == "A":
            if self.z3 == 0.0:
                raise ValueError("family A requires a nonzero central label")
        elif self.family == "B":
            pass
        elif self.family == "C":
            if self.zeta0 == 0.0 and self.zeta1 == 0.0:
                raise ValueError("family C requires a nonzero momentum label")
        else:
            raise ValueError(f"unknown family {self.family!r}")


def rep_from_orbit(zeta, params: ModelParams = ModelParams()) -> RepParams:
    """Representation labels of the orbit through a dual-space point."""
    from .orbits import classify

    cls = classify(zeta, params)
    if cls.tag == "CaseA":
        return RepParams("A", params, c2=cls.labels["casimir"], z3=cls.labels["zeta3"])
    if cls.tag == "CaseB":
        return RepParams("B", params, zeta2=cls.labels["zeta2"])
    z0, z1 = cls.labels["zeta_a"]
    return RepParams("C", params, zeta0=z0, zeta1=z1)


# ---------------------------------------------------------------------------
# representation operators


def _poly_pullback(c, a, b):
    """Coefficients of sum_k c_k (a x + b)^k, in increasing degree."""
    return tuple(a ** j * sum(math.comb(k, j) * b ** (k - j) * c[k]
                              for k in range(j, len(c))) for j in range(len(c)))


def _size(coeffs, sups):
    """sum_k |c_k| sup |e_k|, a bound on sup |sum_k c_k e_k|."""
    return sum(np.abs(c) * e for c, e in zip(coeffs, sups))


@dataclass(frozen=True)
class AffinePhase:
    """The operator f(x) -> amp exp(phi(x)) f(a x + b) on L2(R).

    phi is sum_k c[k] x^k (basis "poly") or c[0] cosh x + c[1] sinh x
    ("hyp").  Both classes are closed under the pullbacks compose needs
    (the hyperbolic one under translations, a = 1), so a product of
    operators is exact arithmetic on their coefficients.  Fields may be
    batch columns; one that is not finite raises ValueError naming it.
    """

    amp: complex
    a: float
    b: float
    c: tuple
    basis: str = "poly"

    def __post_init__(self):
        for name, v in {"amplitude": self.amp, "a": self.a, "b": self.b,
                        **{f"phase coefficient c{k}": c
                           for k, c in enumerate(self.c)}}.items():
            if not np.all(np.isfinite(v)):
                raise ValueError(f"operator {name} is not finite")

    def image(self, f, x):
        """amp e^{phi(x)} f(a x + b) at the nodes x, by value: one row per
        batch member when the fields are batch columns."""
        x = np.asarray(x, dtype=float)
        if self.basis == "hyp":
            phi = self.c[0] * np.cosh(x) + self.c[1] * np.sinh(x)
        else:
            phi = _horner(self.c, x)
        return self.amp * np.exp(phi) * f(self.a * x + self.b)

    def compose(self, first: "AffinePhase") -> "AffinePhase":
        """self . first: first's map and phase pulled back by x -> a x + b."""
        a, b = self.a, self.b
        if self.basis == "poly":
            pulled = _poly_pullback(first.c, a, b)
        elif np.any(a != 1.0):
            raise ValueError("a hyperbolic phase pulls back by translations only")
        else:  # the addition formulas of cosh(x + b) and sinh(x + b)
            (p, q), ch, sh = first.c, np.cosh(b), np.sinh(b)
            pulled = (p * ch + q * sh, p * sh + q * ch)
        fb, fa = _poly_pullback((first.b, first.a), a, b)
        return AffinePhase(self.amp * first.amp, fa, fb,
                           tuple(p + q for p, q in zip(self.c, pulled)), self.basis)

    def _sups(self, lo, hi):
        """sup |1|, |x| and each sup |e_k| over the x with lo <= a x + b <= hi."""
        r = np.maximum(np.abs(lo - self.b), np.abs(hi - self.b)) / np.abs(self.a)
        if self.basis == "hyp":
            return (1.0, r), (np.cosh(r), np.sinh(r))
        return (1.0, r), tuple(r ** k for k in range(len(self.c)))

    def gap(self, other: "AffinePhase", lo, hi, phase_size=None):
        """Relative coefficient gap to other, for probes on the window [lo, hi].

        The sum of |d amp| / |amp|, of the size of the change of the map
        x -> a x + b over the size of the map, and of the size of the
        change of phi over phase_size (default: the size of other's phi).
        A size is the bound _size on other's image of the window, taken at
        least 1 (one radian; one unit of the probe's argument).
        """
        maps, sups = other._sups(lo, hi)
        d_map = (_size((self.b - other.b, self.a - other.a), maps)
                 / np.maximum(_size((other.b, other.a), maps), 1.0))
        if phase_size is None:
            phase_size = _size(other.c, sups)
        d_phi = (_size([p - q for p, q in zip(self.c, other.c)], sups)
                 / np.maximum(phase_size, 1.0))
        return np.abs(self.amp - other.amp) / np.abs(other.amp) + d_map + d_phi

    def unitarity_gap(self, lo, hi):
        """| |amp|^2 / |a| - 1 | plus the size of Re phi on the image of [lo, hi]."""
        return (np.abs(np.abs(self.amp) ** 2 / np.abs(self.a) - 1.0)
                + _size(np.real(self.c), self._sups(lo, hi)[1]))


# ---------------------------------------------------------------------------
# operator algebra: differential operators as coefficient arrays

@dataclass(frozen=True, eq=False)
class QuantOperator:
    """Operator sum_k e^{kx} sum c_k[i, j] x^i (d/dx)^j, complex coefficients.

    exps holds the distinct exponents k, and c the arrays c_k on a leading
    axis, c[e] = c_k for k = exps[e]: (0,) for a polynomial operator, ()
    for the zero operator.  Each c_k is square and of total degree below
    its size: c_k[i, j] = 0 for i + j >= size.  c may carry batch columns
    on trailing axes (shape (1, 3, 3, n, 1)), one operator per member.
    Sums join the exponents and pad to the larger size, and op @ other is
    the operator product in the same x-left order.
    """

    c: np.ndarray
    exps: tuple = (0,)

    #: ndarray * op and numpy-scalar * op defer to __rmul__
    __array_ufunc__ = None

    @staticmethod
    def one() -> "QuantOperator":
        return QuantOperator(np.ones((1, 1, 1)))

    @staticmethod
    def stack(ops) -> "QuantOperator":
        """One batch operator whose member k is ops[k]."""
        exps, cs = _aligned(ops)
        return QuantOperator(np.stack(cs, axis=-1)[..., None], exps)

    def __add__(self, other: "QuantOperator") -> "QuantOperator":
        exps, (a, b) = _aligned((self, other))
        return QuantOperator(a + b, exps)

    def __sub__(self, other: "QuantOperator") -> "QuantOperator":
        return self + (-1.0) * other

    def __rmul__(self, s: complex) -> "QuantOperator":
        return QuantOperator(s * self.c, self.exps)

    def __matmul__(self, other: "QuantOperator") -> "QuantOperator":
        """The product, by e^{px} x^i D^j e^{qx} x^k D^l = e^{(p+q)x} x^i (D + q)^j x^k D^l
        and D^s x^k = sum_r C(s, r) k!/(k-r)! x^(k-r) D^(s-r)."""
        a, b = self.c, other.c
        n = a.shape[1] + b.shape[1] - 1
        index = {k: o for o, k in enumerate(
            dict.fromkeys(p + q for p in self.exps for q in other.exps))}
        out = np.zeros((len(index), n, n) + np.broadcast_shapes(a.shape[3:], b.shape[3:]),
                       dtype=complex)
        right = [(other.exps[f], k, l, b[f, k, l]) for f, k, l in _terms(b, 3)]
        shifts = {q: _shift(q, a.shape[1]) for q in other.exps}
        for e, i, j in _terms(a, 3):
            u, p = a[e, i, j], self.exps[e]
            for q, k, l, v in right:
                o = index[p + q]
                for s, m in shifts[q][j]:
                    for r in range(min(s, k) + 1):
                        out[o, i + k - r, s + l - r] += (m * math.comb(s, r) * math.perm(k, r)
                                                         * u * v)
        return QuantOperator(out, tuple(index))

    def conjugated(self, u: AffinePhase) -> "QuantOperator":
        """U^-1 . self . U for U f(x) = amp e^phi(x) f(a x + b), phi a polynomial.

        U^-1 x U = (x - b) / a and U^-1 D U = a D + phi'((x - b) / a).  A
        hyperbolic phase (family C) or an e^{kx} term, k != 0, has no
        polynomial image: ValueError.
        """
        if u.basis != "poly" or self.exps != (0,):
            raise ValueError("QuantOperator.conjugated: a hyperbolic phase or an "
                             "e^{kx} term has no polynomial conjugate")
        inv, shift = 1.0 / u.a, -u.b / u.a
        dphi = _poly_pullback([k * c for k, c in enumerate(u.c)][1:], inv, shift)
        d = _multiplier(dphi, 2)
        d[0, 0, 1] = u.a
        out = power = QuantOperator.one()
        c = self.c[0]
        for j in range(len(c)):
            if j:
                power = power @ QuantOperator(d)
            mult = _poly_pullback(c[:len(c) - j, j], inv, shift)
            term = QuantOperator(_multiplier(mult)) @ power
            out = out + term if j else term
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuantOperator) and self.exps == other.exps
                and np.array_equal(self.c, other.c))

    def describe(self) -> str:
        """The terms of a polynomial operator; ValueError for an e^{kx} term."""
        if self.exps != (0,):
            raise ValueError("QuantOperator.describe: an e^{kx} term is not described")
        terms = []
        for (j, i), v in np.ndenumerate(self.c[0].T):
            if v:
                x = "" if i == 0 else "x" if i == 1 else f"x^{i}"
                d = "" if j == 0 else "d/dx" if j == 1 else f"d{j}/dx{j}"
                terms.append("*".join([f"({v:g})"] + [s for s in (x, d) if s]))
        return " + ".join(terms) if terms else "0"


class Jet:
    """First-order jet v + d eps, eps^2 = 0 (a dual number): exact first
    derivatives by arithmetic.  d may be an array, one slope per direction;
    a number is a constant.  Division is by constants only.  A plain class,
    not a dataclass: a cold CLI start that imports irreps builds it."""

    __slots__ = ("v", "d")

    #: numpy-scalar * jet defers to __rmul__
    __array_ufunc__ = None

    def __init__(self, v: complex, d: np.ndarray):
        self.v, self.d = v, d

    def exp(self) -> "Jet":
        e = np.exp(self.v)
        return Jet(e, e * self.d)

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.d + other.d)
        return Jet(self.v + other, self.d)

    def __neg__(self) -> "Jet":
        return Jet(-self.v, -self.d)

    def __sub__(self, other) -> "Jet":
        return self + -other

    def __rsub__(self, other) -> "Jet":
        return -self + other

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.v * other.v, self.v * other.d + self.d * other.v)
        return Jet(self.v * other, self.d * other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        return Jet(self.v / other, self.d / other)


def _terms(c, core: int = 2):
    """The index tuples over c's first core axes that are nonzero in some
    batch member (the axes past them)."""
    if c.ndim > core:
        c = (c != 0.0).any(axis=tuple(range(core, c.ndim)))
    return zip(*np.nonzero(c))


@functools.lru_cache(maxsize=64)
def _shift(q, n: int) -> tuple:
    """For each j < n, (D + q)^j = e^{-qx} D^j e^{qx} as its terms
    ((s, C(j, s) q^(j-s)), ...) of D^s."""
    return tuple(tuple((s, math.comb(j, s) * q ** (j - s))
                       for s in range(0 if q else j, j + 1)) for j in range(n))


def _aligned(ops):
    """(exps, cs): the ops' exponents joined in order of appearance, and each
    op's coefficients on them, padded to the largest size and lifted to the
    most batch axes."""
    exps = tuple(dict.fromkeys(k for op in ops for k in op.exps))
    n, nd = max(op.c.shape[1] for op in ops), max(op.c.ndim for op in ops)
    cs = []
    for op in ops:
        c = _lifted(op.c, nd, 3)
        if op.exps != exps or c.shape[1] != n:
            out = np.zeros((len(exps), n, n) + c.shape[3:], dtype=c.dtype)
            out[[exps.index(k) for k in op.exps], :c.shape[1], :c.shape[2]] = c
            c = out
        cs.append(c)
    return exps, cs


def _polymul2(a, b):
    """Product of two polynomials in two variables, as coefficient arrays.

    Axes past the first two are a batch, broadcast between a and b.
    """
    b = _lifted(b, a.ndim)
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
                   + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                   dtype=np.result_type(a, b))
    for i, j in _terms(a):
        out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
    return out


def _lifted(c, ndim: int, core: int = 2):
    """c with singleton batch axes inserted after its first core, to ndim axes."""
    return c.reshape(c.shape[:core] + (1,) * (ndim - c.ndim) + c.shape[core:])


def _multiplier(coeffs, n: int = 1):
    """The operator array of multiplication by sum_i coeffs[i] x^i, of size
    at least n."""
    coeffs = np.asarray(coeffs)
    size = max(len(coeffs), n)
    out = np.zeros((1, size, size) + coeffs.shape[1:], dtype=complex)
    out[0, :len(coeffs), 0] = coeffs
    return out


# ---------------------------------------------------------------------------
# operators on Hermite probes: one matrix kernel in Gaussian moments
#
# A probe is r(x) g, g = e^{-x^2/2}, held as the column of r's
# coefficients.  On columns of length N, x acts as X, which raises the
# degree by one, and d/dx as D = P - X, P the derivative of r, so an operator
# sum_k e^{kx} sum c_k[i, j] x^i D^j is one matrix
# M_k = sum c_k[i, j] X^i D^j per exponent, and
# <e^{kx} s g, e^{lx} t g> = s^H G_{k+l} t.  With N the probes' length plus
# the operator's size - 1, nothing is truncated.


@functools.lru_cache(maxsize=64)
def _xd_powers(n: int, size: int):
    """Read-only (n, n, size, size) array of the matrices X^i D^j, i, j < n."""
    x = np.eye(size, k=-1)
    d = np.diag(np.arange(1.0, size), k=1) - x
    xs, ds = [np.eye(size)], [np.eye(size)]
    for _ in range(n - 1):
        xs.append(x @ xs[-1])
        ds.append(d @ ds[-1])
    out = np.einsum("iab,jbc->ijac", xs, ds)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _moments(size: int, k: float):
    """Read-only G_k[a, b] = <x^a g, e^{kx} x^b g>, a Hankel matrix in a + b.

    e^{kx} e^{-x^2} = e^{m^2} e^{-(x - m)^2} with m = k / 2, so by the
    binomial expansion about m and the integral Gamma((r + 1) / 2) of
    u^r e^{-u^2} for even r:
    G_k[a, b] = e^{m^2} sum_{r even} C(a + b, r) m^(a+b-r) Gamma((r + 1) / 2).
    """
    m = k / 2.0
    h = [sum(math.comb(n, r) * m ** (n - r) * math.gamma((r + 1) / 2)
             for r in range(0, n + 1, 2)) for n in range(2 * size - 1)]
    idx = np.add.outer(np.arange(size), np.arange(size))
    out = math.exp(m * m) * np.array(h)[idx]
    out.setflags(write=False)
    return out


def _kernel(op, probes):
    """(M, R, G): M[k] the matrices M_k of op's nonzero c_k with its batch
    axes first, R the probes' coefficient columns, G(K) the moments G_K,
    all of one size N.

    An empty probe list, or a probe that is not a Probe record, raises
    ValueError.
    """
    if not probes:
        raise ValueError("operator checks need at least one probe")
    if not all(isinstance(f, Probe) for f in probes):
        raise ValueError("operator checks need Gaussian-polynomial "
                         "probe records (Probe)")
    n = max(op.c.shape[1], 1)
    size = max(len(f.poly) for f in probes) + n - 1
    r = np.zeros((size, len(probes)), dtype=complex)
    for p, f in enumerate(probes):
        r[:len(f.poly), p] = f.poly
    powers = _xd_powers(n, size)
    return ({k: np.einsum("ij...,ijab->...ab", c, powers)
             for k, c in zip(op.exps, op.c) if c.any()},
            r, lambda k: _moments(size, k))


def _square_norms(op, probes):
    """||op f||^2 for each probe f, on a last axis after op's batch axes."""
    mats, r, gram = _kernel(op, probes)
    ks = list(mats)
    if not ks:
        return np.zeros(op.c.shape[3:] + (len(probes),))
    s = np.stack([mats[k] @ r for k in ks])
    g = np.array([[gram(k + l) for l in ks] for k in ks])
    return np.real(np.einsum("k...ap,klab,l...bp->...p", s.conj(), g, s))


def _relative_residual(op, probes, ref=None):
    """max over probes of ||op f|| / ||ref f|| (ref None: ||f||), batch-wise."""
    den = _square_norms(QuantOperator.one() if ref is None else ref, probes)
    return np.max(np.sqrt(np.maximum(_square_norms(op, probes), 0.0) / den), axis=-1)


def _in_float_range(what: str):
    """Decorate a residual check: numpy's overflow warnings are off while it
    runs, and a result that is not finite (a coefficient product of order
    B^2 past the float range, say) is a ValueError naming what."""
    def wrap(check):
        @functools.wraps(check)
        def checked(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore"):
                res = check(*args, **kwargs)
            if not np.all(np.isfinite(res)):
                raise ValueError(f"the {what} residual leaves the float range")
            return res
        return checked
    return wrap


@_in_float_range("hermiticity")
def hermiticity_residual(op, probes) -> float:
    """max over probe pairs (i, j) of |<A f_i, f_j> - <f_i, A f_j>|.

    Exact on Gaussian-polynomial probes: with A f = sum_k e^{kx} M_k r g,
    the pairs are the entries of R^H (sum_k M_k^H G_k - G_k M_k) R.
    """
    mats, r, gram = _kernel(op, probes)
    h = sum((np.swapaxes(m.conj(), -1, -2) @ gram(k) - gram(k) @ m
             for k, m in mats.items()), np.zeros((len(r),) * 2))
    return float(np.max(np.abs(r.conj().T @ h @ r)))


def _columns(g: GroupElement):
    """g's coordinates, as batch columns (a trailing axis) when g is a batch."""
    coords = (g.theta0, g.theta1, g.alpha, g.beta)
    if np.ndim(g.alpha) == 0:
        return coords
    return tuple(np.asarray(c)[..., None] for c in coords)


def _phase_coefficients(rep: RepParams, t0, t1, al, be, exp=np.exp):
    """(amp, a, b, c, basis) of T(g) at g's coordinates: its AffinePhase fields.

    The arithmetic is +, -, *, / and exp alone, so coordinate columns and
    jets (Jet, with exp=Jet.exp) run the same code.
    """
    if rep.family == "B":
        return 1.0, 1.0, 0.0, (1j * al * rep.zeta2,), "poly"
    if rep.family == "C":
        # phase exp(i zeta_a Lambda(alpha)^a_b theta^b) and a shift by alpha
        return 1.0, 1.0, al, (1j * (rep.zeta0 * t0 + rep.zeta1 * t1),
                              1j * (-rep.zeta0 * t1 - rep.zeta1 * t0)), "hyp"
    # family A: Jacobian amplitude, affine argument map, quadratic phase
    B, z3 = rep.params.B, rep.z3
    a, e2 = exp(-al), exp(-2.0 * al)
    d = t0 - t1
    c0 = (be - (B / 4.0) * (t0 * t0 - t1 * t1) - (B / 4.0) * e2 * d * d) * z3 \
        - al * rep.c2 * SQRT_MINUS_H / (2.0 * B * z3)
    c1 = ((B / 2.0) * (t0 + t1) + (B / 2.0) * e2 * d) * z3
    c2x = (B / 4.0) * (1.0 - e2) * z3
    return exp(-al / 2.0), a, (t1 - t0) * a, (1j * c0, 1j * c1, 1j * c2x), "poly"


def _affine_phase(rep: RepParams, g: GroupElement) -> AffinePhase:
    """T(g) of the family as an AffinePhase; a batch g gives batch columns."""
    t0, t1, al, be = _columns(g)
    # AffinePhase names a coefficient that leaves the float range (a tiny
    # B in c2 / (2 B z3)), so numpy's warnings are off
    with np.errstate(all="ignore"):
        if rep.family == "A" and not np.all((np.exp(-al) > 0.0)
                                            & (np.exp(-2.0 * al) < math.inf)):
            raise ValueError(f"alpha = {g.alpha!r} leaves the float range: "
                             "exp(-alpha) or exp(-2 alpha) under- or overflows")
        return AffinePhase(*_phase_coefficients(rep, t0, t1, al, be))


def _generators(rep: RepParams) -> dict:
    """dT(X) for each X of BASIS_NAMES, the derivative of _affine_phase at 1:
    polynomial for families A and B, in e^{+-x} and D for family C."""
    if rep.family == "B":  # 1 x 1: J is the scalar i zeta_2, the rest 0
        return {name: QuantOperator(np.array([[[1j * rep.zeta2 * (name == "J")]]]))
                for name in BASIS_NAMES}
    if rep.family == "C":
        # P0 = i (zeta_0 cosh x - zeta_1 sinh x), P1 = i (zeta_1 cosh x - zeta_0 sinh x)
        z0, z1 = rep.zeta0, rep.zeta1
        return {"P0": QuantOperator(np.array([[[0.5j * (z0 - z1)]], [[0.5j * (z0 + z1)]]]),
                                    (1, -1)),
                "P1": QuantOperator(np.array([[[0.5j * (z1 - z0)]], [[0.5j * (z0 + z1)]]]),
                                    (1, -1)),
                "J": QuantOperator(np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)),
                "I": QuantOperator(np.zeros((0, 0, 0), dtype=complex), ())}
    B, z3 = rep.params.B, rep.z3
    ops = {name: np.zeros((1, 3, 3), dtype=complex) for name in BASIS_NAMES}
    ops["I"][0, 0, 0] = 1j * z3
    ops["P1"][0, 0, 1] = 1.0
    ops["P0"][0, 1, 0], ops["P0"][0, 0, 1] = 1j * B * z3, -1.0
    ops["J"][0, 0, 0] = -0.5 - 1j * rep.c2 * SQRT_MINUS_H / (2.0 * B * z3)
    ops["J"][0, 2, 0], ops["J"][0, 1, 1] = 1j * (B / 2.0) * z3, -1.0
    return {name: QuantOperator(c) for name, c in ops.items()}


def rep_apply(rep: RepParams, g: GroupElement, f, x):
    """The values of T(g) f at the nodes x; a batch g gives one row per member.

    Family B is one-dimensional: its phase scales the probe's values.
    """
    op = _affine_phase(rep, g)
    return np.exp(op.c[0]) * f(x) if rep.family == "B" else op.image(f, x)


def _slope(x):
    """The slopes of x along the basis directions; a constant has none."""
    return x.d if isinstance(x, Jet) else np.zeros(len(BASIS_NAMES))


def _derivative_coefficients(rep: RepParams) -> QuantOperator:
    """d/dt T(exp t X_k) at t = 0, member k of a batch operator for k over
    BASIS_NAMES.

    exp(t X_k) = t e_k (exp_map's closed form on a coordinate line), so
    this is the slope of _phase_coefficients along e_k, exact on jets.  As
    T(1) = 1, it is the operator amp' + phi'(x) + (a' x + b') D, with
    phi' = sum c_i' x^i, or p' cosh x + q' sinh x for a hyperbolic phase.
    """
    with np.errstate(all="ignore"):  # generator_gaps names what overflows
        amp, a, b, c, basis = _phase_coefficients(
            rep, *(Jet(0.0, e) for e in np.eye(len(BASIS_NAMES))), exp=Jet.exp)
    out = np.zeros((3, 3, 3, len(BASIS_NAMES)), dtype=complex)
    if basis == "poly":
        out[0, :len(c), 0] = [_slope(ci) for ci in c]
    else:  # the e^{x} and e^{-x} terms
        p, q = (_slope(ci) for ci in c)
        out[1, 0, 0], out[2, 0, 0] = (p + q) / 2.0, (p - q) / 2.0
    out[0, 0, 0] += _slope(amp)
    out[0, 1, 1], out[0, 0, 1] = _slope(a), _slope(b)
    return QuantOperator(out, (0, 1, -1))


# ---------------------------------------------------------------------------
# verification harness


@functools.lru_cache(maxsize=1)
def _hermite_probes() -> tuple:
    """h_0, ..., h_4, built on first use; a Probe is immutable, so every
    check shares them."""
    return tuple(hermite_probe(k) for k in range(5))


def default_probes(count: int = 5) -> tuple:
    """The first count (at most 5) Hermite functions."""
    if count > 5:
        raise ValueError(f"default_probes: {count} probes asked, 5 kept")
    return _hermite_probes()[:count]


def verify_homomorphism(rep: RepParams, g2: GroupElement, g1: GroupElement) -> float:
    """Largest AffinePhase.gap of T(g2) T(g1) to T(g2 g1), probes' WINDOW."""
    op = _affine_phase(rep, g2).compose(_affine_phase(rep, g1))
    gap = op.gap(_affine_phase(rep, compose(g2, g1, rep.params)), *WINDOW)
    return float(np.max(gap))


def verify_unitarity(rep: RepParams, g: GroupElement) -> float:
    """Largest AffinePhase.unitarity_gap of T(g), probes' WINDOW."""
    return float(np.max(_affine_phase(rep, g).unitarity_gap(*WINDOW)))


@_in_float_range("commutator")
def verify_commutators(rep: RepParams, probes) -> float:
    """Bracket table through the representation, plus anti-Hermiticity.

    Each defect [dT(X_a), dT(X_b)] - dT([X_a, X_b]) is one operator, a
    product on the generator table, and its residual is ||R f|| / ||f||
    on each probe.  Anti-Hermiticity is the hermiticity_residual of
    i dT(X) on the first two probes.
    """
    gens = [_generators(rep)[name] for name in BASIS_NAMES]
    consts = structure_constants(rep.params)
    defects = []
    for a in range(4):
        for b in range(a + 1, 4):
            defect = gens[a] @ gens[b] - gens[b] @ gens[a]
            for c, g in zip(consts[:, a, b], gens):
                if c:
                    defect = defect - c * g
            defects.append(defect)
    # np.max, not max: a NaN defect must not hide behind a finite one
    return float(np.max((
        hermiticity_residual(1j * QuantOperator.stack(gens), probes[:2]),
        np.max(_relative_residual(QuantOperator.stack(defects), probes)))))


@_in_float_range("Casimir")
def verify_casimir(rep: RepParams, probes) -> float:
    """2B I J f = sqrt(-h) (P^a P_a f + c f), c the family's Casimir label.

    The residual of the defect operator, a product on the generator table.
    """
    g = _generators(rep)
    # Casimir labels: c2 on the orbit, 0 on the points, zeta^a zeta_a at z3 = 0
    c = {"A": rep.c2, "B": 0.0, "C": rep.zeta0 ** 2 - rep.zeta1 ** 2}[rep.family]
    pp = g["P0"] @ g["P0"] - g["P1"] @ g["P1"] + c * QuantOperator.one()
    defect = (2.0 * rep.params.B) * (g["I"] @ g["J"]) - SQRT_MINUS_H * pp
    return float(np.max(_relative_residual(defect, probes)))


def generator_gaps(rep: RepParams) -> dict:
    """{name: gap} of each generator dT(X) of the table _generators against
    the derivative d/dt T(exp tX) at t = 0 (_derivative_coefficients).

    The gap is the largest relative gap of one coefficient,
    |got - want| / max(|got|, |want|), 0 where both vanish, so a wrong
    coefficient shows at every B however small it is beside the others.
    A coefficient that is not finite raises ValueError.
    """
    got, table, out = _derivative_coefficients(rep), _generators(rep), {}
    for k, name in enumerate(BASIS_NAMES):
        _, (g, w) = _aligned((QuantOperator(got.c[..., k], got.exps), table[name]))
        if not np.all(np.isfinite(g) & np.isfinite(w)):
            raise ValueError(f"generator {name}: a coefficient is not finite")
        size = np.maximum(np.abs(g), np.abs(w))
        out[name] = float(np.max(np.abs(g - w) / np.where(size > 0.0, size, 1.0)))
    return out


def rep_suite(rep: RepParams, trials: int = 200, seed: int = 42) -> dict:
    """Full residual sweep for one family: the numbers the CLI reports.

    Each check runs once on the stacked batch of its trials; the draws
    come in the order of one trial at a time (g2 before g1).
    """
    rng = np.random.default_rng(seed)
    probes = default_probes(5)
    pairs = rng.uniform(-2.0, 2.0, size=(trials, 2, 4))
    g2, g1 = (GroupElement(*pairs[:, k].T) for k in range(2))
    hom = verify_homomorphism(rep, g2, g1)
    g = GroupElement(*rng.uniform(-2.0, 2.0, size=(trials, 4)).T)
    uni = verify_unitarity(rep, g)
    comm = verify_commutators(rep, probes)
    cas = verify_casimir(rep, probes)
    return {
        "family": rep.family,
        "homomorphism": hom,
        "unitarity": uni,
        "commutators": comm,
        "casimir": cas,
    }
