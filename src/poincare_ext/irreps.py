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
hyperbolic phases' e^{+-x}.  The operators add, multiply and take their
formal adjoint in their coefficients, complex or `laurent.Laurent`.

The module also carries the verification harness.  Every identity it
checks holds at every B != 0, label and group element, and is decided
once per process, on first use, as one of Laurent polynomials.  The
homomorphism and unitarity of T (decided_group_identities) run
_phase_coefficients and group.compose on generic elements, whose
coordinates are Laurent variables and whose e^(-alpha/2) is one more
(Laurent.exp); AffinePhase.compose multiplies two operators exactly in
their coefficients.  The commutator table, anti-Hermiticity, the Casimir
and generator consistency (decided_identities) run the generator table
on Laurent variables, and each defect operator must vanish as a Laurent
polynomial.  Generator consistency is dT(X) = d/dt T(exp tX) at t = 0,
the derivative taken on first-order jets (Jet) run through the
coefficient code of T(g) itself, on the same Laurent labels.  No check
here integrates or differentiates a function.  Their float versions, the
seeded sweeps with their coefficient gaps and the Gaussian-moment probe
kernel, and the quadrature versions with the derivative evaluators they
act on, are the test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .conventions import SQRT_MINUS_H
from .group import GroupElement, ModelParams, compose
from .model import BASIS_NAMES, brackets
from .wavefunctions import _horner

__all__ = [
    "AffinePhase",
    "Jet",
    "QuantOperator",
    "RepParams",
    "rep_from_orbit",
    "rep_apply",
    "decided_group_identities",
    "decided_identities",
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
        for name in ("c2", "z3", "zeta2", "zeta0", "zeta1"):
            value = getattr(self, name)  # a float, or a laurent.Laurent variable
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"the label {name} must be finite, got {value!r}")
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


@dataclass(frozen=True)
class AffinePhase:
    """The operator f(x) -> amp exp(phi(x)) f(a x + b) on L2(R).

    phi is sum_k c[k] x^k (basis "poly") or c[0] cosh x + c[1] sinh x
    ("hyp").  Both classes are closed under the pullbacks compose needs
    (the hyperbolic one under translations, a = 1), so a product of
    operators is exact arithmetic on their coefficients.  Fields may be
    batch columns; one that is not finite raises ValueError naming it.
    Object arrays of laurent.Laurent, finite by construction, are the
    fields of T at a generic element (decided_group_identities).
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
            if np.asarray(v).dtype != object and not np.all(np.isfinite(v)):
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

    def __add__(self, other: "QuantOperator") -> "QuantOperator":
        exps, (a, b) = _aligned((self, other))
        return QuantOperator(a + b, exps)

    def __rmul__(self, s: complex) -> "QuantOperator":
        return QuantOperator(s * self.c, self.exps)

    def __matmul__(self, other: "QuantOperator") -> "QuantOperator":
        """The product, by e^{px} x^i D^j e^{qx} x^k D^l = e^{(p+q)x} x^i (D + q)^j x^k D^l
        and D^s x^k = sum_r C(s, r) k!/(k-r)! x^(k-r) D^(s-r).  Complex
        coefficients give complex ones, and an object array (of
        laurent.Laurent) gives an object array."""
        a, b = self.c, other.c
        n = a.shape[1] + b.shape[1] - 1
        index = {k: o for o, k in enumerate(
            dict.fromkeys(p + q for p in self.exps for q in other.exps))}
        out = np.zeros((len(index), n, n) + np.broadcast_shapes(a.shape[3:], b.shape[3:]),
                       dtype=np.result_type(a, b, complex))
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

    def adjoint(self) -> "QuantOperator":
        """The formal adjoint on L2(R) for real exponents k, term by term
        (c e^{kx} x^i D^j)^dagger = conj(c) (-D)^j x^i e^{kx}: one product
        per power D^j, j > 0, that self holds."""
        c, out = self.c.conj(), QuantOperator(np.zeros((0, 0, 0)), ())
        for j in range(c.shape[1]):
            if not c[:, :, j].any():
                continue
            mult = np.zeros_like(c)
            mult[:, :, 0] = c[:, :, j]
            term = QuantOperator(mult, self.exps)
            if j:
                d = np.zeros((1, j + 1, j + 1))
                d[0, 0, j] = (-1) ** j
                term = QuantOperator(d) @ term
            out = out + term
        return out

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
        terms = ["*".join([f"({v:g})"] + _term_factors(i, j))
                 for (j, i), v in np.ndenumerate(self.c[0].T) if v]
        return " + ".join(terms) if terms else "0"


def _term_factors(i: int, j: int) -> list:
    """The factors of x^i d^j/dx^j as QuantOperator.describe writes them."""
    x = "" if i == 0 else "x" if i == 1 else f"x^{i}"
    d = "" if j == 0 else "d/dx" if j == 1 else f"d{j}/dx{j}"
    return [s for s in (x, d) if s]


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
    out = np.zeros((1, size, size) + coeffs.shape[1:],
                   dtype=np.result_type(coeffs, complex))
    out[0, :len(coeffs), 0] = coeffs
    return out


def _columns(g: GroupElement):
    """g's coordinates, as batch columns (a trailing axis) when g is a batch."""
    coords = (g.theta0, g.theta1, g.alpha, g.beta)
    if np.ndim(g.alpha) == 0:
        return coords
    return tuple(np.asarray(c)[..., None] for c in coords)


def _phase_coefficients(rep: RepParams, t0, t1, al, be, exp=np.exp):
    """(amp, a, b, c, basis) of T(g) at g's coordinates: its AffinePhase fields.

    The arithmetic is +, -, *, / and exp alone, so coordinate columns, jets
    (Jet, with exp=Jet.exp) and the Laurent columns of a generic element
    (np.exp calling Laurent.exp) run the same code.
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
    polynomial for families A and B, in e^{+-x} and D for family C.

    The arithmetic is +, -, * and /, so float labels and B give complex
    arrays, and laurent.Laurent ones (decided_identities) object arrays.
    """
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
    dtype = np.result_type(np.asarray(B * z3 * rep.c2), complex)
    ops = {name: np.zeros((1, 3, 3), dtype=dtype) for name in BASIS_NAMES}
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
    Float labels and B give complex coefficients, laurent.Laurent ones
    (decided_identities) an object array.
    """
    amp, a, b, c, basis = _phase_coefficients(
        rep, *(Jet(0.0, e) for e in np.eye(len(BASIS_NAMES))), exp=Jet.exp)
    amp, a, b, *c = (_slope(x) for x in (amp, a, b, *c))
    out = np.zeros((3, 3, 3, len(BASIS_NAMES)),
                   dtype=np.result_type(amp, a, b, *c, complex))
    if basis == "poly":
        out[0, :len(c), 0] = c
    else:  # the e^{x} and e^{-x} terms
        p, q = c
        out[1, 0, 0], out[2, 0, 0] = (p + q) / 2.0, (p - q) / 2.0
    out[0, 0, 0] += amp
    out[0, 1, 1], out[0, 0, 1] = a, b
    return QuantOperator(out, (0, 1, -1))


# ---------------------------------------------------------------------------
# verification harness


def _operator_defect(parts) -> float:
    """laurent.relative_defect of the sum of the operators parts, coefficient
    by coefficient: 0.0 where the sum is the zero operator."""
    from .laurent import relative_defect
    _, cs = _aligned(parts)
    return max((relative_defect(entries) for entries in zip(*(c.ravel() for c in cs))
                if any(entries)), default=0.0)


def _decided(rep) -> dict:
    """The commutators, casimir and generators fields of rep, whose B and
    labels are laurent.Laurent variables.

    commutators: the six defects [dT(X_a), dT(X_b)] - dT([X_a, X_b]) on
    model.brackets, and the anti-Hermiticity dT(X) + dT(X)^dagger of each
    generator; casimir: 2B I J - sqrt(-h) (P^a P_a + c), c the family's
    Casimir label; generators: {name: defect} of the table's dT(X) against
    d/dt T(exp tX) at t = 0 (_derivative_coefficients).  Each reads as
    _operator_defect, commutators its worst.
    """
    gens = _generators(rep)
    ops = [gens[name] for name in BASIS_NAMES]
    table = {(a, b): coeffs for a, b, coeffs in brackets(rep.params.B)}
    defects = []
    for a in range(4):
        defects.append([ops[a], ops[a].adjoint()])
        for b in range(a + 1, 4):
            defects.append([ops[a] @ ops[b], -1 * (ops[b] @ ops[a])]
                           + [-k * g for k, g in zip(table.get((a, b), ()), ops) if k])
    # Casimir labels: c2 on the orbit, 0 on the points, zeta^a zeta_a at z3 = 0
    c = {"A": rep.c2, "B": 0, "C": rep.zeta0 * rep.zeta0 - rep.zeta1 * rep.zeta1}[rep.family]
    casimir = [(2 * rep.params.B) * (gens["I"] @ gens["J"]),
               -SQRT_MINUS_H * (gens["P0"] @ gens["P0"]),
               SQRT_MINUS_H * (gens["P1"] @ gens["P1"]),
               (-SQRT_MINUS_H * c) * QuantOperator.one()]
    slopes = _derivative_coefficients(rep)
    return {"commutators": max(map(_operator_defect, defects)),
            "casimir": _operator_defect(casimir),
            "generators": {name: _operator_defect(
                [QuantOperator(slopes.c[..., k], slopes.exps), -1 * op])
                for k, (name, op) in enumerate(zip(BASIS_NAMES, ops))}}


def _generic_reps() -> dict:
    """{family: RepParams} of families A, B and C whose B and labels are the
    laurent.Laurent variables B, c2, z3, zeta2, zeta0 and zeta1."""
    from .laurent import Laurent
    var = Laurent.var
    params = SimpleNamespace(B=var("B"))
    labels = {"A": {"c2": var("c2"), "z3": var("z3")}, "B": {"zeta2": var("zeta2")},
              "C": {"zeta0": var("zeta0"), "zeta1": var("zeta1")}}
    return {family: RepParams(family, params, **kw) for family, kw in labels.items()}


@functools.cache
def decided_identities() -> dict:
    """{family: {"commutators": ..., "casimir": ..., "generators": ...}} for
    families A, B and C.

    The generator table runs on _generic_reps, so each identity is decided
    as one of Laurent polynomials: for every B != 0 and every label at
    once.  It is decided once, on first use, and every report reads it.
    """
    return {family: _decided(rep) for family, rep in _generic_reps().items()}


def _generic_element(tag: str) -> GroupElement:
    """The group element whose coordinates are the laurent.Laurent variables
    theta0{tag}, theta1{tag}, alpha{tag} and beta{tag}, a batch of one."""
    from .laurent import Laurent
    return GroupElement(*(np.array([Laurent.var(name + tag)], dtype=object)
                          for name in ("theta0", "theta1", "alpha", "beta")))


def _generic_phase(rep: RepParams, g: GroupElement) -> AffinePhase:
    """T(g) at a generic element g: _phase_coefficients on its Laurent
    coordinates, exp their Laurent.exp, and no float range to leave."""
    return AffinePhase(*_phase_coefficients(rep, *_columns(g)))


def _fields(u: AffinePhase) -> list:
    """u's fields amp, a, b and the phase coefficients, each a flat list."""
    return [np.ravel(v) for v in (u.amp, u.a, u.b, *u.c)]


def _defect(pairs) -> float:
    """The largest laurent.relative_defect of x + y over the field pairs
    (x, y), element by element: 0.0 where each sum vanishes identically."""
    from .laurent import relative_defect
    return max(relative_defect([p, q]) for x, y in pairs
               for p, q in zip(*np.broadcast_arrays(x, y)))


def _phase_defect(u: AffinePhase, v: AffinePhase) -> float:
    """The _defect of u - v: 0.0 where the two operators are one as Laurent
    polynomials."""
    return _defect((x, -y) for x, y in zip(_fields(u), _fields(v), strict=True))


def _unitarity_defect(u: AffinePhase) -> float:
    """The _defect of amp conj(amp) - a and of Re phi.

    T(g) is unitary where |amp|^2 = |a| and phi is imaginary; a is
    e^(-alpha) = h^2 > 0 for family A, h = e^(-alpha/2) real, and 1 for
    families B and C, so |a| = a.
    """
    amp, a, _, *c = _fields(u)
    return _defect([(amp * np.conj(amp), -a)] + [(p, np.conj(p)) for p in c])


@functools.cache
def decided_group_identities() -> dict:
    """{family: {"homomorphism": ..., "unitarity": ...}} for families A, B and C.

    T(g) is _generic_phase at the generic elements g2 and g1 of
    _generic_reps: homomorphism is the _phase_defect of T(g2) T(g1)
    (AffinePhase.compose) against T(g2 g1) (group.compose), and unitarity
    the _unitarity_defect of T(g2).  Each is decided as an identity of
    Laurent polynomials, for every B != 0, label and element at once, once
    per process, on first use, and every report reads it.
    """
    g2, g1 = _generic_element("_2"), _generic_element("_1")
    out = {}
    for family, rep in _generic_reps().items():
        t2 = _generic_phase(rep, g2)
        product = t2.compose(_generic_phase(rep, g1))
        out[family] = {"homomorphism": _phase_defect(
                           product, _generic_phase(rep, compose(g2, g1, rep.params))),
                       "unitarity": _unitarity_defect(t2)}
    return out


def rep_suite(rep: RepParams) -> dict:
    """The numbers the CLI reports for one family: its homomorphism and
    unitarity (decided_group_identities), commutators and Casimir
    (decided_identities).  They hold at every B != 0 and label, so rep
    names the family alone."""
    decided = decided_identities()[rep.family]
    return {"family": rep.family, **decided_group_identities()[rep.family],
            "commutators": decided["commutators"], "casimir": decided["casimir"]}
