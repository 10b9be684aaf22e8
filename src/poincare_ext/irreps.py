"""Unitary irreducible representations of the extended Poincare group.

Three families, realized as closures acting on WaveFunction objects:

* family A (nonzero central label z3): operators on L2(R) with an affine
  argument map, a quadratic multiplicative phase, and a Jacobian factor;
* family B (point orbits, label zeta2): one-dimensional, the pure phase
  exp(i alpha zeta2), which multiplies a wavefunction or a scalar alike;
* family C (massive/tachyonic/null orbits at z3 = 0): operators on
  L2(R, d alpha) with a hyperbolic multiplicative phase and a shift.

The module also carries the verification harness: homomorphism,
unitarity, commutator-table, operator-identity, generator-consistency,
and right-invariance checks, all reported as quadrature residuals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .conventions import SQRT_MINUS_H
from .group import (
    AlgebraElement,
    GroupElement,
    ModelParams,
    bracket,
    compose,
    exp_map,
)
from .wavefunctions import (
    WaveFunction,
    _relative_l2,
    exp_poly_tower,
    hermite_wf,
    inner,
    integrate_stack,
    l2_diff,
    norm,
    wf_add,
    wf_affine,
    wf_mul,
    wf_mul_poly,
    wf_scale,
    wf_stack,
    wf_sub,
)

__all__ = [
    "RepParams",
    "case_a",
    "case_b",
    "case_c",
    "rep_from_orbit",
    "character",
    "subgroup_modulus",
    "rep_apply",
    "generator_apply",
    "borel_decompose",
    "lifted_function",
    "verify_homomorphism",
    "verify_unitarity",
    "verify_commutators",
    "verify_casimir",
    "generator_consistency",
    "right_invariance_residual",
    "faithfulness_residuals",
    "default_probes",
    "rep_suite",
    "BASIS_NAMES",
]

BASIS_NAMES = ("P0", "P1", "J", "I")


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


def case_a(c2: float, z3: float, params: ModelParams = ModelParams()) -> RepParams:
    return RepParams("A", params, c2=c2, z3=z3)


def case_b(zeta2: float, params: ModelParams = ModelParams()) -> RepParams:
    return RepParams("B", params, zeta2=zeta2)


def case_c(zeta0: float, zeta1: float, params: ModelParams = ModelParams()) -> RepParams:
    return RepParams("C", params, zeta0=zeta0, zeta1=zeta1)


def rep_from_orbit(zeta, params: ModelParams = ModelParams()) -> RepParams:
    """Representation labels of the orbit through a dual-space point."""
    from .orbits import classify

    cls = classify(zeta, params)
    if cls.tag == "CaseA":
        return case_a(cls.labels["casimir"], cls.labels["zeta3"], params)
    if cls.tag == "CaseB":
        return case_b(cls.labels["zeta2"], params)
    z0, z1 = cls.labels["zeta_a"]
    return case_c(z0, z1, params)


# ---------------------------------------------------------------------------
# characters and subgroup moduli


def character(h: GroupElement, rep: RepParams) -> complex:
    """Unit-modulus character of the inducing subgroup element h."""
    if rep.family == "A":
        s = SQRT_MINUS_H
        return cmath.exp(1j * (-h.alpha * rep.c2 * s / (2.0 * rep.params.B * rep.z3)
                               + h.beta * rep.z3))
    if rep.family == "B":
        return cmath.exp(1j * h.alpha * rep.zeta2)
    return cmath.exp(1j * (h.theta0 * rep.zeta0 + h.theta1 * rep.zeta1))


def subgroup_modulus(h: GroupElement, family: str) -> float:
    """Modulus of the inducing subgroup: e^alpha for family A, else 1."""
    return math.exp(h.alpha) if family == "A" else 1.0


# ---------------------------------------------------------------------------
# representation operators


def _hyperbolic_exp(a: complex, c: complex):
    """Evaluator (x, k) of the derivatives of exp(phi), phi = a cosh x + c sinh x.

    Derivatives of exp(phi) are polynomial in (phi', phi'' = phi, ...);
    explicit formulas are used through third order, so the product that
    takes this factor has depth at most 3.
    """
    def m(x, k):
        phi = a * np.cosh(x) + c * np.sinh(x)
        if k == 0:
            return np.exp(phi)
        dphi = a * np.sinh(x) + c * np.cosh(x)
        if k == 1:
            return dphi * np.exp(phi)
        if k == 2:
            return (phi + dphi ** 2) * np.exp(phi)
        return (dphi * (1.0 + 3.0 * phi) + dphi ** 3) * np.exp(phi)
    return m


def _columns(g: GroupElement):
    """g's coordinates, as batch columns (a trailing axis) when g is a batch."""
    coords = (g.theta0, g.theta1, g.alpha, g.beta)
    if np.ndim(g.alpha) == 0:
        return coords
    return tuple(np.asarray(c)[..., None] for c in coords)


def _case_a_phase(rep: RepParams, t0, t1, al, be, e2):
    """(amplitude, quadratic phase-exponent coefficients) of the family-A action.

    e2 is exp(-2 alpha).
    """
    B, z3 = rep.params.B, rep.z3
    d = t0 - t1
    c0 = (be - (B / 4.0) * (t0 * t0 - t1 * t1) - (B / 4.0) * e2 * d * d) * z3 \
        - al * rep.c2 * SQRT_MINUS_H / (2.0 * B * z3)
    c1 = ((B / 2.0) * (t0 + t1) + (B / 2.0) * e2 * d) * z3
    c2x = (B / 4.0) * (1.0 - e2) * z3
    amp = np.exp(-al / 2.0)
    return amp, (1j * c0, 1j * c1, 1j * c2x)


def rep_apply(rep: RepParams, g: GroupElement, f):
    """Act with the group element g; exact closure composition throughout.

    A batch g gives a batch image, one function per member.
    """
    t0, t1, al, be = _columns(g)
    if rep.family == "B":
        return np.exp(1j * al * rep.zeta2) * f

    if rep.family == "A":
        with np.errstate(over="ignore", under="ignore"):
            a = np.exp(-al)
            e2 = np.exp(-2.0 * al)
        if not np.all((a > 0.0) & (e2 < math.inf)):
            raise ValueError(f"family A operator at alpha = {g.alpha!r} leaves "
                             "the float range: exp(-alpha) or exp(-2 alpha) "
                             "under- or overflows")
        amp, q = _case_a_phase(rep, t0, t1, al, be, e2)
        b = (t1 - t0) * a
        return wf_mul(wf_affine(f, a, b), exp_poly_tower([amp], q), 3)

    # family C: phase exp(i zeta_a Lambda(alpha)^a_b theta^b) and a shift
    a = 1j * (rep.zeta0 * t0 + rep.zeta1 * t1)
    c = 1j * (-rep.zeta0 * t1 - rep.zeta1 * t0)
    return wf_mul(wf_affine(f, 1.0, al), _hyperbolic_exp(a, c), 3)


def generator_apply(rep: RepParams, name: str, f):
    """First-order differential operator of the algebra representation."""
    if name not in BASIS_NAMES:
        raise ValueError(f"unknown basis element {name!r}")

    if rep.family == "B":
        return 1j * rep.zeta2 * f if name == "J" else 0.0 * f

    if rep.family == "A":
        B, z3 = rep.params.B, rep.z3
        if name == "I":
            return wf_scale(f, 1j * z3)
        if name == "P1":
            return f.derivative()
        if name == "P0":
            return wf_sub(wf_mul_poly(f, [0.0, 1j * B * z3]), f.derivative())
        # J
        mult = wf_mul_poly(
            f, [-0.5 - 1j * rep.c2 * SQRT_MINUS_H / (2.0 * B * z3),
                0.0, 1j * (B / 2.0) * z3])
        return wf_sub(mult, wf_mul_poly(f.derivative(), [0.0, 1.0]))

    # family C
    if name == "I":
        return wf_scale(f, 0.0)
    if name == "J":
        return f.derivative()
    z0, z1 = rep.zeta0, rep.zeta1
    if name == "P0":
        # i (zeta_0 cosh - zeta_1 sinh); derivatives swap cosh <-> sinh
        pair = (z0, -z1)
    else:
        pair = (z1, -z0)

    def factor(x, k):
        a, c = pair if k % 2 == 0 else (pair[1], pair[0])
        return 1j * (a * np.cosh(x) + c * np.sinh(x))

    return wf_mul(f, factor, f.depth)


def _generator_combination(rep: RepParams, coeffs, f):
    out = None
    for c, name in zip(coeffs, BASIS_NAMES):
        if c == 0.0:
            continue
        term = wf_scale(generator_apply(rep, name, f), c)
        out = term if out is None else wf_add(out, term)
    return wf_scale(f, 0.0) if out is None else out


# ---------------------------------------------------------------------------
# Borel section and induced-function picture


def borel_decompose(g: GroupElement, p: ModelParams):
    """Split g = h . s(x) with h a null-translation subgroup element.

    The section s(x) is the pure space translation by x; h carries equal
    light-cone translation components theta0 = theta1 = theta_plus.
    """
    x = (g.theta1 - g.theta0) * math.exp(-g.alpha)
    theta_plus = g.theta0 + x * math.sinh(g.alpha)
    beta_h = g.beta + (p.B / 2.0) * theta_plus * x * math.exp(g.alpha)
    h = GroupElement(theta_plus, theta_plus, g.alpha, beta_h)
    return h, x


def lifted_function(rep: RepParams, f):
    """Equivariant function on the group built from a carrier-space f."""
    if rep.family == "A":
        def F(g: GroupElement) -> complex:
            h, x = borel_decompose(g, rep.params)
            return (subgroup_modulus(h, "A") ** -0.5 * character(h, rep)
                    * complex(f(x)))
        return F
    if rep.family == "C":
        def F(g: GroupElement) -> complex:
            h = GroupElement(g.theta0, g.theta1, 0.0, g.beta)
            return character(h, rep) * complex(f(g.alpha))
        return F
    def F(g: GroupElement) -> complex:
        return character(g, rep) * f
    return F


def _random_subgroup_element(rep: RepParams, rng) -> GroupElement:
    a, b, c = rng.uniform(-1.5, 1.5, size=3)
    if rep.family == "A":
        return GroupElement(a, a, b, c)
    if rep.family == "C":
        return GroupElement(a, b, 0.0, c)
    return GroupElement(a, b, c, rng.uniform(-1.5, 1.5))


def right_invariance_residual(rep: RepParams, f, samples: int = 100,
                              seed: int = 0) -> float:
    """Defining covariance of the lifted function, F(h g) = D^-1/2 chi(h) F(g).

    Family B's lifted value is a carrier vector, a WaveFunction when f is
    one, and is compared in the L2 norm.
    """
    rng = np.random.default_rng(seed)
    F = lifted_function(rep, f)
    worst = 0.0
    for _ in range(samples):
        h = _random_subgroup_element(rep, rng)
        g = GroupElement(*rng.uniform(-1.5, 1.5, size=4))
        lhs = F(compose(h, g, rep.params))
        rhs = subgroup_modulus(h, rep.family) ** -0.5 * character(h, rep) * F(g)
        if isinstance(rhs, WaveFunction):
            gap = l2_diff(lhs, rhs) / max(norm(rhs), 1e-30)
        else:
            gap = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        worst = max(worst, float(gap))
    return worst


# ---------------------------------------------------------------------------
# verification harness


def default_probes(count: int = 5):
    """The first count Hermite functions, analytic to depth 4."""
    return [hermite_wf(k) for k in range(count)]


def verify_homomorphism(rep: RepParams, g2: GroupElement, g1: GroupElement,
                        probes) -> float:
    """max over probes and batch members of ||T(g2) T(g1) f - T(g2 g1) f|| / ||f||."""
    g21 = compose(g2, g1, rep.params)
    worst = 0.0
    for f in probes:
        lhs = rep_apply(rep, g2, rep_apply(rep, g1, f))
        rhs = rep_apply(rep, g21, f)
        worst = max(worst, float(np.max(l2_diff(lhs, rhs) / norm(f))))
    return worst


def _gram(fs):
    """Pairs (i, j), i <= j, and the integrals <f_i, f_j> in that order.

    One integrate_vec call takes every entry from the same node block, so
    each function is evaluated once per quadrature level; the diagonal
    integrates |f_i|^2, summed with the complex entries.  Batch functions
    give one value per member.
    """
    pairs = [(i, j) for i in range(len(fs)) for j in range(i, len(fs))]

    def integrand(x):
        vals = [f.fn(x, 0) for f in fs]
        return ([np.abs(vals[i]) ** 2 if i == j
                 else np.conj(vals[i]) * vals[j] for i, j in pairs],)

    return pairs, integrate_stack(integrand, *fs)[0]


def verify_unitarity(rep: RepParams, g: GroupElement, probes) -> float:
    """Largest change of a probe norm or Gram entry under T(g), over the batch g."""
    pairs, gram = _gram([rep_apply(rep, g, f) for f in probes])
    worst = 0.0
    for (i, j), after in zip(pairs, gram):
        if i == j:
            n2 = norm(probes[i]) ** 2
            gap = np.abs(np.real(after) - n2) / n2
        else:
            gap = np.abs(after - inner(probes[i], probes[j]))
        worst = max(worst, float(np.max(gap)))
    return worst


def verify_commutators(rep: RepParams, probes) -> float:
    """Bracket table through the representation, plus anti-Hermiticity.

    The generator chains act once, on the stacked probes, and every
    residual comes from one integrate_vec call.
    """
    if not probes:
        return 0.0
    p = rep.params
    f = wf_stack(probes)
    basis = [AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))
             for k in range(4)]
    diffs = []
    for a in range(4):
        for b in range(a + 1, 4):
            na, nb = BASIS_NAMES[a], BASIS_NAMES[b]
            lhs = wf_sub(generator_apply(rep, na, generator_apply(rep, nb, f)),
                         generator_apply(rep, nb, generator_apply(rep, na, f)))
            rhs = _generator_combination(rep, bracket(basis[a], basis[b], p).v, f)
            diffs.append((lhs, rhs))
    # anti-Hermiticity on the first probe pair (f0, f1): <G f0, f1> and
    # <f0, G f1> are integrated apart and added afterwards
    gens = [generator_apply(rep, name, f) for name in BASIS_NAMES] \
        if len(probes) >= 2 else []

    def cross(x):
        fx = f.fn(x, 0)
        out = []
        for g in gens:
            gx = g.fn(x, 0)
            out += [np.conj(gx[0]) * fx[1], np.conj(fx[0]) * gx[1]]
        return out

    res, ips = _relative_l2(diffs, f, cross)
    anti = ips[0::2] + ips[1::2]
    return float(max(np.max(res), np.max(np.abs(anti), initial=0.0)))


def verify_casimir(rep: RepParams, probes) -> float:
    """2B I J f = sqrt(-h) (P^a P_a f + c f), c the family's Casimir label."""
    if not probes:
        return 0.0
    p = rep.params
    # Casimir labels: c2 on the orbit, 0 on the points, zeta^a zeta_a at z3 = 0
    c = {"A": rep.c2, "B": 0.0, "C": rep.zeta0 ** 2 - rep.zeta1 ** 2}[rep.family]
    f = wf_stack(probes)
    pp = wf_sub(generator_apply(rep, "P0", generator_apply(rep, "P0", f)),
                generator_apply(rep, "P1", generator_apply(rep, "P1", f)))
    lhs = wf_scale(generator_apply(
        rep, "I", generator_apply(rep, "J", f)), 2.0 * p.B)
    rhs = wf_scale(wf_add(pp, wf_scale(f, c)), SQRT_MINUS_H)
    return float(np.max(_relative_l2([(lhs, rhs)], f)[0]))


def generator_consistency(rep: RepParams, f):
    """Central-difference derivative of the flow vs the generator.

    Returns {name: [residual per step]} for the steps 1e-2, 5e-3 and
    2.5e-3; residuals shrink ~ t^2.
    """
    out = {}
    for k, name in enumerate(BASIS_NAMES):
        direction = tuple(1.0 if i == k else 0.0 for i in range(4))
        target = generator_apply(rep, name, f)
        res = []
        for t in (1e-2, 5e-3, 2.5e-3):
            gp = exp_map(AlgebraElement(tuple(t * c for c in direction)), rep.params)
            gm = exp_map(AlgebraElement(tuple(-t * c for c in direction)), rep.params)
            diff = wf_scale(wf_sub(rep_apply(rep, gp, f), rep_apply(rep, gm, f)),
                            1.0 / (2.0 * t))
            res.append(l2_diff(diff, target) / norm(f))
        out[name] = res
    return out


def faithfulness_residuals(rep: RepParams, elements, probes):
    """max_f ||T(g) f - f|| / ||f|| for each test element."""
    out = []
    for g in elements:
        out.append(max(l2_diff(rep_apply(rep, g, f), f) / norm(f)
                       for f in probes))
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
    hom = verify_homomorphism(rep, g2, g1, probes[:1])
    g = GroupElement(*rng.uniform(-2.0, 2.0, size=(trials, 4)).T)
    uni = verify_unitarity(rep, g, probes[:2])
    comm = verify_commutators(rep, probes)
    cas = verify_casimir(rep, probes)
    return {
        "family": rep.family,
        "homomorphism": hom,
        "unitarity": uni,
        "commutators": comm,
        "casimir": cas,
    }
