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
from numpy.polynomial import polynomial as P

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
    hermite_wf,
    inner,
    l2_diff,
    norm,
    wf_affine,
    wf_mul,
    wf_mul_poly,
    wf_scale,
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


def _poly_exp_factors(amp: complex, q_coeffs, depth: int):
    """Closure chain for m(x) = amp * exp(q(x)) with polynomial q.

    The chain m, m', m'', ... stays in the class r(x) exp(q(x)) with
    polynomial r under r -> r' + q' r, so every derivative is exact.
    """
    q = np.asarray(q_coeffs, dtype=complex)
    dq = P.polyder(q)
    rs = [np.array([amp])]
    for _ in range(depth):
        rs.append(P.polyadd(P.polyder(rs[-1]), P.polymul(dq, rs[-1])))

    def closure(r):
        return lambda x: P.polyval(x, r) * np.exp(P.polyval(x, q))

    return [closure(r) for r in rs]


def _hyperbolic_exp_factors(a: complex, c: complex, depth: int):
    """Closure chain for m(x) = exp(phi) with phi = a cosh x + c sinh x.

    Derivatives of exp(phi) are polynomial in (phi', phi'' = phi, ...);
    explicit formulas are used through third order.
    """
    def phi(x):
        return a * np.cosh(x) + c * np.sinh(x)

    def dphi(x):
        return a * np.sinh(x) + c * np.cosh(x)

    facs = [lambda x: np.exp(phi(x)),
            lambda x: dphi(x) * np.exp(phi(x)),
            lambda x: (phi(x) + dphi(x) ** 2) * np.exp(phi(x)),
            lambda x: (dphi(x) * (1.0 + 3.0 * phi(x)) + dphi(x) ** 3) * np.exp(phi(x))]
    if depth > 3:
        raise ValueError("hyperbolic phase factors available through depth 3")
    return facs[:depth + 1]


def _case_a_phase(rep: RepParams, g: GroupElement):
    """(amplitude, quadratic phase-exponent coefficients) of the family-A action."""
    B, z3 = rep.params.B, rep.z3
    t0, t1, al, be = g.theta0, g.theta1, g.alpha, g.beta
    e2 = math.exp(-2.0 * al)
    d = t0 - t1
    c0 = (be - (B / 4.0) * (t0 * t0 - t1 * t1) - (B / 4.0) * e2 * d * d) * z3 \
        - al * rep.c2 * SQRT_MINUS_H / (2.0 * B * z3)
    c1 = ((B / 2.0) * (t0 + t1) + (B / 2.0) * e2 * d) * z3
    c2x = (B / 4.0) * (1.0 - e2) * z3
    amp = math.exp(-al / 2.0)
    return amp, (1j * c0, 1j * c1, 1j * c2x)


def rep_apply(rep: RepParams, g: GroupElement, f):
    """Act with the group element g; exact closure composition throughout."""
    if rep.family == "B":
        return cmath.exp(1j * g.alpha * rep.zeta2) * f

    if rep.family == "A":
        try:
            a = math.exp(-g.alpha)
            amp, q = _case_a_phase(rep, g)
        except OverflowError:
            a = math.inf
        if not 0.0 < a < math.inf:
            raise ValueError(f"family A operator at alpha = {g.alpha!r} leaves "
                             "the float range: exp(-alpha) or exp(-2 alpha) "
                             "under- or overflows")
        b = (g.theta1 - g.theta0) * a
        shifted = wf_affine(f, a, b)
        return wf_mul(shifted, _poly_exp_factors(amp, q, min(3, f.depth)))

    # family C: phase exp(i zeta_a Lambda(alpha)^a_b theta^b) and a shift
    t0, t1 = g.theta0, g.theta1
    a = 1j * (rep.zeta0 * t0 + rep.zeta1 * t1)
    c = 1j * (-rep.zeta0 * t1 - rep.zeta1 * t0)
    shifted = wf_affine(f, 1.0, g.alpha)
    return wf_mul(shifted, _hyperbolic_exp_factors(a, c, min(3, f.depth)))


def _wf_add(f: WaveFunction, g: WaveFunction) -> WaveFunction:
    return wf_sub(f, wf_scale(g, -1.0))


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

    def factor(k):
        a, c = pair if k % 2 == 0 else (pair[1], pair[0])
        return lambda x: 1j * (a * np.cosh(x) + c * np.sinh(x))

    return wf_mul(f, [factor(k) for k in range(min(3, f.depth) + 1)])


def _generator_combination(rep: RepParams, coeffs, f):
    out = None
    for c, name in zip(coeffs, BASIS_NAMES):
        if c == 0.0:
            continue
        term = wf_scale(generator_apply(rep, name, f), c)
        out = term if out is None else _wf_add(out, term)
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
    """Defining covariance of the lifted function, F(h g) = D^-1/2 chi(h) F(g)."""
    rng = np.random.default_rng(seed)
    F = lifted_function(rep, f)
    worst = 0.0
    for _ in range(samples):
        h = _random_subgroup_element(rep, rng)
        g = GroupElement(*rng.uniform(-1.5, 1.5, size=4))
        lhs = F(compose(h, g, rep.params))
        rhs = subgroup_modulus(h, rep.family) ** -0.5 * character(h, rep) * F(g)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return worst


# ---------------------------------------------------------------------------
# verification harness


def default_probes(count: int = 5, depth: int = 4):
    return [hermite_wf(k, depth=depth) for k in range(count)]


def verify_homomorphism(rep: RepParams, g2: GroupElement, g1: GroupElement,
                        probes) -> float:
    p = rep.params
    g21 = compose(g2, g1, p)
    worst = 0.0
    for f in probes:
        lhs = rep_apply(rep, g2, rep_apply(rep, g1, f))
        rhs = rep_apply(rep, g21, f)
        worst = max(worst, l2_diff(lhs, rhs) / norm(f))
    return worst


def verify_unitarity(rep: RepParams, g: GroupElement, probes) -> float:
    worst = 0.0
    images = [rep_apply(rep, g, f) for f in probes]
    for f, tf in zip(probes, images):
        n2 = norm(f) ** 2
        worst = max(worst, abs(norm(tf) ** 2 - n2) / n2)
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            before = inner(probes[i], probes[j])
            after = inner(images[i], images[j])
            worst = max(worst, abs(after - before))
    return worst


def verify_commutators(rep: RepParams, probes) -> float:
    """Bracket table through the representation, plus anti-Hermiticity."""
    p = rep.params
    basis = [AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))
             for k in range(4)]
    worst = 0.0
    for f in probes:
        nf = norm(f)
        for a in range(4):
            for b in range(a + 1, 4):
                na, nb = BASIS_NAMES[a], BASIS_NAMES[b]
                lhs = wf_sub(generator_apply(rep, na, generator_apply(rep, nb, f)),
                             generator_apply(rep, nb, generator_apply(rep, na, f)))
                rhs = _generator_combination(rep, bracket(basis[a], basis[b], p).v, f)
                worst = max(worst, l2_diff(lhs, rhs) / nf)
    # anti-Hermiticity on the first probe pair
    if len(probes) >= 2:
        f, g = probes[0], probes[1]
        for name in BASIS_NAMES:
            val = inner(generator_apply(rep, name, f), g) \
                + inner(f, generator_apply(rep, name, g))
            worst = max(worst, abs(val))
    return worst


def verify_casimir(rep: RepParams, probes) -> float:
    """2B I J f = sqrt(-h) (P^a P_a f + c f), c the family's Casimir label."""
    p = rep.params
    # Casimir labels: c2 on the orbit, 0 on the points, zeta^a zeta_a at z3 = 0
    c = {"A": rep.c2, "B": 0.0, "C": rep.zeta0 ** 2 - rep.zeta1 ** 2}[rep.family]
    worst = 0.0
    for f in probes:
        pp = wf_sub(generator_apply(rep, "P0", generator_apply(rep, "P0", f)),
                    generator_apply(rep, "P1", generator_apply(rep, "P1", f)))
        lhs = wf_scale(generator_apply(
            rep, "I", generator_apply(rep, "J", f)), 2.0 * p.B)
        rhs = wf_scale(_wf_add(pp, wf_scale(f, c)), SQRT_MINUS_H)
        worst = max(worst, l2_diff(lhs, rhs) / norm(f))
    return worst


def generator_consistency(rep: RepParams, f, steps=(1e-2, 5e-3, 2.5e-3)):
    """Central-difference derivative of the flow vs the generator.

    Returns {name: [residual per step]}; residuals shrink ~ t^2.
    """
    out = {}
    for k, name in enumerate(BASIS_NAMES):
        direction = tuple(1.0 if i == k else 0.0 for i in range(4))
        target = generator_apply(rep, name, f)
        res = []
        for t in steps:
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


def _random_group_element(rng, box: float = 2.0) -> GroupElement:
    return GroupElement(*rng.uniform(-box, box, size=4))


def rep_suite(rep: RepParams, trials: int = 200, seed: int = 42,
              probe_count: int = 3) -> dict:
    """Full residual sweep for one family: the numbers the CLI reports."""
    rng = np.random.default_rng(seed)
    probes = default_probes(probe_count)
    hom = max(verify_homomorphism(rep, _random_group_element(rng),
                                  _random_group_element(rng), probes[:1])
              for _ in range(trials))
    uni = max(verify_unitarity(rep, _random_group_element(rng), probes[:2])
              for _ in range(trials))
    five = default_probes(5)
    comm = verify_commutators(rep, five)
    cas = verify_casimir(rep, five)
    return {
        "family": rep.family,
        "homomorphism": hom,
        "unitarity": uni,
        "commutators": comm,
        "casimir": cas,
    }
