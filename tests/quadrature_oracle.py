"""The derivative evaluators and quadrature oracles of the package's closed forms.

The package differentiates and integrates no function: a probe is a
record of Hermite coefficients (wavefunctions.Probe), every residual is
exact algebra on them, and `rep apply` evaluates an image by value.
This module keeps the independent way to compute the same things.

The derivative evaluators come first.  A WaveFunction wraps one
numpy-vectorized complex evaluator fn(x, k), the k-th derivative at
nodes x for 0 <= k <= depth, with a (center, width) window hint.
Operators act by composing evaluators -- affine argument maps, sums and
Leibniz products with multipliers that are themselves evaluators of
(x, k) -- so every derivative stays analytic: exp_poly_tower gives the
derivatives of r(x) exp(q(x)) for polynomials r and q.  affine_apply,
rep_image, operator_apply and generator_apply act with an AffinePhase,
a group element, a QuantOperator and a generator on them; tower lifts a
probe record to its evaluator.  rep_image is the reference `rep apply`'s
values are compared with, bit for bit.

The composite 32-point Gauss-Legendre rule with its panel-doubling
ladder (integrate_vec), and inner, norm and l2_diff on wavefunctions,
come next.  wf_stack makes one batch function of a probe list, so an
operator chain built once acts on the whole set, and integrate_stack
takes the integrals of a check on the union of the functions' windows.
The representation and quantization suites check the same identities
exactly, on coefficient arrays and Gaussian moments; these helpers
compute them by operator chains on evaluators and composite
Gauss-Legendre sums.

The module also keeps the representation checks that only ever ran by
quadrature: the central-difference generator ladder (the oracle of the
decided generator consistency and its float gaps,
probe_oracle.generator_gaps), faithfulness, and the right invariance of the
lifted functions, with the characters, subgroup moduli and Borel section
they are built from.  The per-probe Gaussian-moment sums
(operator_image, gauss_inner, images_inner) are the oracle of irreps'
moment matrix kernel.  Last, the Fourier quadrature of the transported position
packet onto the H0 eigenfunctions is the oracle of dynamics oracle (a)'s
exact Gaussian integral, and the time quadratures of the velocity are the
oracle of model.drift_integrals, which both dynamics oracles use.
"""

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from poincare_ext import dynamics as dy
from poincare_ext import irreps as ir
from poincare_ext.conventions import SQRT_MINUS_H
from poincare_ext.group import (AlgebraElement, GroupElement, ModelParams,
                                compose, exp_map)
from poincare_ext.irreps import (
    BASIS_NAMES,
    RepParams,
    _poly_pullback,
    _polymul2,
)
from poincare_ext.model import kinematical_momentum
from poincare_ext.wavefunctions import _horner

#: the derivative-evaluator layer, which the package neither defines nor
#: imports: the evaluators and their combinators here, and the operators'
#: action on them (the methods apply and derivative included)
EVALUATORS = {"WaveFunction", "exp_poly_tower", "_derivative_coeffs",
              "_latest_values", "wf_scale", "_combine", "wf_add", "wf_sub",
              "wf_affine", "wf_mul", "wf_stack", "gauss_poly_wf", "hermite_wf",
              "tower", "_hyperbolic_exp", "affine_apply", "rep_image",
              "_apply_columns", "operator_apply", "generator_apply", "apply",
              "derivative", "h0_eigenfunction", "h0_operator",
              "total_energy_operator"}


# ---------------------------------------------------------------------------
# the derivative evaluators


@dataclass(frozen=True)
class WaveFunction:
    """Complex-valued function on R with its derivatives and a window hint.

    fn(x, k) is the k-th derivative at an ndarray of nodes x, for
    0 <= k <= depth; calling the WaveFunction gives k = 0.  poly is set
    on a Gaussian-polynomial probe r(y) exp(-y^2 / 2), y = (x - center) /
    width, alone: the coefficients of r in increasing degree, which the
    package's moment kernel reads as it reads a Probe's.

    A WaveFunction may also be a batch, one function per member of a batch
    of group elements: its parameters and its hint then have the batch
    shape S plus a trailing axis of length 1, and evaluating it at nodes of
    shape (N,) or S + (N,) gives S + (N,).
    """

    fn: callable
    depth: int = 0
    center: float = 0.0
    width: float = 1.0
    poly: np.ndarray | None = field(default=None, compare=False, repr=False)

    #: ndarray * f and numpy-scalar * f defer to __rmul__ instead of
    #: building an object array
    __array_ufunc__ = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float), 0)

    def interval(self):
        return self.center - 12.0 * self.width, self.center + 12.0 * self.width

    def derivative(self) -> "WaveFunction":
        """The first derivative, analytic to one order less."""
        if not self.depth:
            raise ValueError("wavefunction has no analytic derivative")
        fn = self.fn
        return WaveFunction(lambda x, k: fn(x, k + 1), self.depth - 1,
                            self.center, self.width)

    def __rmul__(self, c: complex) -> "WaveFunction":
        """c * f, the scalar multiple, as wf_scale(f, c)."""
        return wf_scale(self, c)


def _window(*fs):
    """Smallest interval holding every function's window."""
    los, his = zip(*(f.interval() for f in fs))
    return functools.reduce(np.minimum, los), functools.reduce(np.maximum, his)


def wf_scale(wf: WaveFunction, c: complex) -> WaveFunction:
    fn = wf.fn
    return WaveFunction(lambda x, k: c * fn(x, k), wf.depth, wf.center, wf.width)


def _combine(op, f: WaveFunction, g: WaveFunction) -> WaveFunction:
    """op(f, g) pointwise, to the smaller depth, on the union of the windows."""
    lo, hi = _window(f, g)
    return WaveFunction(lambda x, k: op(f.fn(x, k), g.fn(x, k)),
                        min(f.depth, g.depth), 0.5 * (lo + hi), (hi - lo) / 24.0)


def wf_add(f: WaveFunction, g: WaveFunction) -> WaveFunction:
    return _combine(operator.add, f, g)


def wf_sub(f: WaveFunction, g: WaveFunction) -> WaveFunction:
    return _combine(operator.sub, f, g)


def wf_affine(f: WaveFunction, a: float, b: float) -> WaveFunction:
    """x -> f(a x + b); the k-th derivative picks up the chain-rule factor a^k."""
    fn = f.fn

    def g(x, k):
        vals = fn(a * x + b, k)
        return vals if k == 0 else a ** k * vals

    return WaveFunction(g, f.depth, (f.center - b) / a, f.width / abs(a))


def wf_mul(f: WaveFunction, m, depth: int) -> WaveFunction:
    """Multiply by the function whose k-th derivative is m(x, k), k <= depth.

    The product's derivatives come from the Leibniz rule.
    """
    fn = f.fn

    def g(x, k):
        if k == 0:
            return m(x, 0) * fn(x, 0)
        return sum(math.comb(k, j) * m(x, k - j) * fn(x, j)
                   for j in range(k + 1))

    return WaveFunction(g, min(f.depth, depth), f.center, f.width)


def exp_poly_tower(r, q=()):
    """Evaluator (x, k) -> k-th derivative of r(x) exp(q(x)), r, q polynomials.

    Coefficients run in increasing degree and may be batch columns.  The
    derivatives stay in the class r_k(x) exp(q(x)) (_derivative_coeffs),
    so every order is exact; an empty q leaves the polynomial r alone.
    """
    coeffs = _derivative_coeffs(r, q)
    if not len(q):
        return lambda x, k: _horner(coeffs(k), x)
    return lambda x, k: _horner(coeffs(k), x) * np.exp(_horner(q, x))


def _derivative_coeffs(r, q):
    """k -> r_k of (r exp(q))^(k) = r_k exp(q), r_{k+1} = r_k' + q' r_k, each
    r_k built the first time it is asked for."""
    dq = [n * q[n] for n in range(1, len(q))]
    rs = {0: list(r)}

    def coeffs(k):
        if k not in rs:
            prev = coeffs(k - 1)
            # a constant's derivative is the zero constant, not empty
            nxt = [0.0] * max(len(prev) + len(dq) - 1, 1)
            for n in range(1, len(prev)):
                nxt[n - 1] = n * prev[n]
            for i, a in enumerate(dq):
                for j, b in enumerate(prev):
                    nxt[i + j] = nxt[i + j] + a * b
            rs[k] = nxt
        return rs[k]
    return coeffs


def gauss_poly_wf(coeffs, depth: int = 4, center: float = 0.0,
                  width: float = 1.0) -> WaveFunction:
    """p(y) exp(-y^2 / 2) with y = (x - center) / width, analytic to any depth."""
    scale = 1.0 / width
    # real coefficients stay real, which makes a Hermite probe three times
    # cheaper
    coeffs = np.asarray(coeffs)
    coeffs = coeffs.astype(np.result_type(coeffs, 1.0))
    m = exp_poly_tower(coeffs, (0.0, 0.0, -0.5))

    def fn(x, k):
        y = (x - center) * scale
        return m(y, 0) if k == 0 else scale ** k * m(y, k)

    return WaveFunction(fn, depth, center, width, coeffs)


def hermite_wf(k: int, depth: int = 4, center: float = 0.0,
               width: float = 1.0) -> WaveFunction:
    """L2-normalized Hermite function h_k, its coefficients from numpy's
    herm2poly: a reference independent of the package's integer
    recurrence (wavefunctions.hermite_coefficients)."""
    coeffs = np.polynomial.hermite.herm2poly([0.0] * k + [1.0])
    nrm = 1.0 / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi) * width)
    return gauss_poly_wf(np.asarray(coeffs) * nrm, depth=depth,
                         center=center, width=width)


def tower(probe, depth: int = 4) -> WaveFunction:
    """The evaluator of a probe record (wavefunctions.Probe), analytic to depth."""
    return gauss_poly_wf(probe.poly, depth)


def _hyperbolic_exp(amp, a: complex, c: complex):
    """Evaluator (x, k) of the derivatives of amp exp(phi), phi = a cosh x + c sinh x.

    Derivatives of exp(phi) are polynomial in (phi', phi'' = phi, ...);
    explicit formulas are used through third order, so the product that
    takes this factor has depth at most 3.
    """
    def m(x, k):
        phi = a * np.cosh(x) + c * np.sinh(x)
        e = amp * np.exp(phi)
        if k == 0:
            return e
        dphi = a * np.sinh(x) + c * np.cosh(x)
        if k == 1:
            return dphi * e
        if k == 2:
            return (phi + dphi ** 2) * e
        return (dphi * (1.0 + 3.0 * phi) + dphi ** 3) * e
    return m


def affine_apply(op, f: WaveFunction) -> WaveFunction:
    """The image of f under the AffinePhase op, analytic to depth at most 3."""
    m = (_hyperbolic_exp(op.amp, *op.c) if op.basis == "hyp"
         else exp_poly_tower([op.amp], op.c))
    return wf_mul(wf_affine(f, op.a, op.b), m, 3)


def rep_image(rep: RepParams, g: GroupElement, f):
    """T(g) f as an evaluator; a batch g gives a batch image.

    Family B is one-dimensional: its phase scales a wavefunction or a
    scalar alike.  irreps._affine_phase is looked up at each call, so a
    test that plants a defect there reaches this image too.
    """
    op = ir._affine_phase(rep, g)
    return np.exp(op.c[0]) * f if rep.family == "B" else affine_apply(op, f)


def _apply_columns(f: WaveFunction, columns) -> WaveFunction:
    """sum_j m_j D^j f over the (j, m_j) of columns, m_j an evaluator (x, n)
    of a multiplier's derivatives; f is differentiated only as far as needed."""
    out = None
    for j, m in columns:
        dj = f
        for _ in range(j):
            dj = dj.derivative()
        term = wf_mul(dj, m, dj.depth)
        out = term if out is None else wf_add(out, term)
    return wf_scale(f, 0.0) if out is None else out


def operator_apply(op, f: WaveFunction) -> WaveFunction:
    """The image of f under the QuantOperator op; f is differentiated only
    as far as op's coefficients need."""
    columns = []
    for j in range(op.c.shape[1]):
        towers = [exp_poly_tower(np.asarray(col, dtype=complex), (0.0, k) if k else ())
                  for k, col in zip(op.exps, op.c[:, :op.c.shape[1] - j, j])
                  if np.any(col)]
        if towers:
            columns.append((j, lambda x, n, ts=towers: sum(t(x, n) for t in ts)))
    return _apply_columns(f, columns)


def generator_apply(rep: RepParams, name: str, f):
    """dT(name) f, from the table irreps._generators (looked up at each
    call, as rep_image's operator).  Family B's generators are scalars,
    which scale a wavefunction or a scalar alike."""
    if name not in BASIS_NAMES:
        raise ValueError(f"unknown basis element {name!r}")
    op = ir._generators(rep)[name]
    return op.c[0, 0, 0] * f if rep.family == "B" else operator_apply(op, f)


# ---------------------------------------------------------------------------
# the composite Gauss-Legendre quadrature

#: the quadrature entry points, which the package neither defines nor runs:
#: the composite rule, its ladder and sums and the wavefunction norms here,
#: and numpy's Gauss-Legendre nodes
QUADRATURE = {"integrate_vec", "integrate_fourier", "gauss_legendre", "_ladder",
              "inner", "norm", "l2_diff", "leggauss"}

#: nodes of the Gauss-Legendre rule on each panel
_GL_POINTS = 32


@functools.lru_cache(maxsize=16)
def _unit_rule(panels: int):
    """Read-only (u, w) of the composite rule on [0, 1], built once per count."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)
    half = 0.5 / panels
    mid = (np.arange(panels) + 0.5) / panels
    u = (mid[:, None] + half * nodes).ravel()
    w = np.tile(half * weights, panels)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def gauss_legendre(lo, hi, panels: int):
    """(x, w) of the 32-point Gauss-Legendre rule on equal panels of [lo, hi].

    Exact for polynomials of degree <= 63 on each panel.  lo and hi may be
    batch columns (trailing axis of length 1), one window per member.
    """
    u, w = _unit_rule(panels)
    span = hi - lo
    return lo + span * u, span * w


def integrate_vec(fn, lo, hi, rtol: float = 1e-10,
                  atol: float = 1e-13, max_panels: int = 4096):
    """Composite 32-point Gauss-Legendre with panel doubling from 8 panels.

    fn maps an ndarray of nodes to values whose last axis runs over the
    nodes; leading axes are a batch, and the result has one integral per
    member.  Convergence and non-finite integrals are handled as in
    _ladder.
    """
    def level(n):
        x, w = gauss_legendre(lo, hi, n)
        return np.sum(w * fn(x), axis=-1)

    return _ladder(level, lo, hi, rtol, atol, max_panels)[()]


def _ladder(level, lo, hi, rtol, atol, max_panels):
    """The panel-doubling driver: level(n) is the flat integrals at n panels.

    A member has converged when two consecutive refinements agree
    to rtol/atol, and keeps the value of the level where it first did.
    The integrands here are analytic, mostly with Gaussian decay, on
    which Gauss rules converge exponentially.

    A level with a non-finite integral raises RuntimeError at once, since
    refining cannot repair it; the message names how many integrals are
    bad and the extent of the windows.
    """
    def checked(n):
        out = level(n)
        bad = np.count_nonzero(~np.isfinite(out))
        if bad:
            raise RuntimeError(f"quadrature: {bad} of {np.size(out)} integrals "
                               f"are not finite on {_extent(lo, hi)}")
        return out

    n = 8
    prev = checked(n)
    out = prev
    done = np.zeros(np.shape(prev), dtype=bool)
    while n < max_panels:
        n *= 2
        cur = checked(n)
        out = np.where(done, out, cur)
        done |= np.abs(cur - prev) <= np.maximum(atol, rtol * np.abs(cur))
        if done.all():
            return out
        prev = cur
    raise RuntimeError(f"quadrature: {np.count_nonzero(~done)} of {done.size} "
                       f"integrals did not converge on {_extent(lo, hi)}")


def _extent(lo, hi) -> str:
    """[min lo, max hi] of one window or of a batch of windows."""
    return f"[{np.min(lo):.6g}, {np.max(hi):.6g}]"


def inner(f: WaveFunction, g: WaveFunction):
    """<f, g> = integral conj(f) g."""
    lo, hi = _window(f, g)
    return integrate_vec(lambda x: np.conj(f.fn(x, 0)) * g.fn(x, 0), lo, hi)


def norm(f: WaveFunction):
    """L2 norm, integrated once per wavefunction and then remembered.

    A WaveFunction is immutable, so the stored value stays valid; a fixed
    probe is normalised once however many residuals divide by it.
    """
    cached = f.__dict__.get("_norm")
    if cached is None:
        lo, hi = f.interval()
        val = integrate_vec(lambda x: np.abs(f.fn(x, 0)) ** 2, lo, hi)
        cached = np.sqrt(np.maximum(np.real(val), 0.0))
        object.__setattr__(f, "_norm", cached)
    return cached


def l2_diff(f: WaveFunction, g: WaveFunction):
    lo, hi = _window(f, g)
    val = integrate_vec(lambda x: np.abs(f.fn(x, 0) - g.fn(x, 0)) ** 2, lo, hi)
    return np.sqrt(np.maximum(np.real(val), 0.0))


# ---------------------------------------------------------------------------
# stacked probes


def wf_stack(fs) -> WaveFunction:
    """One batch function whose member k is fs[k].

    Values and every derivative stack along a leading axis: nodes of shape
    (N,) serve every member, and nodes of shape (len(fs), N) give member k
    row k.  The depth is the smallest depth among the members, and the
    window is the union of theirs.
    """
    if not fs:
        raise ValueError("wf_stack needs at least one wavefunction")
    depth = min(f.depth for f in fs)
    lo, hi = _window(*fs)

    def fn(x, k):
        rows = np.broadcast_to(x, (len(fs),) + x.shape[-1:])
        return np.stack([f.fn(r, k) for f, r in zip(fs, rows)])

    return WaveFunction(fn, depth, 0.5 * (lo + hi), (hi - lo) / 24.0)


def integrate_stack(groups, *fs):
    """Integrals of groups of integrands on the union of the windows of fs.

    Each group maps nodes to a list of integrand arrays, each with the
    nodes on its last axis.  A group's list is stacked along a new leading
    axis (an empty list gives an empty stack) and integrated by its own
    integrate_vec call, so it is summed in its own dtype: a real integrand
    summed as complex rounds differently.  The result is the tuple of the
    groups' integrals.
    """
    lo, hi = _window(*fs)

    def stacked(group):
        def fn(x):
            vals = group(x)
            return np.stack(vals) if vals else np.empty((0,) + x.shape)
        return fn

    return tuple(integrate_vec(stacked(group), lo, hi) for group in groups)


def relative_l2(diffs, f, cross=lambda x: []):
    """||lhs - rhs|| / ||f|| for each (lhs, rhs) of diffs, by quadrature.

    f is a stack of probes (wf_stack) and the residuals have one row per
    pair and one column per probe.  cross maps nodes to a list of complex
    integrands whose integrals come back second.
    """
    def squares(x):
        return ([np.abs(lhs.fn(x, 0) - rhs.fn(x, 0)) ** 2 for lhs, rhs in diffs]
                + [np.abs(f.fn(x, 0)) ** 2])

    sq, ips = integrate_stack([squares, cross], f, *(g for d in diffs for g in d))
    root = np.sqrt(np.maximum(sq, 0.0))
    return root[:-1] / root[-1], ips


# ---------------------------------------------------------------------------
# operators on Hermite probes, one probe at a time, in Gaussian moments

#: q of a probe's Gaussian g = e^q, q = -y^2/2 with x = center + width y, so
#: (d/dy)^j (r g) = r_j g (_derivative_coeffs) and D acts as d/dy / width
GAUSS = (0.0, 0.0, -0.5)


def operator_image(op, r, center, width) -> dict:
    """{k: s_k} with op (r g) = sum_k e^{kx} s_k g for g = e^{-y^2/2} (GAUSS),
    op a QuantOperator; each s_k has its degree on axis 0, then op's batch
    axes."""
    n, tower, out = op.c.shape[1], _derivative_coeffs(r, GAUSS), {}
    for k, c in zip(op.exps, op.c):
        s = out[k] = np.zeros((n + len(r) - 1,) + c.shape[2:], dtype=complex)
        for j in range(n):
            if np.any(c[:n - j, j]):
                mult = np.asarray(_poly_pullback(c[:n - j, j], width, center))
                term = _polymul2(mult[:, None] / width ** j,
                                 np.asarray(tower(j))[:, None])
                s[:len(term)] += term[:, 0]
    return out


def gauss_inner(s, t, width, k=0, center=0.0):
    """<s e^{-y^2/2}, e^{kx} t e^{-y^2/2}>, s and t with their degree on axis 0.

    The integral of y^n e^{-y^2} is Gamma((n + 1) / 2) for even n and 0
    for odd n, and dx = width dy.  With x = center + width y, e^{kx}
    e^{-y^2} is e^{k center + m^2} e^{-(y - m)^2}, m = k width / 2, so a
    nonzero k shifts s and t by m and gains that factor.
    """
    scale = width
    if k:
        m = k * width / 2.0
        s, t = _poly_pullback(s, 1.0, m), _poly_pullback(t, 1.0, m)
        scale = width * math.exp(k * center + m * m)
    return scale * sum(si * t[j] * math.gamma((i + j + 1) / 2)
                       for i, si in enumerate(np.conj(s))
                       for j in range(i % 2, len(t), 2))


def images_inner(a, b, center, width):
    """<sum_k e^{kx} a_k g, sum_l e^{lx} b_l g>, g = e^{-y^2/2}; e^{kx} is real."""
    return sum(gauss_inner(s, t, width, k + l, center)
               for k, s in a.items() for l, t in b.items())


# ---------------------------------------------------------------------------
# characters, subgroup moduli and the Borel section


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


# ---------------------------------------------------------------------------
# representation checks by quadrature


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
            diff = wf_scale(wf_sub(rep_image(rep, gp, f), rep_image(rep, gm, f)),
                            1.0 / (2.0 * t))
            res.append(l2_diff(diff, target) / norm(f))
        out[name] = res
    return out


def second_order(errs) -> bool:
    """The ladder's verdict: halving the step shrinks the residual by ~4
    (a direction already at round-off, 1e-12, is skipped)."""
    return all(errs[k] / errs[k + 1] > 3.0 for k in range(len(errs) - 1)
               if errs[k] > 1e-12)


def faithfulness_residuals(rep: RepParams, elements, probes):
    """max_f ||T(g) f - f|| / ||f|| for each test element."""
    out = []
    for g in elements:
        out.append(max(l2_diff(rep_image(rep, g, f), f) / norm(f)
                       for f in probes))
    return out


def random_subgroup_element(rep: RepParams, rng) -> GroupElement:
    """An element of the family's inducing subgroup, coordinates in [-1.5, 1.5)."""
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
        h = random_subgroup_element(rep, rng)
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
# dynamics oracle (a) by Fourier quadrature


def integrate_fourier(k, fn, lo, hi, rtol: float = 1e-10,
                      atol: float = 1e-13, max_panels: int = 4096):
    """integral of exp(i k x) fn(x) over [lo, hi], one value per entry of k.

    The ladder is integrate_vec's, on one window.  Panel p's nodes are
    panel 0's shifted by d_p, so on each level the sum over the nodes
    x[p, j] is sum_p exp(i k d_p) sum_j exp(i k x[0, j]) (w fn)[p, j]: two
    small exponential tables (k.shape + (32,) and k.shape + (panels,)) and
    one contraction, without the k-by-node kernel.  The shift structure is
    checked to 8 eps max|x| (gauss_legendre's nodes meet it within
    2.4 eps), so the error stays within a few eps (1 + |k| max|x|) of the
    plain weighted sum; other nodes raise ValueError.  The rule is looked
    up on this module at each level, so a test that replaces
    gauss_legendre here reaches this sum too.
    """
    k = np.asarray(k, dtype=float)
    size = _GL_POINTS

    def level(n):
        x, w = gauss_legendre(lo, hi, n)
        if x.ndim != 1 or x.size == 0 or x.size % size:
            raise ValueError(f"integrate_fourier: nodes of shape {x.shape} "
                             f"are not one composite {size}-point rule")
        rows = x.reshape(-1, size)
        base, shifts = rows[0], rows[:, 0] - rows[0, 0]
        off = np.abs(rows - shifts[:, None] - base)
        if np.any(off > 8.0 * np.finfo(float).eps * np.max(np.abs(x))):
            raise ValueError(f"integrate_fourier: panels are not shifts of the "
                             f"first one (off by up to {np.max(off):.3g})")
        # einsum sums in its own loops; a matmul here would start BLAS
        # worker threads for a product this small
        inner = np.einsum("...j,pj->...p", _cis(np.multiply.outer(k, base)),
                          (w * fn(x)).reshape(rows.shape))
        return np.sum(_cis(np.multiply.outer(k, shifts)) * inner, axis=-1)

    return _ladder(level, lo, hi, rtol, atol, max_panels)[()]


def _cis(t):
    """exp(i t) for real t, from cos and sin: faster than the complex exp."""
    out = np.empty(t.shape, dtype=complex)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def position_packet(cs, c0, tau):
    """(psi, X, x_width): the position packet of c0 transported to tau.

    The generator is affine in position and momentum, so the packet moves
    rigidly along x by the drift integral X(tau) and acquires a phase
    linear in x; x_width = hbar / sigma is its width scale.
    """
    h, B = cs.params.hbar, cs.params.B
    E0, sigma = c0.center, c0.width
    dtau = tau - cs.tau0
    X, I2 = dy._drift(cs, tau)

    amp = (2.0 * math.pi * sigma * sigma) ** -0.25 \
        * (2.0 * math.pi * h) ** -0.5 * 2.0 * sigma * math.sqrt(math.pi)

    def psi0(x):
        return amp * np.exp(-(sigma * x / h) ** 2
                            - 1j * (E0 * x + 0.5 * B * x * x) / h)

    def psi(x):
        return psi0(x - X) * np.exp(-1j * B / h * (x * dtau - I2))

    return psi, X, h / sigma


#: E rows projected at once.  One integrate_fourier call serves a block,
#: so memory stays flat however long the grid is.  At n panels a block
#: holds the base exponentials (512 x 32), the shift exponentials
#: (512 x n) and their contraction with the weighted packet, inner
#: (512 x n), with no E-by-node kernel: at 16 panels 0.26 + 0.13 + 0.13 MB
#: of complex128
E_BLOCK = 512


def project_oracle_a(cs, c0, tau, e_grid):
    """<E|psi(tau)> on the E-grid by quadrature over the position packet.

    Each block of E rows is one integrate_fourier call on the shared
    8 -> 16 panel ladder over X +- 14 hbar/sigma, refined to at most 256
    panels and converged per E to 1e-10 absolute, else dy.OracleError.
    The Fourier sum of the weighted packet is contracted panel by panel:
    one exponential per (E, panel-0 node) and one per (E, panel), and the
    E-by-node kernel exp(i E x / hbar) is never formed.
    """
    h, B = cs.params.hbar, cs.params.B
    psi, X, w = position_packet(cs, c0, tau)
    dtau = tau - cs.tau0
    lo, hi = X - 14.0 * w, X + 14.0 * w

    def packet(x):
        # psi with the E-independent half of the conjugate eigenfunction
        # phase and its normalisation
        return np.exp(0.5j * B * x * x / h) / math.sqrt(2.0 * math.pi * h) \
            * psi(x)

    out = np.empty(len(e_grid), dtype=complex)
    for i in range(0, len(e_grid), E_BLOCK):
        e = e_grid[i:i + E_BLOCK]
        try:
            out[i:i + E_BLOCK] = integrate_fourier(
                e / h, packet, lo, hi, rtol=0.0, atol=1e-10, max_panels=256)
        except RuntimeError as exc:
            raise dy.OracleError("position-space projection did not "
                                 "converge") from exc
    return np.exp(-1j * e_grid * dtau / h) * out


# ---------------------------------------------------------------------------
# the drift integrals by time quadrature


def drift_by_quadrature(cs, tau):
    """(D, W) = (int v du, int u v du) over u = s - tau0 in [0, tau - tau0].

    The velocity v = ptilde / E is summed on the ladder to 1e-13, which is
    how the dynamics oracles took these integrals before model gave them
    in closed form.  Where v turns sign too sharply for 4096 panels the
    ladder raises RuntimeError: at ptilde0 = 0.7, T = 1.5 and m = 0.5 it
    does at B = -1e4, not at +2e4.
    """
    def v(s):
        pt = kinematical_momentum(cs, s)
        return pt / np.hypot(cs.m, pt)

    def integral(fn):
        return integrate_vec(fn, cs.tau0, tau, rtol=1e-13, atol=1e-13)

    return integral(v), integral(lambda s: (s - cs.tau0) * v(s))


def l2_norm_sq(c0):
    """int |c0(E)|^2 dE over the spectral amplitude's window of 12 widths."""
    val = integrate_vec(lambda E: np.abs(c0.fn(E)) ** 2,
                        c0.center - 12 * c0.width, c0.center + 12 * c0.width)
    return float(np.real(val))
