"""Evaluatable wavefunctions on the real line, with quadrature.

A WaveFunction wraps a numpy-vectorized complex evaluator together with
a chain of analytic derivative closures and a (center, width) quadrature
hint.  Representation operators act by closure composition -- affine
argument maps and multiplicative phases -- so derivative chains stay
analytic and inner products are limited only by quadrature accuracy.

A WaveFunction may also be a batch, one function per member of a batch of
group elements: its parameters and its hint then have the batch shape S
plus a trailing axis of length 1, and evaluating it at nodes of shape (N,)
or S + (N,) gives S + (N,).  inner, norm and l2_diff return one integral
per member, and integrate_vec tests each member's convergence on its own.
wf_stack makes such a batch from a list of functions, one member each, so
an operator chain built once acts on a whole probe set; integrate_stack
then takes every integral of a check from one integrate_vec call.

All integrals run on [center - 12 width, center + 12 width] with a
panel-doubling composite Gauss-Legendre rule (vectorized evaluations) that
starts at 8 panels and is converged to relative tolerance 1e-10.  The rule
on [0, 1] is built once per panel count and only scaled to each window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "WaveFunction",
    "hermite_wf",
    "gauss_poly_wf",
    "wf_scale",
    "wf_sub",
    "wf_affine",
    "wf_mul",
    "wf_mul_poly",
    "wf_stack",
    "inner",
    "norm",
    "l2_diff",
    "integrate_vec",
    "integrate_stack",
    "gauss_legendre",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@functools.lru_cache(maxsize=16)
def _unit_rule(panels: int):
    """Read-only (u, w) of the composite rule on [0, 1], built once per count."""
    half = 0.5 / panels
    mid = (np.arange(panels) + 0.5) / panels
    u = (mid[:, None] + half * _GL_NODES).ravel()
    w = np.tile(half * _GL_WEIGHTS, panels)
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
    member.  fn may also return a tuple of such arrays, and the result is
    then the tuple of their integrals: each array is summed in its own
    dtype, since a real integrand summed as complex rounds differently.
    A member has converged when two consecutive refinements agree
    to rtol/atol, and keeps the value of the level where it first did.
    The integrands here are analytic with Gaussian decay, on which Gauss
    rules converge exponentially, so the first 8 -> 16 check passes for
    every integral of an all-checks report.
    """
    parts = []

    def level(n):
        x, w = gauss_legendre(lo, hi, n)
        vals = fn(x)
        if not isinstance(vals, tuple):
            return np.sum(w * vals, axis=-1)
        sums = [np.sum(w * v, axis=-1) for v in vals]
        parts[:] = [(s.shape, s.dtype) for s in sums]
        return np.concatenate([s.ravel() for s in sums])

    n = 8
    prev = level(n)
    out = prev
    done = np.zeros(np.shape(prev), dtype=bool)
    while n < max_panels:
        n *= 2
        cur = level(n)
        out = np.where(done, out, cur)
        done |= np.abs(cur - prev) <= np.maximum(atol, rtol * np.abs(cur))
        if done.all():
            return _split(out, parts) if parts else out[()]
        prev = cur
    raise RuntimeError(f"quadrature did not converge on [{lo}, {hi}]")


def _split(flat, parts):
    """The flat integrals of a tuple integrand, back in their shapes and dtypes."""
    chunks = np.split(flat, np.cumsum([math.prod(s) for s, _ in parts])[:-1])
    return tuple((c if dtype.kind == "c" else c.real).reshape(shape)
                 for c, (shape, dtype) in zip(chunks, parts))


def integrate_stack(terms, *fs):
    """Integrals of groups of integrands, all from one integrate_vec call.

    terms maps nodes to a tuple of lists of integrand arrays, each with the
    nodes on its last axis.  Each list is stacked along a new leading axis
    (an empty list gives an empty stack) and summed in its own dtype.  The
    window is the union of the windows of fs, and the result is the tuple
    of the stacks' integrals.
    """
    def fn(x):
        return tuple(np.stack(v) if v else np.empty((0,) + x.shape)
                     for v in terms(x))

    return integrate_vec(fn, *_window(*fs))


def _relative_l2(diffs, f, cross=lambda x: []):
    """||lhs - rhs|| / ||f|| for each (lhs, rhs) of diffs, from one quadrature.

    f is a stack of probes (wf_stack) and the residuals have one row per
    pair and one column per probe; the probe norms come from the same
    integrate_vec call.  cross maps nodes to a list of complex integrands
    that ride along in that call; their integrals come back second.
    """
    def integrand(x):
        sq = [np.abs(lhs.fn(x) - rhs.fn(x)) ** 2 for lhs, rhs in diffs]
        return sq + [np.abs(f.fn(x)) ** 2], cross(x)

    sq, ips = integrate_stack(integrand, f, *(g for d in diffs for g in d))
    root = np.sqrt(np.maximum(sq, 0.0))
    return root[:-1] / root[-1], ips


def _horner(coeffs, x):
    """Polynomial with coefficients in increasing degree, evaluated at x.

    A coefficient may be a batch column, so one call evaluates every
    member's polynomial.
    """
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


@dataclass(frozen=True)
class WaveFunction:
    """Complex-valued function on R with derivative chain and a quadrature hint."""

    fn: callable
    derivs: tuple = ()
    center: float = 0.0
    width: float = 1.0

    #: ndarray * f and numpy-scalar * f defer to __rmul__ instead of
    #: building an object array
    __array_ufunc__ = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @property
    def depth(self) -> int:
        return len(self.derivs)

    def interval(self):
        return self.center - 12.0 * self.width, self.center + 12.0 * self.width

    def derivative(self) -> "WaveFunction":
        """The next function of the analytic derivative chain."""
        if not self.derivs:
            raise ValueError("wavefunction has no analytic derivative")
        return WaveFunction(self.derivs[0], self.derivs[1:],
                            self.center, self.width)

    def __rmul__(self, c: complex) -> "WaveFunction":
        """c * f, the scalar multiple, as wf_scale(f, c)."""
        return wf_scale(self, c)


def _window(*wfs):
    """Smallest interval holding every function's quadrature window."""
    los, his = zip(*(w.interval() for w in wfs))
    return functools.reduce(np.minimum, los), functools.reduce(np.maximum, his)


def wf_scale(wf: WaveFunction, c: complex) -> WaveFunction:
    return WaveFunction(lambda x: c * wf.fn(x),
                        tuple((lambda d: (lambda x: c * d(x)))(d) for d in wf.derivs),
                        wf.center, wf.width)


def wf_sub(f: WaveFunction, g: WaveFunction) -> WaveFunction:
    depth = min(f.depth, g.depth)
    lo, hi = _window(f, g)
    return WaveFunction(
        lambda x: f.fn(x) - g.fn(x),
        tuple((lambda df, dg: (lambda x: df(x) - dg(x)))(f.derivs[k], g.derivs[k])
              for k in range(depth)),
        0.5 * (lo + hi), (hi - lo) / 24.0)


def wf_affine(f: WaveFunction, a: float, b: float) -> WaveFunction:
    """x -> f(a x + b); derivatives pick up chain-rule powers of a."""
    derivs = tuple(
        (lambda d, k: (lambda x: a ** k * d(a * x + b)))(f.derivs[k - 1], k)
        for k in range(1, f.depth + 1))
    return WaveFunction(lambda x: f.fn(a * x + b), derivs,
                        (f.center - b) / a, f.width / abs(a))


def wf_mul(f: WaveFunction, factors) -> WaveFunction:
    """Multiply by an analytic function given as [m, m', m'', ...]."""
    depth = min(f.depth, len(factors) - 1)

    def leibniz(k):
        def d(x):
            chain = [f.fn] + list(f.derivs)
            return sum(math.comb(k, j) * factors[k - j](x) * chain[j](x)
                       for j in range(k + 1))
        return d

    return WaveFunction(lambda x: factors[0](x) * f.fn(x),
                        tuple(leibniz(k) for k in range(1, depth + 1)),
                        f.center, f.width)


def _polyder(c):
    """Derivative of coefficients c (increasing degree) along axis 0.

    Batch columns ride along on the trailing axes; a constant gives the
    zero constant, as numpy's polyder does.
    """
    if len(c) == 1:
        return c * 0
    return c[1:] * np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))


def wf_mul_poly(f: WaveFunction, coeffs) -> WaveFunction:
    """Multiply by a polynomial (coeffs in increasing degree)."""
    factors = [np.asarray(coeffs, dtype=complex)]
    for _ in range(f.depth):
        factors.append(_polyder(factors[-1]))
    return wf_mul(f, [(lambda c: (lambda x: _horner(c, x)))(c) for c in factors])


def _latest_values(fn):
    """fn, keeping its (read-only) values at the latest node array it was given.

    A call at the same array object returns the kept values without
    evaluating fn again.  The kept pair is replaced whole, so threads may
    share the function.
    """
    last = [None]  # (nodes, values)

    def cached(x):
        hit = last[0]
        if hit is None or hit[0] is not x:
            vals = fn(x)
            vals.setflags(write=False)
            hit = last[0] = (x, vals)
        return hit[1]
    return cached


def wf_stack(fs) -> WaveFunction:
    """One batch function whose member k is fs[k].

    Values and every derivative stack along a leading axis: nodes of shape
    (N,) serve every member, and nodes of shape (len(fs), N) give member k
    row k.  The depth is the smallest depth among the members, and the
    window is the union of theirs.

    Each level of the chain keeps its values at the latest node array
    (_latest_values).  An operator chain calls its base function many
    times at the same nodes, so the members are evaluated once per
    quadrature level rather than once per call.
    """
    if not fs:
        raise ValueError("wf_stack needs at least one wavefunction")
    depth = min(f.depth for f in fs)
    lo, hi = _window(*fs)

    def stacked(fns):
        def fn(x):
            rows = np.broadcast_to(x, (len(fns),) + x.shape[-1:])
            return np.stack([g(r) for g, r in zip(fns, rows)])
        return _latest_values(fn)

    return WaveFunction(stacked([f.fn for f in fs]),
                        tuple(stacked([f.derivs[k] for f in fs])
                              for k in range(depth)),
                        0.5 * (lo + hi), (hi - lo) / 24.0)


def gauss_poly_wf(coeffs, depth: int = 4, center: float = 0.0,
                  width: float = 1.0) -> WaveFunction:
    """p(y) exp(-y^2 / 2) with y = (x - center) / width, analytic to any depth."""
    scale = 1.0 / width

    # chain in y: q -> q' - y q preserves the Gaussian-polynomial class; real
    # coefficients stay real, which makes a Hermite probe three times cheaper
    coeffs = np.asarray(coeffs)
    polys = [coeffs.astype(np.result_type(coeffs, 1.0))]
    for _ in range(depth):
        q = polys[-1]
        polys.append(P.polysub(P.polyder(q), P.polymulx(q)))

    def closure(k):
        q = polys[k]
        fac = scale ** k

        def f(x):
            y = (x - center) * scale
            return fac * _horner(q, y) * np.exp(-0.5 * y * y)
        return f

    return WaveFunction(closure(0), tuple(closure(k) for k in range(1, depth + 1)),
                        center, width)


def hermite_wf(k: int, depth: int = 4, center: float = 0.0,
               width: float = 1.0) -> WaveFunction:
    """L2-normalized Hermite function h_k, the standard probe family."""
    coeffs = np.polynomial.hermite.herm2poly([0.0] * k + [1.0])
    nrm = 1.0 / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi) * width)
    return gauss_poly_wf(np.asarray(coeffs) * nrm, depth=depth,
                         center=center, width=width)


def inner(f: WaveFunction, g: WaveFunction):
    """<f, g> = integral conj(f) g."""
    lo, hi = _window(f, g)
    return integrate_vec(lambda x: np.conj(f.fn(x)) * g.fn(x), lo, hi)


def norm(f: WaveFunction):
    """L2 norm, integrated once per wavefunction and then remembered.

    A WaveFunction is immutable, so the stored value stays valid; a fixed
    probe is normalised once however many residuals divide by it.
    """
    cached = f.__dict__.get("_norm")
    if cached is None:
        lo, hi = f.interval()
        val = integrate_vec(lambda x: np.abs(f.fn(x)) ** 2, lo, hi)
        cached = np.sqrt(np.maximum(np.real(val), 0.0))
        object.__setattr__(f, "_norm", cached)
    return cached


def l2_diff(f: WaveFunction, g: WaveFunction):
    lo, hi = _window(f, g)
    val = integrate_vec(lambda x: np.abs(f.fn(x) - g.fn(x)) ** 2, lo, hi)
    return np.sqrt(np.maximum(np.real(val), 0.0))
