"""Evaluatable wavefunctions on the real line, with quadrature.

A WaveFunction wraps one numpy-vectorized complex evaluator fn(x, k),
the k-th derivative at nodes x for 0 <= k <= depth, together with a
(center, width) quadrature hint.  Representation operators act by
composing evaluators -- affine argument maps, sums, and Leibniz products
with multipliers that are themselves evaluators of (x, k) -- so every
derivative stays analytic and inner products are limited only by
quadrature accuracy.  exp_poly_tower gives the derivatives of
r(x) exp(q(x)) for polynomials r and q: polynomial multipliers,
Gaussian-polynomial probes, and quadratic phases all come from it.

A WaveFunction may also be a batch, one function per member of a batch of
group elements: its parameters and its hint then have the batch shape S
plus a trailing axis of length 1, and evaluating it at nodes of shape (N,)
or S + (N,) gives S + (N,).  inner, norm and l2_diff return one integral
per member, and integrate_vec tests each member's convergence on its own.

All integrals run on [center - 12 width, center + 12 width] with a
panel-doubling composite Gauss-Legendre rule (vectorized evaluations) that
starts at 8 panels and is converged to relative tolerance 1e-10.  The rule
on [0, 1] is built once per panel count and only scaled to each window.
The panel-doubling driver (_ladder) is kept apart from integrate_vec's
weighted sum, so the test oracles can run other sums on the same ladder.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WaveFunction",
    "hermite_wf",
    "gauss_poly_wf",
    "wf_scale",
    "wf_add",
    "wf_sub",
    "wf_affine",
    "wf_mul",
    "exp_poly_tower",
    "inner",
    "norm",
    "l2_diff",
    "integrate_vec",
    "gauss_legendre",
]

#: nodes of the Gauss-Legendre rule on each panel
_GL_POINTS = 32


@functools.lru_cache(maxsize=16)
def _unit_rule(panels: int):
    """Read-only (u, w) of the composite rule on [0, 1], built once per count.

    numpy.polynomial is imported on the first call, not with the module,
    so a command that runs no quadrature (quantize op) does not load it.
    """
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
    The integrands here are analytic with Gaussian decay, on which Gauss
    rules converge exponentially, so the first 8 -> 16 check passes for
    every integral of an all-checks report.

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
    """Complex-valued function on R with its derivatives and a quadrature hint.

    fn(x, k) is the k-th derivative at an ndarray of nodes x, for
    0 <= k <= depth; calling the WaveFunction gives k = 0.  poly is set
    on a Gaussian-polynomial probe r(y) exp(-y^2 / 2), y = (x - center) /
    width, alone: the coefficients of r in increasing degree.
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


def _window(*wfs):
    """Smallest interval holding every function's quadrature window."""
    los, his = zip(*(w.interval() for w in wfs))
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
    so every order is exact.  exp(q(x)) is kept for the latest node array
    (_latest_values), so the Leibniz terms of a product evaluate it once;
    an empty q leaves the polynomial r alone.
    """
    coeffs = _derivative_coeffs(r, q)
    if not len(q):
        return lambda x, k: _horner(coeffs(k), x)
    phase = _latest_values(lambda x: np.exp(_horner(q, x)))
    return lambda x, k: _horner(coeffs(k), x) * phase(x)


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
    """L2-normalized Hermite function h_k, the standard probe family."""
    coeffs = np.polynomial.hermite.herm2poly([0.0] * k + [1.0])
    nrm = 1.0 / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi) * width)
    return gauss_poly_wf(np.asarray(coeffs) * nrm, depth=depth,
                         center=center, width=width)


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
