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
wf_stack makes such a batch from a list of functions, one member each, so
an operator chain built once acts on a whole probe set; integrate_stack
then takes every integral of a check from one integrate_vec call.

All integrals run on [center - 12 width, center + 12 width] with a
panel-doubling composite Gauss-Legendre rule (vectorized evaluations) that
starts at 8 panels and is converged to relative tolerance 1e-10.  The rule
on [0, 1] is built once per panel count and only scaled to each window.
One panel-doubling ladder (_ladder) serves both quadratures: integrate_vec
sums w fn(x) at each level, and integrate_fourier sums w exp(i k x) fn(x)
for a vector of k as a contraction over the rule's panels, without the
k-by-node kernel.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

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
    "wf_mul_poly",
    "wf_stack",
    "exp_poly_tower",
    "inner",
    "norm",
    "l2_diff",
    "integrate_vec",
    "integrate_stack",
    "integrate_fourier",
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
    Convergence and non-finite integrals are handled as in _ladder.
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

    out = _ladder(level, lo, hi, rtol, atol, max_panels)
    return _split(out, parts) if parts else out[()]


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
    plain weighted sum; other nodes raise ValueError.
    """
    k = np.asarray(k, dtype=float)
    size = _GL_NODES.size

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
        sq = [np.abs(lhs.fn(x, 0) - rhs.fn(x, 0)) ** 2 for lhs, rhs in diffs]
        return sq + [np.abs(f.fn(x, 0)) ** 2], cross(x)

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
    """Complex-valued function on R with its derivatives and a quadrature hint.

    fn(x, k) is the k-th derivative at an ndarray of nodes x, for
    0 <= k <= depth; calling the WaveFunction gives k = 0.
    """

    fn: callable
    depth: int = 0
    center: float = 0.0
    width: float = 1.0

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
    derivatives stay in the class r_k(x) exp(q(x)) under the recursion
    r_{k+1} = r_k' + q' r_k, so every order is exact; each r_k is built
    the first time it is evaluated.  exp(q(x)) is kept for the latest
    node array (_latest_values), so the Leibniz terms of a product
    evaluate it once; an empty q leaves the polynomial r alone.
    """
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

    if not len(q):
        return lambda x, k: _horner(coeffs(k), x)
    phase = _latest_values(lambda x: np.exp(_horner(q, x)))
    return lambda x, k: _horner(coeffs(k), x) * phase(x)


def wf_mul_poly(f: WaveFunction, coeffs) -> WaveFunction:
    """Multiply by a polynomial (coeffs in increasing degree)."""
    return wf_mul(f, exp_poly_tower(np.asarray(coeffs, dtype=complex)), f.depth)


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

    Each derivative order keeps its values at the latest node array
    (_latest_values).  An operator chain calls its base function many
    times at the same nodes, so the members are evaluated once per
    quadrature level rather than once per call.
    """
    if not fs:
        raise ValueError("wf_stack needs at least one wavefunction")
    depth = min(f.depth for f in fs)
    lo, hi = _window(*fs)

    def order(k):
        def fn(x):
            rows = np.broadcast_to(x, (len(fs),) + x.shape[-1:])
            return np.stack([f.fn(r, k) for f, r in zip(fs, rows)])
        return _latest_values(fn)

    orders = [order(k) for k in range(depth + 1)]
    return WaveFunction(lambda x, k: orders[k](x), depth,
                        0.5 * (lo + hi), (hi - lo) / 24.0)


def gauss_poly_wf(coeffs, depth: int = 4, center: float = 0.0,
                  width: float = 1.0) -> WaveFunction:
    """p(y) exp(-y^2 / 2) with y = (x - center) / width, analytic to any depth."""
    scale = 1.0 / width
    # real coefficients stay real, which makes a Hermite probe three times
    # cheaper
    coeffs = np.asarray(coeffs)
    m = exp_poly_tower(coeffs.astype(np.result_type(coeffs, 1.0)),
                       (0.0, 0.0, -0.5))

    def fn(x, k):
        y = (x - center) * scale
        return m(y, 0) if k == 0 else scale ** k * m(y, k)

    return WaveFunction(fn, depth, center, width)


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
