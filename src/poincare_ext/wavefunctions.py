"""Evaluatable wavefunctions on the real line, with quadrature.

A WaveFunction wraps a numpy-vectorized complex evaluator together with
a chain of analytic derivative closures and a (center, width) quadrature
hint.  Representation operators act by closure composition -- affine
argument maps and multiplicative phases -- so derivative chains stay
analytic and inner products are limited only by quadrature accuracy.

All integrals run on [center - 12 width, center + 12 width] with a
panel-doubling composite Gauss-Legendre rule (vectorized evaluations),
converged to relative tolerance 1e-10.
"""

from __future__ import annotations

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
    "inner",
    "norm",
    "l2_diff",
    "integrate_vec",
    "gauss_legendre",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_legendre(lo: float, hi: float, panels: int):
    """(x, w) of the 32-point Gauss-Legendre rule on equal panels of [lo, hi].

    Exact for polynomials of degree <= 63 on each panel.
    """
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    w = np.broadcast_to(half * _GL_WEIGHTS, (panels, _GL_NODES.size)).ravel()
    return x, w


def integrate_vec(fn, lo: float, hi: float, rtol: float = 1e-10,
                  atol: float = 1e-13, max_panels: int = 4096) -> complex:
    """Composite 32-point Gauss-Legendre with panel doubling from 16 panels.

    fn must accept ndarray arguments.  Convergence is declared when two
    consecutive refinements agree to rtol/atol.
    """
    def level(n):
        x, w = gauss_legendre(lo, hi, n)
        return np.sum(w * fn(x))

    n = 16
    prev = level(n)
    while n < max_panels:
        n *= 2
        cur = level(n)
        if abs(cur - prev) <= max(atol, rtol * abs(cur)):
            return cur
        prev = cur
    raise RuntimeError(f"quadrature did not converge on [{lo}, {hi}]")


@dataclass(frozen=True)
class WaveFunction:
    """Complex-valued function on R with derivative chain and a quadrature hint."""

    fn: callable
    derivs: tuple = ()
    center: float = 0.0
    width: float = 1.0

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


def _merge_hints(*wfs):
    los, his = zip(*(w.interval() for w in wfs))
    lo, hi = min(los), max(his)
    return 0.5 * (lo + hi), (hi - lo) / 24.0


def wf_scale(wf: WaveFunction, c: complex) -> WaveFunction:
    return WaveFunction(lambda x: c * wf.fn(x),
                        tuple((lambda d: (lambda x: c * d(x)))(d) for d in wf.derivs),
                        wf.center, wf.width)


def wf_sub(f: WaveFunction, g: WaveFunction) -> WaveFunction:
    depth = min(f.depth, g.depth)
    center, width = _merge_hints(f, g)
    return WaveFunction(
        lambda x: f.fn(x) - g.fn(x),
        tuple((lambda df, dg: (lambda x: df(x) - dg(x)))(f.derivs[k], g.derivs[k])
              for k in range(depth)),
        center, width)


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


def wf_mul_poly(f: WaveFunction, coeffs) -> WaveFunction:
    """Multiply by a polynomial (coeffs in increasing degree)."""
    factors = [np.asarray(coeffs, dtype=complex)]
    for _ in range(f.depth):
        factors.append(P.polyder(factors[-1]))
    return wf_mul(f, [(lambda c: (lambda x: P.polyval(x, c)))(c) for c in factors])


def gauss_poly_wf(coeffs, depth: int = 4, center: float = 0.0,
                  width: float = 1.0) -> WaveFunction:
    """p(y) exp(-y^2 / 2) with y = (x - center) / width, analytic to any depth."""
    scale = 1.0 / width

    # chain in y: q -> q' - y q preserves the Gaussian-polynomial class
    polys = [np.asarray(coeffs, dtype=complex)]
    for _ in range(depth):
        q = polys[-1]
        polys.append(P.polysub(P.polyder(q), P.polymulx(q)))

    def closure(k):
        q = polys[k]
        fac = scale ** k

        def f(x):
            y = (x - center) * scale
            return fac * P.polyval(y, q) * np.exp(-0.5 * y * y)
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


def inner(f: WaveFunction, g: WaveFunction) -> complex:
    """<f, g> = integral conj(f) g."""
    center, width = _merge_hints(f, g)
    return integrate_vec(lambda x: np.conj(f.fn(x)) * g.fn(x),
                         center - 12 * width, center + 12 * width)


def norm(f: WaveFunction) -> float:
    """L2 norm, integrated once per wavefunction and then remembered.

    A WaveFunction is immutable, so the stored value stays valid; a fixed
    probe is normalised once however many residuals divide by it.
    """
    cached = f.__dict__.get("_norm")
    if cached is None:
        lo, hi = f.interval()
        val = integrate_vec(lambda x: np.abs(f.fn(x)) ** 2, lo, hi)
        cached = math.sqrt(max(float(np.real(val)), 0.0))
        object.__setattr__(f, "_norm", cached)
    return cached


def l2_diff(f: WaveFunction, g: WaveFunction) -> float:
    center, width = _merge_hints(f, g)
    val = integrate_vec(lambda x: np.abs(f.fn(x) - g.fn(x)) ** 2,
                        center - 12 * width, center + 12 * width)
    return math.sqrt(max(float(np.real(val)), 0.0))
