"""Gaussian-polynomial probes on the real line.

A probe is r(x) exp(-x^2 / 2), held as one record: the coefficients of r
in increasing degree (poly).  Every probe lives on the one standard
Gaussian, and its window is WINDOW = [-12, 12].  The record evaluates its
values and nothing else.  The representation and quantization checks read
only its coefficients, as exact algebra (irreps' Gaussian-moment kernel),
and `rep apply` evaluates an image A e^{phi(x)} f(a x + b) by value.

The package differentiates and integrates no wavefunction.  The
derivative evaluators, the operators' action on them and the composite
Gauss-Legendre quadrature are the test oracle in tests/quadrature_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["HERMITE_MAX", "WINDOW", "Probe", "hermite_coefficients", "hermite_probe"]

#: the largest Hermite index whose monomial form stays within 1e-12 of the
#: normalised three-term recurrence, relative to max |h_k| on [-12, 12]:
#: 6.1e-13 at 18, 1.2e-12 at 19, 3.5e-10 at 30, and from 171 the
#: normalisation leaves the float range
HERMITE_MAX = 18

#: the window of every probe, where e^{-x^2/2} has fallen to e^-72
WINDOW = (-12.0, 12.0)


def _horner(coeffs, x):
    """Polynomial with coefficients in increasing degree, evaluated at x.

    A coefficient may be a batch column, so one call evaluates every
    member's polynomial.
    """
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


@dataclass(frozen=True, eq=False)
class Probe:
    """r(x) exp(-x^2 / 2); poly holds the coefficients of r in increasing
    degree.  Real coefficients stay real, which makes a Hermite probe three
    times cheaper to evaluate."""

    poly: np.ndarray

    def __post_init__(self):
        poly = np.asarray(self.poly)
        object.__setattr__(self, "poly", poly.astype(np.result_type(poly, 1.0)))

    def __call__(self, x):
        """The values at the nodes x."""
        x = np.asarray(x, dtype=float)
        return _horner(self.poly, x) * np.exp(-0.5 * x * x)


def hermite_coefficients(k: int) -> list:
    """The physicists' Hermite polynomial H_k in increasing degree, as exact
    integers: H_0 = 1 and H_{n+1} = 2x H_n - 2n H_{n-1}."""
    prev, cur = [], [1]
    for n in range(k):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * n * c
        prev, cur = cur, nxt
    return cur


def hermite_probe(k: int) -> Probe:
    """L2-normalized Hermite function h_k, the standard probe family."""
    nrm = 1.0 / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
    return Probe(np.array(hermite_coefficients(k), dtype=float) * nrm)
