"""Uniformly accelerated relativistic particle: classical and quantum.

Classical layer: trajectories q1(tau), linearly growing kinematical
momentum ptilde(tau) = ptilde0 + B (tau - tau0), proper time (from `model`).

Quantum layer: the split Hamiltonian H0 + V(tau) with H0 = -B qhat -
phat, in the basis of its delta-normalized eigenfunctions <x|E>: the
closed-form spectral amplitude transport c_E(tau).

Two independent oracles: the position-space packet transported exactly
along characteristics and projected on the eigenfunctions as its exact
Gaussian integral (a), and the spectral transport equation solved by its
integrating factor (b), which must agree to 1e-8.  Both need only the
drift integrals D and W, in closed form from `model`; the closed form
takes the energy change as B D and the proper time from delta/B, so no
term divides by B.  The three phases are ring-generic helpers
(_closed_phase, _phase_a, _phase_b, with _phi and _drift_moments) that
the float functions and decided_identities both run, the latter on
Laurent rapidities (_rapidity_forms); the float grid checks and the
quadratures are the test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (ClassicalState, classical_trajectory, drift_integrals,
                    kinematical_momentum, proper_time, relativistic_energy)

__all__ = [
    "ClassicalState",
    "SpectralAmplitude",
    "OracleError",
    "gaussian_spectral",
    "classical_trajectory",
    "proper_time",
    "kinematical_momentum",
    "relativistic_energy",
    "c_closed_form",
    "decided_identities",
    "oracle_propagate",
    "default_e_grid",
    "spectral_norm",
]


class OracleError(RuntimeError):
    """The two independent propagation oracles disagree."""


# ---------------------------------------------------------------------------
# spectral amplitudes


@dataclass(frozen=True)
class SpectralAmplitude:
    """Spectral profile c_E as a closure, with a (center, width) hint."""

    fn: callable
    center: float = 0.0
    width: float = 1.0

    def __call__(self, E):
        return self.fn(np.asarray(E, dtype=float))


def gaussian_spectral(E0: float, sigma: float) -> SpectralAmplitude:
    """The normalised Gaussian packet of mean E0 and width sigma in E.

    ValueError where sigma^2 underflows (sigma below about 1e-162), as its
    normalisation (2 pi sigma^2)^(-1/4) then does.
    """
    var = 2.0 * math.pi * sigma * sigma
    if not var > 0.0:
        raise ValueError(f"sigma = {sigma!r}: sigma^2 underflows to 0")
    amp = var ** -0.25
    return SpectralAmplitude(
        lambda E: amp * np.exp(-((E - E0) ** 2) / (4.0 * sigma * sigma)),
        E0, sigma)


# the phases, in any ring: floats here, Laurent rapidities in decided_identities


def _phi(p0, D, m, delta_b, e1, T):
    """hbar times the closed form's E-independent phase, (p0 D + m dtp -
    E(tau) T) / 2, with dtp = m delta / B the proper time elapsed."""
    return 0.5 * (p0 * D + m * (m * delta_b) - e1 * T)


def _closed_phase(E, B, D, phi):
    """hbar times c_closed_form's phase, ((E - B D)^2 - E^2) / 2B + phi."""
    return D * (0.5 * B * D - E) + phi


def _drift_moments(T, D, W):
    """(X, I2): the drift integral of 1 - v and its first moment in time."""
    return T - D, 0.5 * T * T - W


def _phase_a(E, B, T, X, I2):
    """hbar times oracle (a)'s phase at energy E."""
    return E * (X - T) + B * (0.5 * X * X - X * T + I2)


def _phase_b(E, B, T, D, W, e0, p0):
    """hbar times oracle (b)'s phase, the integral of k_E, affine in E."""
    return (E - B * D - e0) * D + (p0 * T + 0.5 * B * T * T + B * W)


def _deltas(cs: ClassicalState, tau: float):
    """(D, tau - tau0, phi): the energy changes by B D, and phi = _phi."""
    dtau = tau - cs.tau0
    D, _, delta_b = drift_integrals(cs, tau)
    return D, dtau, _phi(cs.ptilde_0, D, cs.m, delta_b,
                         relativistic_energy(cs, tau), dtau)


def c_closed_form(cs: ClassicalState, E, tau: float, c0) -> complex:
    """Transport-with-phase solution of the spectral evolution equations.

    c(E, tau) = c0(E - dE) exp(i [((E - dE)^2 - E^2) / 2B + phi] / hbar)
    with dE = B D, where ((E - dE)^2 - E^2) / 2B = D (B D / 2 - E).
    """
    h, B = cs.params.hbar, cs.params.B
    D, _, phi = _deltas(cs, tau)
    E = np.asarray(E, dtype=float)
    phase = _closed_phase(E, B, D, phi)
    out = np.exp(1j * phase / h) * c0(E - B * D)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# independent propagation oracles


#: the norm bound of evolve's grid, half for its step and half for its floats
NORM_TOL = 1e-8


def default_e_grid(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                   n: int = 400):
    """n energies over 10 widths either side of the transported packet.

    ValueError where spectral_norm's trapezoid sum of f = |c|^2, a Gaussian
    of width s, may move the norm past NORM_TOL, half of it for each term.
    The step h = 20 s / (n - 1) moves the norm by up to e^(-2 pi^2 (s/h)^2)
    (Poisson summation; the cut at 10 widths drops e^-50): n >= 21, and
    1.84e-8 at n = 20.  Rounding to the float spacing u at the largest |E|
    moves each node by up to u/2, the sum by up to u^2 / (4 h) int |f'| +
    u^2 / 8 int |f''| = u^2 (0.2 / (h s) + 0.12 / s^2) of int f, and the
    norm by half that: u^2 (0.2 s + 0.12 h) <= 1e-8 h s^2, which holds at
    the default n up to |B| of about 1.4e11 (at 1e14 the norm read
    1.00000017).
    """
    s = c0.width
    h = 20.0 * s / max(n - 1, 1)
    step = math.exp(-2.0 * (math.pi * s / h) ** 2)
    if not step <= 0.5 * NORM_TOL:
        raise ValueError(f"the energy grid of n = {n} does not resolve the "
                         f"packet: its trapezoid sum moves the norm by up to {step:.2g}")
    center = c0.center + cs.params.B * _deltas(cs, tau)[0]
    grid = np.linspace(center - 10.0 * s, center + 10.0 * s, n)
    u = float(np.spacing(np.max(np.abs(grid))))
    if not u * u * (0.2 * s + 0.12 * h) <= NORM_TOL * h * s * s:  # nan fails too
        raise ValueError(f"the energy grid around {center:.6g} does not "
                         "resolve the packet")
    return grid


def _drift(cs: ClassicalState, tau: float):
    """(X, I2) = _drift_moments at tau."""
    D, W, _ = drift_integrals(cs, tau)
    return _drift_moments(tau - cs.tau0, D, W)


def _project_oracle_a(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                      e_grid):
    """Oracle (a): <E|psi(tau)> for the exactly transported position packet.

    The generator is affine in position and momentum, so the packet
    psi0(x) = amp exp(-(sigma x / hbar)^2 - i (E0 x + B x^2 / 2) / hbar)
    moves rigidly along x by the drift integral X(tau) and acquires the
    phase exp(-i B (x dtau - I2) / hbar); X and I2 come from `_drift`.
    Against <x|E> the chirps exp(+-i B x^2 / 2 hbar) cancel, which leaves a
    Gaussian integral in y = x - X, exact over the real line:

        c_a(E) = (2 pi sigma^2)^(-1/4) exp(-(E - E0 + B (X - dtau))^2
                 / 4 sigma^2) exp(i [E (X - dtau) + B X^2 / 2 - B X dtau
                 + B I2] / hbar).

    Its quadrature over X +- 14 hbar/sigma, which drops about e^-196 of the
    packet, is the test oracle (tests/quadrature_oracle.py).
    """
    h, B = cs.params.hbar, cs.params.B
    E0, sigma = c0.center, c0.width
    dtau = tau - cs.tau0
    X, I2 = _drift(cs, tau)
    e = np.asarray(e_grid, dtype=float)
    return (2.0 * math.pi * sigma * sigma) ** -0.25 \
        * np.exp(-((e - E0 + B * (X - dtau)) / (2.0 * sigma)) ** 2
                 + 1j * _phase_a(e, B, dtau, X, I2) / h)


def _transport_oracle_b(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                        e_grid):
    """Oracle (b): spectral transport equation along characteristics.

    Along E(s) = E - Delta_E(tau) + Delta_E(s) the coupled amplitude
    equations reduce to the diagonal linear equation dc/ds = -i k_E(s) c
    with k_E(s) = (v(s)/hbar)(E(s) + B (s - tau0)).  Its integrating
    factor gives c(tau) = c(tau0) exp(-i int k_E), and int k_E is affine
    in E (_phase_b), as v E(s) = v (E - Delta_E(tau) - e0) + ptilde(s).
    """
    h, B = cs.params.hbar, cs.params.B
    T = tau - cs.tau0
    D, W, _ = drift_integrals(cs, tau)
    phase = _phase_b(e_grid, B, T, D, W, relativistic_energy(cs, cs.tau0),
                     cs.ptilde_0) / h
    return np.asarray(c0(e_grid - B * D), dtype=complex) * np.exp(-1j * phase)


#: the largest pointwise gap oracle_propagate allows between its oracles
ORACLE_TOL = 1e-8


def oracle_propagate(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                     e_grid=None):
    """Dual-oracle spectral amplitudes on an E-grid.

    Both methods must agree pointwise to ORACLE_TOL, else OracleError;
    returns (e_grid, c) with c the position-space-oracle values.
    """
    if e_grid is None:
        e_grid = default_e_grid(cs, c0, tau)
    c_a = _project_oracle_a(cs, c0, tau, e_grid)
    c_b = _transport_oracle_b(cs, c0, tau, e_grid)
    gap = float(np.max(np.abs(c_a - c_b)))
    if not gap <= ORACLE_TOL:  # a nan gap fails too
        raise OracleError(f"oracle disagreement {gap:.3e} exceeds {ORACLE_TOL:.1e}")
    return np.asarray(e_grid), c_a


def spectral_norm(e_grid, c) -> float:
    return float(np.sqrt(np.trapezoid(np.abs(c) ** 2, e_grid)))


# ---------------------------------------------------------------------------
# the closed form against the oracles, decided in rapidity form


def _rapidity_forms(m, B, theta0, theta1):
    """(p0, p1, E0, E1, T, D, delta, W) from rapidity theta0 at tau0 to
    theta1 at tau, on Laurent variables: p = m sinh theta, E = m cosh theta,
    T = (p1 - p0)/B, D = (E1 - E0)/B, delta = theta1 - theta0 and W = (m/B)^2
    [(sinh delta - delta)/2 + sinh 2c sinh^2(delta/2)], 2c = theta0 + theta1."""
    delta = theta1 - theta0
    p0, p1 = m * theta0.sinh(), m * theta1.sinh()
    e0, e1 = m * theta0.cosh(), m * theta1.cosh()
    W = (m / B) ** 2 * ((delta.sinh() - delta) * 0.5
                        + (theta0 + theta1).sinh() * (delta * 0.5).sinh() ** 2)
    return p0, p1, e0, e1, (p1 - p0) / B, (e1 - e0) / B, delta, W


@functools.cache
def decided_identities() -> dict:
    """{"closed_vs_oracle", "norm_drift", "energy_expectation", "minimum"},
    decided once per process, on first use, as laurent.relative_defect of
    Laurent identities in m, B, hbar, tau0, E, the packet's mean Ebar and
    the rapidities (_rapidity_forms): 0.0 for every state, time and B != 0.

    closed_vs_oracle runs the helpers the float functions run (_phi,
    _closed_phase, _drift_moments, _phase_a, _phase_b): the closed form's
    exponent differs from each oracle's by i (phi + B W) / hbar, and
    phi + B W = 0; (a)'s shift B (X - T) = -B D checks X.  A defect in a
    helper fails it; the exponentials around them are the float oracle's.
    The other three follow from the definitions and check no code (the
    tests' float oracles do): norm_drift, an imaginary exponent and a shift
    in E; energy_expectation, the mean moved by B D = E(tau) - E(tau0);
    minimum, ptilde = 0 at tau* = tau0 - ptilde0/B.
    """
    from .laurent import Laurent, relative_defect
    m, B, hbar, tau0, E, Ebar, theta0, theta1 = (Laurent.var(name) for name in (
        "m", "B", "hbar", "tau0", "E", "Ebar", "theta0", "theta1"))
    p0, p1, e0, e1, T, D, delta, W = _rapidity_forms(m, B, theta0, theta1)
    closed = 1j * _closed_phase(E, B, D, _phi(p0, D, m, delta / B, e1, T)) / hbar
    X, I2 = _drift_moments(T, D, W)
    oracle_a = 1j * _phase_a(E, B, T, X, I2) / hbar
    oracle_b = -1j * _phase_b(E, B, T, D, W, e0, p0) / hbar
    return {"closed_vs_oracle": max(relative_defect([closed, -oracle_a]),
                                    relative_defect([closed, -oracle_b]),
                                    relative_defect([B * (X - T), B * D])),
            "norm_drift": relative_defect([closed, closed.conjugate()]),
            "energy_expectation": relative_defect([e1 - (Ebar + B * D) * 0.5,
                                                   -((e1 + e0) * 0.5 - Ebar * 0.5)]),
            "minimum": relative_defect([p0, B * ((tau0 - p0 / B) - tau0)])}
