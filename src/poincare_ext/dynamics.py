"""Uniformly accelerated relativistic particle: classical and quantum.

Classical layer: trajectories q1(tau), linearly growing kinematical
momentum ptilde(tau) = ptilde0 + B (tau - tau0), proper time (from `model`).

Quantum layer: the split Hamiltonian H0 + V(tau) with H0 = -B qhat -
phat, its delta-normalized eigenfunctions <x|E>, the closed-form
spectral amplitude transport c_E(tau), eigenstate evolution with its
unimodular phase, transition probabilities, and the total-energy
expectation.

The closed form is validated against two independent oracles: the
position-space packet transported exactly along characteristics and
projected on the eigenfunctions as its exact Gaussian integral (a), and
the spectral transport equation solved by its integrating factor (b).
The oracle aborts if (a) and (b) disagree beyond 1e-8.  The quadrature
version of (a)'s projection is kept in tests/quadrature_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ClassicalState, ModelParams, classical_trajectory,
                    kinematical_momentum, proper_time, relativistic_energy,
                    velocity)
from .wavefunctions import WaveFunction, exp_poly_tower, integrate_vec

__all__ = [
    "ClassicalState",
    "SpectralAmplitude",
    "OracleError",
    "gaussian_spectral",
    "classical_trajectory",
    "proper_time",
    "kinematical_momentum",
    "relativistic_energy",
    "velocity",
    "h0_eigenfunction",
    "h0_operator",
    "total_energy_operator",
    "c_closed_form",
    "evolve_eigenstate",
    "transition_probability",
    "expectation_total_energy",
    "locate_minimum",
    "oracle_propagate",
    "default_e_grid",
    "spectral_norm",
    "expectation_from_grid",
]


class OracleError(RuntimeError):
    """The two independent propagation oracles disagree."""


def _velocities(cs: ClassicalState, s: np.ndarray) -> np.ndarray:
    """velocity at an array of times, for quadrature."""
    pt = kinematical_momentum(cs, s)
    return pt / np.hypot(cs.m, pt)


def _time_integral(fn, cs: ClassicalState, tau: float) -> float:
    return integrate_vec(fn, cs.tau0, tau, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# operators


def h0_operator(params: ModelParams):
    """H0 = -B qhat - phat; classically the comoment u0 = B q1."""
    from .quantization import PolynomialObservable, quantize
    return quantize(PolynomialObservable({(1, 0): -params.B, (0, 1): -1.0}),
                    params)


def total_energy_operator(cs: ClassicalState, tau: float):
    """E(tau) - H0/2; commutes with H0, so its eigenstates are shared."""
    from .quantization import PolynomialObservable, quantize
    p = cs.params
    return quantize(PolynomialObservable(
        {(0, 0): relativistic_energy(cs, tau),
         (1, 0): p.B / 2.0, (0, 1): 0.5}), p)


def h0_eigenfunction(E: float, params: ModelParams) -> WaveFunction:
    """<x|E> = (2 pi hbar)^(-1/2) exp[-(i/hbar)(E x + B x^2 / 2)].

    Not square-integrable; the width hint of 6 only scopes windowed
    quadrature against genuinely normalizable partners.
    """
    h, B = params.hbar, params.B
    amp = 1.0 / math.sqrt(2.0 * math.pi * h)
    return WaveFunction(exp_poly_tower([amp], [0.0, -1j * E / h, -0.5j * B / h]),
                        2, 0.0, 6.0)


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

    def l2_norm_sq(self) -> float:
        val = integrate_vec(lambda E: np.abs(self.fn(E)) ** 2,
                            self.center - 12 * self.width,
                            self.center + 12 * self.width)
        return float(np.real(val))


def gaussian_spectral(E0: float, sigma: float) -> SpectralAmplitude:
    amp = (2.0 * math.pi * sigma * sigma) ** -0.25
    return SpectralAmplitude(
        lambda E: amp * np.exp(-((E - E0) ** 2) / (4.0 * sigma * sigma)),
        E0, sigma)


def _deltas(cs: ClassicalState, tau: float):
    dE = relativistic_energy(cs, tau) - relativistic_energy(cs, cs.tau0)
    dtp = proper_time(cs, tau) - proper_time(cs, cs.tau0)
    return dE, dtp, tau - cs.tau0


def c_closed_form(cs: ClassicalState, E, tau: float, c0) -> complex:
    """Transport-with-phase solution of the spectral evolution equations."""
    h, B = cs.params.hbar, cs.params.B
    dE, dtp, dtau = _deltas(cs, tau)
    E = np.asarray(E, dtype=float)
    phase1 = np.exp(1j * ((E - dE) ** 2 - E ** 2) / (2.0 * B * h))
    phase2 = np.exp(-1j / h * (-cs.ptilde_0 * dE / (2.0 * B)
                               - cs.m * dtp / 2.0
                               + relativistic_energy(cs, tau) * dtau / 2.0))
    out = phase1 * phase2 * c0(E - dE)
    return complex(out) if out.ndim == 0 else out


def evolve_eigenstate(cs: ClassicalState, E: float, tau: float):
    """(phase, E_final) for a system prepared in the eigenstate of H0 at E.

    The state at tau is phase * |E_final> with E_final = E + Delta E and
    a product of three unimodular factors.
    """
    h, B = cs.params.hbar, cs.params.B
    dE, dtp, dtau = _deltas(cs, tau)
    f1 = np.exp(1j * (E ** 2 - (E + dE) ** 2) / (2.0 * B * h))
    f2 = np.exp(1j * (E + dE) * dtau / h)
    f3 = np.exp(-1j / h * (-cs.ptilde_0 * dE / (2.0 * B) - cs.m * dtp / 2.0
                           + relativistic_energy(cs, tau) * dtau / 2.0))
    return complex(f1 * f2 * f3), E + dE


def transition_probability(cs: ClassicalState, e_prime: float, E: float,
                           tau: float) -> int:
    """Density-normalized transition indicator: 1 iff E' = E + Delta E."""
    _, e_final = evolve_eigenstate(cs, E, tau)
    return int(abs(e_prime - e_final) <= 1e-10 * (1.0 + abs(E)))


def expectation_total_energy(cs: ClassicalState, E: float, tau: float) -> float:
    return 0.5 * (relativistic_energy(cs, tau)
                  + relativistic_energy(cs, cs.tau0)) - 0.5 * E


def total_energy_minimum(cs: ClassicalState, E: float):
    """(tau*, value) of the expectation minimum."""
    tau_star = cs.tau0 - cs.ptilde_0 / cs.params.B
    value = 0.5 * cs.m + 0.5 * relativistic_energy(cs, cs.tau0) - 0.5 * E
    return tau_star, value


def locate_minimum(f, t0: float):
    """(t, f(t), width) at the minimum of a convex f, found without a grid.

    A bracket grows downhill from t0 in steps doubling from 1 until f
    turns up, then golden-section search shrinks it to a width of
    3e-8 (1 + |t|); width is the final bracket's.  If f has not turned up
    within 64 steps, t is the furthest point tried and width is inf.
    """
    h = 1.0 if f(t0 + 1.0) <= f(t0) else -1.0
    prev, x, fx = t0 - h, t0, f(t0)
    for _ in range(64):
        nxt = x + h
        fn = f(nxt)
        if fn > fx:
            break
        prev, x, fx, h = x, nxt, fn, 2.0 * h
    else:
        return x, fx, math.inf
    a, b = min(prev, nxt), max(prev, nxt)
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 2.0 * math.sqrt(np.finfo(float).eps) * (1.0 + abs(c)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (c, fc, b - a) if fc <= fd else (d, fd, b - a)


# ---------------------------------------------------------------------------
# independent propagation oracles


def default_e_grid(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                   n: int = 400):
    dE, _, _ = _deltas(cs, tau)
    center = c0.center + dE
    half = 10.0 * c0.width
    return np.linspace(center - half, center + half, n)


def _drift(cs: ClassicalState, tau: float):
    """(X, I2): the drift integral of 1 - v and its first moment in time."""
    X = _time_integral(lambda s: 1.0 - _velocities(cs, s), cs, tau)
    I2 = _time_integral(lambda s: (1.0 - _velocities(cs, s)) * (s - cs.tau0),
                        cs, tau)
    return X, I2


def _project_oracle_a(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                      e_grid):
    """Oracle (a): <E|psi(tau)> for the exactly transported position packet.

    The generator is affine in position and momentum, so the packet
    psi0(x) = amp exp(-(sigma x / hbar)^2 - i (E0 x + B x^2 / 2) / hbar)
    moves rigidly along x by the drift integral X(tau) and acquires the
    phase exp(-i B (x dtau - I2) / hbar); X and I2 are time quadratures.
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
    phase = e * (X - dtau) + B * (0.5 * X * X - X * dtau + I2)
    return (2.0 * math.pi * sigma * sigma) ** -0.25 \
        * np.exp(-((e - E0 + B * (X - dtau)) / (2.0 * sigma)) ** 2
                 + 1j * phase / h)


def _transport_oracle_b(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                        e_grid):
    """Oracle (b): spectral transport equation along characteristics.

    Along E(s) = E - Delta_E(tau) + Delta_E(s) the coupled amplitude
    equations reduce to the diagonal linear equation dc/ds = -i k_E(s) c
    with k_E(s) = (v(s)/hbar)(E(s) + B (s - tau0)).  Its integrating
    factor gives c(tau) = c(tau0) exp(-i int k_E), and int k_E is affine
    in E, so two scalar quadratures serve the whole grid.
    """
    p = cs.params
    h, B = p.hbar, p.B
    dE_final, _, _ = _deltas(cs, tau)
    e0 = relativistic_energy(cs, cs.tau0)

    # v E(s) = v (E - Delta_E(tau) - e0) + ptilde(s), as v e(s) = ptilde(s)
    drift = _time_integral(lambda s: _velocities(cs, s), cs, tau)
    rest = _time_integral(lambda s: kinematical_momentum(cs, s)
                          + B * (s - cs.tau0) * _velocities(cs, s), cs, tau)
    phase = ((e_grid - dE_final - e0) * drift + rest) / h
    return np.asarray(c0(e_grid - dE_final), dtype=complex) * np.exp(-1j * phase)


def oracle_propagate(cs: ClassicalState, c0: SpectralAmplitude, tau: float,
                     e_grid=None, tol: float = 1e-8):
    """Dual-oracle spectral amplitudes on an E-grid.

    Both methods must agree pointwise to tol, else OracleError; returns
    (e_grid, c) with c the position-space-oracle values.
    """
    if e_grid is None:
        e_grid = default_e_grid(cs, c0, tau)
    c_a = _project_oracle_a(cs, c0, tau, e_grid)
    c_b = _transport_oracle_b(cs, c0, tau, e_grid)
    gap = float(np.max(np.abs(c_a - c_b)))
    if not gap <= tol:  # a nan gap fails too
        raise OracleError(f"oracle disagreement {gap:.3e} exceeds {tol:.1e}")
    return np.asarray(e_grid), c_a


def spectral_norm(e_grid, c) -> float:
    return float(np.sqrt(np.trapezoid(np.abs(c) ** 2, e_grid)))


def expectation_from_grid(cs: ClassicalState, tau: float, e_grid, c) -> float:
    """<total energy> from grid amplitudes: E(tau) - <H0>/2."""
    w = np.abs(c) ** 2
    mean_e = float(np.trapezoid(e_grid * w, e_grid) / np.trapezoid(w, e_grid))
    return relativistic_energy(cs, tau) - 0.5 * mean_e
