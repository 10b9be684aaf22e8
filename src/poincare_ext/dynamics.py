"""Uniformly accelerated relativistic particle: classical and quantum.

Classical layer: trajectories q1(tau), linearly growing kinematical
momentum ptilde(tau) = ptilde0 + B (tau - tau0), proper time (from `model`).

Quantum layer: the split Hamiltonian H0 + V(tau) with H0 = -B qhat -
phat, in the basis of its delta-normalized eigenfunctions <x|E>: the
closed-form spectral amplitude transport c_E(tau) and the total-energy
expectation.

The closed form is validated against two independent oracles: the
position-space packet transported exactly along characteristics and
projected on the eigenfunctions as its exact Gaussian integral (a), and
the spectral transport equation solved by its integrating factor (b).
The oracle aborts if (a) and (b) disagree beyond 1e-8.  Both oracles
need only the drift integrals of the velocity, D and W, which `model`
gives in closed form; the closed form itself takes the energy change as
B D and the proper time from delta/B, so no term divides by B.  The
quadrature versions of (a)'s projection and of D and W are kept in
tests/quadrature_oracle.py.
"""

from __future__ import annotations

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
    "expectation_total_energy",
    "locate_minimum",
    "oracle_propagate",
    "default_e_grid",
    "spectral_norm",
    "expectation_from_grid",
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


def _deltas(cs: ClassicalState, tau: float):
    """(D, tau - tau0, phi): the energy changes by B D, and hbar times the
    E-independent phase is phi = (ptilde0 D + m dtp - E(tau) dtau) / 2,
    with dtp = m delta / B the proper time elapsed."""
    dtau = tau - cs.tau0
    D, _, delta_b = drift_integrals(cs, tau)
    phi = 0.5 * (cs.ptilde_0 * D + cs.m * (cs.m * delta_b)
                 - relativistic_energy(cs, tau) * dtau)
    return D, dtau, phi


def c_closed_form(cs: ClassicalState, E, tau: float, c0) -> complex:
    """Transport-with-phase solution of the spectral evolution equations.

    c(E, tau) = c0(E - dE) exp(i [((E - dE)^2 - E^2) / 2B + phi] / hbar)
    with dE = B D, where ((E - dE)^2 - E^2) / 2B = D (B D / 2 - E).
    """
    h, B = cs.params.hbar, cs.params.B
    D, _, phi = _deltas(cs, tau)
    E = np.asarray(E, dtype=float)
    phase = D * (0.5 * B * D - E) + phi
    out = np.exp(1j * phase / h) * c0(E - B * D)
    return complex(out) if out.ndim == 0 else out


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
    """n energies over 10 widths either side of the transported packet.

    ValueError where the float spacing u at the grid's largest |E| is too
    coarse for its step h.  Rounding moves each node by up to u / 2, and
    the amplitudes are taken at the rounded nodes, so spectral_norm's
    trapezoid sum of f = |c|^2 moves only at second order, by up to
    u^2 / (4 h) int |f'| + u^2 / 8 int |f''|: u^2 (0.2 / (h s) + 0.12 / s^2)
    of int f for a Gaussian packet of width s.  The norm moves by half as
    much, so the 1e-8 norm bound asks u^2 (0.2 s + 0.12 h) <= 2e-8 h s^2.
    At the defaults that holds up to |B| of about 2.7e11; at B = 1e14
    (u = 0.03, h = 0.05) the norm read 1.00000017.
    """
    center = c0.center + cs.params.B * _deltas(cs, tau)[0]
    s = c0.width
    grid = np.linspace(center - 10.0 * s, center + 10.0 * s, n)
    h, u = 20.0 * s / max(n - 1, 1), float(np.spacing(np.max(np.abs(grid))))
    if not u * u * (0.2 * s + 0.12 * h) <= 2e-8 * h * s * s:  # nan fails too
        raise ValueError(f"the energy grid around {center:.6g} does not "
                         "resolve the packet")
    return grid


def _drift(cs: ClassicalState, tau: float):
    """(X, I2): the drift integral of 1 - v and its first moment in time,
    T - D and T^2 / 2 - W."""
    T = tau - cs.tau0
    D, W, _ = drift_integrals(cs, tau)
    return T - D, 0.5 * T * T - W


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
    in E: its two time integrals are D and p0 T + B T^2 / 2 + B W.
    """
    h, B = cs.params.hbar, cs.params.B
    T = tau - cs.tau0
    D, W, _ = drift_integrals(cs, tau)
    dE_final = B * D
    e0 = relativistic_energy(cs, cs.tau0)

    # v E(s) = v (E - Delta_E(tau) - e0) + ptilde(s), as v e(s) = ptilde(s)
    rest = cs.ptilde_0 * T + 0.5 * B * T * T + B * W
    phase = ((e_grid - dE_final - e0) * D + rest) / h
    return np.asarray(c0(e_grid - dE_final), dtype=complex) * np.exp(-1j * phase)


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


def expectation_from_grid(cs: ClassicalState, tau: float, e_grid, c) -> float:
    """<total energy> from grid amplitudes: E(tau) - <H0>/2."""
    w = np.abs(c) ** 2
    mean_e = float(np.trapezoid(e_grid * w, e_grid) / np.trapezoid(w, e_grid))
    return relativistic_energy(cs, tau) - 0.5 * mean_e
