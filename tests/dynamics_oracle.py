"""The dynamics suite in float64: the test oracle of dynamics.decided_identities.

`dynamics.decided_identities` decides the closed form's exponent against
both oracles', its norm, the total-energy expectation and its minimum as
identities in the rapidities.  These are the float checks the suite ran
per report before: c_closed_form, the trapezoid norm and the mean energy
on oracle_propagate's grid at five (B b, m), and the expectation's
minimum found by golden-section search, never told tau*.  Each check
states its round-off bound before it runs, from eps, |B| and the sweep's
ranges (`closed_form_bound`, `expectation_bound`, `minimum_bounds`).
"""

import math

import numpy as np

from poincare_ext import dynamics as dy
from poincare_ext.model import ModelParams

EPS = float(np.finfo(float).eps)

#: the (b, m) pairs of the sweep, run at b times the report's B, from
#: (q1, ptilde0, tau0) = (0, 0.7, 0.1) to tau = 1.6
SWEEP = [(1.0, 0.5), (-1.0, 1.0), (2.0, 2.0), (-2.0, 0.5), (1.0, 2.0)]
TAU = 1.6


def expectation_total_energy(cs, E: float, tau: float) -> float:
    """<total energy> at tau in closed form: (E(tau) + E(tau0))/2 - E/2."""
    return 0.5 * (dy.relativistic_energy(cs, tau)
                  + dy.relativistic_energy(cs, cs.tau0)) - 0.5 * E


def total_energy_minimum(cs, E: float):
    """(tau*, value) of the expectation minimum, at ptilde(tau*) = 0."""
    tau_star = cs.tau0 - cs.ptilde_0 / cs.params.B
    value = 0.5 * cs.m + 0.5 * dy.relativistic_energy(cs, cs.tau0) - 0.5 * E
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
    while b - a > 2.0 * math.sqrt(EPS) * (1.0 + abs(c)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (c, fc, b - a) if fc <= fd else (d, fd, b - a)


def expectation_from_grid(cs, tau: float, e_grid, c) -> float:
    """<total energy> from grid amplitudes: E(tau) - <H0>/2."""
    w = np.abs(c) ** 2
    mean_e = float(np.trapezoid(e_grid * w, e_grid) / np.trapezoid(w, e_grid))
    return dy.relativistic_energy(cs, tau) - 0.5 * mean_e


def closed_form_bound(cs, tau: float, c0, e_grid) -> float:
    """The largest round-off gap of c_closed_form to oracle (a), stated
    from the magnitudes of the phases they sum.

    Both are c0 at the shifted energy times e^(i phase / hbar), and their
    exact phases agree, so they differ by |c0| times the rounding of the
    two phases.  With |D| <= |T| (|v| < 1), |X| <= 2 |T|, |I2| <= T^2 and
    m^2 |delta / B| <= m |T| (proper time is at most coordinate time), the
    terms of the two phases sum to at most 2 |E| |T| + 5.5 |B| T^2 +
    |T| (|ptilde0| + m + E(tau)) / 2 in size; D and W from
    model.drift_integrals hold a few eps of their scales |T| and T^2 / 2.
    16 eps of that sum, times the packet's peak (2 pi sigma^2)^(-1/4),
    over hbar.
    """
    B, hbar = cs.params.B, cs.params.hbar
    T = abs(tau - cs.tau0)
    size = 2.0 * float(np.max(np.abs(e_grid))) * T + 5.5 * abs(B) * T * T \
        + 0.5 * T * (abs(cs.ptilde_0) + cs.m + dy.relativistic_energy(cs, tau))
    peak = (2.0 * math.pi * c0.width ** 2) ** -0.25
    return 16.0 * EPS * peak * size / hbar


def expectation_bound(cs, tau: float, e_grid) -> float:
    """The round-off of expectation_from_grid against the closed form:
    the trapezoid mean of E sums n terms pairwise, each at most max |E|,
    so its error is at most 2 log2(n) eps max |E| plus a few eps of
    E(tau) and E(tau0); 4 log2(n) eps times their sum."""
    size = float(np.max(np.abs(e_grid))) + dy.relativistic_energy(cs, tau) \
        + dy.relativistic_energy(cs, cs.tau0)
    return 4.0 * math.log2(len(e_grid)) * EPS * size


def sweep(params, c0=dy.gaussian_spectral(0.0, 1.0)) -> list:
    """At each (b, m) of SWEEP: (gap, bound) of the closed form against
    oracle (a), of the trapezoid norm against 1 (bound dynamics.NORM_TOL,
    the grid's own budget) and of the grid's energy expectation against
    the closed form."""
    rows = []
    for b, mass in SWEEP:
        cs = dy.ClassicalState(0.0, 0.7, 0.1, mass,
                               ModelParams(B=params.B * b, hbar=params.hbar))
        grid, c = dy.oracle_propagate(cs, c0, TAU)
        cf = dy.c_closed_form(cs, grid, TAU, c0)
        rows.append(((float(np.max(np.abs(cf - c))), closed_form_bound(cs, TAU, c0, grid)),
                     (abs(dy.spectral_norm(grid, c) - 1.0), dy.NORM_TOL),
                     (abs(expectation_from_grid(cs, TAU, grid, c)
                          - expectation_total_energy(cs, c0.center, TAU)),
                      expectation_bound(cs, TAU, grid))))
    return rows


def minimum_bounds(cs, value: float, width: float):
    """(tau, value) bounds on the search's answer at cs, for E = 0.

    The float expectation is exact to 4 eps of its size, so two values
    closer than 8 eps |f*| are not told apart.  f - f* = (E(tau) - m)/2
    lies between ptilde^2 / (4 E) and ptilde^2 / (4 m), with ptilde =
    B (tau - tau*): the values within 8 eps |f*| of f* lie within
    r = (64 m eps |f*|)^(1/2) / |B| of tau* (there E <= 2m).  The search's
    bracket, of width `width`, then holds tau to width + r, and the value
    to B^2 (width + r)^2 / (4 m) + 8 eps |f*|.
    """
    B, m = abs(cs.params.B), cs.m
    r = math.sqrt(64.0 * m * EPS * abs(value)) / B
    return width + r, B * B * (width + r) ** 2 / (4.0 * m) + 8.0 * EPS * abs(value)


def locate(params, m: float = 1.0):
    """(tau, value, width, tau*, value*) of the search at ptilde0 = -2."""
    cs = dy.ClassicalState(0.0, -2.0, 0.0, m, ModelParams(B=params.B, hbar=params.hbar))
    tau, v, width = locate_minimum(lambda t: expectation_total_energy(cs, 0.0, t), cs.tau0)
    return (tau, v, width, *total_energy_minimum(cs, 0.0))


def suite_dynamics(params, m: float = 1.0) -> dict:
    """cli.suite_dynamics in float64: each field the worst gap over the
    sweep, and minimum_located whether the search holds its bounds."""
    rows = sweep(params)
    gaps = [max(row[k][0] for row in rows) for k in range(3)]
    tau, v, width, tau_star, v_star = locate(params, m)
    cs = dy.ClassicalState(0.0, -2.0, 0.0, m, params)
    tau_tol, value_tol = minimum_bounds(cs, v_star, width)
    located = bool(abs(tau - tau_star) <= tau_tol and abs(v - v_star) <= value_tol)
    within = all(gap <= bound for row in rows for gap, bound in row)
    return {"closed_vs_oracle": gaps[0], "norm_drift": gaps[1],
            "energy_expectation": gaps[2], "minimum_located": located,
            "pass": within and located}
