import math
import tracemalloc

import numpy as np
import pytest

from poincare_ext import dynamics as dy
from poincare_ext.group import ModelParams
from poincare_ext.irreps import default_probes
from poincare_ext.wavefunctions import gauss_legendre, l2_diff, norm

P = ModelParams()
CS = dy.ClassicalState(q1_0=0.0, ptilde_0=-2.0, tau0=0.0, m=1.0, params=P)


def test_state_validation():
    with pytest.raises(ValueError):
        dy.ClassicalState(m=0.0)


def test_trajectory_initial_point_and_acceleration():
    q0, q1, pt = dy.classical_trajectory(CS, CS.tau0)
    assert (q0, q1, pt) == (CS.tau0, CS.q1_0, CS.ptilde_0)
    assert dy.kinematical_momentum(CS, CS.tau0 + 1.0) - CS.ptilde_0 == P.B


def test_trajectory_velocity_by_differentiation():
    h = 1e-6
    rng = np.random.default_rng(0)
    for _ in range(20):
        tau = rng.uniform(-3, 3)
        qp = dy.classical_trajectory(CS, tau + h)[1]
        qm = dy.classical_trajectory(CS, tau - h)[1]
        assert abs((qp - qm) / (2 * h) - dy.velocity(CS, tau)) < 1e-9


def test_trajectory_finite_at_subnormal_B():
    # E / B overflows here, and E(tau)/B - E(tau0)/B used to read inf - inf
    for B in (5e-324, 1e-310):
        for pt0, q10, tau0, tau in [(0.5, 0.3, 0.1, 2.0), (-1.2, 0.0, -1.0, 3.5),
                                    (0.0, 1.0, 0.0, -2.0)]:
            cs = dy.ClassicalState(q10, pt0, tau0, 1.3, ModelParams(B))
            q1 = dy.classical_trajectory(cs, tau)[1]
            v0 = dy.velocity(cs, tau0)
            assert math.isclose(q1, q10 + v0 * (tau - tau0), rel_tol=1e-15,
                                abs_tol=1e-300)


def test_proper_time_at_subnormal_B():
    # m (asinh(ptilde/m) / B): ptilde = 0 gives 0 and ptilde = B tau about
    # tau, where m/B alone overflows; a value past the float range is inf,
    # never nan
    for B in (5e-324, 1e-310):
        cs = dy.ClassicalState(0.0, 0.0, 0.0, 1.0, ModelParams(B))
        assert dy.proper_time(cs, 0.0) == 0.0
        assert math.isclose(dy.proper_time(cs, 2.0), 2.0, rel_tol=1e-12)
        cs = dy.ClassicalState(0.0, 0.5, 0.0, 1.0, ModelParams(B))
        assert dy.proper_time(cs, 1.0) == math.inf


def test_trajectory_matches_energy_difference_over_B():
    rng = np.random.default_rng(4)
    for _ in range(200):
        B = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        q10, pt0, tau0, tau = rng.uniform(-3, 3, size=4)
        cs = dy.ClassicalState(q10, pt0, tau0, rng.uniform(0.2, 3.0),
                               ModelParams(B))
        e, e0 = dy.relativistic_energy(cs, tau), dy.relativistic_energy(cs, tau0)
        q1 = dy.classical_trajectory(cs, tau)[1]
        assert abs(q1 - (q10 + (e - e0) / B)) <= 1e-14 * (abs(q10) + (e + e0) / abs(B))


def test_proper_time():
    cs = dy.ClassicalState(0.0, 0.0, 0.0, 1.0, P)
    assert dy.proper_time(cs, 0.0) == 0.0
    # small-momentum linearization and exact derivative 1/gamma
    assert abs(dy.proper_time(cs, 1e-4) - 1e-4) < 1e-11
    h = 1e-6
    for tau in (0.3, -1.2, 2.5):
        d = (dy.proper_time(cs, tau + h) - dy.proper_time(cs, tau - h)) / (2 * h)
        gamma_inv = cs.m / dy.relativistic_energy(cs, tau)
        assert abs(d - gamma_inv) < 1e-9


def test_eigenfunction_pointwise_residual():
    E = 0.7
    psi = dy.h0_eigenfunction(E, P)
    x = np.linspace(-6, 6, 50)
    # H0 = -B x + i hbar d/dx acting on the closure
    res = -P.B * x * psi(x) + 1j * P.hbar * psi.derivative()(x) - E * psi(x)
    assert np.max(np.abs(res / psi(x))) < 1e-12
    assert np.max(np.abs(np.abs(psi(x)) - 1.0 / math.sqrt(2 * math.pi * P.hbar))) < 1e-14


def test_eigenfunction_delta_normalization_window():
    E = 0.4
    psi = dy.h0_eigenfunction(E, P)
    for L in (5.0, 10.0, 20.0):
        val, _ = _window_overlap(psi, psi, L)
        assert abs(val - L / (math.pi * P.hbar)) < 1e-10


def _window_overlap(f, g, L):
    from poincare_ext.wavefunctions import integrate_vec
    v = integrate_vec(lambda x: np.conj(f(x)) * g(x), -L, L)
    return v.real, v.imag


def test_closed_form_reduces_to_initial_data():
    c0 = dy.gaussian_spectral(0.3, 0.8)
    es = np.linspace(-4, 4, 9)
    assert np.max(np.abs(dy.c_closed_form(CS, es, CS.tau0, c0) - c0(es))) == 0.0


def test_closed_form_modulus_transport():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(30):
        E, tau = rng.uniform(-3, 3), rng.uniform(-2, 3)
        dE = dy.relativistic_energy(CS, tau) - dy.relativistic_energy(CS, CS.tau0)
        lhs = abs(dy.c_closed_form(CS, E, tau, c0))
        assert abs(lhs - abs(c0(E - dE))) < 1e-14


def test_eigenstate_evolution():
    phase, ef = dy.evolve_eigenstate(CS, 0.3, CS.tau0)
    assert phase == 1.0 and ef == 0.3
    rng = np.random.default_rng(2)
    for _ in range(30):
        E, tau = rng.uniform(-3, 3), rng.uniform(-2, 3)
        phase, ef = dy.evolve_eigenstate(CS, E, tau)
        assert abs(abs(phase) - 1.0) < 1e-14
        dE = dy.relativistic_energy(CS, tau) - dy.relativistic_energy(CS, CS.tau0)
        assert abs(ef - E - dE) < 1e-12


def test_transition_probability_indicator():
    assert dy.transition_probability(CS, 0.5, 0.5, CS.tau0) == 1
    tau = 1.7
    _, ef = dy.evolve_eigenstate(CS, 0.5, tau)
    assert dy.transition_probability(CS, ef, 0.5, tau) == 1
    assert dy.transition_probability(CS, ef + 1e-3, 0.5, tau) == 0


def test_total_energy_expectation_and_minimum():
    E = 0.0
    assert abs(dy.expectation_total_energy(CS, E, CS.tau0)
               - (dy.relativistic_energy(CS, CS.tau0) - E / 2)) < 1e-14
    tau_star, v_star = dy.total_energy_minimum(CS, E)
    assert tau_star == CS.tau0 - CS.ptilde_0 / P.B  # = 2 for ptilde0 = -2
    taus = np.linspace(-1, 5, 1201)
    vals = np.array([dy.expectation_total_energy(CS, E, t) for t in taus])
    assert abs(taus[np.argmin(vals)] - tau_star) <= taus[1] - taus[0]
    assert abs(np.min(vals) - v_star) < 1e-10
    assert v_star == 0.5 * CS.m + 0.5 * dy.relativistic_energy(CS, CS.tau0) - 0.5 * E


@pytest.mark.parametrize("B", (-3.0, -0.5, -1e-3, 1e-3, 0.7, 1e3))
def test_locate_minimum_finds_tau_star_unaided(B):
    # the convex expectation's minimum, from a bracket grown downhill from
    # tau0 and never told tau*; the final bracket holds tau* at these B
    cs = dy.ClassicalState(0.0, -2.0, 0.0, 1.0, ModelParams(B=B))
    tau, v, width = dy.locate_minimum(
        lambda t: dy.expectation_total_energy(cs, 0.0, t), cs.tau0)
    tau_star, v_star = dy.total_energy_minimum(cs, 0.0)
    assert abs(tau - tau_star) <= width <= 3e-8 * (1.0 + abs(tau)) * 2.0
    assert abs(v - v_star) <= 1e-13


def test_locate_minimum_without_an_upturn():
    # a function that keeps falling is not bracketed: width is inf
    tau, v, width = dy.locate_minimum(lambda t: -t, 0.0)
    assert width == math.inf and v == -tau and tau > 1e18


def test_monotone_when_force_aligned():
    cs = dy.ClassicalState(0.0, 1.0, 0.0, 1.0, P)  # sign(B) ptilde0 > 0
    taus = np.linspace(0.0, 6.0, 400)
    vals = [dy.expectation_total_energy(cs, 0.0, t) for t in taus]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_oracles_agree_with_closed_form():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    grid, c = dy.oracle_propagate(CS, c0, 2.0)
    cf = dy.c_closed_form(CS, grid, 2.0, c0)
    assert np.max(np.abs(cf - c)) < 1e-6
    assert abs(dy.spectral_norm(grid, c) - 1.0) < 1e-8


def test_oracle_parameter_sweep():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    for B, m in [(1.0, 0.5), (-1.0, 1.0), (2.0, 2.0), (-2.0, 0.5), (1.0, 2.0)]:
        cs = dy.ClassicalState(0.0, 0.7, 0.1, m, ModelParams(B=B))
        grid, c = dy.oracle_propagate(cs, c0, 1.6)
        cf = dy.c_closed_form(cs, grid, 1.6, c0)
        assert np.max(np.abs(cf - c)) < 1e-6
        assert abs(dy.spectral_norm(grid, c) - 1.0) < 1e-8


def test_oracle_kernel_memory_flat_in_grid():
    # oracle (a) builds its E-by-node kernel a block of E rows at a time,
    # so a grid four blocks long peaks near one block, not four
    cs = dy.ClassicalState(0.0, 0.7, 0.1, 1.0, P)
    c0 = dy.gaussian_spectral(0.0, 1.0)
    peaks = []
    for n in (dy._E_BLOCK, 4 * dy._E_BLOCK):
        grid = dy.default_e_grid(cs, c0, 1.6, n=n)
        tracemalloc.start()
        try:
            dy._project_oracle_a(cs, c0, 1.6, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def fixed_projection(cs, c0, tau, e_grid, panels=256):
    """Oracle (a) on one fixed composite rule, a kernel block at a time."""
    h, B = cs.params.hbar, cs.params.B
    psi, X, w = dy._position_packet(cs, c0, tau)
    x, wts = gauss_legendre(X - 14.0 * w, X + 14.0 * w, panels)
    v = wts * psi(x)
    out = np.concatenate([np.exp(1j * (np.outer(e, x) + 0.5 * B * x * x) / h) @ v
                          for e in np.array_split(e_grid, len(e_grid) // 200)])
    return np.exp(-1j * e_grid * (tau - cs.tau0) / h) * out \
        / math.sqrt(2.0 * math.pi * h)


@pytest.mark.parametrize("n", (400, 1600))
def test_oracle_a_matches_fixed_rule(n):
    # the 8 -> 16 panel ladder against 256 panels, over the suite's sweep
    c0 = dy.gaussian_spectral(0.0, 1.0)
    for B, m in [(1.0, 0.5), (-1.0, 1.0), (2.0, 2.0), (-2.0, 0.5), (1.0, 2.0)]:
        cs = dy.ClassicalState(0.0, 0.7, 0.1, m, ModelParams(B=B))
        grid = dy.default_e_grid(cs, c0, 1.6, n=n)
        gap = np.max(np.abs(dy._project_oracle_a(cs, c0, 1.6, grid)
                            - fixed_projection(cs, c0, 1.6, grid)))
        assert gap <= 1e-13, (B, m, gap)


def test_expectation_from_oracle_state():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    tau = 2.0
    grid, c = dy.oracle_propagate(CS, c0, tau)
    lhs = dy.expectation_from_grid(CS, tau, grid, c)
    assert abs(lhs - dy.expectation_total_energy(CS, c0.center, tau)) < 1e-6


def test_static_limit_keeps_amplitudes():
    # huge mass: the velocity coupling vanishes and c_E stays put
    cs = dy.ClassicalState(0.0, 0.5, 0.0, 1e8, P)
    c0 = dy.gaussian_spectral(0.0, 1.0)
    es = np.linspace(-5, 5, 11)
    assert np.max(np.abs(dy.c_closed_form(cs, es, 2.0, c0) - c0(es))) < 1e-6


def test_total_energy_operator_commutes_with_h0():
    h0 = dy.h0_operator(P)
    hc = dy.total_energy_operator(CS, 1.3)
    worst = 0.0
    for f in default_probes(4):
        from poincare_ext.wavefunctions import wf_sub
        comm = wf_sub(h0.apply(hc.apply(f)), hc.apply(h0.apply(f)))
        worst = max(worst, l2_diff(comm, wf_sub(f, f)) / norm(f))
    assert worst < 1e-10


def test_h0_is_minus_twice_potential_energy():
    # classically H0 = B q1: check at the coefficient level via comoments
    from poincare_ext.quantization import PhasePoint, comoments
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = PhasePoint(*rng.uniform(-3, 3, 2))
        u0 = comoments(s, P, 1.0).u[0]
        _, q1 = s.lightcone(P)
        assert abs(u0 - P.B * q1) < 1e-13


def test_spectral_amplitude_normalization():
    c0 = dy.gaussian_spectral(0.7, 1.3)
    assert abs(c0.l2_norm_sq() - 1.0) < 1e-10


def test_oracle_disagreement_guard():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    with pytest.raises(dy.OracleError):
        dy.oracle_propagate(CS, c0, 2.0, tol=1e-17)
