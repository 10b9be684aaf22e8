import inspect
import math
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamics_oracle as do
import quadrature_oracle as qo
from poincare_ext import model
from poincare_ext import dynamics as dy
from poincare_ext.group import ModelParams
from poincare_ext.quantization import PolynomialObservable, quantize
from probe_oracle import default_probes

P = ModelParams()
CS = dy.ClassicalState(q1_0=0.0, ptilde_0=-2.0, tau0=0.0, m=1.0, params=P)

#: the (b, m) pairs of the float dynamics oracle's sweep, which runs at
#: b times the report's B; at B = 1 they are its (B, m)
SWEEP = do.SWEEP

#: test_cli's SWEEP_B, and the B past them down to the least subnormal and
#: up to 1e300
SWEEP_B = [s * b for b in (1e-8, 1e-4, 1e-2, 10.0, 100.0, 1e4) for s in (1.0, -1.0)]
EDGE_B = [5e-324, 1e-310] + [s * b for b in (1e-20, 1e-13, 1e300) for s in (1.0, -1.0)]

#: report B the oracle is tested at: SWEEP_B, then the bench's B
DRIFT_B = SWEEP_B + [-3.0, -2.0, -1.3, -1.0, -0.7, -0.5, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0]


def velocity(cs, tau):
    """The classical velocity ptilde / E."""
    return dy.kinematical_momentum(cs, tau) / dy.relativistic_energy(cs, tau)


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
        assert abs((qp - qm) / (2 * h) - velocity(CS, tau)) < 1e-9


def test_trajectory_finite_at_subnormal_B():
    # E / B overflows here, and E(tau)/B - E(tau0)/B used to read inf - inf
    for B in (5e-324, 1e-310):
        for pt0, q10, tau0, tau in [(0.5, 0.3, 0.1, 2.0), (-1.2, 0.0, -1.0, 3.5),
                                    (0.0, 1.0, 0.0, -2.0)]:
            cs = dy.ClassicalState(q10, pt0, tau0, 1.3, ModelParams(B))
            q1 = dy.classical_trajectory(cs, tau)[1]
            v0 = velocity(cs, tau0)
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


def h0_operator(params):
    """H0 = -B qhat - phat; classically the comoment u0 = B q1."""
    return quantize(PolynomialObservable({(1, 0): -params.B, (0, 1): -1.0}), params)


def total_energy_operator(cs, tau):
    """E(tau) - H0/2; commutes with H0, so its eigenstates are shared."""
    p = cs.params
    return quantize(PolynomialObservable(
        {(0, 0): dy.relativistic_energy(cs, tau), (1, 0): p.B / 2.0, (0, 1): 0.5}), p)


def h0_eigenfunction(E, params):
    """<x|E> = (2 pi hbar)^(-1/2) exp[-(i/hbar)(E x + B x^2 / 2)].

    Not square-integrable; the width hint of 6 only scopes windowed
    quadrature against genuinely normalizable partners.
    """
    h, B = params.hbar, params.B
    amp = 1.0 / math.sqrt(2.0 * math.pi * h)
    return qo.WaveFunction(qo.exp_poly_tower([amp], [0.0, -1j * E / h, -0.5j * B / h]),
                           2, 0.0, 6.0)


def test_eigenfunction_pointwise_residual():
    E = 0.7
    psi = h0_eigenfunction(E, P)
    x = np.linspace(-6, 6, 50)
    # H0 = -B x + i hbar d/dx acting on the closure
    res = -P.B * x * psi(x) + 1j * P.hbar * psi.derivative()(x) - E * psi(x)
    assert np.max(np.abs(res / psi(x))) < 1e-12
    assert np.max(np.abs(np.abs(psi(x)) - 1.0 / math.sqrt(2 * math.pi * P.hbar))) < 1e-14


def test_eigenfunction_delta_normalization_window():
    E = 0.4
    psi = h0_eigenfunction(E, P)
    for L in (5.0, 10.0, 20.0):
        val, _ = _window_overlap(psi, psi, L)
        assert abs(val - L / (math.pi * P.hbar)) < 1e-10


def _window_overlap(f, g, L):
    v = qo.integrate_vec(lambda x: np.conj(f(x)) * g(x), -L, L)
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


def test_total_energy_expectation_and_minimum():
    E = 0.0
    assert abs(do.expectation_total_energy(CS, E, CS.tau0)
               - (dy.relativistic_energy(CS, CS.tau0) - E / 2)) < 1e-14
    tau_star, v_star = do.total_energy_minimum(CS, E)
    assert tau_star == CS.tau0 - CS.ptilde_0 / P.B  # = 2 for ptilde0 = -2
    taus = np.linspace(-1, 5, 1201)
    vals = np.array([do.expectation_total_energy(CS, E, t) for t in taus])
    assert abs(taus[np.argmin(vals)] - tau_star) <= taus[1] - taus[0]
    assert abs(np.min(vals) - v_star) < 1e-10
    assert v_star == 0.5 * CS.m + 0.5 * dy.relativistic_energy(CS, CS.tau0) - 0.5 * E


@pytest.mark.parametrize("B", (-3.0, -0.5, -1e-3, 1e-3, 0.7, 1e3))
def test_locate_minimum_finds_tau_star_unaided(B):
    # the convex expectation's minimum, from a bracket grown downhill from
    # tau0 and never told tau*; the final bracket holds tau* at these B
    cs = dy.ClassicalState(0.0, -2.0, 0.0, 1.0, ModelParams(B=B))
    tau, v, width = do.locate_minimum(
        lambda t: do.expectation_total_energy(cs, 0.0, t), cs.tau0)
    tau_star, v_star = do.total_energy_minimum(cs, 0.0)
    assert abs(tau - tau_star) <= width <= 3e-8 * (1.0 + abs(tau)) * 2.0
    assert abs(v - v_star) <= 1e-13


def test_locate_minimum_without_an_upturn():
    # a function that keeps falling is not bracketed: width is inf
    tau, v, width = do.locate_minimum(lambda t: -t, 0.0)
    assert width == math.inf and v == -tau and tau > 1e18


def test_monotone_when_force_aligned():
    cs = dy.ClassicalState(0.0, 1.0, 0.0, 1.0, P)  # sign(B) ptilde0 > 0
    taus = np.linspace(0.0, 6.0, 400)
    vals = [do.expectation_total_energy(cs, 0.0, t) for t in taus]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_oracles_agree_with_closed_form():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    grid, c = dy.oracle_propagate(CS, c0, 2.0)
    cf = dy.c_closed_form(CS, grid, 2.0, c0)
    assert np.max(np.abs(cf - c)) < 1e-6
    assert abs(dy.spectral_norm(grid, c) - 1.0) < 1e-8


def test_oracle_parameter_sweep():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    for B, m in SWEEP:
        cs = dy.ClassicalState(0.0, 0.7, 0.1, m, ModelParams(B=B))
        grid, c = dy.oracle_propagate(cs, c0, 1.6)
        cf = dy.c_closed_form(cs, grid, 1.6, c0)
        assert np.max(np.abs(cf - c)) < 1e-6
        assert abs(dy.spectral_norm(grid, c) - 1.0) < 1e-8


def peak_memory(fn, *args):
    """Peak traced allocation, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_kernel_memory_flat_in_grid():
    # the quadrature oracle builds its exponential tables a block of E rows
    # at a time, so a grid four blocks long peaks near one block, not four
    cs = dy.ClassicalState(0.0, 0.7, 0.1, 1.0, P)
    c0 = dy.gaussian_spectral(0.0, 1.0)
    peaks = [peak_memory(qo.project_oracle_a, cs, c0, 1.6,
                         dy.default_e_grid(cs, c0, 1.6, n=n))
             for n in (qo.E_BLOCK, 4 * qo.E_BLOCK)]
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_closed_form_projection_memory_linear_in_grid():
    # the exact Gaussian integral holds a few arrays of the grid's length
    # (about 64 bytes per E row measured) and no E-by-node array, which on
    # the smallest rule, 8 panels of 32 nodes, would be 4096 bytes a row;
    # each added row may cost 16 complex values at most
    cs = dy.ClassicalState(0.0, 0.7, 0.1, 1.0, P)
    c0 = dy.gaussian_spectral(0.0, 1.0)
    n = 1600
    peaks = [peak_memory(dy._project_oracle_a, cs, c0, 1.6,
                         dy.default_e_grid(cs, c0, 1.6, n=k * n))
             for k in (1, 4)]
    assert peaks[1] - peaks[0] <= 256 * 3 * n, peaks


def fixed_projection(cs, c0, tau, e_grid, panels=256):
    """Oracle (a) on one fixed composite rule, a kernel block at a time."""
    h, B = cs.params.hbar, cs.params.B
    psi, X, w = qo.position_packet(cs, c0, tau)
    x, wts = qo.gauss_legendre(X - 14.0 * w, X + 14.0 * w, panels)
    v = wts * psi(x)
    out = np.concatenate([np.exp(1j * (np.outer(e, x) + 0.5 * B * x * x) / h) @ v
                          for e in np.array_split(e_grid, len(e_grid) // 200)])
    return np.exp(-1j * e_grid * (tau - cs.tau0) / h) * out \
        / math.sqrt(2.0 * math.pi * h)


@pytest.mark.parametrize("n", (400, 1600))
def test_oracle_a_matches_fixed_rule(n):
    # the quadrature oracle's 8 -> 16 panel ladder against 256 panels, over
    # the suite's sweep
    c0 = dy.gaussian_spectral(0.0, 1.0)
    for B, m in SWEEP:
        cs = dy.ClassicalState(0.0, 0.7, 0.1, m, ModelParams(B=B))
        grid = dy.default_e_grid(cs, c0, 1.6, n=n)
        gap = np.max(np.abs(qo.project_oracle_a(cs, c0, 1.6, grid)
                            - fixed_projection(cs, c0, 1.6, grid)))
        assert gap <= 1e-13, (B, m, gap)


@pytest.mark.parametrize("hbar", (0.3, 1.0, 3.0))
@pytest.mark.parametrize("n", (400, 1600))
def test_closed_form_projection_matches_quadrature(n, hbar):
    # oracle (a) as the exact Gaussian integral against its Fourier
    # quadrature over the truncated packet (measured gap at most 3.6e-15)
    c0 = dy.gaussian_spectral(0.0, 1.0)
    for B, m in SWEEP:
        cs = dy.ClassicalState(0.0, 0.7, 0.1, m, ModelParams(B=B, hbar=hbar))
        grid = dy.default_e_grid(cs, c0, 1.6, n=n)
        gap = np.max(np.abs(dy._project_oracle_a(cs, c0, 1.6, grid)
                            - qo.project_oracle_a(cs, c0, 1.6, grid)))
        assert gap <= 1e-13, (B, m, gap)


@pytest.mark.parametrize("B, m", SWEEP)
def test_planted_B_I2_sign_fails_the_dual_oracle(B, m, monkeypatch):
    # a planted defect: the sign of the B I2 phase term flipped in the
    # closed form (I2 enters it there alone), which oracle (b) must catch
    real = dy._drift

    def flipped(cs, tau):
        X, I2 = real(cs, tau)
        return X, -I2

    monkeypatch.setattr(dy, "_drift", flipped)
    cs = dy.ClassicalState(0.0, 0.7, 0.1, m, ModelParams(B=B))
    with pytest.raises(dy.OracleError, match="oracle disagreement"):
        dy.oracle_propagate(cs, dy.gaussian_spectral(0.0, 1.0), 1.6)


def mutated(fn, old, new):
    """fn compiled again from its source with the one occurrence of old
    replaced by new: a planted defect, resolving names where fn does."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, old
    namespace = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    return namespace[fn.__name__]


#: model.drift_integrals with the sign of W's sinh 2c term flipped
FLIPPED_SINH_2C = ("+ m2_sinh_2c * sinh_b", "- m2_sinh_2c * sinh_b")


def direct_sinh_defect(a):
    """(sinh a - a) / a^2 as the plain quotient, without the small-a series."""
    return (math.sinh(a) - a) / (a * a)


def drift_gap(cs, tau, drift=model.drift_integrals):
    """Largest gap of drift's (D, W) to their quadrature, or None where the
    ladder does not converge.

    The gaps are relative to |T| max|v| and T^2 max|v| / 2, which bound
    the integrals of |v| and |u v|: where v changes sign, D and W are
    smaller than the terms they are summed from.
    """
    try:
        dq, wq = qo.drift_by_quadrature(cs, tau)
    except RuntimeError as exc:
        assert "did not converge" in str(exc)
        return None
    D, W, _ = drift(cs, tau)
    T = tau - cs.tau0
    vmax = max(abs(velocity(cs, cs.tau0)), abs(velocity(cs, tau)))
    return max(abs(D - dq) / (abs(T) * vmax), abs(W - wq) / (0.5 * T * T * vmax))


def sweep_gaps(B, drift=model.drift_integrals):
    """drift_gap at each pair of the dynamics suite's sweep at report B."""
    return [drift_gap(dy.ClassicalState(0.0, 0.7, 0.1, m, ModelParams(B * b)),
                      1.6, drift) for b, m in SWEEP]


@pytest.mark.parametrize("B", DRIFT_B)
def test_drift_integrals_match_quadrature(B):
    # measured at most 7.9e-16 of the scale (1.3e-15 on D and 6.1e-14 on W
    # relative to |D| and |W| themselves, where W nearly cancels at
    # B = -1.4); the ladder does not converge at B = -1e4 and -2e4 with
    # m = 0.5
    gaps = [g for g in sweep_gaps(B) if g is not None]
    assert gaps and max(gaps) <= 1e-13, gaps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p0=st.floats(-5.0, 5.0), m=st.floats(0.2, 5.0),
       T=st.floats(0.01, 3.0), sign_t=st.sampled_from((1.0, -1.0)),
       log_b=st.floats(-12.0, 3.0), sign_b=st.sampled_from((1.0, -1.0)))
def test_drift_integrals_match_quadrature_everywhere(p0, m, T, sign_t, log_b,
                                                     sign_b):
    cs = dy.ClassicalState(0.0, p0, 0.3, m, ModelParams(sign_b * 10.0 ** log_b))
    gap = drift_gap(cs, 0.3 + sign_t * T)
    assert gap is None or gap <= 1e-13, gap


def test_planted_sinh_2c_sign_fails_the_quadrature():
    # W moves by twice its sinh 2c term: measured at least 0.13 of the scale
    drift = mutated(model.drift_integrals, *FLIPPED_SINH_2C)
    for B in DRIFT_B:
        gaps = [g for g in sweep_gaps(B, drift) if g is not None]
        assert gaps and min(gaps) > 1e-13, (B, gaps)


@pytest.mark.parametrize("B", (1e-8, -1e-8, 1e-4, -1e-4))
def test_planted_direct_quotient_fails_the_quadrature(B, monkeypatch):
    # the plain quotient loses about eps / delta^2, and delta is about
    # B T / E: measured 6e-9 to 1e-8 at |B| = 1e-8 and 2e-12 at 1e-4
    monkeypatch.setattr(model, "_sinh_defect", direct_sinh_defect)
    assert max(sweep_gaps(B)) > 1e-13


@pytest.mark.parametrize("B", (1.0, -1.3, 1e-4))
def test_planted_W_defect_fails_closed_vs_oracle_alone(B, monkeypatch):
    # a wrong W moves both oracles' phases alike, so their guard agrees;
    # the closed form does not use W, so the float closed_vs_oracle sees it
    monkeypatch.setattr(dy, "drift_integrals",
                        mutated(model.drift_integrals, *FLIPPED_SINH_2C))
    report = do.suite_dynamics(ModelParams(B))
    assert report["closed_vs_oracle"] > 1e-6 and not report["pass"], report


def test_planted_energy_difference_fails_closed_vs_oracle(monkeypatch):
    # D back in the form (E(tau) - E(tau0)) / B, a difference over B: at
    # B = 1e-10 the closed form's phase loses about eps E^2 / B (measured
    # 1.7e-6), while B D with D from model reads 3.1e-16
    p = ModelParams(1e-10)
    assert do.suite_dynamics(p)["closed_vs_oracle"] <= 1e-15
    monkeypatch.setattr(dy, "_deltas", mutated(
        dy._deltas, "D, _, delta_b = drift_integrals(cs, tau)",
        "_, _, delta_b = drift_integrals(cs, tau); D = (relativistic_energy("
        "cs, tau) - relativistic_energy(cs, cs.tau0)) / cs.params.B"))
    assert do.suite_dynamics(p)["closed_vs_oracle"] > 1e-6


#: W's sinh 2c taken as sinh(theta0 - theta1): in the decided rapidity
#: form, and in model.drift_integrals' momenta, m^2 sinh 2c = p0 E1 + E0 p1
#: taken as p0 E1 - E0 p1 (its branch at p0 p1 > 0, which the sweep takes
#: at every B)
RAPIDITY_W_DEFECT = ("(theta0 + theta1).sinh()", "(theta0 - theta1).sinh()")
FLOAT_W_DEFECT = ("m2_sinh_2c = p0 * e1 + e0 * p1", "m2_sinh_2c = p0 * e1 - e0 * p1")


@pytest.mark.parametrize("B", (1e-8, -0.5, 1.3, -3.0, 1e4))
def test_planted_sinh_2c_defect_fails_table_and_oracle(B, monkeypatch):
    assert dy.decided_identities.__wrapped__()["closed_vs_oracle"] == 0.0
    monkeypatch.setattr(dy, "_rapidity_forms", mutated(dy._rapidity_forms,
                                                       *RAPIDITY_W_DEFECT))
    assert dy.decided_identities.__wrapped__()["closed_vs_oracle"] == 1.0
    monkeypatch.setattr(dy, "drift_integrals",
                        mutated(model.drift_integrals, *FLOAT_W_DEFECT))
    rows = do.sweep(ModelParams(B))
    assert max(gap / bound for (gap, bound), _, _ in rows) > 1.0, rows


#: the closed form's phase with the wrong sign, in the helper that
#: c_closed_form and the decided table both run
FLIPPED_PHASE = ("D * (0.5 * B * D - E) + phi", "-(D * (0.5 * B * D - E) + phi)")


@pytest.mark.parametrize("B", (1e-8, -0.5, 1.3, -3.0, 1e4))
def test_planted_closed_form_phase_sign_fails_table_and_oracle(B, monkeypatch):
    # the float oracle sees it at every B, and the table reads it past its
    # memo, as it runs the same _closed_phase: the flipped exponent plus
    # the oracle's is twice the exponent, which reads 2.0
    assert dy.decided_identities.__wrapped__()["closed_vs_oracle"] == 0.0
    monkeypatch.setattr(dy, "_closed_phase", mutated(dy._closed_phase,
                                                     *FLIPPED_PHASE))
    assert dy.decided_identities.__wrapped__()["closed_vs_oracle"] == 2.0
    rows = do.sweep(ModelParams(B))
    assert min(gap / bound for (gap, bound), _, _ in rows) > 1.0, rows


@pytest.mark.parametrize("B", (1e-8, -0.5, 1.3, -3.0, 1e4))
def test_planted_exponent_sign_fails_the_oracle_alone(B, monkeypatch):
    # c_closed_form's exp(i phase / hbar) taken as exp(-i phase / hbar): the
    # float oracle sees it at every B.  The table runs the phase helpers,
    # not the exponential around them, so it still reads 0.0
    monkeypatch.setattr(dy, "c_closed_form", mutated(
        dy.c_closed_form, "np.exp(1j * phase / h)", "np.exp(-1j * phase / h)"))
    rows = do.sweep(ModelParams(B))
    assert min(gap / bound for (gap, bound), _, _ in rows) > 1.0, rows
    assert set(dy.decided_identities.__wrapped__().values()) == {0.0}


@pytest.mark.parametrize("helper, old, new", (
    ("_phi", "- e1 * T", "+ e1 * T"),
    ("_drift_moments", "0.5 * T * T - W", "0.5 * T * T + W"),
    ("_phase_a", "- X * T + I2", "+ X * T + I2"),
    ("_phase_b", "+ B * W)", "- B * W)")))
def test_planted_phase_helper_defect_fails_the_table(helper, old, new,
                                                      monkeypatch):
    # each helper the float functions share with the table: a sign flipped
    # in one of them moves closed_vs_oracle off 0.0
    monkeypatch.setattr(dy, helper, mutated(getattr(dy, helper), old, new))
    assert dy.decided_identities.__wrapped__()["closed_vs_oracle"] > 0.0


@pytest.mark.parametrize("B", SWEEP_B + EDGE_B)
def test_dynamics_oracle_holds_its_bounds_at_every_sweep_and_edge_B(B):
    # the closed form against oracle (a), the trapezoid norm and the grid's
    # energy expectation, each within the bound dynamics_oracle states from
    # eps, |B| and the sweep's ranges before it runs.  At |B| = 1e300 the
    # packet, moved by B D, is narrower than the float spacing: no float
    # grid holds it, and the decided table alone speaks there
    p = ModelParams(B)
    if abs(B) > 1e299:
        with pytest.raises(ValueError, match="does not resolve the packet"):
            do.sweep(p)
        return
    for row in do.sweep(p):
        for gap, bound in row:
            assert gap <= bound, (row, B)


@pytest.mark.parametrize("B", SWEEP_B + EDGE_B)
def test_minimum_search_holds_its_bounds_at_every_sweep_and_edge_B(B):
    # the golden-section search, never told tau* = 2/B, within the bounds
    # dynamics_oracle.minimum_bounds states from eps and |B|.  Where its
    # first unit step moves the float expectation by no more than its
    # round-off (|B| below about 1e-14), the search cannot tell downhill
    # from uphill: the float oracle has no say there, only the table
    p = ModelParams(B)
    cs = dy.ClassicalState(0.0, -2.0, 0.0, 1.0, p)
    f0, f1 = (do.expectation_total_energy(cs, 0.0, t) for t in (0.0, 1.0))
    if abs(f1 - f0) <= 8.0 * do.EPS * abs(f0):
        assert abs(B) < 1e-14
        return
    tau, v, width, tau_star, v_star = do.locate(p)
    tau_tol, value_tol = do.minimum_bounds(cs, v_star, width)
    assert abs(tau - tau_star) <= tau_tol and abs(v - v_star) <= value_tol, \
        (tau, tau_star, tau_tol, v, v_star, value_tol)


def test_expectation_from_oracle_state():
    c0 = dy.gaussian_spectral(0.0, 1.0)
    tau = 2.0
    grid, c = dy.oracle_propagate(CS, c0, tau)
    lhs = do.expectation_from_grid(CS, tau, grid, c)
    assert abs(lhs - do.expectation_total_energy(CS, c0.center, tau)) < 1e-6


def test_static_limit_keeps_amplitudes():
    # huge mass: the velocity coupling vanishes and c_E stays put
    cs = dy.ClassicalState(0.0, 0.5, 0.0, 1e8, P)
    c0 = dy.gaussian_spectral(0.0, 1.0)
    es = np.linspace(-5, 5, 11)
    assert np.max(np.abs(dy.c_closed_form(cs, es, 2.0, c0) - c0(es))) < 1e-6


def test_total_energy_operator_commutes_with_h0():
    h0 = h0_operator(P)
    hc = total_energy_operator(CS, 1.3)
    worst = 0.0
    for f in map(qo.tower, default_probes(4)):
        comm = qo.wf_sub(qo.operator_apply(h0, qo.operator_apply(hc, f)),
                         qo.operator_apply(hc, qo.operator_apply(h0, f)))
        worst = max(worst, qo.l2_diff(comm, qo.wf_sub(f, f)) / qo.norm(f))
    assert worst < 1e-10


def test_h0_is_minus_twice_potential_energy():
    # classically H0 = B q1: check at the coefficient level via comoments
    from sweep_oracle import PhasePoint, comoments
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = PhasePoint(*rng.uniform(-3, 3, 2))
        u0 = comoments(s, P, 1.0).u[0]
        q1 = -s.q - s.p / P.B  # the light-cone q1, with q0 = -p / B
        assert abs(u0 - P.B * q1) < 1e-13


def test_spectral_amplitude_normalization():
    c0 = dy.gaussian_spectral(0.7, 1.3)
    assert abs(qo.l2_norm_sq(c0) - 1.0) < 1e-10


def test_oracle_disagreement_guard(monkeypatch):
    # oracle (b) moved by twice the guard's tolerance at every E
    c0 = dy.gaussian_spectral(0.0, 1.0)
    real = dy._transport_oracle_b
    monkeypatch.setattr(dy, "_transport_oracle_b",
                        lambda *args: real(*args) + 2.0 * dy.ORACLE_TOL)
    with pytest.raises(dy.OracleError, match="exceeds 1.0e-08"):
        dy.oracle_propagate(CS, c0, 2.0)


def test_oracle_guard_rejects_a_nan_gap(monkeypatch):
    # nan > tol is false, so a guard written as gap > tol lets a nan through
    c0 = dy.gaussian_spectral(0.0, 1.0)
    real = dy._project_oracle_a

    def nan_at_first_E(*args):
        c = real(*args)
        c[0] = math.nan
        return c

    monkeypatch.setattr(dy, "_project_oracle_a", nan_at_first_E)
    with pytest.raises(dy.OracleError, match="nan"):
        dy.oracle_propagate(CS, c0, 1.0, np.linspace(-3.0, 3.0, 7))
