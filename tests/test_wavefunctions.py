import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from poincare_ext import wavefunctions as wfm
import quadrature_oracle as qo
from quadrature_oracle import integrate_fourier, integrate_stack, wf_stack


def test_hermite_orthonormality():
    fs = [qo.hermite_wf(k) for k in range(5)]
    for i in range(5):
        for j in range(5):
            v = qo.inner(fs[i], fs[j])
            assert abs(v - (1.0 if i == j else 0.0)) < 1e-12


def test_analytic_derivative_chain():
    f = qo.hermite_wf(0)
    x = np.linspace(-5, 5, 41)
    d1 = f.derivative()
    assert np.max(np.abs(d1(x) + x * f(x))) < 1e-13
    d2 = d1.derivative()
    assert np.max(np.abs(d2(x) - (x * x - 1.0) * f(x))) < 1e-12


def test_stencil_fallback_and_gate():
    f = qo.hermite_wf(2)
    bare = qo.WaveFunction(f.fn, 0, f.center, f.width)
    with pytest.raises(ValueError):
        bare.derivative()


def test_affine_substitution():
    f = qo.hermite_wf(0)
    g = qo.wf_affine(f, 2.0, 1.0)
    x = np.linspace(-2, 2, 9)
    assert np.max(np.abs(g(x) - f(2 * x + 1))) == 0.0
    assert abs(qo.norm(g) - 1.0 / math.sqrt(2.0)) < 1e-12
    # chain rule through the derivative tower
    assert np.max(np.abs(g.derivative()(x) - 2.0 * f.derivative()(2 * x + 1))) < 1e-14


def test_polynomial_multiplication_leibniz():
    f = qo.hermite_wf(1)
    m = qo.wf_mul(f, qo.exp_poly_tower([0.5, -1.0, 2.0]), f.depth)
    x = np.linspace(-3, 3, 21)
    p = 0.5 - x + 2 * x * x
    dp = -1.0 + 4 * x
    assert np.max(np.abs(m(x) - p * f(x))) < 1e-14
    d = m.derivative()
    assert np.max(np.abs(d(x) - (dp * f(x) + p * f.derivative()(x)))) < 1e-13


def test_scale_and_sub():
    f, g = qo.hermite_wf(0), qo.hermite_wf(2)
    h = qo.wf_sub(qo.wf_scale(f, 2.0), g)
    assert abs(qo.norm(h) ** 2 - 5.0) < 1e-11


def test_oscillatory_integral():
    # Fourier transform of the Gaussian probe: exact closed form
    f = qo.hermite_wf(0)
    k = 7.3
    g = qo.wf_mul(f, lambda x, n: (1j * k) ** n * np.exp(1j * k * x), 1)
    val = qo.inner(f, g)
    assert abs(val - math.exp(-k * k / 4.0)) < 1e-12


def test_integrate_vec_convergence_guard():
    with pytest.raises(RuntimeError):
        # genuinely divergent oscillation density never converges
        qo.integrate_vec(lambda x: np.sin(1e6 * x * x), 0.0, 30.0,
                          rtol=1e-13, atol=0.0, max_panels=64)


def test_l2_diff():
    f, g = qo.hermite_wf(0), qo.hermite_wf(1)
    assert qo.l2_diff(f, f) < 1e-13
    assert abs(qo.l2_diff(f, g) - math.sqrt(2.0)) < 1e-11


def test_gauss_legendre_rule():
    lo, hi, panels = -1.5, 2.5, 5
    x, w = qo.gauss_legendre(lo, hi, panels)
    assert x.shape == w.shape == (panels * 32,)
    assert math.isclose(w.sum(), hi - lo, rel_tol=1e-14)
    # 32 nodes per panel integrate degree 63 exactly; the power 63 scales
    # the node round-off, so it is about 64 eps relative to the integral of
    # |x|^63 over the panel
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1], edges[1:]
    got = (w * x ** 63).reshape(panels, 32).sum(axis=1)
    exact = (b ** 64 - a ** 64) / 64.0
    scale = np.maximum(np.abs(a), np.abs(b)) ** 64 / 64.0
    assert np.max(np.abs(got - exact) / scale) < 1e-13


def one_rule(monkeypatch, x, w=None):
    """Make every level of the quadrature ladder use the nodes x."""
    w = np.ones_like(x) if w is None else w
    monkeypatch.setattr(qo, "gauss_legendre", lambda lo, hi, n: (x, w))


@pytest.mark.parametrize("panels", (8, 16, 256))
def test_integrate_fourier_matches_dense_sum(panels, monkeypatch):
    # the panel contraction at one level against one exp per (k, node) in
    # the plain weighted sum, on random windows; the factoring adds a few
    # eps (1 + |k| max|x|) of round-off relative to sum |w f|
    rng = np.random.default_rng(panels)
    eps = np.finfo(float).eps
    for _ in range(20):
        centre, half = rng.uniform(-30.0, 30.0), rng.uniform(0.01, 20.0)
        x, w = qo.gauss_legendre(centre - half, centre + half, panels)
        k = rng.uniform(-40.0, 40.0, 50)

        def f(x):
            return np.exp(-((x - centre) / half) ** 2 + 0.7j * x)

        one_rule(monkeypatch, x, w)
        got = integrate_fourier(k, f, centre - half, centre + half)
        ref = np.sum(w * f(x) * np.exp(1j * np.outer(k, x)), axis=-1)
        scale = eps * (1.0 + np.abs(k) * np.max(np.abs(x))) \
            * np.sum(np.abs(w * f(x)))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref) / scale) <= 16.0


@pytest.mark.parametrize("x", (
    np.linspace(0.0, 1.0, 64) ** 2,                 # panels not shifts
    np.linspace(0.0, 1.0, 48),                      # not whole panels
    np.empty(0),
    qo.gauss_legendre(0.0, 1.0, 4)[0].reshape(4, 32),   # not 1-D
    np.concatenate([qo.gauss_legendre(0.0, 1.0, 2)[0],
                    qo.gauss_legendre(0.0, 2.0, 2)[0]]),  # two rules
), ids=("squares", "partial-panel", "empty", "2-d", "two-rules"))
def test_integrate_fourier_rejects_nodes_of_no_rule(x, monkeypatch):
    one_rule(monkeypatch, x)
    with pytest.raises(ValueError, match="integrate_fourier"):
        integrate_fourier(np.ones(3), np.cos, 0.0, 1.0)


#: (Hermite index, center, width, depth) of one stack member
MEMBER = st.tuples(st.integers(0, 5), st.floats(-3.0, 3.0),
                   st.floats(0.25, 4.0), st.integers(0, 4))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(members=st.lists(MEMBER, min_size=1, max_size=4))
def test_wf_stack_members_are_the_functions_alone(members):
    fs = [qo.hermite_wf(k, depth=d, center=c, width=w) for k, c, w, d in members]
    stack = wf_stack(fs)
    assert stack.depth == min(f.depth for f in fs)
    lo = min(f.interval()[0] for f in fs)
    hi = max(f.interval()[1] for f in fs)
    assert stack.center == 0.5 * (lo + hi) and stack.width == (hi - lo) / 24.0
    assert np.allclose(stack.interval(), (lo, hi), rtol=0.0, atol=1e-12 * (hi - lo))
    x = np.linspace(lo, hi, 33)
    rows = x + np.arange(len(fs))[:, None] * 0.1  # member k at its own row
    level, alone = stack, fs
    for _ in range(stack.depth + 1):
        assert np.array_equal(level(x), np.stack([f(x) for f in alone]))
        assert np.array_equal(level(rows), np.stack([f(r) for f, r in zip(alone, rows)]))
        if level.depth:
            level, alone = level.derivative(), [f.derivative() for f in alone]


def test_wf_stack_shared_between_threads():
    # threads that share one stack and evaluate it at different nodes each
    # get their own values
    fs = [qo.hermite_wf(k) for k in range(3)]
    stack = wf_stack(fs)
    xs = [np.linspace(-3.0, 3.0, 64) + 0.01 * i for i in range(4)]
    expect = [np.stack([f(x) for f in fs]) for x in xs]
    wrong = []

    def work(i):
        for _ in range(300):
            if not np.array_equal(stack(xs[i]), expect[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong


def test_wf_stack_of_nothing_is_a_named_error():
    with pytest.raises(ValueError, match="at least one"):
        wf_stack([])


def test_integrate_stack_sums_each_dtype_apart():
    # a real integrand summed as complex rounds differently, so the real and
    # the complex group must match their own integrate_vec calls
    fs = [qo.hermite_wf(k) for k in range(3)]
    stack = wf_stack(fs)
    g = qo.wf_mul(fs[1], lambda x, k: (0.7j) ** k * np.exp(0.7j * x), 1)
    groups = [lambda x: [np.abs(stack.fn(x, 0)) ** 2],
              lambda x: [np.conj(g.fn(x, 0)) * stack.fn(x, 0)[0]],
              lambda x: []]

    real, cplx, empty = integrate_stack(groups, stack, g)
    lo, hi = qo._window(stack, g)
    assert real.dtype == float and real.shape == (1, 3)
    assert np.array_equal(real, qo.integrate_vec(
        lambda x: np.abs(stack.fn(x, 0))[None] ** 2, lo, hi))
    assert cplx.dtype == complex and cplx.shape == (1,)
    assert cplx[0] == qo.inner(g, fs[0])
    assert empty.shape == (0,)


def test_poly_multiplier_batch_columns_and_polyder():
    rng = np.random.default_rng(3)
    x = np.linspace(-3.0, 3.0, 13)
    for n in (1, 2, 3, 5):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tower = qo.exp_poly_tower(c)
        for k in range(n + 1):
            assert np.array_equal(tower(x, k) + 0 * x,
                                  P.polyval(x, P.polyder(c, k)))
    # one batch of three polynomials against each polynomial alone
    cols = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    f = qo.hermite_wf(2)
    batch = qo.wf_mul(f, qo.exp_poly_tower(tuple(c[:, None] for c in cols)), f.depth)
    level = batch
    singles = [qo.wf_mul(f, qo.exp_poly_tower(cols[:, k]), f.depth) for k in range(4)]
    for _ in range(f.depth + 1):
        assert np.array_equal(level(x), np.stack([s(x) for s in singles]))
        if level.depth:
            level, singles = level.derivative(), [s.derivative() for s in singles]


def _tower_reference(r, q, k):
    """r_k of the k-th derivative r_k exp(q), by numpy.polynomial."""
    for _ in range(k):
        r = P.polyadd(P.polyder(r), P.polymul(P.polyder(q), r))
    return r


def test_exp_poly_tower_matches_numpy_polynomial():
    rng = np.random.default_rng(11)
    x = np.linspace(-1.5, 1.5, 31)
    for _ in range(20):
        r, q = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for n in rng.integers(1, 5, size=2))
        tower = qo.exp_poly_tower(r, q)
        for k in range(5):
            ref = P.polyval(x, _tower_reference(r, q, k)) * np.exp(P.polyval(x, q))
            assert np.allclose(tower(x, k), ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_exp_poly_tower_batch_columns_are_the_members_alone():
    rng = np.random.default_rng(12)
    x = np.linspace(-1.5, 1.5, 31)
    r = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    q = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    batch = qo.exp_poly_tower(list(r[:, :, None]), list(q[:, :, None]))
    singles = [qo.exp_poly_tower(r[:, m], q[:, m]) for m in range(5)]
    # numpy rounds a complex product of arrays apart from one of scalars,
    # so the coefficient products agree to rounding, not bit for bit
    for k in range(5):
        alone = np.stack([s(x, k) for s in singles])
        assert np.allclose(batch(x, k), alone, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(alone)))


def test_non_finite_integral_fails_at_the_first_level():
    calls = []

    def fn(x):
        calls.append(x.shape)
        vals = np.exp(-x * x)
        vals[:3] = np.nan  # three bad members of 1000
        return vals

    lo = np.linspace(-5.0, -1.0, 1000)[:, None]
    with pytest.raises(RuntimeError) as info:
        qo.integrate_vec(fn, lo, lo + 7.0)
    assert len(calls) == 1
    msg = str(info.value)
    assert "3 of 1000 integrals are not finite on [-5, 6]" in msg and len(msg) < 100


def test_family_a_at_subnormal_B_fails_within_one_level(monkeypatch):
    from poincare_ext import irreps as ir
    from poincare_ext.group import ModelParams

    levels = []
    rule = qo.gauss_legendre

    def counted(lo, hi, panels):
        levels.append(panels)
        return rule(lo, hi, panels)

    monkeypatch.setattr(qo, "gauss_legendre", counted)
    # c2 / (2 B z3) overflows, and the operator's coefficients say so
    # before any quadrature runs; the decided identities hold there
    for B in (5e-324, 1e-310):
        rep = ir.RepParams("A", ModelParams(B), c2=1.0, z3=-1.0)
        error = {"error": "operator phase coefficient c0 is not finite"}
        assert ir.rep_suite(rep, trials=200, seed=42) == {
            "family": "A", "homomorphism": error, "unitarity": error,
            "commutators": 0.0, "casimir": 0.0}
    assert levels == []


# ---------------------------------------------------------------------------
# the probe record: values by value, the Hermite coefficients exact


def test_hermite_coefficients_are_herm2poly_bit_for_bit():
    # the exact integer recurrence against numpy's float one at every index
    # the CLI accepts, and the normalised probe against the oracle's
    for k in range(wfm.HERMITE_MAX + 1):
        exact = wfm.hermite_coefficients(k)
        assert all(isinstance(c, int) for c in exact)
        ref = np.polynomial.hermite.herm2poly([0.0] * k + [1.0])
        assert np.array_equal(np.array(exact, dtype=float), ref)
        probe, wf = wfm.hermite_probe(k), qo.hermite_wf(k)
        assert probe.poly.dtype == wf.poly.dtype and np.array_equal(probe.poly, wf.poly)


def test_probe_values_are_the_tower_values():
    x = np.linspace(-6.0, 6.0, 97)
    rows = np.stack([x, x + 0.25])  # a batch of node rows
    for k in range(wfm.HERMITE_MAX + 1):
        probe, wf = wfm.hermite_probe(k), qo.hermite_wf(k)
        assert np.array_equal(probe(x), wf(x)) and np.array_equal(probe(rows), wf(rows))
        assert wfm.WINDOW == wf.interval()
    rng = np.random.default_rng(4)
    c = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    probe = wfm.Probe(c)
    assert probe.poly.dtype == complex
    assert np.array_equal(probe(x), qo.tower(probe)(x))
    assert wfm.Probe([1, 2]).poly.dtype == float  # real stays real


def _recurrence(k, x):
    """h_0 .. h_k at x by the normalised three-term recurrence (DLMF 18.9.1)."""
    hs = [np.pi ** -0.25 * np.exp(-0.5 * x * x)]
    hs.append(math.sqrt(2.0) * x * hs[0])
    for n in range(1, k):
        hs.append(math.sqrt(2.0 / (n + 1)) * x * hs[n] - math.sqrt(n / (n + 1)) * hs[n - 1])
    return hs


def test_hermite_max_is_the_last_index_within_1e_12():
    # the monomial form against the recurrence, relative to max |h_k| on
    # [-12, 12]: 6.1e-13 at the bound, 1.2e-12 one past it
    x = np.linspace(-12.0, 12.0, 240001)
    hs = _recurrence(wfm.HERMITE_MAX + 1, x)

    def gap(k):
        return np.max(np.abs(wfm.hermite_probe(k)(x) - hs[k])) / np.max(np.abs(hs[k]))

    assert gap(wfm.HERMITE_MAX) <= 1e-12 < gap(wfm.HERMITE_MAX + 1)
