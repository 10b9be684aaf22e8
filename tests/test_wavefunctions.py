import math

import numpy as np
import pytest

from poincare_ext import wavefunctions as wfm


def test_hermite_orthonormality():
    fs = [wfm.hermite_wf(k) for k in range(5)]
    for i in range(5):
        for j in range(5):
            v = wfm.inner(fs[i], fs[j])
            assert abs(v - (1.0 if i == j else 0.0)) < 1e-12


def test_analytic_derivative_chain():
    f = wfm.hermite_wf(0)
    x = np.linspace(-5, 5, 41)
    d1 = f.derivative()
    assert np.max(np.abs(d1(x) + x * f(x))) < 1e-13
    d2 = d1.derivative()
    assert np.max(np.abs(d2(x) - (x * x - 1.0) * f(x))) < 1e-12


def test_stencil_fallback_and_gate():
    f = wfm.hermite_wf(2)
    bare = wfm.WaveFunction(f.fn, (), f.center, f.width)
    with pytest.raises(ValueError):
        bare.derivative()


def test_affine_substitution():
    f = wfm.hermite_wf(0)
    g = wfm.wf_affine(f, 2.0, 1.0)
    x = np.linspace(-2, 2, 9)
    assert np.max(np.abs(g(x) - f(2 * x + 1))) == 0.0
    assert abs(wfm.norm(g) - 1.0 / math.sqrt(2.0)) < 1e-12
    # chain rule through the derivative tower
    assert np.max(np.abs(g.derivative()(x) - 2.0 * f.derivative()(2 * x + 1))) < 1e-14


def test_polynomial_multiplication_leibniz():
    f = wfm.hermite_wf(1)
    m = wfm.wf_mul_poly(f, [0.5, -1.0, 2.0])
    x = np.linspace(-3, 3, 21)
    p = 0.5 - x + 2 * x * x
    dp = -1.0 + 4 * x
    assert np.max(np.abs(m(x) - p * f(x))) < 1e-14
    d = m.derivative()
    assert np.max(np.abs(d(x) - (dp * f(x) + p * f.derivative()(x)))) < 1e-13


def test_scale_and_sub():
    f, g = wfm.hermite_wf(0), wfm.hermite_wf(2)
    h = wfm.wf_sub(wfm.wf_scale(f, 2.0), g)
    assert abs(wfm.norm(h) ** 2 - 5.0) < 1e-11


def test_oscillatory_integral():
    # Fourier transform of the Gaussian probe: exact closed form
    f = wfm.hermite_wf(0)
    k = 7.3
    g = wfm.wf_mul(f, [lambda x: np.exp(1j * k * x),
                       lambda x: 1j * k * np.exp(1j * k * x)])
    val = wfm.inner(f, g)
    assert abs(val - math.exp(-k * k / 4.0)) < 1e-12


def test_integrate_vec_convergence_guard():
    with pytest.raises(RuntimeError):
        # genuinely divergent oscillation density never converges
        wfm.integrate_vec(lambda x: np.sin(1e6 * x * x), 0.0, 30.0,
                          rtol=1e-13, atol=0.0, max_panels=64)


def test_l2_diff():
    f, g = wfm.hermite_wf(0), wfm.hermite_wf(1)
    assert wfm.l2_diff(f, f) < 1e-13
    assert abs(wfm.l2_diff(f, g) - math.sqrt(2.0)) < 1e-11


def test_gauss_legendre_rule():
    lo, hi, panels = -1.5, 2.5, 5
    x, w = wfm.gauss_legendre(lo, hi, panels)
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
