import numpy as np

from poincare_ext import conventions as cv


def test_self_test_passes():
    """The sign conventions: eps_{01} = -1, mixed tensors consistent with
    raising and lowering, and Lambda a one-parameter group of unit
    determinant."""
    assert cv.EPS_UPPER[0, 1] == 1.0 and cv.EPS_LOWER[0, 1] == -1.0
    assert np.allclose(cv.EPS_MIXED_UPPER, [[0, -1], [-1, 0]])
    assert np.allclose(cv.EPS_MIXED_LOWER, [[0, 1], [1, 0]])
    # raising the lowered index must reproduce eps^{ab}
    assert np.allclose(cv.METRIC @ cv.EPS_LOWER @ cv.METRIC, cv.EPS_UPPER)
    for a, b in [(0.3, -1.1), (2.0, 0.7)]:
        assert np.allclose(cv.lorentz_matrix(a) @ cv.lorentz_matrix(b),
                           cv.lorentz_matrix(a + b))
        assert abs(np.linalg.det(cv.lorentz_matrix(a)) - 1.0) < 1e-12


def test_metric_and_epsilon_tables():
    assert np.allclose(cv.METRIC, np.diag([1.0, -1.0]))
    assert cv.EPS_UPPER[0, 1] == 1.0
    assert cv.EPS_LOWER[0, 1] == -1.0
    # mixed tables come from contracting with the metric
    assert np.allclose(cv.EPS_MIXED_UPPER, cv.EPS_UPPER @ cv.METRIC)
    assert np.allclose(cv.EPS_MIXED_LOWER, cv.METRIC @ cv.EPS_UPPER)


def test_lorentz_matrix_group_law():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, size=2)
        lhs = cv.lorentz_matrix(a) @ cv.lorentz_matrix(b)
        rhs = cv.lorentz_matrix(a + b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_lorentz_preserves_metric():
    rng = np.random.default_rng(8)
    for _ in range(20):
        L = cv.lorentz_matrix(rng.uniform(-2, 2))
        assert np.max(np.abs(L.T @ cv.METRIC @ L - cv.METRIC)) < 1e-12


def test_minkowski_square():
    v = np.array([3.0, 1.0])
    assert cv.minkowski_square(v) == 8.0
