import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from poincare_ext.conventions import (EPS_LOWER, SQRT_MINUS_H, lorentz_matrix,
                                      minkowski_square)
from poincare_ext.group import (
    AlgebraElement,
    CoadjointPoint,
    GroupElement,
    ModelParams,
    adjoint_matrix,
    bracket,
    casimir_pairing,
    coadjoint_action,
    compose,
    exp_map,
    identity,
    inverse,
    log_map,
    structural_report,
    structure_constants,
)
import sweep_oracle as so
from poincare_ext import group as grp
from sweep_oracle import ad_matrix, sampled_spectrum

P = ModelParams()

#: central charges spanning six decades on both signs
B_VALUES = (-1e3, -1.0, -1e-3, 1e-3, 1.0, 1e3)


def rand_g(rng, box=2.0):
    return GroupElement(*rng.uniform(-box, box, size=4))


def exp_ode(x, p):
    """Reference exp: integrate the left-invariant flow g'(t) = dL_g(X)."""
    v = x.array

    def rhs(_t, y):
        dtheta = lorentz_matrix(y[2]) @ v[:2]
        dbeta = v[3] + (p.B / 2.0) * y[:2] @ EPS_LOWER @ dtheta
        return [dtheta[0], dtheta[1], v[2], dbeta]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:, -1]


def roundoff_scale(x, g, p):
    """Size of the quantities whose rounding a round trip carries.

    beta holds the central term (B/2)(V0^2 - V1^2)(...), recovered from
    theta0 +- theta1, so an error of one ulp in theta moves V^3 by up to
    about |B| |theta|^2 ulps.
    """
    theta = float(np.max(np.abs(g.theta)))
    return max(1.0, float(np.max(np.abs(x.array))),
               float(np.max(np.abs(g.array))), abs(p.B) * theta * theta)


def algebra_elements(alpha):
    comp = st.floats(-2.0, 2.0)
    return st.builds(AlgebraElement, comp, comp, alpha, comp)


#: below the smallest normal float rounding is absolute, so magnitudes
#: are floored there
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


def compose_magnitude(a2, a1, p):
    """compose on component magnitudes: bounds every term compose sums."""
    ch, sh = math.cosh(a2[2]), abs(math.sinh(a2[2]))
    rot = np.array([ch * a1[0] + sh * a1[1], sh * a1[0] + ch * a1[1]])
    beta = a2[3] + a1[3] + 0.5 * abs(p.B) * (a2[0] * rot[1] + a2[1] * rot[0])
    return np.array([a2[0] + rot[0], a2[1] + rot[1], a2[2] + a1[2], beta])


def casimir_magnitude(g, zeta, p):
    """Largest sum of term magnitudes in the Casimir pairing at zeta and at
    its coadjoint image, with Ad(g^-1) built from magnitudes."""
    lam = np.abs(lorentz_matrix(g.alpha))
    t = lam @ np.abs(g.theta)            # theta of g^-1, before cancellation
    ad = np.eye(4)
    ad[:2, :2] = lam
    ad[:2, 2] = t[::-1]
    ad[3, :2] = abs(p.B) * (t[::-1] @ lam)
    ad[3, 2] = 0.5 * abs(p.B) * (t @ t)
    return max(u[0] ** 2 + u[1] ** 2 + 2.0 * abs(p.B) * u[2] * u[3]
               for u in (np.abs(zeta.array) @ ad, np.abs(zeta.array)))


#: boost angles: generic, inside the series branch of exp/log, and zero
ALPHAS = st.one_of(st.floats(-3.0, 3.0), st.floats(-2e-3, 2e-3), st.just(0.0))
PARAMS = st.sampled_from([ModelParams(B=b) for b in B_VALUES])
GROUP_ELEMENTS = st.builds(GroupElement, st.floats(-2.0, 2.0),
                           st.floats(-2.0, 2.0), ALPHAS, st.floats(-2.0, 2.0))
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(B=0.0)
    with pytest.raises(ValueError):
        ModelParams(hbar=-1.0)
    # a non-finite parameter is named, and never reaches a computation
    for kwargs, name in (({"B": math.nan}, "B"), ({"B": -math.inf}, "B"),
                         ({"hbar": math.inf}, "hbar")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ModelParams(**kwargs)


def test_bracket_table():
    e = [AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))
         for k in range(4)]
    p0, p1, j, i = e
    assert bracket(p0, j, P).v == (0.0, 1.0, 0.0, 0.0)
    assert bracket(p1, j, P).v == (1.0, 0.0, 0.0, 0.0)
    assert bracket(p0, p1, P).v == (0.0, 0.0, 0.0, -P.B)
    assert bracket(i, j, P).v == (0.0, 0.0, 0.0, 0.0)
    assert bracket(i, p0, P).v == (0.0, 0.0, 0.0, 0.0)


def test_jacobi_identity():
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y, z = (AlgebraElement(tuple(rng.uniform(-2, 2, 4)))
                   for _ in range(3))
        total = np.array(bracket(x, bracket(y, z, P), P).v) \
            + np.array(bracket(y, bracket(z, x, P), P).v) \
            + np.array(bracket(z, bracket(x, y, P), P).v)
        assert np.max(np.abs(total)) < 1e-12


def test_associativity_and_inverse():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g1, g2, g3 = rand_g(rng), rand_g(rng), rand_g(rng)
        lhs = compose(compose(g3, g2, P), g1, P)
        rhs = compose(g3, compose(g2, g1, P), P)
        assert np.max(np.abs(lhs.array - rhs.array)) < 1e-12
        gi = inverse(g1, P)
        assert np.max(np.abs(compose(g1, gi, P).array)) < 1e-12
        assert np.max(np.abs(compose(gi, g1, P).array)) < 1e-12


def test_batched_compose_and_inverse_match_scalar_calls():
    rng = np.random.default_rng(3)
    c2, c1 = rng.uniform(-2.0, 2.0, size=(2, 6, 4))
    for p in (P, ModelParams(B=-1.3)):
        prod = compose(GroupElement(*c2.T), GroupElement(*c1.T), p)
        inv = inverse(GroupElement(*c1.T), p)
        assert prod.array.shape == inv.array.shape == (6, 4)
        for k in range(6):
            g2, g1 = GroupElement(*c2[k]), GroupElement(*c1[k])
            assert np.array_equal(prod.array[k], compose(g2, g1, p).array)
            assert np.array_equal(inv.array[k], inverse(g1, p).array)
    with pytest.raises(ValueError, match="one shape"):
        GroupElement(np.zeros(3), np.zeros(2), 0.0, 0.0)


def test_batched_coadjoint_and_casimir_match_scalar_calls():
    # a stacked zeta[..., None, :] @ Ad makes each row's vector-matrix
    # product, so batch rows are the scalar calls' bits
    rng = np.random.default_rng(4)
    zs, cs = rng.uniform(-3.0, 3.0, size=(7, 4)), rng.uniform(-2.0, 2.0, size=(7, 4))
    for p in (P, ModelParams(B=-1.3)):
        zeta, g = CoadjointPoint(zs), GroupElement(*cs.T)
        moved = coadjoint_action(g, zeta, p)
        assert moved.array.shape == (7, 4) and moved.u[3].shape == (7,)
        before, after = casimir_pairing(zeta, p), casimir_pairing(moved, p)
        ads = ad_matrix(AlgebraElement(cs), p)
        assert ads.shape == (7, 4, 4)
        for k in range(7):
            z_k = CoadjointPoint(zs[k])
            m_k = coadjoint_action(GroupElement(*cs[k]), z_k, p)
            assert np.array_equal(moved.array[k], m_k.array)
            assert before[k] == casimir_pairing(z_k, p)
            assert after[k] == casimir_pairing(m_k, p)
            assert np.array_equal(ads[k], ad_matrix(AlgebraElement(cs[k]), p))
    assert np.array_equal(CoadjointPoint(*zs.T).array, zs)
    for bad in (np.zeros((7, 3)), 1.0):
        with pytest.raises(ValueError, match="4 components"):
            AlgebraElement(bad)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = AlgebraElement(tuple(rng.uniform(-1.5, 1.5, 4)))
        g = exp_map(x, P)
        y = log_map(g, P)
        assert np.max(np.abs(np.array(y.v) - np.array(x.v))) < 1e-8
    for _ in range(10):
        g = rand_g(rng)
        back = exp_map(log_map(g, P), P)
        assert np.max(np.abs(back.array - g.array)) < 1e-8


@pytest.mark.parametrize("B", B_VALUES)
def test_exp_matches_ode_reference(B):
    p = ModelParams(B=B)
    rng = np.random.default_rng(12)
    # generic angles, the series branch, zero, and both sides of |alpha| = 1
    # where exp switches from the series to the direct quotient
    alphas = np.concatenate([
        rng.uniform(-3.0, 3.0, 8), rng.uniform(-2e-3, 2e-3, 8), np.zeros(2),
        rng.uniform(0.9, 1.1, 6) * rng.choice((-1.0, 1.0), 6)])
    for alpha in alphas:
        v0, v1, v3 = rng.uniform(-2.0, 2.0, 3)
        x = AlgebraElement(v0, v1, alpha, v3)
        ref = exp_ode(x, p)
        gap = np.max(np.abs(exp_map(x, p).array - ref))
        assert gap <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@PROPERTY
@given(x=algebra_elements(ALPHAS), p=PARAMS)
def test_log_inverts_exp(x, p):
    g = exp_map(x, p)
    back = log_map(g, p)
    assert np.max(np.abs(back.array - x.array)) <= 1e-12 * roundoff_scale(x, g, p)


@PROPERTY
@given(t0=st.floats(-5.0, 5.0), t1=st.floats(-5.0, 5.0), alpha=ALPHAS,
       beta=st.floats(-5.0, 5.0), p=PARAMS)
def test_exp_inverts_log(t0, t1, alpha, beta, p):
    g = GroupElement(t0, t1, alpha, beta)
    x = log_map(g, p)
    back = exp_map(x, p)
    assert np.max(np.abs(back.array - g.array)) <= 1e-12 * roundoff_scale(x, g, p)


@PROPERTY
@given(x=algebra_elements(st.floats(-1.5, 1.5)), s=st.floats(-1.0, 1.0),
       t=st.floats(-1.0, 1.0), p=PARAMS)
def test_one_parameter_subgroup(x, s, t, p):
    def along(c):
        return AlgebraElement(c * x.array)

    lhs = compose(exp_map(along(s), p), exp_map(along(t), p), p)
    rhs = exp_map(along(s + t), p)
    # compose adds (B/2) theta_s eps Lambda theta_t, up to about
    # |B| |V_P|^2 exp(2 |alpha|) in size however small the result is
    scale = roundoff_scale(along(s + t), rhs, p) + abs(p.B) * math.exp(
        2.0 * abs(x.v[2])) * float(np.max(np.abs(x.array[:2]))) ** 2
    assert np.max(np.abs(lhs.array - rhs.array)) <= 1e-12 * scale


@PROPERTY
@given(g1=GROUP_ELEMENTS, g2=GROUP_ELEMENTS, g3=GROUP_ELEMENTS, p=PARAMS)
def test_compose_associative(g1, g2, g3, p):
    lhs = compose(compose(g3, g2, p), g1, p)
    rhs = compose(g3, compose(g2, g1, p), p)
    m1, m2, m3 = (np.abs(g.array) for g in (g1, g2, g3))
    scale = max(np.max(compose_magnitude(compose_magnitude(m3, m2, p), m1, p)),
                np.max(compose_magnitude(m3, compose_magnitude(m2, m1, p), p)))
    assert np.max(np.abs(lhs.array - rhs.array)) <= 16 * EPS * max(scale, TINY)


@PROPERTY
@given(g=GROUP_ELEMENTS, p=PARAMS)
def test_inverse_two_sided(g, p):
    gi = inverse(g, p)
    # g^-1 carries the terms of g with Lambda(-alpha), so g g g bounds them
    m = np.abs(g.array)
    scale = np.max(compose_magnitude(m, compose_magnitude(m, m, p), p))
    for e in (compose(g, gi, p), compose(gi, g, p)):
        assert np.max(np.abs(e.array)) <= 16 * EPS * max(scale, TINY)


@PROPERTY
@given(g=GROUP_ELEMENTS,
       zeta=st.builds(CoadjointPoint, *[st.floats(-3.0, 3.0)] * 4), p=PARAMS)
def test_coadjoint_casimir_invariant(g, zeta, p):
    moved = coadjoint_action(g, zeta, p)
    gap = abs(casimir_pairing(moved, p) - casimir_pairing(zeta, p))
    assert gap <= 16 * EPS * max(casimir_magnitude(g, zeta, p), TINY)


@pytest.mark.parametrize("B", B_VALUES)
def test_casimir_pairing_matches_the_minkowski_form(B):
    # casimir_pairing computes through model.casimir on the components;
    # the numpy form it replaced is the oracle, bit for bit, on a batch
    # and on each of its points
    p = ModelParams(B=B)
    arr = np.random.default_rng(5).uniform(-3.0, 3.0, (1000, 4))
    old = minkowski_square(arr[..., :2]) \
        - 2.0 * (p.B / SQRT_MINUS_H) * arr[..., 2] * arr[..., 3]
    new = casimir_pairing(CoadjointPoint(arr), p)
    assert new.tobytes() == old.tobytes()
    assert casimir_pairing(arr, p).tobytes() == old.tobytes()
    for k in range(0, 1000, 97):
        single = casimir_pairing(CoadjointPoint(arr[k]), p)
        assert type(single) is np.float64 and single == old[k]


def test_exp_closed_forms():
    # pure translations/center exponentiate to themselves
    g = exp_map(AlgebraElement((0.4, -0.7, 0.0, 1.2)), P)
    assert np.max(np.abs(g.array - np.array([0.4, -0.7, 0.0, 1.2]))) < 1e-12
    g = exp_map(AlgebraElement((0.0, 0.0, 0.9, 0.0)), P)
    assert np.max(np.abs(g.array - np.array([0.0, 0.0, 0.9, 0.0]))) < 1e-12
    # on each basis axis exp is exact, which the generator checks rely on
    for k in range(4):
        for t in (1e-2, -2.5e-3, 0.7):
            v = tuple(t if i == k else 0.0 for i in range(4))
            assert exp_map(AlgebraElement(v), P).array.tolist() == list(v)


def test_exp_log_past_float_range():
    # past |alpha| = 709.78 expm1 and sinh overflow, but these results do not
    g = exp_map(AlgebraElement(0.1, 0.1, 800.0, 0.0), P)
    assert g.array.tolist() == pytest.approx([1.25e-4, 1.25e-4, 800.0, 0.0],
                                             rel=1e-15)
    x = log_map(GroupElement(0.1, 0.2, 800.0, 0.3), P)
    assert x.array.tolist() == pytest.approx([120.0, 120.0, 800.0, 0.3075],
                                             rel=1e-15)
    # phi(712) = e^712 / 712 is finite although expm1(712) is not
    g = exp_map(AlgebraElement(0.1, 0.2, 712.0, 0.0), P)
    growth = math.exp(712.0 - math.log(712.0))
    assert g.theta0 - g.theta1 == pytest.approx(-0.1 * growth, rel=1e-12)
    assert g.beta == pytest.approx(
        0.5 * (-0.1) * 0.3 * math.exp(712.0 - math.log(2 * 712.0 ** 2)),
        rel=1e-12)
    # on a light-cone axis the round trip holds to round-off for any B, alpha
    for B in (1.0, -2.0, 1e-3):
        p = ModelParams(B=B)
        for v in ((0.3, 0.3, 712.0, 0.5), (0.3, -0.3, -800.0, 0.5),
                  (-0.3, -0.3, 1e6, -0.5)):
            back = log_map(exp_map(AlgebraElement(v), p), p)
            assert back.array.tolist() == pytest.approx(v, rel=1e-15)
    with pytest.raises(ValueError, match="exp_map overflows"):
        exp_map(AlgebraElement(0.1, 0.2, 800.0, 0.0), P)
    with pytest.raises(ValueError, match="log_map overflows"):
        log_map(GroupElement(1e306, -1e306, -800.0, 0.0), P)


def test_adjoint_is_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g1, g2 = rand_g(rng), rand_g(rng)
        lhs = adjoint_matrix(compose(g2, g1, P), P)
        rhs = adjoint_matrix(g2, P) @ adjoint_matrix(g1, P)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_adjoint_of_exponential():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = AlgebraElement(tuple(rng.uniform(-1.5, 1.5, 4)))
        lhs = adjoint_matrix(exp_map(x, P), P)
        rhs = expm(ad_matrix(x, P))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_adjoint_intertwines_bracket():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rand_g(rng)
        x = AlgebraElement(tuple(rng.uniform(-2, 2, 4)))
        y = AlgebraElement(tuple(rng.uniform(-2, 2, 4)))
        A = adjoint_matrix(g, P)
        lhs = A @ bracket(x, y, P).array
        rhs = bracket(AlgebraElement(tuple(A @ x.array)),
                      AlgebraElement(tuple(A @ y.array)), P).array
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_coadjoint_is_right_action_dual():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g1, g2 = rand_g(rng), rand_g(rng)
        z = CoadjointPoint(tuple(rng.uniform(-2, 2, 4)))
        lhs = coadjoint_action(compose(g2, g1, P), z, P)
        rhs = coadjoint_action(g2, coadjoint_action(g1, z, P), P)
        assert np.max(np.abs(np.array(lhs.u) - np.array(rhs.u))) < 1e-10


def test_coadjoint_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = CoadjointPoint(tuple(rng.uniform(-3, 3, 4)))
        g = rand_g(rng)
        moved = coadjoint_action(g, z, P)
        assert abs(moved.u[3] - z.u[3]) < 1e-12
        c0, c1 = casimir_pairing(z, P), casimir_pairing(moved, P)
        assert abs(c1 - c0) <= 1e-12 * max(1.0, abs(c0))


#: test_cli's SWEEP_B and EDGE_B
SWEEP_B = [s * b for b in (1e-8, 1e-4, 1e-2, 10.0, 100.0, 1e4) for s in (1.0, -1.0)]
EDGE_B = [5e-324, 1e-310] + [s * b for b in (1e-20, 1e-13, 1e300) for s in (1.0, -1.0)]


def test_decided_coadjoint_is_zero_and_the_float_matrix_unchanged():
    # the coadjoint table reads 0.0; adjoint_matrix and minkowski_square
    # take their dtype from their operands, so the generic element gives
    # object entries and floats stay float64
    assert grp.decided_coadjoint() == {"casimir_residual": 0.0, "u3_residual": 0.0}
    g = GroupElement(0.3, -1.2, 0.7, 0.4)
    ad = adjoint_matrix(g, ModelParams(-1.3))
    assert ad.dtype == np.float64
    theta = g.theta
    assert ad[3, 2] == -(-1.3 / 2.0) * (theta[0] ** 2 - theta[1] ** 2)
    assert minkowski_square([3, 1]).dtype == np.float64


@pytest.mark.parametrize("B", SWEEP_B + EDGE_B)
def test_coadjoint_sampler_holds_its_bound_at_every_sweep_and_edge_B(B):
    # the float action on 1000 drawn pairs: the scaled Casimir residual
    # within the bound sweep_oracle.coadjoint_bound states from eps, |B| and
    # the draw ranges, and u3 moved exactly.  Relative to the Casimir the
    # residual grows as eps |B| (4.5e-14 at B = 3, 9.6e-10 at 1e4), which a
    # fixed gate failed
    report = so.suite_coadjoint(ModelParams(B))
    assert report["pass"], (report, so.coadjoint_bound(B))


def transposed(real=adjoint_matrix):
    """adjoint_matrix transposed: a planted defect."""
    return lambda g, p: np.swapaxes(real(g, p), -1, -2)


def flipped_row_i(real=adjoint_matrix):
    """adjoint_matrix with B's sign flipped in row I: a planted defect."""
    import inspect
    import textwrap
    src = textwrap.dedent(inspect.getsource(real))
    old = "ad[..., 3, :2] = p.B * "
    assert src.count(old) == 1
    namespace = {}
    exec(src.replace(old, "ad[..., 3, :2] = -p.B * "), real.__globals__, namespace)
    return namespace[real.__name__]


@pytest.mark.parametrize("B", (1e-8, -0.5, 1.3, -3.0, -1e4))
@pytest.mark.parametrize("plant", (transposed, flipped_row_i))
def test_planted_ad_defect_fails_table_and_sampler(plant, B, monkeypatch):
    # both run the one adjoint_matrix: the table, decided afresh past its
    # memo, reads 1.0 in the Casimir; the sampler leaves its bound
    monkeypatch.setattr(grp, "adjoint_matrix", plant())
    assert grp.decided_coadjoint.__wrapped__()["casimir_residual"] == 1.0
    report = so.suite_coadjoint(ModelParams(B))
    assert report["casimir_residual"] > so.coadjoint_bound(B) and not report["pass"]
    assert grp.decided_coadjoint()["casimir_residual"] == 0.0  # the memo


def column_action(real=grp.coadjoint_action):
    """coadjoint_action with Ad(g^-1) acting on zeta as a column, not a
    row: a planted defect in the operand order."""
    import inspect
    import textwrap
    src = textwrap.dedent(inspect.getsource(real))
    old = "_row_times(zeta.array, ad_inv)"
    assert src.count(old) == 1
    namespace = {}
    exec(src.replace(old, "(ad_inv @ zeta.array[..., None])[..., 0]"),
         real.__globals__, namespace)
    return namespace[real.__name__]


@pytest.mark.parametrize("B", (1e-8, -0.5, 1.3, -3.0, -1e4))
def test_planted_operand_order_fails_table_and_sampler(B, monkeypatch):
    # the table runs coadjoint_action itself, as the sampler does
    monkeypatch.setattr(grp, "coadjoint_action", column_action())
    assert grp.decided_coadjoint.__wrapped__()["casimir_residual"] > 0.0
    report = so.suite_coadjoint(ModelParams(B))
    assert report["casimir_residual"] > so.coadjoint_bound(B) and not report["pass"]


def test_structure_constants_antisymmetry():
    c = structure_constants(P)
    assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) == 0.0


def test_structural_report():
    assert structural_report(P) == {"central_series_dims": [4, 3, 3],
                                    "derived_series_dims": [4, 3, 1, 0],
                                    "ad_spectrum": 0.0}
    # the sampled float spectrum, the oracle: real and traceless, and not
    # nilpotent, since generic ad matrices carry nonzero real eigenvalues
    floats = sampled_spectrum(P, samples=300, seed=11)
    assert floats["max_imag_eigenvalue"] <= 1e-10
    assert floats["max_abs_trace"] <= 1e-12
    assert floats["has_nonzero_real_eigenvalue"]


def test_flipped_p1_j_bracket_fails_decided_spectrum_and_oracle(monkeypatch):
    # a planted defect: [P1, J] = P0 -> -P0 turns the boosts into rotations,
    # so ad(J) has the eigenvalues +-i and the group is not exponential.
    # The decided spectrum, past its memo, and the sampled eigenvalues both
    # see it, and so do the decided generator brackets
    from poincare_ext import irreps as ir
    from poincare_ext import model
    from poincare_ext import group as grp

    real = model.brackets

    def flipped(B):
        return tuple((a, c, tuple(-k for k in coeffs)) if (a, c) == (1, 2)
                     else (a, c, coeffs) for a, c, coeffs in real(B))

    for module in (model, grp, ir):
        monkeypatch.setattr(module, "brackets", flipped)
    assert grp.decided_ad_spectrum.__wrapped__() > 1e-10
    assert sampled_spectrum(P)["max_imag_eigenvalue"] > 1e-10
    assert ir.decided_identities.__wrapped__()["A"]["commutators"] > 1e-9
    assert grp.decided_ad_spectrum() == 0.0  # the memo holds the true one


def test_identity_element():
    g = identity()
    rng = np.random.default_rng(8)
    h = rand_g(rng)
    assert compose(g, h, P) == h
    assert compose(h, g, P) == h
