import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_ext import quantization as qz
from poincare_ext.group import (
    AlgebraElement,
    GroupElement,
    ModelParams,
    bracket,
    casimir_pairing,
)
from poincare_ext.irreps import default_probes
from poincare_ext.orbits import classify
from poincare_ext.wavefunctions import inner

P = ModelParams()
M = 1.0


def basis_el(k):
    return AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))


def test_phase_point_bijection():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = qz.PhasePoint(*rng.uniform(-5, 5, 2))
        q0, q1 = s.lightcone(P)
        back = qz.PhasePoint.from_lightcone(q0, q1, P)
        assert abs(back.q - s.q) < 1e-14 and abs(back.p - s.p) < 1e-14


def test_comoment_values_at_origin():
    u = qz.comoments(qz.PhasePoint(0.0, 0.0), P, M)
    assert u.u == (0.0, 0.0, M * M / (2.0 * P.B), -1.0)


def test_comoment_identities():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = qz.PhasePoint(*rng.uniform(-3, 3, 2))
        u = qz.comoments(s, P, M)
        assert u.u[3] == -1.0
        assert abs(casimir_pairing(u, P) - M * M) < 1e-12


def test_comoments_are_lie_homomorphism():
    us = qz.comoment_observables(P, M)
    for a in range(4):
        for b in range(4):
            pb = qz.poisson_bracket(us[a], us[b], P)
            coeffs = bracket(basis_el(a), basis_el(b), P).v
            target = sum((c * us[k] for k, c in enumerate(coeffs)),
                         qz.PolynomialObservable({}))
            diff = pb - target
            worst = max((abs(v) for _, v in diff.coeffs), default=0.0)
            assert worst < 1e-14, (a, b)


def test_bracket_orientation():
    q = qz.PolynomialObservable({(1, 0): 1.0})
    p = qz.PolynomialObservable({(0, 1): 1.0})
    pb = qz.poisson_bracket(q, p, P)
    # orientation fixed by the comoment homomorphism: {q, p} = -1
    assert pb[(0, 0)] == -1.0
    # light-cone coordinate brackets: {q^0, q^1} = 1/B
    q0 = qz.PolynomialObservable({(0, 1): -1.0 / P.B})
    q1 = qz.PolynomialObservable({(1, 0): -1.0, (0, 1): -1.0 / P.B})
    pb = qz.poisson_bracket(q0, q1, P)
    assert pb[(0, 0)] == 1.0 / P.B and pb.degree == 0


def test_momentum_map_labels():
    z = qz.momentum_map(qz.PhasePoint(0.0, 0.0), P, M)
    assert z.u == (0.0, 0.0, M * M / (2.0 * P.B * P.hbar), -1.0 / P.hbar)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = qz.PhasePoint(*rng.uniform(-3, 3, 2))
        assert classify(qz.momentum_map(s, P, M), P).tag == "CaseA"


def test_pullback_of_orbit_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = qz.PhasePoint(*rng.uniform(-2, 2, 2))
        assert qz.pullback_residual(s, P, M) < 1e-6


def test_degree_gate_total():
    with pytest.raises(qz.NoGoError):
        qz.PolynomialObservable({(2, 1): 1.0})
    with pytest.raises(qz.NoGoError):
        qz.parse_poly("q^2p")
    with pytest.raises(qz.NoGoError):
        qz.parse_poly("p^3")


def test_parse_poly():
    f = qz.parse_poly("q^2 + 2qp - 0.5")
    assert f[(2, 0)] == 1.0 and f[(1, 1)] == 2.0 and f[(0, 0)] == -0.5
    g = qz.parse_poly("-q + 3.5p^2")
    assert g[(1, 0)] == -1.0 and g[(0, 2)] == 3.5
    with pytest.raises(ValueError):
        qz.parse_poly("q**2")


def unit(i, j, v=1.0):
    """The 3 x 3 operator array with the single entry c[i, j] = v."""
    c = np.zeros((3, 3), dtype=complex)
    c[i, j] = v
    return c


def test_quantize_generator_table():
    h = P.hbar
    op = qz.quantize(qz.parse_poly("q"), P)
    assert np.array_equal(op.c, unit(1, 0))
    op = qz.quantize(qz.parse_poly("p"), P)
    assert np.array_equal(op.c, unit(0, 1, -1j * h))
    op = qz.quantize(qz.parse_poly("p^2"), P)
    assert np.array_equal(op.c, unit(0, 2, -h * h))
    op = qz.quantize(qz.parse_poly("qp"), P)
    assert np.array_equal(op.c, unit(1, 1, -1j * h) + unit(0, 0, -0.5j * h))
    # the constant comoment quantizes to minus the identity
    op = qz.quantize(qz.comoment_observables(P, M)[3], P)
    assert np.array_equal(op.c, unit(0, 0, -1.0))


def six_branch_quantize(f, params):
    """The monomial-by-monomial Weyl map, kept as the reference.

    Returns the operator array: the multiplication polynomial in column 0,
    the d/dx coefficients in column 1 and the d2/dx2 coefficient in c[0, 2].
    """
    h = params.hbar
    mc = [0j, 0j, 0j]
    nc = [0j, 0j]
    s2 = 0j
    for (i, j), v in f.coeffs:
        if (i, j) == (0, 0):
            mc[0] += v
        elif (i, j) == (1, 0):
            mc[1] += v
        elif (i, j) == (2, 0):
            mc[2] += v
        elif (i, j) == (0, 1):
            nc[0] += -1j * h * v
        elif (i, j) == (0, 2):
            s2 += -h * h * v
        elif (i, j) == (1, 1):
            # (q p + p q)/2 -> -i hbar (x d/dx + 1/2)
            nc[1] += -1j * h * v
            mc[0] += -0.5j * h * v
    c = np.zeros((3, 3), dtype=complex)
    c[:, 0], c[:2, 1], c[0, 2] = mc, nc, s2
    return c


MONOMIALS = [(i, j) for i in range(3) for j in range(3 - i)]
TABLES = st.dictionaries(st.sampled_from(MONOMIALS),
                         st.floats(-1e3, 1e3, allow_subnormal=False))
#: hbar log-uniform over six decades
HBARS = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=TABLES, hbar=HBARS)
def test_weyl_rule_equals_six_branch_reference(table, hbar):
    p = ModelParams(hbar=hbar)
    f = qz.PolynomialObservable(table)
    assert np.array_equal(qz.quantize(f, p).c, six_branch_quantize(f, p))


AFFINE = st.tuples(*[st.floats(-3.0, 3.0)] * 3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=st.dictionaries(st.sampled_from(MONOMIALS), st.floats(-3.0, 3.0)),
       q_map=AFFINE, p_map=AFFINE, q=st.floats(-3.0, 3.0),
       p=st.floats(-3.0, 3.0))
def test_substitute_affine_is_evaluation_at_the_mapped_point(table, q_map,
                                                             p_map, q, p):
    f = qz.PolynomialObservable(table)
    s = qz.PhasePoint(q, p)
    qq = q_map[0] * q + q_map[1] * p + q_map[2]
    pp = p_map[0] * q + p_map[1] * p + p_map[2]
    lhs = f.substitute_affine(q_map, p_map)(s)
    # round-off is relative to the sum of the terms' absolute values
    aq = abs(q_map[0] * q) + abs(q_map[1] * p) + abs(q_map[2])
    ap = abs(p_map[0] * q) + abs(p_map[1] * p) + abs(p_map[2])
    scale = sum(abs(v) * aq ** i * ap ** j for (i, j), v in f.coeffs)
    assert abs(lhs - f(qz.PhasePoint(qq, pp))) <= 1e-14 * scale


def test_quantize_linearity():
    f = qz.parse_poly("q^2+2qp")
    g = qz.parse_poly("p-3")
    lhs = qz.quantize(f + (2.0 * g), P)
    rhs = qz.quantize(f, P) + qz.quantize((2.0 * g), P)
    assert lhs == rhs


def test_hermiticity_of_quantized_observables():
    probes = default_probes(3)
    for text in ("1", "q", "p", "q^2", "qp", "p^2"):
        op = qz.quantize(qz.parse_poly(text), P)
        assert qz.hermiticity_residual(op, probes[:2]) < 1e-9, text


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hbar=HBARS, B=st.floats(0.5, 3.0), sign=st.sampled_from((-1.0, 1.0)))
def test_dirac_and_hermiticity_over_hbar_and_B(hbar, B, sign):
    # over 13 hbar values in [1e-3, 1e3] and six B, the worst values
    # measured were 3.5e-12 (Dirac) and 2.7e-12 (hermiticity); the gates
    # are the quantization suite's
    p = ModelParams(B=sign * B, hbar=hbar)
    probes = default_probes(3)
    assert qz.verify_dirac(p, M, probes) <= 1e-9
    assert max(qz.hermiticity_residual(qz.quantize(u, p), probes[:2])
               for u in qz.comoment_observables(p, M)) <= 1e-9


def test_dirac_condition():
    probes = default_probes(3)
    assert qz.verify_dirac(P, M, probes) < 1e-9
    assert qz.verify_dirac(P, M, probes, z3=+1.0 / P.hbar) > 0.1


@pytest.mark.parametrize("B", (1.0, -1.3))
@pytest.mark.parametrize("sign", (-1.0, 1.0))
def test_stacked_dirac_equals_max_of_single_probe_calls(B, sign):
    p = ModelParams(B=B)
    probes = default_probes(3)
    z3 = sign / p.hbar
    assert qz.verify_dirac(p, M, probes, z3=z3) == max(
        qz.verify_dirac(p, M, [f], z3=z3) for f in probes)


@pytest.mark.parametrize("B", (1.0, -1.3, 3.0))
@pytest.mark.parametrize("hbar", (1.0, 0.5))
def test_shared_dirac_chains_equal_separate_calls(B, hbar):
    # both z3 values of the quantization suite from one set of chains,
    # bit for bit the two verify_dirac calls
    p = ModelParams(B=B, hbar=hbar)
    probes = default_probes(3)
    z3s = (-1.0 / hbar, 1.0 / hbar)
    assert qz.dirac_residuals(p, M, probes, z3s) == [
        qz.verify_dirac(p, M, probes, z3=z3) for z3 in z3s]


@pytest.mark.parametrize("B", (1.0, -1.3))
def test_stacked_hermiticity_equals_per_pair_reference(B):
    p = ModelParams(B=B)
    probes = default_probes(3)
    for u in qz.comoment_observables(p, M):
        op = qz.quantize(u, p)
        ref = max(abs(inner(op.apply(f), g) - inner(f, op.apply(g)))
                  for f in probes for g in probes)
        assert qz.hermiticity_residual(op, probes) == ref


def test_quantum_checks_on_no_probes():
    op = qz.quantize(qz.parse_poly("q^2+2qp"), P)
    assert qz.hermiticity_residual(op, []) == 0.0
    assert qz.verify_dirac(P, M, []) == 0.0
    assert qz.dirac_residuals(P, M, [], (1.0, -1.0)) == [0.0, 0.0]


def test_covariance():
    probes = default_probes(2)
    u2 = qz.comoment_observables(P, M)[2]
    assert qz.verify_covariance(GroupElement(0, 0, 0, 0), u2, P, M, probes) < 1e-14
    g = GroupElement(0.5, -0.3, 0.0, 0.0)
    f = qz.PolynomialObservable({(0, 1): 1.0})
    assert qz.verify_covariance(g, f, P, M, probes) < 1e-9
    g = GroupElement(0.0, 0.0, 0.8, 0.2)
    assert qz.verify_covariance(g, u2, P, M, probes) < 1e-8


def test_covariance_suite():
    assert qz.covariance_suite(P, M, trials=21, seed=4) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hbar=HBARS, B=st.floats(0.5, 3.0), sign=st.sampled_from((-1.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_covariance_over_hbar_and_B(hbar, B, sign, seed):
    # the residual is relative to ||Q(f . l_g) psi||, which grows with
    # hbar^2 for a p^2 term; over 13 hbar values in [1e-3, 1e3] and six B
    # the worst value measured was 1.2e-11 (hbar = 1e-3, B = -3).  The
    # gate is the quantization suite's
    p = ModelParams(B=sign * B, hbar=hbar)
    assert qz.covariance_suite(p, M, seed=seed) <= 1e-8


def test_batched_covariance_suite_equals_max_of_scalar_checks():
    probes, trials, seed = default_probes(2), 16, 5
    coords = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(trials, 4))
    base = qz._covariance_observables(P, M)
    scalar = max(qz.verify_covariance(GroupElement(*c), base[k % len(base)],
                                      P, M, probes)
                 for k, c in enumerate(coords))
    batched = qz.covariance_suite(P, M, trials=trials, seed=seed, probes=probes)
    assert abs(batched - scalar) <= 4 * np.finfo(float).eps


def test_u2_offset_keeps_homomorphism():
    us = qz.comoment_observables(P, M, u2_offset=2.5)
    pb = qz.poisson_bracket(us[0], us[2], P)
    coeffs = bracket(basis_el(0), basis_el(2), P).v
    target = sum((c * us[k] for k, c in enumerate(coeffs)),
                 qz.PolynomialObservable({}))
    diff = pb - target
    assert max((abs(v) for _, v in diff.coeffs), default=0.0) < 1e-14
