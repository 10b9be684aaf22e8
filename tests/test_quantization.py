import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincare_ext import cli, model
from poincare_ext import group as grp
from poincare_ext import irreps as ir
from poincare_ext import quantization as qz
from poincare_ext.group import (
    AlgebraElement,
    GroupElement,
    ModelParams,
    bracket,
    casimir_pairing,
)
from poincare_ext.laurent import Laurent, relative_defect
from poincare_ext.orbits import classify
from poincare_ext.wavefunctions import Probe, hermite_probe
import probe_oracle as po
from probe_oracle import (_covariance_residual, _kernel, comoment_hermiticity,
                          comoment_observables, covariance_observables,
                          covariance_suite, default_probes, dirac_residuals,
                          hermiticity_residual, minus, poisson_bracket,
                          verify_casimir, verify_commutators, verify_unitarity)
from sweep_oracle import (PhasePoint, casimir_defect, comoments, evaluate,
                          momentum_map, pullback_residual)
from sweep_oracle import BENCH_B
from sweep_oracle import suite_classical as classical_oracle
from quadrature_oracle import (_window, affine_apply, gauss_inner,
                               gauss_poly_wf, hermite_wf, images_inner, inner,
                               integrate_stack, integrate_vec, operator_apply,
                               operator_image, relative_l2, rep_image, tower,
                               wf_scale, wf_stack, wf_sub)

P = ModelParams()
M = 1.0


def basis_el(k):
    return AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))


def substitute_affine(f, q_map, p_map):
    """f composed with q -> q_map, p -> p_map, both affine (cq, cp, c0)."""
    return qz.PolynomialObservable(qz._substituted(f.c, q_map, p_map))


def verify_covariance(g, f, params, m, probes):
    """The residual of Q(f . l_g) = T(g^-1) Q(f) T(g) on the probes for one
    element g and one observable f: the scalar reference of the oracle's
    covariance_suite."""
    q_map, p_map = qz._left_action_maps(g, params)
    pulled = qz.quantize(substitute_affine(f, q_map, p_map), params)
    return float(_covariance_residual(g, pulled, qz.quantize(f, params),
                                      params, m, probes))


def dirac_at(params, m, probes, z3=None):
    """The Dirac residual at one z3, by default the orbit's -1/hbar."""
    z3 = -1.0 / params.hbar if z3 is None else z3
    return dirac_residuals(params, m, probes, (z3,))[0]


def homomorphism_gap(us, a, b):
    """Largest coefficient of {u_a, u_b} - u_[a, b], on the arrays c."""
    pb = poisson_bracket(us[a], us[b])
    coeffs = bracket(basis_el(a), basis_el(b), P).v
    return float(np.max(np.abs(pb.c - sum(c * u.c for c, u in zip(coeffs, us)))))


def test_comoment_values_at_origin():
    u = comoments(PhasePoint(0.0, 0.0), P, M)
    assert u.u == (0.0, 0.0, M * M / (2.0 * P.B), -1.0)
    exact = qz.comoment_table(Fraction(P.B), Fraction(M))
    assert [t.get((0, 0), 0) for t in exact] == [0, 0, Fraction(M * M) / (2 * Fraction(P.B)), -1]


def test_comoment_identities():
    # the float oracle at sampled points, and the exact coefficient identity
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = PhasePoint(*rng.uniform(-3, 3, 2))
        u = comoments(s, P, M)
        assert u.u[3] == -1.0
        assert abs(casimir_pairing(u, P) - M * M) < 1e-12
    assert casimir_defect(P, M) == 0.0


@given(B=st.sampled_from([s * b for b in (5e-324, 1e-300, 1e-8, 1.3, 1e4, 1e300)
                          for s in (1.0, -1.0)]),
       m=st.floats(1e-3, 1e3))
def test_float_table_is_the_float_formula(B, m):
    # one formula for every number type: at float B and m it is the float
    # table the quantization checks have always read, bit for bit
    want = ({(1, 0): -B, (0, 1): -1.0}, {(0, 1): 1.0},
            {(0, 0): m * m / (2.0 * B), (2, 0): -B / 2.0, (1, 1): -1.0},
            {(0, 0): -1.0})
    got = qz.comoment_table(B, m)
    assert [{k: float(v) for k, v in t.items()} for t in got] == list(want)
    assert [u.c.tolist() for u in comoment_observables(ModelParams(B), m)] \
        == [qz.PolynomialObservable(t).c.tolist() for t in want]


def test_comoments_are_lie_homomorphism():
    us = comoment_observables(P, M)
    for a in range(4):
        for b in range(4):
            assert homomorphism_gap(us, a, b) < 1e-14, (a, b)


def test_bracket_orientation():
    q = qz.PolynomialObservable({(1, 0): 1.0})
    p = qz.PolynomialObservable({(0, 1): 1.0})
    pb = poisson_bracket(q, p)
    # orientation fixed by the comoment homomorphism: {q, p} = -1
    assert pb.coeffs == (((0, 0), -1.0),)
    # light-cone coordinate brackets: {q^0, q^1} = 1/B
    q0 = qz.PolynomialObservable({(0, 1): -1.0 / P.B})
    q1 = qz.PolynomialObservable({(1, 0): -1.0, (0, 1): -1.0 / P.B})
    pb = poisson_bracket(q0, q1)
    assert pb.coeffs == (((0, 0), 1.0 / P.B),)


def test_momentum_map_labels():
    z = momentum_map(PhasePoint(0.0, 0.0), P, M)
    assert z.u == (0.0, 0.0, M * M / (2.0 * P.B * P.hbar), -1.0 / P.hbar)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = PhasePoint(*rng.uniform(-3, 3, 2))
        assert classify(momentum_map(s, P, M), P).tag == "CaseA"


def poisson_map_defect(params, m, points):
    """The decided pullback identity at one B and m, in Fractions at the
    points (q, p): max |{u_A, u_B} - <u, [T_A, T_B]>| over the pairs."""
    B = Fraction(params.B)
    tables = [qz._array(t) for t in qz.comoment_table(B, Fraction(m))]
    worst = Fraction(0)
    for q, p in points:
        q, p = Fraction(q), Fraction(p)
        k = model.kirillov([qz._at(c, q, p) for c in tables], B)
        worst = max([worst] + [abs(qz._at(qz._poisson(tables[a], tables[b]), q, p) - k[a][b])
                               for a in range(4) for b in range(a + 1, 4)])
    return float(worst)


def test_pullback_of_orbit_form():
    # decided for every B, hbar, m, q and p; the Fraction identity holds at
    # each point, and the oracle's central differences within their gate
    rng = np.random.default_rng(3)
    points = rng.uniform(-2, 2, (10, 2)).tolist()
    assert qz.decided_identities()["pullback"] == 0.0
    assert poisson_map_defect(P, M, points) == 0.0
    for q, p in points:
        assert pullback_residual(PhasePoint(q, p), P, M) < 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(B=st.sampled_from([s * b for b in (5e-324, 1e-300, 1e-8, 1e-4, 0.7, 1.3,
                                          100.0, 1e4, 1e300)
                          for s in (1.0, -1.0)]),
       hbar=st.sampled_from((1e-3, 0.5, 1.0, 7.0)), m=st.floats(1e-3, 1e3),
       points=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                       min_size=1, max_size=3))
def test_pullback_is_exact_everywhere(B, hbar, m, points):
    # the Poisson-map identity holds at every rational point, B, hbar and m
    assert poisson_map_defect(ModelParams(B, hbar), m, points) == 0.0
    assert casimir_defect(ModelParams(B, hbar), m) == 0.0


def flipped_u0(table=qz.comoment_table):
    """The comoment table with -Bq in u0 taken as +Bq: a planted defect."""
    def mutant(B, m):
        u0, *rest = table(B, m)
        return ({**u0, (1, 0): -u0[1, 0]}, *rest)
    return mutant


def flipped_u2_constant(table=qz.comoment_table):
    """The comoment table with u2's m^2 / (2B) taken as -m^2 / (2B): a
    planted defect.  u2 is defined up to a constant, and the Casimir fixes
    it."""
    def mutant(B, m):
        u0, u1, u2, u3 = table(B, m)
        return u0, u1, {**u2, (0, 0): -u2[0, 0]}, u3
    return mutant


def flipped_poisson(bracket=qz._poisson):
    """The Poisson bracket with its orientation flipped, {f, g} taken as
    df/dq dg/dp - df/dp dg/dq: a planted defect."""
    return lambda f, g: -bracket(f, g)


def decide_afresh(monkeypatch):
    """Have the suites decide quantization's identities again, past the
    once-per-process memo, so that a planted defect shows."""
    monkeypatch.setattr(qz, "decided_identities", qz.decided_identities.__wrapped__)


def flipped_central_sign(B, brackets=model.brackets):
    """The bracket table with [P0, P1] = -B eps_01 I: a planted defect."""
    return tuple((a, c, tuple(-k for k in coeffs) if (a, c) == (0, 1) else coeffs)
                 for a, c, coeffs in brackets(B))


#: the exact checks decide at every B; the float oracle passes unmutated at
#: the bench B alone (its central differences lose u2's m^2 / (2B) at small
#: |B|, and its Casimir squares terms of size B at large |B|), so it is
#: compared there
PLANT_B = (1e-8, -0.5, 1.3, -3.0, -1e4, 1e300)


@pytest.mark.parametrize("B", PLANT_B)
def test_planted_u0_sign_fails_exact_and_oracle(B, monkeypatch):
    # the qp coefficient of the Casimir sums -2B from u0^2 and -2B from
    # -2B u2 u3, which cancelled before: it reads 2 at every B.  The
    # comoments are no Poisson map, so the pullback fails too
    monkeypatch.setattr(qz, "comoment_table", flipped_u0())
    decide_afresh(monkeypatch)
    p = ModelParams(B)
    report = cli.suite_classical(p)
    assert report["comoment_casimir"] == report["pullback"] == 2.0 and not report["pass"]
    assert casimir_defect(p, M) == 2.0 and poisson_map_defect(p, M, [(0.5, -1.5)]) > 0
    if B in BENCH_B:
        ref = classical_oracle(p, 42)
        assert ref["comoment_casimir"] > 1e-12 and ref["pullback"] > 1e-6


@pytest.mark.parametrize("B", PLANT_B)
def test_planted_u2_constant_sign_fails_exact_and_oracle(B, monkeypatch):
    # the constant coefficient of the Casimir sums -m^2 from -2B u2 u3 and
    # -m^2 itself, which cancelled before: it reads 2 at every B.  No
    # bracket sees a constant, so the bracket and the pullback still hold
    monkeypatch.setattr(qz, "comoment_table", flipped_u2_constant())
    decide_afresh(monkeypatch)
    p = ModelParams(B)
    assert cli.suite_classical(p) == {
        "comoment_casimir": 2.0, "lightcone_bracket_exact": True,
        "pullback": 0.0, "pass": False}
    assert casimir_defect(p, M) == 2.0
    if B in BENCH_B:
        assert classical_oracle(p, 42)["comoment_casimir"] > 1e-12


@pytest.mark.parametrize("B", PLANT_B)
def test_planted_poisson_sign_fails_exact_and_oracle(B, monkeypatch):
    # {q^0, q^1} reads -1/B, 2 relative to 1/B at every B; the Dirac pair
    # swaps, the condition failing at the orbit's z3 and holding at the
    # wrong sign.  The Poisson map's sign: {u_A, u_B} reads minus the
    # Kirillov form, 2.0, and the oracle's orbit form, pulled back by
    # central differences, meets the flipped pairing {q, p} = +1
    monkeypatch.setattr(qz, "_poisson", flipped_poisson())
    decide_afresh(monkeypatch)
    p = ModelParams(B)
    decided = qz.decided_identities()
    assert decided["lightcone_bracket"] == 2.0 and decided["comoment_casimir"] == 0.0
    assert (decided["dirac"], decided["dirac_wrong_sign"]) == (2.0, 0.0)
    assert decided["pullback"] == 2.0
    report = cli.suite_classical(p)
    assert report["lightcone_bracket_exact"] is False and not report["pass"]
    assert not cli.suite_quantization(p)["pass"]
    if B in BENCH_B:
        oracle = classical_oracle(p, 42)
        assert oracle["lightcone_bracket_exact"] is False and oracle["pullback"] > 1e-6


@pytest.mark.parametrize("B", PLANT_B)
def test_planted_central_sign_fails_exact_and_oracle(B, monkeypatch):
    # the Kirillov form and group's float bracket both read the flipped
    # table; the comoments, which do not, are then no Poisson map onto its
    # orbits
    monkeypatch.setattr(model, "brackets", flipped_central_sign)
    monkeypatch.setattr(grp, "brackets", flipped_central_sign)
    decide_afresh(monkeypatch)
    p = ModelParams(B)
    report = cli.suite_classical(p)
    assert report["comoment_casimir"] == 0.0 and report["pullback"] == 2.0
    assert not report["pass"]
    if B in BENCH_B:
        assert classical_oracle(p, 42)["pullback"] > 1e-6


def test_degree_gate_total():
    with pytest.raises(qz.NoGoError):
        qz.PolynomialObservable({(2, 1): 1.0})
    with pytest.raises(qz.NoGoError):
        qz.parse_poly("q^2p")
    with pytest.raises(qz.NoGoError):
        qz.parse_poly("p^3")


def test_parse_poly():
    f = qz.parse_poly("q^2 + 2qp - 0.5")
    assert f.c[2, 0] == 1.0 and f.c[1, 1] == 2.0 and f.c[0, 0] == -0.5
    g = qz.parse_poly("-q + 3.5p^2")
    assert g.c[1, 0] == -1.0 and g.c[0, 2] == 3.5
    with pytest.raises(ValueError):
        qz.parse_poly("q**2")


def unit(i, j, v=1.0):
    """The 3 x 3 operator array (exps (0,)) with the single entry c_0[i, j] = v."""
    c = np.zeros((1, 3, 3), dtype=complex)
    c[0, i, j] = v
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
    op = qz.quantize(comoment_observables(P, M)[3], P)
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
    c = np.zeros((1, 3, 3), dtype=complex)
    c[0, :, 0], c[0, :2, 1], c[0, 0, 2] = mc, nc, s2
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(f=TABLES, g=TABLES)
def test_poisson_bracket_equals_polyder_reference(f, g):
    # the bracket's derivatives are numpy.polynomial's polyder, bit for bit
    from numpy.polynomial import polynomial as npp

    f, g = qz.PolynomialObservable(f), qz.PolynomialObservable(g)
    fq, fp = npp.polyder(f.c, axis=0), npp.polyder(f.c, axis=1)
    gq, gp = npp.polyder(g.c, axis=0), npp.polyder(g.c, axis=1)
    want = qz.PolynomialObservable(ir._polymul2(fp, gq) - ir._polymul2(fq, gp))
    assert np.array_equal(poisson_bracket(f, g).c, want.c)


AFFINE = st.tuples(*[st.floats(-3.0, 3.0)] * 3)


@settings(max_examples=300, deadline=None, derandomize=True)
# the substitution rounds 5e-324 * 0.625 * 0.625 up to 5e-324, the direct
# evaluation rounds it down to 0
@example(table={(2, 0): 5e-324}, q_map=(0.0, 0.0, 0.625), p_map=(0.0, 0.0, 0.0),
         q=0.0, p=0.0)
@given(table=st.dictionaries(st.sampled_from(MONOMIALS), st.floats(-3.0, 3.0)),
       q_map=AFFINE, p_map=AFFINE, q=st.floats(-3.0, 3.0),
       p=st.floats(-3.0, 3.0))
def test_substitute_affine_is_evaluation_at_the_mapped_point(table, q_map,
                                                             p_map, q, p):
    f = qz.PolynomialObservable(table)
    s = PhasePoint(q, p)
    qq = q_map[0] * q + q_map[1] * p + q_map[2]
    pp = p_map[0] * q + p_map[1] * p + p_map[2]
    lhs = evaluate(substitute_affine(f, q_map, p_map), s)
    # round-off is relative to the sum of the terms' absolute values.  Below
    # the normal range it is absolute: each side takes fewer than 64 rounded
    # operations, and each may lose up to the subnormal spacing
    aq = abs(q_map[0] * q) + abs(q_map[1] * p) + abs(q_map[2])
    ap = abs(p_map[0] * q) + abs(p_map[1] * p) + abs(p_map[2])
    scale = sum(abs(v) * aq ** i * ap ** j for (i, j), v in f.coeffs)
    bound = max(1e-14 * scale, 64 * math.ulp(0.0))
    assert abs(lhs - evaluate(f, PhasePoint(qq, pp))) <= bound


def test_quantize_linearity():
    f = qz.parse_poly("q^2+2qp")
    g = qz.parse_poly("p-3")
    lhs = qz.quantize(qz.PolynomialObservable(f.c + 2.0 * g.c), P)
    rhs = qz.quantize(f, P) + qz.quantize(qz.PolynomialObservable(2.0 * g.c), P)
    assert lhs == rhs


def test_hermiticity_of_quantized_observables():
    # the formal adjoint, exactly, and the probe kernel
    probes = default_probes(3)
    for text in ("1", "q", "p", "q^2", "qp", "p^2"):
        op = qz.quantize(qz.parse_poly(text), P)
        assert ir._operator_defect([op, -1 * op.adjoint()]) == 0.0, text
        assert hermiticity_residual(op, probes[:2]) < 1e-9, text
    assert qz.decided_identities()["hermiticity"] == 0.0


def test_adjoint_is_the_kernel_adjoint():
    # <A f, g> = <f, A^dagger g> on complex probes, for e^{kx} x^i D^j terms
    # at k = -1, 0, 1: the formal adjoint through the product rule against
    # the Gaussian moments
    rng = np.random.default_rng(7)
    probes = complex_probes(rng)
    for _ in range(5):
        op = random_operator(rng, 3, (), (-1, 0, 1))
        adj = op.adjoint()
        for f in probes:
            for g in probes:
                mats, r, gram = _kernel(op, [f, g])
                amats, ar, agram = _kernel(adj, [f, g])
                lhs = sum(np.conj(m @ r[:, 0]) @ gram(k) @ r[:, 1]
                          for k, m in mats.items())
                rhs = sum(np.conj(ar[:, 0]) @ agram(k) @ (m @ ar[:, 1])
                          for k, m in amats.items())
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hbar=HBARS, B=st.floats(0.5, 3.0), sign=st.sampled_from((-1.0, 1.0)))
def test_dirac_and_hermiticity_over_hbar_and_B(hbar, B, sign):
    # over 13 hbar values in [1e-3, 1e3] and six B, the worst values
    # measured were 3.5e-12 (Dirac) and 2.7e-12 (hermiticity); the gates
    # are the quantization suite's
    p = ModelParams(B=sign * B, hbar=hbar)
    probes = default_probes(3)
    assert dirac_at(p, M, probes) <= 1e-9
    assert comoment_hermiticity(p, M, probes[:2]) <= 1e-9


def test_dirac_condition():
    # decided for every B, hbar and m; the negative control reads 2, each
    # wrong-sign coefficient twice the one it should cancel
    decided = qz.decided_identities()
    assert decided["dirac"] == 0.0 and decided["dirac_wrong_sign"] == 2.0
    probes = default_probes(3)
    assert dirac_at(P, M, probes) < 1e-9
    assert dirac_at(P, M, probes, z3=+1.0 / P.hbar) > 0.1


@pytest.mark.parametrize("B", (1.0, -1.3))
@pytest.mark.parametrize("sign", (-1.0, 1.0))
def test_stacked_dirac_equals_max_of_single_probe_calls(B, sign):
    p = ModelParams(B=B)
    probes = default_probes(3)
    z3 = sign / p.hbar
    assert dirac_at(p, M, probes, z3=z3) == max(
        dirac_at(p, M, [f], z3=z3) for f in probes)


@pytest.mark.parametrize("B", (1.0, -1.3, 3.0))
@pytest.mark.parametrize("hbar", (1.0, 0.5))
def test_shared_dirac_chains_equal_separate_calls(B, hbar):
    # both z3 values of the quantization suite from one set of chains,
    # bit for bit the two single-z3 calls
    p = ModelParams(B=B, hbar=hbar)
    probes = default_probes(3)
    z3s = (-1.0 / hbar, 1.0 / hbar)
    assert dirac_residuals(p, M, probes, z3s) == [
        dirac_at(p, M, probes, z3=z3) for z3 in z3s]


@pytest.mark.parametrize("B", (1.0, -1.3))
def test_stacked_hermiticity_equals_per_pair_reference(B):
    # the closed form against the per-pair quadrature inner products: both
    # read round-off (the quadrature about 3e-15, the closed form about
    # 4e-16), so they agree to 1e-14
    p = ModelParams(B=B)
    probes = default_probes(3)
    fs = [tower(f) for f in probes]
    for u in comoment_observables(p, M):
        op = qz.quantize(u, p)
        ref = max(abs(inner(operator_apply(op, f), g) - inner(f, operator_apply(op, g)))
                  for f in fs for g in fs)
        assert ref <= 1e-14
        assert abs(hermiticity_residual(op, probes) - ref) <= 1e-14


def test_quantum_checks_on_no_probes():
    # the quantization checks share the moment kernel's named refusal
    op = qz.quantize(qz.parse_poly("q^2+2qp"), P)
    calls = [lambda: hermiticity_residual(op, []),
             lambda: dirac_residuals(P, M, [], (1.0, -1.0)),
             lambda: verify_covariance(GroupElement(0.1, 0.2, 0.3, 0.4),
                                       qz.parse_poly("p"), P, M, [])]
    for call in calls:
        with pytest.raises(ValueError, match="^operator checks need at least one probe$"):
            call()


def test_covariance():
    # decided once for every B, hbar, m, element and observable; the float
    # oracle at given elements
    assert qz.decided_covariance() == 0.0
    probes = default_probes(2)
    u2 = comoment_observables(P, M)[2]
    assert verify_covariance(GroupElement(0, 0, 0, 0), u2, P, M, probes) < 1e-14
    g = GroupElement(0.5, -0.3, 0.0, 0.0)
    f = qz.PolynomialObservable({(0, 1): 1.0})
    assert verify_covariance(g, f, P, M, probes) < 1e-9
    g = GroupElement(0.0, 0.0, 0.8, 0.2)
    assert verify_covariance(g, u2, P, M, probes) < 1e-8


def test_covariance_suite():
    assert covariance_suite(P, M, trials=21, seed=4) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hbar=HBARS, B=st.floats(0.5, 3.0), sign=st.sampled_from((-1.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_covariance_over_hbar_and_B(hbar, B, sign, seed):
    # the residual is relative to ||Q(f . l_g) psi||, which grows with
    # hbar^2 for a p^2 term; over 13 hbar values in [1e-3, 1e3] and six B
    # the worst value measured was 1.2e-11 (hbar = 1e-3, B = -3).  The
    # gate is the quantization suite's
    p = ModelParams(B=sign * B, hbar=hbar)
    assert covariance_suite(p, M, seed=seed) <= 1e-8


def test_batched_covariance_suite_equals_max_of_scalar_checks():
    probes, trials, seed = default_probes(2), 16, 5
    coords = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(trials, 4))
    base = covariance_observables(P, M)
    scalar = max(verify_covariance(GroupElement(*c), base[k % len(base)],
                                   P, M, probes)
                 for k, c in enumerate(coords))
    batched = covariance_suite(P, M, trials=trials, seed=seed)
    assert abs(batched - scalar) <= 4 * np.finfo(float).eps


def test_u2_offset_keeps_homomorphism():
    # u2 is defined up to an additive constant
    us = list(comoment_observables(P, M))
    us[2] = qz.PolynomialObservable({**dict(us[2].coeffs),
                                     (0, 0): us[2].c[0, 0] + 2.5})
    assert homomorphism_gap(us, 0, 2) < 1e-14


# ---------------------------------------------------------------------------
# the operator algebra behind the closed-form checks


def random_operator(rng, size=3, batch=(), exps=(0,)):
    """sum_k e^{kx} sum c_k[i, j] x^i D^j over k in exps, complex batch columns."""
    shape = (len(exps), size, size) + batch
    c = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    # total degree below the size
    c[:, np.add.outer(np.arange(size), np.arange(size)) >= size] = 0.0
    return qz.QuantOperator(c, exps)


def test_laurent_arithmetic_is_exact():
    B, z = Laurent.var("B"), Laurent.var("z3")
    x = B / 2.0 + 0.5j
    assert (x + 1) * (x + 1) == x * x + 2 * x + 1 and (x - x) == 0
    assert (2.0 * B * z) / (2.0 * B * z) == 1 and -1 / z * z == -1
    # 0.1 is the dyadic m 2^-56, read exactly: the exact sum of 0.1 and 0.2
    # is neither float nearest it
    assert 0.1 * B + 0.2 * B != 0.3 * B and 0.1 * B + 0.2 * B != (0.1 + 0.2) * B
    assert (1j * B).conjugate() == -1j * B and not (B - B)
    for bad in (lambda: B * Fraction(1, 3), lambda: B * math.inf,
                lambda: 1 / (B + 1), lambda: B / 3):
        with pytest.raises(ValueError):
            bad()
    # each coefficient of the sum, relative to the largest the parts hold
    # at its monomial
    assert relative_defect([B * B, -B * B, 1e-300 * z]) == 1.0
    assert relative_defect([2 * B, -B, z, -z]) == 0.5
    assert relative_defect([B * z, -z * B, 0]) == 0.0


def test_laurent_exp_turns_sums_into_products():
    # e^(c x) is h^(-2c) in the variable h = e^(-x/2) where 2c is an
    # integer; any other exponent is a free variable, still with
    # exp(-y) = 1 / exp(y)
    a, b = Laurent.var("alpha_e1"), Laurent.var("alpha_e2")
    h = Laurent.var("e^(-alpha_e1/2)")
    assert (-a).exp() == h * h and (a / 2).exp() * h == 1
    assert (a + b).exp() == a.exp() * b.exp() and (a - a).exp() == 1
    assert a.cosh() * a.cosh() - a.sinh() * a.sinh() == 1
    assert (a + b).cosh() == a.cosh() * b.cosh() + a.sinh() * b.sinh()
    for y in (0.001 * a, -0.501 * a + b, 0.001 * a * a, a * b + 0.25, 1j * a):
        assert y.exp() * (-y).exp() == 1
        assert y.exp() != 1 and len(y.exp().terms) == 1
    # the planted amplitude e^(-0.001 alpha) is a character: the product of
    # its values at alpha_1 and alpha_2 is its value at their sum
    assert (-0.001 * (a + b)).exp() == (-0.001 * a).exp() * (-0.001 * b).exp()


def test_generic_group_element_holds_laurent_coordinates_only():
    # object arrays of Laurent variables make a generic element; any other
    # object is still refused by name
    x = np.array([Laurent.var("theta_g")], dtype=object)
    g = GroupElement(x, x, x, x)
    assert g.theta.dtype == object and g.theta.shape == (1, 2)
    for bad in (None, "1", 1.5):
        with pytest.raises(ValueError, match="GroupElement components must be numbers"):
            GroupElement(np.array([bad], dtype=object), x, x, x)


def test_weyl_product_is_the_operator_product():
    # (A B) f = A (B f) pointwise, on a probe and its derivatives
    rng = np.random.default_rng(0)
    f = hermite_wf(3, depth=8)
    x = np.linspace(-4.0, 4.0, 41)
    for _ in range(10):
        a, b = random_operator(rng), random_operator(rng)
        lhs = operator_apply(a @ b, f)(x)
        rhs = operator_apply(a, operator_apply(b, f))(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))
    # the canonical commutator [D, x] = 1
    d, xo = qz.QuantOperator(np.array([[[0, 1], [0, 0]]])), \
        qz.QuantOperator(np.array([[[0, 0], [1, 0]]]))
    assert minus(d @ xo, xo @ d) == qz.QuantOperator(np.diag([1.0, 0.0, 0.0])[None])


def test_weyl_product_on_batch_columns():
    # member k of a batch product is the product of members k, up to the
    # rounding of numpy's array and scalar complex products
    rng = np.random.default_rng(1)
    a, b = random_operator(rng, batch=(4, 1)), random_operator(rng)
    prod = (a @ b).c
    for k in range(4):
        single = (qz.QuantOperator(a.c[..., k, 0]) @ b).c
        assert np.max(np.abs(prod[..., k, 0] - single)) \
            <= 8 * np.finfo(float).eps * np.max(np.abs(single))


def product_gap(a, b, f, x):
    """Largest pointwise gap of (a b) f to a (b f), relative to a (b f)."""
    lhs, rhs = operator_apply(a @ b, f)(x), operator_apply(a, operator_apply(b, f))(x)
    return np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))


def test_operator_product_on_mixed_terms():
    # e^{kx} x^i D^j terms at k = -1, 0, 1 and i + j <= 2, on batch columns:
    # the shift e^{-qx} D e^{qx} = D + q meets the x-left rule
    rng = np.random.default_rng(5)
    f, x = hermite_wf(3, depth=8), np.linspace(-3.0, 3.0, 31)
    for _ in range(10):
        a, b = (random_operator(rng, 3, (2, 1), (-1, 0, 1)) for _ in range(2))
        assert product_gap(a, b, f, x) <= 1e-12


def test_product_without_its_exponential_shift_fails(monkeypatch):
    # a planted defect: (D + q)^j taken as D^j.  Family C's bracket table
    # fails, decided (past its once-per-process memo) and on the probe
    # kernel, and so does the pointwise product, on its generators and on
    # mixed terms
    rep = ir.RepParams("C", P, zeta0=1.0, zeta1=0.3)
    rng = np.random.default_rng(5)
    a, b = (random_operator(rng, 3, (2, 1), (-1, 0, 1)) for _ in range(2))
    monkeypatch.setattr(ir, "_shift", lambda q, n: [[(j, 1)] for j in range(n)])
    gate = po.REP_GATES["commutators"]
    decided = ir.decided_identities.__wrapped__()
    assert decided["C"]["commutators"] > gate, decided
    # generator consistency compares the jets of T with the table, and
    # takes no product
    consistent = dict.fromkeys(ir.BASIS_NAMES, 0.0)
    assert decided["C"]["generators"] == consistent, decided
    assert decided["A"] == decided["B"] == {"commutators": 0.0, "casimir": 0.0,
                                            "generators": consistent}
    assert verify_commutators(rep, default_probes(5)) > gate
    gens = ir._generators(rep)
    f, x = hermite_wf(3, depth=8), np.linspace(-3.0, 3.0, 31)
    assert product_gap(gens["J"], gens["P0"], f, x) > 0.1
    assert product_gap(a, b, f, x) > 0.1


def test_conjugation_by_affine_phase():
    # U^-1 Q U f = U^-1 (Q (U f)) pointwise, for a random quadratic phase
    rng = np.random.default_rng(2)
    f = hermite_wf(2, depth=8)
    x = np.linspace(-3.0, 3.0, 31)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        b = rng.uniform(-1.0, 1.0)
        phase = tuple(1j * rng.uniform(-1.0, 1.0, 3))
        u = ir.AffinePhase(1.5, a, b, phase)
        # U^-1 f(x) = amp^-1 e^(-phi((x - b) / a)) f((x - b) / a)
        u_inv = ir.AffinePhase(1.0 / 1.5, 1.0 / a, -b / a,
                               tuple(-c for c in ir._poly_pullback(phase, 1.0 / a, -b / a)))
        op = random_operator(rng)
        lhs = operator_apply(op.conjugated(u), f)(x)
        rhs = affine_apply(u_inv, operator_apply(op, affine_apply(u, f)))(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * np.max(np.abs(rhs))


def test_conjugation_rejects_a_hyperbolic_phase():
    u = ir.AffinePhase(1.0, 1.0, 0.5, (0.3j, 0.1j), "hyp")
    with pytest.raises(ValueError, match="hyperbolic phase"):
        qz.quantize(qz.parse_poly("p"), P).conjugated(u)


def test_quantum_checks_need_gaussian_polynomial_probes():
    op = qz.quantize(qz.parse_poly("qp"), P)
    other = wf_scale(hermite_wf(1), 2.0)  # a multiple of h_1 carries no poly
    rep = ir.RepParams("C", P, zeta0=1.0, zeta1=0.3)
    # an evaluator that carries poly is not a probe record either: one on a
    # shifted Gaussian would otherwise be read as one on the standard one
    for probes in ([hermite_probe(0), other],
                   [hermite_probe(0), hermite_wf(1, center=0.5)],
                   [hermite_probe(0), tower(hermite_probe(1))]):
        with pytest.raises(ValueError, match="operator checks need"):
            hermiticity_residual(op, probes)
        with pytest.raises(ValueError, match="operator checks need"):
            dirac_at(P, M, probes)
        with pytest.raises(ValueError, match="operator checks need"):
            verify_covariance(GroupElement(0.1, 0.2, 0.3, 0.4),
                              qz.parse_poly("p"), P, M, probes)
        # the representation checks share the Gaussian moments
        with pytest.raises(ValueError, match="operator checks need"):
            verify_commutators(rep, probes)
        with pytest.raises(ValueError, match="operator checks need"):
            verify_casimir(rep, probes)


def test_gaussian_moments_are_the_inner_product():
    # shifted, widened and complex probes: the moment sum against quadrature
    rng = np.random.default_rng(3)
    for _ in range(5):
        center, width = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        fs = [gauss_poly_wf(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4),
                            center=center, width=width) for _ in range(2)]
        op = random_operator(rng)
        closed = gauss_inner(
            operator_image(op, fs[0].poly, center, width)[0], fs[1].poly, width)
        assert abs(closed - inner(operator_apply(op, fs[0]), fs[1])) <= 1e-12 * abs(closed)


def kernel_oracle_gap(op, probes):
    """Largest gap of the moment kernel to the per-probe moment sums, over
    <A f_i, A f_j>, <A f_i, f_j> and <f_i, A f_j>, each relative to its
    Cauchy-Schwarz bound."""
    mats, r, gram = _kernel(op, probes)
    s = {k: m @ r for k, m in mats.items()}
    g0 = gram(0)
    kernel = {"AA": sum(np.swapaxes(s[k].conj(), -1, -2) @ gram(k + l) @ s[l]
                        for k in s for l in s),
              "Af": sum(np.swapaxes(s[k].conj(), -1, -2) @ gram(k) @ r for k in s),
              "fA": sum(r.conj().T @ gram(k) @ s[k] for k in s)}
    a = [operator_image(op, f.poly, 0.0, 1.0) for f in probes]
    f = [{0: x.poly} for x in probes]

    def table(left, right):
        # batch axes first, then the probe pair, as the kernel's
        t = np.array([[images_inner(u, v, 0.0, 1.0) for v in right] for u in left])
        return np.moveaxis(t, (0, 1), (-2, -1))

    oracle = {"AA": table(a, a), "Af": table(a, f), "fA": table(f, a)}
    na = np.sqrt(np.real(np.diagonal(oracle["AA"], axis1=-2, axis2=-1)))
    nf = np.sqrt(np.real(np.diagonal(r.conj().T @ g0 @ r)))
    bound = {"AA": na[..., :, None] * na[..., None, :],
             "Af": na[..., :, None] * nf, "fA": nf[:, None] * na[..., None, :]}
    return max(float(np.max(np.abs(kernel[key] - oracle[key]) / bound[key]))
               for key in kernel)


def complex_probes(rng, count=3, degree=4):
    """Probe records with random complex polynomials."""
    return [Probe(rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree))
            for _ in range(count)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_moment_kernel_equals_per_probe_oracle(seed):
    # batched operators of sizes 3 and 5, and one with e^{kx} x^i D^j terms
    # at k = -1, 0, 1, on complex probes
    rng = np.random.default_rng(seed)
    probes = complex_probes(rng)
    for op in (random_operator(rng, 3, (4, 1)), random_operator(rng, 5, (4, 1)),
               random_operator(rng, 3, (4, 1), (-1, 0, 1))):
        assert kernel_oracle_gap(op, probes) <= 1e-13


def test_moments_without_their_shift_factor_fail_the_oracle(monkeypatch):
    # G_K without its e^{m^2}, m = K / 2: the e^{kx} terms read it at once
    real = po._moments

    def mutant(size, k):
        return real(size, k) / math.exp((k / 2.0) ** 2)

    rng = np.random.default_rng(11)
    probes, op = complex_probes(rng), random_operator(rng, 3, (4, 1), (-1, 0, 1))
    assert kernel_oracle_gap(op, probes) <= 1e-13
    monkeypatch.setattr(po, "_moments", mutant)
    assert kernel_oracle_gap(op, probes) > 1e-3


# ---------------------------------------------------------------------------
# the quadrature oracle of the closed-form quantization checks


def quadrature_hermiticity(op, probes):
    """max over probe pairs of |<A f_i, f_j> - <f_i, A f_j>|, one quadrature."""
    f = wf_stack(probes)
    af = operator_apply(op, f)

    def integrand(x):
        fx, ax = f.fn(x, 0), af.fn(x, 0)
        return [np.conj(ax)[:, None] * fx, np.conj(fx)[:, None] * ax]

    lhs, rhs = integrate_stack([integrand], f, af)[0]
    return float(np.max(np.abs(lhs - rhs)))


def quadrature_dirac(params, m, probes, z3s):
    """The Dirac residual at each z3, from operator chains on the probes."""
    us = comoment_observables(params, m)
    ops = [qz.quantize(u, params) for u in us]
    f = wf_stack(probes)
    chains = []
    for a in range(4):
        for b in range(a + 1, 4):
            qbr = qz.quantize(poisson_bracket(us[a], us[b]), params)
            comm = wf_sub(operator_apply(ops[a], operator_apply(ops[b], f)),
                          operator_apply(ops[b], operator_apply(ops[a], f)))
            chains.append((operator_apply(qbr, f), comm))
    diffs = [(lhs, wf_scale(comm, -1j * z3))
             for z3 in z3s for lhs, comm in chains]
    res = relative_l2(diffs, f)[0]
    return [float(np.max(r)) for r in np.split(res, len(z3s))]


def quadrature_covariance(g, pulled, qf, params, m, probes):
    """max over probes of ||pulled psi - T(g^-1) qf T(g) psi|| / ||pulled psi||."""
    rep = qz.rep_for_mass(params, m)
    ginv = grp.inverse(g, params)
    worst = 0.0
    for psi in probes:
        lhs = operator_apply(pulled, psi)
        rhs = rep_image(rep, ginv, operator_apply(qf, rep_image(rep, g, psi)))
        window = _window(lhs, rhs)
        sq = integrate_vec(lambda x: np.abs(lhs.fn(x, 0) - rhs.fn(x, 0)) ** 2, *window)
        n2 = integrate_vec(lambda x: np.abs(lhs.fn(x, 0)) ** 2, *window)
        worst = np.maximum(worst, np.sqrt(sq / n2))
    return float(np.max(worst))


#: the quantization suite's gates; dirac_wrong_sign is a lower bound
GATES = {"dirac": 1e-9, "covariance": 1e-8, "hermiticity": 1e-9}


def suite_and_oracle(params, seed=42):
    """suite_quantization's report, its identities decided afresh past the
    once-per-process memo (so a planted defect shows), and the quadrature
    oracle's value of each residual: the Dirac pair on three Hermite
    probes, hermiticity on two, and covariance on the operators, draws and
    probes the probe kernel's covariance_suite takes at the seed."""
    seen = {}
    real = po._covariance_residual

    def cov(*args):
        seen["covariance"] = args[:-1] + ([tower(f) for f in args[-1]],)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("decided_identities", "decided_covariance"):
            mp.setattr(qz, name, getattr(qz, name).__wrapped__)
        report = cli.suite_quantization(params)
        mp.setattr(po, "_covariance_residual", cov)
        covariance_suite(params, M, 50, seed)
    fs = [tower(f) for f in default_probes(3)]
    oracle = dict(zip(("dirac", "dirac_wrong_sign"), quadrature_dirac(
        params, M, fs, (-1.0 / params.hbar, 1.0 / params.hbar))))
    oracle["hermiticity"] = max(quadrature_hermiticity(qz.quantize(u, params), fs[:2])
                                for u in comoment_observables(params, M))
    oracle["covariance"] = quadrature_covariance(*seen["covariance"])
    return report, oracle


def kernel_values(params, seed=42):
    """The probe-kernel versions of the decided quantization identities."""
    probes = default_probes(3)
    z3s = (-1.0 / params.hbar, 1.0 / params.hbar)
    return {**dict(zip(("dirac", "dirac_wrong_sign"),
                       dirac_residuals(params, M, probes, z3s))),
            "hermiticity": comoment_hermiticity(params, M, probes[:2]),
            "covariance": covariance_suite(params, M, 50, seed)}


@pytest.mark.parametrize("hbar", (1e-3, 1.0, 1e3))
@pytest.mark.parametrize("B", (1.0, -1.3, 3.0))
def test_closed_form_agrees_with_quadrature_oracle(B, hbar):
    params = ModelParams(B=B, hbar=hbar)
    report, oracle = suite_and_oracle(params)
    assert report["pass"], report
    floats = kernel_values(params)
    for field, gate in GATES.items():
        assert report[field] == 0.0, (field, report[field])
        assert floats[field] <= gate and oracle[field] <= gate, \
            (field, floats[field], oracle[field])
    # the negative control is of order one: decided, on the kernel and by
    # quadrature, and the last two agree
    bad, ref = kernel_values(params)["dirac_wrong_sign"], oracle["dirac_wrong_sign"]
    assert report["dirac_wrong_sign"] == 2.0
    assert bad > 0.1 and abs(bad - ref) <= 1e-12 * ref, (bad, ref)


def _weyl_with(factor):
    """_weyl with its symmetrisation factor (-i hbar / 2)^k as factor(h, k)."""
    def weyl(c, h):
        out = np.zeros(c.shape, dtype=np.result_type(c, complex))
        for i in range(3):
            for j in range(3 - i):
                for k in range(min(i, j) + 1):
                    out[i - k, j - k] += (math.factorial(k) * math.comb(i, k)
                                          * math.comb(j, k) * c[i, j]
                                          * factor(h, k) * (-1j * h) ** (j - k))
        return out
    return weyl


def _weyl_factor_mutant(_):
    # the Weyl factor (-i hbar / 2)^k -> (-i hbar)^k
    return {"_weyl": _weyl_with(lambda h, k: (-1j * h) ** k)}


def _p_map_mutant(real):
    # the p-map term -B sinh(alpha) q -> +B sinh(alpha) q
    def mutant(g, params):
        q_map, (cq, cp, c0) = real["_left_action_maps"](g, params)
        return q_map, (-cq, cp, c0)
    return {"_left_action_maps": mutant}


def _amplitude_mutant(factor):
    # family A's amplitude e^(-alpha/2) -> e^(-alpha/2) factor(alpha, exp),
    # through the exp hook of _phase_coefficients: Laurent.exp on the
    # decided side, np.exp on the float one
    def plant(real):
        def mutant(rep, t0, t1, al, be, exp=np.exp):
            amp, *rest = real["_phase_coefficients"](rep, t0, t1, al, be, exp)
            return (amp * factor(al, exp) if rep.family == "A" else amp, *rest)
        return {"_phase_coefficients": mutant}
    return plant


def _inverse_beta_mutant(real):
    # the sign of beta in the inverse: beta^-1 = -beta - ... -> +beta - ...,
    # which only the round trip T(g^-1) T(g) = 1 reads
    def mutant(g, params):
        h = real["inverse"](g, params)
        return GroupElement(h.theta0, h.theta1, h.alpha, h.beta + 2 * g.beta)
    return {"inverse": mutant}


#: where each planted function is read: quantization, irreps (the oracles'
#: T(g)) and group (the oracles' inverse)
PLANT_HOMES = (qz, ir, grp)


#: the planted defects of inverse: the kernel's covariance reads T(g^-1)
#: through the round trip's coefficient gap alone, the quadrature through
#: T(g^-1) Q(f) T(g) itself, so the two take different residuals
ROUND_TRIP = (_inverse_beta_mutant,)


@pytest.mark.parametrize("plant, failing", (
    (_weyl_factor_mutant, {"covariance", "hermiticity"}),
    (_p_map_mutant, {"covariance"}),
    (_amplitude_mutant(lambda al, exp: exp(-0.001 * al ** 2)), {"covariance"}),
    (_inverse_beta_mutant, {"covariance"}),
), ids=("weyl-factor", "p-map-sign", "amplitude-quadratic", "inverse-beta-sign"))
@pytest.mark.parametrize("B", (1.0, -1.3))
def test_planted_defect_fails_closed_form_and_oracle(plant, failing, B,
                                                     monkeypatch):
    real = {"_left_action_maps": qz._left_action_maps,
            "_phase_coefficients": ir._phase_coefficients,
            "inverse": grp.inverse}
    for name, fn in plant(real).items():
        for home in PLANT_HOMES:
            if hasattr(home, name):
                monkeypatch.setattr(home, name, fn)
    params = ModelParams(B=B)
    report, oracle = suite_and_oracle(params)
    floats = kernel_values(params)
    assert not report["pass"]
    for field in failing:
        value, kernel, ref = report[field], floats[field], oracle[field]
        assert min(value, kernel, ref) > GATES[field], (field, value, kernel, ref)
        # the probe kernel and the quadrature take the same residual
        assert plant in ROUND_TRIP or abs(kernel - ref) <= 1e-10 * ref, \
            (field, kernel, ref)


def test_wrong_hbar_power_fails_decided_and_off_hbar_one(monkeypatch):
    # the Weyl factor (-i hbar / 2)^k -> (-i / 2)^k, a planted defect that
    # float checks at hbar = 1 cannot see: the decided identity holds hbar
    # as a variable, and the float oracles fail at hbar = 0.5
    monkeypatch.setattr(qz, "_weyl", _weyl_with(lambda h, k: (-0.5j) ** k))
    assert qz.decided_identities.__wrapped__()["hermiticity"] > GATES["hermiticity"]
    assert kernel_values(P)["hermiticity"] <= GATES["hermiticity"]
    params = ModelParams(hbar=0.5)
    fs = [tower(f) for f in default_probes(2)]
    assert kernel_values(params)["hermiticity"] > GATES["hermiticity"]
    assert max(quadrature_hermiticity(qz.quantize(u, params), fs)
               for u in comoment_observables(params, M)) > GATES["hermiticity"]


def test_amplitude_character_is_invisible_to_covariance(monkeypatch):
    # e^(-alpha/2) -> e^(-alpha/2 - 0.001 alpha) multiplies T by a character
    # of the group, so T(g^-1) T(g) stays the identity and the conjugation
    # cancels it: decided, on the kernel and by quadrature, covariance
    # passes.  The unitarity check of the representation suite is the one
    # that catches it, decided and as the float oracle
    plant = _amplitude_mutant(lambda al, exp: exp(-0.001 * al))
    monkeypatch.setattr(ir, "_phase_coefficients",
                        plant({"_phase_coefficients": ir._phase_coefficients})
                        ["_phase_coefficients"])
    report, oracle = suite_and_oracle(P)
    assert report["covariance"] == 0.0 and oracle["covariance"] <= 1e-12
    assert kernel_values(P)["covariance"] <= 1e-12
    assert ir.decided_group_identities.__wrapped__()["A"]["unitarity"] == 1.0
    assert verify_unitarity(qz.rep_for_mass(P, M), GroupElement(0, 0, 1.0, 0)) > 1e-4
