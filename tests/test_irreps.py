import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_ext import irreps as ir
from poincare_ext.group import (AlgebraElement, GroupElement, ModelParams,
                                bracket, compose, identity)
from poincare_ext.wavefunctions import (WaveFunction, gauss_legendre, hermite_wf,
                                        inner, l2_diff, norm, wf_sub)

P = ModelParams()
REP_A = ir.case_a(1.0, -1.0, P)
REP_B = ir.case_b(0.7, P)
REP_C = ir.case_c(1.0, 0.3, P)


def rand_g(rng, box=2.0):
    return GroupElement(*rng.uniform(-box, box, size=4))


def test_label_validation():
    with pytest.raises(ValueError):
        ir.case_a(1.0, 0.0, P)
    with pytest.raises(ValueError):
        ir.case_c(0.0, 0.0, P)
    with pytest.raises(ValueError):
        ir.RepParams("D", P)


def test_character_identity_and_center():
    for rep in (REP_A, REP_B, REP_C):
        assert character_close(ir.character(identity(), rep), 1.0)
    z = GroupElement(0.0, 0.0, 0.0, 0.8)
    assert character_close(ir.character(z, REP_A),
                           cmath.exp(1j * 0.8 * REP_A.z3))


def character_close(a, b, tol=1e-12):
    return abs(a - b) < tol


def test_character_multiplicative_on_subgroup():
    rng = np.random.default_rng(0)
    for rep in (REP_A, REP_B, REP_C):
        for _ in range(50):
            h2 = ir._random_subgroup_element(rep, rng)
            h1 = ir._random_subgroup_element(rep, rng)
            prod = ir.character(compose(h2, h1, P), rep)
            assert abs(prod - ir.character(h2, rep) * ir.character(h1, rep)) < 1e-12
            assert abs(abs(prod) - 1.0) < 1e-14


def test_subgroup_modulus():
    assert ir.subgroup_modulus(identity(), "A") == 1.0
    g = GroupElement(0.0, 0.0, 1.0, 0.0)
    assert abs(ir.subgroup_modulus(g, "A") - math.e) < 1e-15
    assert ir.subgroup_modulus(g, "C") == 1.0
    assert ir.subgroup_modulus(g, "B") == 1.0


def test_rep_apply_identity_and_center():
    f = hermite_wf(1)
    for rep in (REP_A, REP_C):
        out = ir.rep_apply(rep, identity(), f)
        assert l2_diff(out, f) < 1e-13
    z = GroupElement(0.0, 0.0, 0.0, 0.9)
    out = ir.rep_apply(REP_A, z, f)
    phase = cmath.exp(1j * 0.9 * REP_A.z3)
    x = np.linspace(-4, 4, 33)
    assert np.max(np.abs(out(x) - phase * f(x))) < 1e-14


def test_boost_preserves_norm():
    f = hermite_wf(0)
    out = ir.rep_apply(REP_A, GroupElement(0.0, 0.0, 1.5, 0.0), f)
    assert abs(norm(out) - norm(f)) < 1e-10


def test_homomorphism_random_pairs():
    rng = np.random.default_rng(1)
    probes = [hermite_wf(0), hermite_wf(2)]
    for rep in (REP_A, REP_B, REP_C):
        for _ in range(20):
            res = ir.verify_homomorphism(rep, rand_g(rng), rand_g(rng), probes)
            assert res < 1e-8


def test_unitarity_random_elements():
    rng = np.random.default_rng(2)
    probes = [hermite_wf(0), hermite_wf(1)]
    for rep in (REP_A, REP_B, REP_C):
        for _ in range(20):
            assert ir.verify_unitarity(rep, rand_g(rng), probes) < 1e-8


def test_commutator_table():
    probes = ir.default_probes(5)
    assert ir.verify_commutators(REP_A, probes) < 1e-9
    assert ir.verify_commutators(REP_C, probes) < 1e-9
    assert ir.verify_commutators(REP_B, probes) < 1e-12


def test_casimir_identity():
    probes = ir.default_probes(5)
    assert ir.verify_casimir(REP_A, probes) < 1e-9
    assert ir.verify_casimir(REP_C, probes) < 1e-9
    assert ir.verify_casimir(REP_B, probes) == 0.0


def _commutators_per_probe(rep, probes):
    """The bracket-table check one probe and one quadrature at a time."""
    basis = [AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))
             for k in range(4)]
    worst = 0.0
    for f in probes:
        for a in range(4):
            for b in range(a + 1, 4):
                na, nb = ir.BASIS_NAMES[a], ir.BASIS_NAMES[b]
                lhs = wf_sub(ir.generator_apply(rep, na, ir.generator_apply(rep, nb, f)),
                             ir.generator_apply(rep, nb, ir.generator_apply(rep, na, f)))
                rhs = ir._generator_combination(
                    rep, bracket(basis[a], basis[b], rep.params).v, f)
                worst = max(worst, l2_diff(lhs, rhs) / norm(f))
    if len(probes) >= 2:
        f, g = probes[0], probes[1]
        for name in ir.BASIS_NAMES:
            val = inner(ir.generator_apply(rep, name, f), g) \
                + inner(f, ir.generator_apply(rep, name, g))
            worst = max(worst, abs(val))
    return worst


@pytest.mark.parametrize("B", (1.0, -1.3))
@pytest.mark.parametrize("family", ("A", "B", "C"))
def test_stacked_probe_checks_equal_per_probe_reference(family, B):
    # one operator chain on the stacked probes and one quadrature per check
    # give the very bits of the per-probe loops
    p = ModelParams(B=B)
    rep = {"A": ir.case_a(1.0, -1.0, p), "B": ir.case_b(0.7, p),
           "C": ir.case_c(1.0, 0.3, p)}[family]
    probes = ir.default_probes(5)
    assert ir.verify_commutators(rep, probes) == _commutators_per_probe(rep, probes)
    casimir = ir.verify_casimir(rep, probes)
    assert casimir == max(ir.verify_casimir(rep, [f]) for f in probes)
    if family == "B":
        assert casimir == 0.0


def test_probe_checks_on_no_probes():
    for rep in (REP_A, REP_B, REP_C):
        assert ir.verify_commutators(rep, []) == 0.0
        assert ir.verify_casimir(rep, []) == 0.0


def test_generator_scalar_actions():
    f = hermite_wf(1)
    out = ir.generator_apply(REP_A, "I", f)
    x = np.linspace(-3, 3, 11)
    assert np.max(np.abs(out(x) - 1j * REP_A.z3 * f(x))) == 0.0
    assert ir.generator_apply(REP_B, "P0", 1.0 + 0j) == 0.0
    assert ir.generator_apply(REP_B, "J", 1.0 + 0j) == 1j * 0.7


def test_generator_finite_difference_second_order():
    f = hermite_wf(1)
    for rep in (REP_A, REP_C):
        table = ir.generator_consistency(rep, f)
        for name, errs in table.items():
            for k in range(len(errs) - 1):
                if errs[k] > 1e-12:
                    assert errs[k] / errs[k + 1] > 3.0, (rep.family, name, errs)


def test_faithfulness_family_a():
    rng = np.random.default_rng(3)
    probes = [hermite_wf(0), hermite_wf(1)]
    elements = [rand_g(rng, 1.5) for _ in range(18)]
    # central elements act by a nontrivial phase unless beta*z3 is 2*pi*k
    elements += [GroupElement(0.0, 0.0, 0.0, 1.0),
                 GroupElement(0.0, 0.0, 0.0, -2.0)]
    for res in ir.faithfulness_residuals(REP_A, elements, probes):
        assert res > 1e-3


def test_family_b_unfaithful():
    # any two elements sharing alpha are represented identically
    g1 = GroupElement(0.4, -0.9, 0.3, 2.2)
    g2 = GroupElement(0.0, 0.0, 0.3, 0.0)
    assert abs(ir.rep_apply(REP_B, g1, 1.0 + 0j)
               - ir.rep_apply(REP_B, g2, 1.0 + 0j)) < 1e-15


def test_right_invariance_of_lifted_functions():
    f = hermite_wf(0)
    assert ir.right_invariance_residual(REP_A, f, samples=100, seed=4) < 1e-10
    assert ir.right_invariance_residual(REP_C, f, samples=100, seed=5) < 1e-10


def test_borel_decomposition_reconstructs():
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = rand_g(rng)
        h, x = ir.borel_decompose(g, P)
        s = GroupElement(0.0, x, 0.0, 0.0)
        assert np.max(np.abs(compose(h, s, P).array - g.array)) < 1e-12
        assert abs(h.theta0 - h.theta1) < 1e-12


def test_rep_from_orbit_dispatch():
    from poincare_ext.group import CoadjointPoint

    rep = ir.rep_from_orbit(CoadjointPoint((0.0, 0.0, 0.5, -1.0)), P)
    assert rep.family == "A" and rep.z3 == -1.0
    rep = ir.rep_from_orbit(CoadjointPoint((0.0, 0.0, 0.7, 0.0)), P)
    assert rep.family == "B" and rep.zeta2 == 0.7
    rep = ir.rep_from_orbit(CoadjointPoint((1.0, 0.3, 0.0, 0.0)), P)
    assert rep.family == "C" and (rep.zeta0, rep.zeta1) == (1.0, 0.3)


def test_right_invariance_of_lifted_function_family_b():
    # the lifted value of a point orbit is the carrier vector chi(g) f
    f = hermite_wf(0)
    assert ir.right_invariance_residual(REP_B, f, samples=100, seed=6) < 1e-10


def stacked(seed, count=7):
    """A batch of group elements and the scalar elements it stacks."""
    coords = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, 4))
    return GroupElement(*coords.T), [GroupElement(*c) for c in coords]


@pytest.mark.parametrize("rep", (REP_A, REP_B, REP_C), ids=("A", "B", "C"))
def test_batch_rows_equal_scalar_images(rep):
    batch, elements = stacked(7)
    x = np.linspace(-4.0, 4.0, 41)
    for f in (hermite_wf(0), hermite_wf(3)):
        image = ir.rep_apply(rep, batch, f)
        assert isinstance(image, WaveFunction)
        rows = image(x)
        assert rows.shape == (len(elements), x.size)
        for row, g in zip(rows, elements):
            assert np.array_equal(row, ir.rep_apply(rep, g, f)(x))


@pytest.mark.parametrize("rep", (REP_A, REP_B, REP_C), ids=("A", "B", "C"))
def test_batched_checks_equal_max_of_scalar_checks(rep):
    g2, g2s = stacked(8)
    g1, g1s = stacked(9)
    probes = [hermite_wf(0), hermite_wf(1)]
    eps = np.finfo(float).eps
    hom = max(ir.verify_homomorphism(rep, b, a, probes) for b, a in zip(g2s, g1s))
    assert abs(ir.verify_homomorphism(rep, g2, g1, probes) - hom) <= 4 * eps
    uni = max(ir.verify_unitarity(rep, g, probes) for g in g2s)
    assert abs(ir.verify_unitarity(rep, g2, probes) - uni) <= 4 * eps


@pytest.mark.parametrize("rep", (REP_A, REP_C), ids=("A", "C"))
def test_batched_gram_matches_fixed_rule(rep):
    # unitarity's norms and Gram entries, on the 8 -> 16 panel ladder,
    # against 256 panels; family A's images widen or narrow by e^alpha
    coords = np.random.default_rng(12).uniform(-2.0, 2.0, size=(3, 4))
    coords[:, 2] = (-2.0, 0.0, 2.0)
    images = [ir.rep_apply(rep, GroupElement(*coords.T), f)
              for f in (hermite_wf(0), hermite_wf(1))]
    pairs, gram = ir._gram(images)
    assert pairs == [(0, 0), (0, 1), (1, 1)] and gram.shape == (3, 3)
    x, w = gauss_legendre(*images[0].interval(), 256)
    for (i, j), got in zip(pairs, gram):
        fixed = np.sum(w * np.conj(images[i](x)) * images[j](x), axis=-1)
        assert np.max(np.abs(got - fixed)) <= 1e-13, (i, j, got - fixed)


def test_arrays_scale_wavefunctions_by_rmul():
    # numpy defers to WaveFunction.__rmul__ instead of building an object array
    f = hermite_wf(0)
    x = np.linspace(-1.0, 1.0, 5)
    column = np.array([[1.0], [2.0j]])
    scaled = column * f
    assert isinstance(scaled, WaveFunction)
    assert np.array_equal(scaled(x), column * f(x))
    assert isinstance(np.complex128(2.0) * f, WaveFunction)


#: B over three decades of both signs, as in the group properties
NORM_PARAMS = st.sampled_from([ModelParams(B=s * b) for s in (1.0, -1.0)
                               for b in (1e-3, 1.0, 1e3)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(("A", "C")), p=NORM_PARAMS, k=st.integers(0, 4),
       g=st.builds(GroupElement, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                   st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)))
def test_rep_preserves_norm(family, p, k, g):
    # ||T(g) f|| = ||f||; the worst gap measured is 1.4e-15 over these
    # examples and 5.4e-15 over 6000 random ones, well inside the gate
    rep = ir.case_a(1.0, -1.0, p) if family == "A" else ir.case_c(1.0, 0.3, p)
    f = hermite_wf(k)
    assert abs(norm(ir.rep_apply(rep, g, f)) - norm(f)) <= 1e-12
