import cmath
import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_ext import group as grp
from poincare_ext import irreps as ir
from poincare_ext import quantization as qz
from poincare_ext.cli import REP_LABELS
from poincare_ext.conventions import SQRT_MINUS_H
from poincare_ext.group import (AlgebraElement, GroupElement, ModelParams,
                                bracket, compose, exp_map, identity)
from poincare_ext.wavefunctions import Probe, hermite_probe
from probe_oracle import (GENERATOR_GATE, REP_GATES, default_probes, gap,
                          generator_gaps, hermiticity_residual, rep_draws,
                          rep_sweep, verify_casimir, verify_commutators,
                          verify_homomorphism, verify_unitarity)
from quadrature_oracle import (WaveFunction, affine_apply, borel_decompose,
                               character, faithfulness_residuals,
                               gauss_legendre, generator_apply,
                               generator_consistency, hermite_wf, inner,
                               integrate_stack, l2_diff, norm,
                               random_subgroup_element, relative_l2, rep_image,
                               right_invariance_residual, second_order,
                               subgroup_modulus, tower, wf_add, wf_scale,
                               wf_stack, wf_sub)

P = ModelParams()
REP_A = ir.RepParams("A", P, c2=1.0, z3=-1.0)
REP_B = ir.RepParams("B", P, zeta2=0.7)
REP_C = ir.RepParams("C", P, zeta0=1.0, zeta1=0.3)


def rand_g(rng, box=2.0):
    return GroupElement(*rng.uniform(-box, box, size=4))


def test_label_validation():
    with pytest.raises(ValueError):
        ir.RepParams("A", P, c2=1.0, z3=0.0)
    with pytest.raises(ValueError):
        ir.RepParams("C", P, zeta0=0.0, zeta1=0.0)
    with pytest.raises(ValueError):
        ir.RepParams("D", P)


def test_character_identity_and_center():
    for rep in (REP_A, REP_B, REP_C):
        assert character_close(character(identity(), rep), 1.0)
    z = GroupElement(0.0, 0.0, 0.0, 0.8)
    assert character_close(character(z, REP_A),
                           cmath.exp(1j * 0.8 * REP_A.z3))


def character_close(a, b, tol=1e-12):
    return abs(a - b) < tol


def test_character_multiplicative_on_subgroup():
    rng = np.random.default_rng(0)
    for rep in (REP_A, REP_B, REP_C):
        for _ in range(50):
            h2 = random_subgroup_element(rep, rng)
            h1 = random_subgroup_element(rep, rng)
            prod = character(compose(h2, h1, P), rep)
            assert abs(prod - character(h2, rep) * character(h1, rep)) < 1e-12
            assert abs(abs(prod) - 1.0) < 1e-14


def test_subgroup_modulus():
    assert subgroup_modulus(identity(), "A") == 1.0
    g = GroupElement(0.0, 0.0, 1.0, 0.0)
    assert abs(subgroup_modulus(g, "A") - math.e) < 1e-15
    assert subgroup_modulus(g, "C") == 1.0
    assert subgroup_modulus(g, "B") == 1.0


def test_rep_apply_identity_and_center():
    f = hermite_wf(1)
    for rep in (REP_A, REP_C):
        out = rep_image(rep, identity(), f)
        assert l2_diff(out, f) < 1e-13
    z = GroupElement(0.0, 0.0, 0.0, 0.9)
    out = rep_image(REP_A, z, f)
    phase = cmath.exp(1j * 0.9 * REP_A.z3)
    x = np.linspace(-4, 4, 33)
    assert np.max(np.abs(out(x) - phase * f(x))) < 1e-14


def test_boost_preserves_norm():
    f = hermite_wf(0)
    out = rep_image(REP_A, GroupElement(0.0, 0.0, 1.5, 0.0), f)
    assert abs(norm(out) - norm(f)) < 1e-10


def test_homomorphism_random_pairs():
    # decided once for every B, label and element; the float oracle at
    # random pairs
    assert all(ir.decided_group_identities()[f]["homomorphism"] == 0.0 for f in "ABC")
    rng = np.random.default_rng(1)
    for rep in (REP_A, REP_B, REP_C):
        for _ in range(20):
            res = verify_homomorphism(rep, rand_g(rng), rand_g(rng))
            assert res < 1e-8


def test_unitarity_random_elements():
    assert all(ir.decided_group_identities()[f]["unitarity"] == 0.0 for f in "ABC")
    rng = np.random.default_rng(2)
    for rep in (REP_A, REP_B, REP_C):
        for _ in range(20):
            assert verify_unitarity(rep, rand_g(rng)) < 1e-8


def test_commutator_table():
    # decided once for every B and label; the float oracle on the probes
    assert all(ir.decided_identities()[f]["commutators"] == 0.0 for f in "ABC")
    probes = default_probes(5)
    assert verify_commutators(REP_A, probes) < 1e-9
    assert verify_commutators(REP_C, probes) < 1e-9
    assert verify_commutators(REP_B, probes) < 1e-12


def test_casimir_identity():
    assert all(ir.decided_identities()[f]["casimir"] == 0.0 for f in "ABC")
    probes = default_probes(5)
    assert verify_casimir(REP_A, probes) < 1e-9
    assert verify_casimir(REP_C, probes) < 1e-9
    assert verify_casimir(REP_B, probes) == 0.0


def test_default_probes_are_one_shared_tuple():
    probes = default_probes(5)
    assert default_probes(2) == probes[:2] and default_probes(3)[2] is probes[2]
    x = np.linspace(-3.0, 3.0, 7)
    assert all(np.array_equal(f(x), hermite_wf(k)(x)) for k, f in enumerate(probes))
    with pytest.raises(ValueError, match="5 kept"):
        default_probes(6)


def test_probe_checks_on_no_probes():
    # an empty list is a caller's error, not a residual of 0.0: every check
    # on the moment kernel refuses it by name
    calls = [functools.partial(check, rep, []) for rep in (REP_A, REP_B, REP_C)
             for check in (verify_commutators, verify_casimir)]
    calls.append(lambda: hermiticity_residual(qz.quantize(qz.parse_poly("q^2+2qp"), P), []))
    for call in calls:
        with pytest.raises(ValueError, match="^operator checks need at least one probe$"):
            call()


def test_generator_scalar_actions():
    f = hermite_wf(1)
    out = generator_apply(REP_A, "I", f)
    x = np.linspace(-3, 3, 11)
    assert np.max(np.abs(out(x) - 1j * REP_A.z3 * f(x))) == 0.0
    assert generator_apply(REP_B, "P0", 1.0 + 0j) == 0.0
    assert generator_apply(REP_B, "J", 1.0 + 0j) == 1j * 0.7


def test_generator_finite_difference_second_order():
    f = hermite_wf(1)
    for rep in (REP_A, REP_C):
        for name, errs in generator_consistency(rep, f).items():
            assert second_order(errs), (rep.family, name, errs)


def test_faithfulness_family_a():
    rng = np.random.default_rng(3)
    probes = [hermite_wf(0), hermite_wf(1)]
    elements = [rand_g(rng, 1.5) for _ in range(18)]
    # central elements act by a nontrivial phase unless beta*z3 is 2*pi*k
    elements += [GroupElement(0.0, 0.0, 0.0, 1.0),
                 GroupElement(0.0, 0.0, 0.0, -2.0)]
    for res in faithfulness_residuals(REP_A, elements, probes):
        assert res > 1e-3


def test_family_b_unfaithful():
    # any two elements sharing alpha are represented identically
    g1 = GroupElement(0.4, -0.9, 0.3, 2.2)
    g2 = GroupElement(0.0, 0.0, 0.3, 0.0)
    assert abs(rep_image(REP_B, g1, 1.0 + 0j)
               - rep_image(REP_B, g2, 1.0 + 0j)) < 1e-15


def test_right_invariance_of_lifted_functions():
    f = hermite_wf(0)
    assert right_invariance_residual(REP_A, f, samples=100, seed=4) < 1e-10
    assert right_invariance_residual(REP_C, f, samples=100, seed=5) < 1e-10


def test_borel_decomposition_reconstructs():
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = rand_g(rng)
        h, x = borel_decompose(g, P)
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
    assert right_invariance_residual(REP_B, f, samples=100, seed=6) < 1e-10


def stacked(seed, count=7):
    """A batch of group elements and the scalar elements it stacks."""
    coords = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, 4))
    return GroupElement(*coords.T), [GroupElement(*c) for c in coords]


@pytest.mark.parametrize("rep", (REP_A, REP_B, REP_C), ids=("A", "B", "C"))
def test_batch_rows_equal_scalar_images(rep):
    # the evaluator tower's rows, and rep_apply's values by value against
    # them bit for bit
    batch, elements = stacked(7)
    x = np.linspace(-4.0, 4.0, 41)
    for k in (0, 3):
        f = hermite_wf(k)
        image = rep_image(rep, batch, f)
        assert isinstance(image, WaveFunction)
        rows = image(x)
        assert rows.shape == (len(elements), x.size)
        assert np.array_equal(ir.rep_apply(rep, batch, hermite_probe(k), x), rows)
        for row, g in zip(rows, elements):
            assert np.array_equal(row, rep_image(rep, g, f)(x))
            assert np.array_equal(row, ir.rep_apply(rep, g, hermite_probe(k), x))


@pytest.mark.parametrize("basis", ("poly", "hyp"))
def test_affine_phase_image_is_the_tower_image(basis):
    rng = np.random.default_rng(14)
    x = np.linspace(-3.0, 3.0, 61)
    f = Probe(np.array([0.3, -1.2, 0.5, 0.25]))
    for _ in range(20):
        op = _random_affine_phase(rng, basis)
        assert np.array_equal(op.image(f, x), affine_apply(op, tower(f))(x))


@pytest.mark.parametrize("rep", (REP_A, REP_B, REP_C), ids=("A", "B", "C"))
def test_batched_checks_equal_max_of_scalar_checks(rep):
    g2, g2s = stacked(8)
    g1, g1s = stacked(9)
    eps = np.finfo(float).eps
    hom = max(verify_homomorphism(rep, b, a) for b, a in zip(g2s, g1s))
    assert abs(verify_homomorphism(rep, g2, g1) - hom) <= 4 * eps
    uni = max(verify_unitarity(rep, g) for g in g2s)
    assert abs(verify_unitarity(rep, g2) - uni) <= 4 * eps


# ---------------------------------------------------------------------------
# the quadrature oracle of the closed-form homomorphism and unitarity checks


def quadrature_homomorphism(rep, g2, g1, probes):
    """max over probes and batch members of ||T(g2) T(g1) f - T(g2 g1) f|| / ||f||."""
    g21 = grp.compose(g2, g1, rep.params)
    worst = 0.0
    for f in probes:
        lhs = rep_image(rep, g2, rep_image(rep, g1, f))
        rhs = rep_image(rep, g21, f)
        worst = max(worst, float(np.max(l2_diff(lhs, rhs) / norm(f))))
    return worst


def _gram(fs):
    """Pairs (i, j), i <= j, and the integrals <f_i, f_j> in that order.

    One integrate_vec call takes every entry from the same node block; the
    diagonal integrates |f_i|^2.  Batch functions give one value per member.
    """
    pairs = [(i, j) for i in range(len(fs)) for j in range(i, len(fs))]

    def integrand(x):
        vals = [f.fn(x, 0) for f in fs]
        return [np.abs(vals[i]) ** 2 if i == j
                else np.conj(vals[i]) * vals[j] for i, j in pairs]

    return pairs, integrate_stack([integrand], *fs)[0]


def quadrature_unitarity(rep, g, probes):
    """Largest change of a probe norm or Gram entry under T(g), over the batch g."""
    pairs, gram = _gram([rep_image(rep, g, f) for f in probes])
    worst = 0.0
    for (i, j), after in zip(pairs, gram):
        if i == j:
            n2 = norm(probes[i]) ** 2
            gap = np.abs(np.real(after) - n2) / n2
        else:
            gap = np.abs(after - inner(probes[i], probes[j]))
        worst = max(worst, float(np.max(gap)))
    return worst


def _combination(rep, coeffs, f):
    """sum_k coeffs[k] dT(X_k) f, by generator_apply."""
    terms = [wf_scale(generator_apply(rep, name, f), c)
             for c, name in zip(coeffs, ir.BASIS_NAMES) if c]
    return functools.reduce(wf_add, terms) if terms else wf_scale(f, 0.0)


def quadrature_commutators(rep, probes):
    """The bracket table and anti-Hermiticity, by generator chains on the
    stacked probes and one quadrature.  Anti-Hermiticity is taken on the
    probe pair (f0, f1): <G f0, f1> and <f0, G f1> are integrated apart."""
    f = wf_stack(probes)
    basis = [AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))
             for k in range(4)]
    diffs = []
    for a in range(4):
        for b in range(a + 1, 4):
            na, nb = ir.BASIS_NAMES[a], ir.BASIS_NAMES[b]
            lhs = wf_sub(generator_apply(rep, na, generator_apply(rep, nb, f)),
                         generator_apply(rep, nb, generator_apply(rep, na, f)))
            diffs.append((lhs, _combination(
                rep, bracket(basis[a], basis[b], rep.params).v, f)))
    gens = [generator_apply(rep, name, f) for name in ir.BASIS_NAMES] \
        if len(probes) >= 2 else []

    def cross(x):
        fx = f.fn(x, 0)
        out = []
        for g in gens:
            gx = g.fn(x, 0)
            out += [np.conj(gx[0]) * fx[1], np.conj(fx[0]) * gx[1]]
        return out

    res, ips = relative_l2(diffs, f, cross)
    anti = ips[0::2] + ips[1::2]
    return float(max(np.max(res), np.max(np.abs(anti), initial=0.0)))


def quadrature_casimir(rep, probes):
    """||2B I J f - sqrt(-h) (P^a P_a f + c f)|| / ||f||, by generator chains."""
    c = {"A": rep.c2, "B": 0.0, "C": rep.zeta0 ** 2 - rep.zeta1 ** 2}[rep.family]
    f = wf_stack(probes)

    def twice(name):
        return generator_apply(rep, name, generator_apply(rep, name, f))

    lhs = wf_scale(generator_apply(rep, "I", generator_apply(rep, "J", f)),
                   2.0 * rep.params.B)
    rhs = wf_scale(wf_add(wf_sub(twice("P0"), twice("P1")), wf_scale(f, c)),
                   SQRT_MINUS_H)
    return float(np.max(relative_l2([(lhs, rhs)], f)[0]))


def _take(g, members):
    return GroupElement(*(np.asarray(c)[members]
                          for c in (g.theta0, g.theta1, g.alpha, g.beta)))


def oracle_checks(rep, seed=42):
    """The quadrature checks on the batches of the float sweep (rep_draws),
    and of the decided identities on the five Hermite probes.
    Homomorphism and unitarity, which read the probes' window alone, are
    checked on the first Hermite function and on the first two; each is a
    function of the slice of members it takes (all by default)."""
    (g2, g1), g = rep_draws(200, seed)
    probes = [tower(f) for f in default_probes(5)]
    return {"homomorphism": lambda k=slice(None): quadrature_homomorphism(
                rep, _take(g2, k), _take(g1, k), probes[:1]),
            "unitarity": lambda k=slice(None): quadrature_unitarity(
                rep, _take(g, k), probes[:2]),
            "commutators": lambda: quadrature_commutators(rep, probes),
            "casimir": lambda: quadrature_casimir(rep, probes)}


@pytest.mark.parametrize("B", (1.0, -1.3, 3.0))
@pytest.mark.parametrize("family", ("A", "B", "C"))
def test_closed_form_agrees_with_quadrature_oracle(family, B):
    p = ModelParams(B=B)
    rep = ir.RepParams(family, p, **REP_LABELS[family])
    report, floats = ir.rep_suite(rep), rep_sweep(rep)
    oracles = oracle_checks(rep)
    for field in ("homomorphism", "unitarity"):
        # all pass their gate: the decided identity reads 0.0, the float
        # coefficient gaps round-off
        value = oracles[field]()
        assert report[field] == 0.0 and floats[field] <= 1e-13, (field, floats)
        assert value <= REP_GATES[field], (field, value)


@pytest.mark.parametrize("B", (1.0, -1.3, 3.0))
@pytest.mark.parametrize("family", ("A", "B", "C"))
def test_stacked_probe_checks_equal_per_probe_reference(family, B):
    # the decided commutator and Casimir identities, their float versions
    # on the probe kernel and the stacked-probe quadrature, at one B: all
    # pass their gates, the decided ones read 0.0 and the kernel round-off
    p = ModelParams(B=B)
    rep = ir.RepParams(family, p, **REP_LABELS[family])
    report = ir.rep_suite(rep)
    oracles = oracle_checks(rep)
    probes = default_probes(5)
    for field, kernel in (("commutators", verify_commutators),
                          ("casimir", verify_casimir)):
        value, floats = oracles[field](), kernel(rep, probes)
        assert report[field] == 0.0 and floats <= 1e-14, (field, floats)
        assert value <= REP_GATES[field], (field, value)


def _amplitude_mutant(monkeypatch):
    # family A's amplitude e^(-alpha/2) -> e^(-alpha/2 - 0.001 alpha), a
    # character of the group: homomorphism and covariance hold
    real = ir._phase_coefficients

    def mutant(rep, t0, t1, al, be, exp=np.exp):
        amp, *rest = real(rep, t0, t1, al, be, exp)
        return (amp * exp(-0.001 * al) if rep.family == "A" else amp, *rest)
    monkeypatch.setattr(ir, "_phase_coefficients", mutant)


def _shift_mutant(monkeypatch):
    # family C's argument x + alpha -> x - alpha
    real = ir._phase_coefficients

    def mutant(rep, t0, t1, al, be, exp=np.exp):
        amp, a, b, *rest = real(rep, t0, t1, al, be, exp)
        return (amp, a, -b if rep.family == "C" else b, *rest)
    monkeypatch.setattr(ir, "_phase_coefficients", mutant)


def _beta_sign_mutant(monkeypatch):
    # the group law's central term (B/2) theta2^a eps_ab (Lambda theta1)^b
    # with B's sign flipped
    real = grp.compose

    def mutant(g2, g1, p):
        return real(g2, g1, SimpleNamespace(B=-p.B))
    monkeypatch.setattr(grp, "compose", mutant)
    monkeypatch.setattr(ir, "compose", mutant)


@pytest.mark.parametrize("plant, rep, field, B", (
    (_amplitude_mutant, REP_A, "unitarity", 1.0),
    (_amplitude_mutant, REP_A, "unitarity", -1.3),
    # family C does not depend on B
    (_shift_mutant, REP_C, "homomorphism", 1.0),
    (_beta_sign_mutant, REP_A, "homomorphism", -1.3),
), ids=("A-amplitude-1", "A-amplitude--1.3", "C-shift-sign", "A-beta-B-sign"))
def test_planted_defect_fails_closed_form_and_oracle(plant, rep, field, B,
                                                     monkeypatch):
    # the decided identity, past its once-per-process memo, the float
    # coefficient gaps and the quadrature all fail
    rep = dataclasses.replace(rep, params=ModelParams(B=B))
    plant(monkeypatch)
    gate = REP_GATES[field]
    decided = ir.decided_group_identities.__wrapped__()
    assert decided[rep.family][field] >= 1.0, decided
    assert all(v == 0.0 for f, fields in decided.items() for k, v in fields.items()
               if (f, k) != (rep.family, field)), decided
    assert rep_sweep(rep)[field] > gate
    # the oracle fails at each draw alone.  The wrong shift leaves a phase
    # gap of order cosh(x) in the integrand, and at 3 of the 200 draws it
    # oscillates too fast to converge, which is a failure too
    oracle = oracle_checks(rep)[field]
    for k in range(200):
        try:
            value = oracle(slice(k, k + 1))
        except RuntimeError as exc:
            assert "did not converge" in str(exc), k
        else:
            assert value > gate, k


def _j_sign_mutant(generators):
    # family A's J: the -x D term -> +x D
    def mutant(rep):
        gens = generators(rep)
        if rep.family != "A":
            return gens
        c = gens["J"].c.copy()
        c[0, 1, 1] = -c[0, 1, 1]
        return {**gens, "J": ir.QuantOperator(c)}
    return mutant


def _cosh_sinh_mutant(generators):
    # family C's P0: i (zeta_0 cosh x - zeta_1 sinh x) -> i (zeta_0 sinh x -
    # zeta_1 cosh x), which flips the sign of its e^(-x) term
    def mutant(rep):
        gens = generators(rep)
        if rep.family != "C":
            return gens
        op = gens["P0"]
        c = op.c.copy()
        c[op.exps.index(-1)] = -c[op.exps.index(-1)]
        return {**gens, "P0": ir.QuantOperator(c, op.exps)}
    return mutant


def _i_coefficient_mutant(generators):
    # family A's I: i z3 -> 1.01 i z3
    def mutant(rep):
        gens = generators(rep)
        return {**gens, "I": 1.01 * gens["I"]} if rep.family == "A" else gens
    return mutant


def _c2_sign_mutant(generators):
    # family A's J: -1/2 - i c2 / (2 B z3) -> -1/2 + i c2 / (2 B z3)
    def mutant(rep):
        gens = generators(rep)
        if rep.family != "A":
            return gens
        c = gens["J"].c.copy()
        c[0, 0, 0] = -1 - c[0, 0, 0]
        return {**gens, "J": ir.QuantOperator(c)}
    return mutant


def _p0_sign_mutant(generators):
    # family C's P0 -> -P0: the brackets with J change sign, and P0^2 and
    # so the Casimir do not
    def mutant(rep):
        gens = generators(rep)
        return {**gens, "P0": -1 * gens["P0"]} if rep.family == "C" else gens
    return mutant


def _label_swap_mutant(generators):
    # family C's P0 and P1 with zeta_0 and zeta_1 swapped, which swaps the
    # two operators: the brackets hold, and P^a P_a changes sign
    def mutant(rep):
        gens = generators(rep)
        if rep.family != "C":
            return gens
        swapped = generators(dataclasses.replace(rep, zeta0=rep.zeta1,
                                                 zeta1=rep.zeta0))
        return {**gens, "P0": swapped["P0"], "P1": swapped["P1"]}
    return mutant


def decided_afresh(family):
    """The family's decided identities, decided again, past the
    once-per-process memo: a planted defect shows."""
    return ir.decided_identities.__wrapped__()[family]


@pytest.mark.parametrize("mutant, rep, names, fields", (
    (_j_sign_mutant, REP_A, ("J",), ("commutators", "casimir")),
    (_cosh_sinh_mutant, REP_C, ("P0",), ("commutators", "casimir")),
    (_i_coefficient_mutant, REP_A, ("I",), ("commutators", "casimir")),
    (_c2_sign_mutant, REP_A, ("J",), ("casimir",)),
    (_p0_sign_mutant, REP_C, ("P0",), ("commutators",)),
    (_label_swap_mutant, REP_C, ("P0", "P1"), ("casimir",)),
), ids=("A-J-xD-sign", "C-cosh-sinh", "A-I-coefficient", "A-c2-sign",
        "C-P0-sign", "C-label-swap"))
def test_planted_generator_defect_fails_closed_form_and_oracle(mutant, rep, names,
                                                               fields, monkeypatch):
    # the decided identities, the kernel and the oracles' generator chains
    # (generator_apply) read the same table; the jets of T(g), decided and
    # in the float gaps, read T(g), not the table, so generator consistency
    # fails on the generators the defect touches and on no other
    monkeypatch.setattr(ir, "_generators", mutant(ir._generators))
    decided, oracles = decided_afresh(rep.family), oracle_checks(rep)
    probes = default_probes(5)
    for field, kernel in (("commutators", verify_commutators),
                          ("casimir", verify_casimir)):
        if field in fields:
            value, floats = oracles[field](), kernel(rep, probes)
            assert min(decided[field], floats, value) > REP_GATES[field], \
                (field, decided[field], floats, value)
        else:
            assert decided[field] == 0.0, (field, decided)
    assert all((v > 0.0) is (n in names) for n, v in decided["generators"].items()), \
        decided
    gaps = generator_gaps(rep)
    assert all((gap > GENERATOR_GATE) is (n in names) for n, gap in gaps.items()), gaps
    errs = generator_consistency(rep, hermite_wf(1))
    assert not any(second_order(errs[name]) for name in names)


@pytest.mark.parametrize("B", (1.0, 1e4, 1e150))
def test_flipped_c2_fails_the_float_casimir_at_every_B(B, monkeypatch):
    # a float coefficient gap would read the flipped c2 as 2e-4 at B = 1e4
    # and 2e-150 at 1e150, beside the terms of size B; the decided identity
    # reads it at every B at once, and the probe residual at each
    monkeypatch.setattr(ir, "_generators", _c2_sign_mutant(ir._generators))
    assert decided_afresh("A")["casimir"] > REP_GATES["casimir"]
    rep = dataclasses.replace(REP_A, params=ModelParams(B=B))
    assert verify_casimir(rep, default_probes(5)) > 1.0


# ---------------------------------------------------------------------------
# generator consistency: the exact jet derivative and its quadrature ladder


def test_jet_arithmetic_is_the_first_derivative():
    # d/dx of x * exp(-2 x) / 4 - 3 at x = 0.5, with two slopes at once
    x = ir.Jet(0.5, np.array([1.0, 2.0]))
    y = x * (-2.0 * x).exp() / 4.0 - 3.0
    want = (1.0 - 2.0 * 0.5) * math.exp(-1.0) / 4.0
    assert y.v == 0.5 * math.exp(-1.0) / 4.0 - 3.0
    assert np.allclose(y.d, [want, 2.0 * want], rtol=1e-15, atol=1e-17)
    assert (1.0 - x).d.tolist() == [-1.0, -2.0] and (x - x).d.tolist() == [0.0, 0.0]
    assert (np.float64(3.0) * x).d.tolist() == [3.0, 6.0]


@pytest.mark.parametrize("t", (1e-3, 0.7, -2.0))
def test_exp_map_of_a_basis_direction_is_the_coordinate_line(t):
    # the fact the jet derivative rests on: exp(t X_k) = t e_k
    for k in range(4):
        v = tuple(t if i == k else 0.0 for i in range(4))
        for B in (1.0, -1.3, 1e-8, 1e4):
            assert exp_map(AlgebraElement(v), ModelParams(B=B)).array.tolist() == list(v)


@pytest.mark.parametrize("B", (1.0, -1.3, 1e-8, 1e4))
@pytest.mark.parametrize("family", ("A", "B", "C"))
def test_jet_derivative_is_the_central_difference(family, B):
    # the jets against a 1e-6 central difference of T's coefficients along
    # each basis direction, for all three families (the suite checks A, C)
    p = ModelParams(B=B)
    rep = ir.RepParams(family, p, **REP_LABELS[family])
    one = ir._affine_phase(rep, identity())  # the jets assume T(1) = 1
    assert (one.amp, one.a, one.b, *one.c) == (1.0, 1.0, 0.0) + (0.0,) * len(one.c)
    got = ir._derivative_coefficients(rep)
    # (e, i, j) -> the slopes of the coefficient of e^{ex} x^i D^j, one
    # per basis direction
    slopes = {(e, i, j): got.c[got.exps.index(e), i, j]
              for e in got.exps for i in range(3) for j in range(3)}
    h = 1e-6
    for k in range(4):
        ops = [ir._affine_phase(rep, GroupElement(*(s * h * np.eye(4)[k])))
               for s in (1.0, -1.0)]
        slope = [(u - v) / (2.0 * h) for u, v in zip(
            *((op.amp, op.a, op.b, *op.c) for op in ops))]
        amp, a, b, *c = slope
        if family == "C":
            want = {(0, 0, 0): amp, (0, 0, 1): b, (1, 0, 0): (c[0] + c[1]) / 2,
                    (-1, 0, 0): (c[0] - c[1]) / 2}
        else:
            want = {(0, i, 0): ci for i, ci in enumerate(c)}
            want[(0, 0, 0)] += amp
            want |= {(0, 0, 1): b, (0, 1, 1): a}
        size = max(abs(w) for w in want.values())
        for key, got_k in slopes.items():
            w = want.get(key, 0.0)
            assert abs(got_k[k] - w) <= 1e-8 * size, (k, key, got_k[k], w)
    assert generator_gaps(rep) == dict.fromkeys(ir.BASIS_NAMES, 0.0)


def _random_affine_phase(rng, basis):
    c = tuple(rng.uniform(-1.0, 1.0, 2 if basis == "hyp" else 3)
              + 1j * rng.uniform(-1.0, 1.0, 2 if basis == "hyp" else 3))
    a = 1.0 if basis == "hyp" else rng.uniform(0.5, 2.0)
    return ir.AffinePhase(rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-3, 3)),
                          a, rng.uniform(-1.0, 1.0), c, basis)


@pytest.mark.parametrize("basis", ("poly", "hyp"))
def test_compose_is_the_operator_product(basis):
    # compose is coefficient arithmetic; its operator must act as the two
    # operators one after the other, pointwise
    rng = np.random.default_rng(13)
    x = np.linspace(-3.0, 3.0, 61)
    f = hermite_wf(2)
    for _ in range(50):
        second, first = (_random_affine_phase(rng, basis) for _ in range(2))
        got = affine_apply(second.compose(first), f)(x)
        want = affine_apply(second, affine_apply(first, f))(x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        assert gap(second.compose(first), second.compose(first), -12.0, 12.0) == 0.0


def test_affine_phase_rejects_what_it_cannot_represent():
    with pytest.raises(ValueError, match="phase coefficient c1 is not finite"):
        ir.AffinePhase(1.0, 1.0, 0.0, (0.0, complex(math.inf, 0.0)))
    with pytest.raises(ValueError, match="amplitude is not finite"):
        ir.AffinePhase(np.array([[1.0], [math.nan]]), 1.0, 0.0, (0.0,))
    hyp = ir.AffinePhase(1.0, 2.0, 0.0, (1j, 0.0), "hyp")
    with pytest.raises(ValueError, match="translations only"):
        hyp.compose(hyp)


@pytest.mark.parametrize("rep", (REP_A, REP_C), ids=("A", "C"))
def test_batched_gram_matches_fixed_rule(rep):
    # unitarity's norms and Gram entries, on the 8 -> 16 panel ladder,
    # against 256 panels; family A's images widen or narrow by e^alpha
    coords = np.random.default_rng(12).uniform(-2.0, 2.0, size=(3, 4))
    coords[:, 2] = (-2.0, 0.0, 2.0)
    images = [rep_image(rep, GroupElement(*coords.T), f)
              for f in (hermite_wf(0), hermite_wf(1))]
    pairs, gram = _gram(images)
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
    rep = ir.RepParams(family, p, **REP_LABELS[family])
    f = hermite_wf(k)
    assert abs(norm(rep_image(rep, g, f)) - norm(f)) <= 1e-12
