import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sweep_oracle as oracle
from poincare_ext import cli, model
from poincare_ext import cohomology as coh
from poincare_ext import group as grp
from poincare_ext import orbits as orb
from poincare_ext.conventions import SQRT_MINUS_H, minkowski_square
from poincare_ext.group import (
    AlgebraElement,
    CoadjointPoint,
    GroupElement,
    ModelParams,
    casimir_pairing,
    coadjoint_action,
)

P = ModelParams()


def test_classification_tags():
    assert orb.classify(CoadjointPoint((0.0, 0.0, 0.5, -1.0)), P).tag == "CaseA"
    assert orb.classify(CoadjointPoint((0.3, 0.1, 0.5, -1.0)), P).tag == "CaseA"
    assert orb.classify(CoadjointPoint((0.0, 0.0, 0.7, 0.0)), P).tag == "CaseB"
    assert orb.classify(CoadjointPoint((1.0, 0.3, 0.2, 0.0)), P).tag == "CaseC"


def bits(x) -> bytes:
    return np.float64(x).tobytes()


#: a component that is often exactly zero, so that every case is drawn
COMPONENT = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(-1e3, 1e3, allow_subnormal=True))


@given(u=st.tuples(*[COMPONENT] * 4),
       B=st.sampled_from((-1e3, -1.3, -1e-3, 1e-3, 1.0, 3.0)))
def test_model_classify_on_components_is_orbits_classify(u, B):
    # the numpy-free classify reads four floats as it reads a CoadjointPoint,
    # and its invariants are the numpy forms bit for bit
    p = ModelParams(B=B)
    zeta = CoadjointPoint(u)
    got, want = model.classify(u, p), orb.classify(zeta, p)
    assert got == want and repr(got) == repr(want)
    if got.tag == "CaseA":
        assert bits(got.labels["casimir"]) == bits(casimir_pairing(zeta, p))
    if got.tag == "CaseC":
        assert bits(got.labels["mass_square"]) \
            == bits(minkowski_square([u[0], u[1]]))


def test_orbit_dimensions():
    assert orb.classify(CoadjointPoint((0.0, 0.0, 0.5, -1.0)), P).orbit_dim == 2
    assert orb.classify(CoadjointPoint((0.0, 0.0, 0.7, 0.0)), P).orbit_dim == 0
    assert orb.classify(CoadjointPoint((1.0, 0.3, 0.0, 0.0)), P).orbit_dim == 2


def test_case_c_families_are_distinguished():
    seen = set()
    pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
           (1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)]
    for u0, u1 in pts:
        cls = orb.classify(CoadjointPoint((u0, u1, 0.0, 0.0)), P)
        assert cls.tag == "CaseC"
        seen.add(cls.labels["family"])
    assert seen == set(range(1, 9))


def test_point_orbits_are_fixed():
    rng = np.random.default_rng(0)
    z = CoadjointPoint((0.0, 0.0, 0.7, 0.0))
    for _ in range(20):
        g = GroupElement(*rng.uniform(-2, 2, 4))
        moved = coadjoint_action(g, z, P)
        assert np.max(np.abs(np.array(moved.u) - np.array(z.u))) < 1e-12


def test_kirillov_form_rank_matches_orbit_dim():
    # the exact form is antisymmetric exactly; its exact rank is the orbit
    # dimension, and the float rank of its rounded entries is the oracle
    rng = np.random.default_rng(1)
    for u in [tuple(rng.uniform(-2, 2, 4)) for _ in range(20)] + [
            (0.0, 0.0, 0.7, 0.0), (1.0, 0.3, 0.0, 0.0)]:
        z = CoadjointPoint(u)
        K = orb.kirillov_form(z, P)
        assert not (K + K.T).any()
        rank = np.linalg.matrix_rank(K.astype(float), tol=1e-10)
        assert rank == orb.orbit_dimension(z, P) == orb.classify(z, P).orbit_dim


# on_orbit is the float membership test of the Pukanszky oracle in
# tests/sweep_oracle.py; these tests hold that oracle to the orbits


def test_on_orbit_by_coadjoint_sampling():
    rng = np.random.default_rng(2)
    for z in (CoadjointPoint((0.0, 0.0, 0.5, -1.0)),
              CoadjointPoint((0.0, 0.0, 0.7, 0.0)),
              CoadjointPoint((1.0, 0.3, 0.4, 0.0))):
        for _ in range(30):
            g = GroupElement(*rng.uniform(-2, 2, 4))
            assert oracle.on_orbit(coadjoint_action(g, z, P), z, P)


def test_on_orbit_rejects_other_orbits():
    z = CoadjointPoint((0.0, 0.0, 0.5, -1.0))
    assert not oracle.on_orbit(CoadjointPoint((0.0, 0.0, 0.6, -1.0)), z, P)
    assert not oracle.on_orbit(CoadjointPoint((0.0, 0.0, 0.5, -1.1)), z, P)
    zc = CoadjointPoint((1.0, 0.0, 0.0, 0.0))
    # opposite light-cone component is a different orbit on the same shell
    assert not oracle.on_orbit(CoadjointPoint((-1.0, 0.0, 0.0, 0.0)), zc, P)


@given(B=st.sampled_from([s * b for b in (1e-2, 0.5, 1.3, 3.0, 100.0)
                          for s in (1.0, -1.0)]),
       zeta=st.sampled_from([(0.0, 0.0, 0.5, -1.0), (0.4, -1.2, 2.0, 0.3)]),
       g=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
       shift=st.floats(1e-6, 0.5), sign=st.sampled_from((1.0, -1.0)))
def test_on_orbit_rejects_a_point_off_in_u3_alone(B, zeta, g, shift, sign):
    # u3 is central, so a point that meets the Casimir with another u3 is on
    # another orbit: u3 moved, and u2 set to what the u2 test wants there
    p, zeta = ModelParams(B), CoadjointPoint(zeta)
    casimir = orb.classify(zeta, p).labels["casimir"]
    u = coadjoint_action(GroupElement(*g), zeta, p).array.copy()
    u[3] *= 1.0 + sign * shift
    u[2] = (minkowski_square(u[:2]) - casimir) * SQRT_MINUS_H / (2.0 * B * u[3])
    assert oracle.on_orbit(CoadjointPoint(u), zeta, p) is False


def test_subalgebras_subordinate_at_representatives():
    assert orb.subordination_check(orb.CASE_A_SUBALGEBRA(P),
                                   CoadjointPoint((0.0, 0.0, 0.5, -1.0)), P)
    assert orb.subordination_check(orb.CASE_B_SUBALGEBRA(P),
                                   CoadjointPoint((0.0, 0.0, 0.7, 0.0)), P)
    assert orb.subordination_check(orb.CASE_C_SUBALGEBRA(P),
                                   CoadjointPoint((1.0, 0.3, 0.0, 0.0)), P)


def test_pukanszky_passes_for_paper_subalgebras():
    cases = [
        (orb.CASE_A_SUBALGEBRA(P), CoadjointPoint((0.0, 0.0, 0.5, -1.0))),
        (orb.CASE_B_SUBALGEBRA(P), CoadjointPoint((0.0, 0.0, 0.7, 0.0))),
        (orb.CASE_C_SUBALGEBRA(P), CoadjointPoint((1.0, 0.3, 0.0, 0.0))),
    ]
    for h, z in cases:
        assert orb.pukanszky_check(h, z, P)
        assert oracle.pukanszky_check(h, z, P, samples=100, seed=3)


def test_pukanszky_rejects_non_subordinate():
    # the full algebra is not subordinate at a CaseA point: <z,[P0,P1]> != 0
    with pytest.raises(ValueError):
        orb.pukanszky_check(orb.CASE_B_SUBALGEBRA(P),
                            CoadjointPoint((0.0, 0.0, 0.5, -1.0)), P)


def test_pukanszky_rejects_non_maximal():
    # the center alone is subordinate but far from maximal at a CaseA point
    tiny = orb.Subalgebra((AlgebraElement((0.0, 0.0, 0.0, 1.0)),), "center", P)
    z = CoadjointPoint((0.0, 0.0, 0.5, -1.0))
    assert orb.subordination_check(tiny, z, P)
    with pytest.raises(orb.MaximalityError):
        orb.pukanszky_check(tiny, z, P)


def test_subalgebra_closure_enforced():
    p0, p1, j = (AlgebraElement(np.eye(4)[i]) for i in range(3))
    with pytest.raises(ValueError) as exc:
        # span{P0, J} is not closed: [P0, J] = P1
        orb.Subalgebra((p0, j), "open", P)
    assert str(exc.value) == "basis not closed under bracket: open"
    with pytest.raises(ValueError) as exc:
        orb.Subalgebra((p0, p1, AlgebraElement(p0.array + p1.array)), "dependent", P)
    assert str(exc.value) == "subalgebra basis is linearly dependent"


@pytest.mark.parametrize("names", (("P0", "P1"), ("P0", "P1", "J")))
def test_closure_is_exact_at_small_B(names):
    # [P0, P1] = -B I leaves the span at every B != 0; at 1e-12 it fell
    # under the float check's 1e-10 closure tolerance and was accepted
    p = ModelParams(1e-12)
    basis = tuple(AlgebraElement(np.eye(4)[model.BASIS_NAMES.index(n)])
                  for n in names)
    with pytest.raises(ValueError, match="basis not closed under bracket"):
        orb.Subalgebra(basis, "open", p)


def no_central_term(B, brackets=model.brackets):
    """The bracket table with [P0, P1] = B eps_01 I dropped: a planted defect."""
    return tuple(row for row in brackets(B) if row[:2] != (0, 1))


def flipped_p0_j(B, brackets=model.brackets):
    """The bracket table with [P0, J] = eps_0^1 P1 flipped to -P1: a
    planted defect that turns the boosts into rotations."""
    return tuple((a, c, tuple(-k for k in coeffs)) if (a, c) == (0, 2)
                 else (a, c, coeffs) for a, c, coeffs in brackets(B))


def decide_afresh(monkeypatch):
    """Have the algebra suites decide their tables again, past the
    once-per-process memo, so that a planted defect shows."""
    for mod, name in ((coh, "decided_dims"), (grp, "decided_series"),
                      (grp, "decided_ad_spectrum"), (orb, "decided_cases")):
        monkeypatch.setattr(mod, name, getattr(mod, name).__wrapped__)


def i12_dims(B):
    """The catalog degrees of i12's cohomology at B, in Fractions."""
    return coh.cohomology_dims(coh.EXPECTED_DIMS["i12"], coh.catalog_algebra("i12", B))


@pytest.mark.parametrize("B", (1e-8, 1.0, 1e4))
def test_dropped_central_term_fails_every_algebra_suite(B, monkeypatch):
    # each module reads the table where it imported it.  The suites read
    # the tables decided for every B, decided afresh here; the per-B
    # Fraction path at B fails too
    for mod in (model, grp, coh):
        monkeypatch.setattr(mod, "brackets", no_central_term)
    decide_afresh(monkeypatch)
    p = ModelParams(B)
    for suite in (cli.suite_structure, cli.suite_orbits, cli.suite_cohomology):
        assert not suite(p)["pass"], suite.__name__
    assert grp.structural_series(B)["central_series_dims"][-1] != 3
    assert not orb.check_cases(p)[1]
    assert i12_dims(B) != coh.EXPECTED_DIMS["i12"]


@pytest.mark.parametrize("B", (1e-8, 1.3, -1e4))
def test_flipped_p0_j_bracket_fails_decided_structure_and_orbits(B, monkeypatch):
    # with [P0, J] = -P1 the algebra is the oscillator algebra, another
    # real form of the same complex algebra: its cohomology and series
    # dimensions are the same, and the decided tables read them unchanged.
    # ad(J) turns imaginary, so the decided spectrum fails, and (J, P+, I)
    # no longer closes, so the orbits decision is an error; both the
    # decided tables and the per-B Fraction path at B see it
    for mod in (model, grp, coh):
        monkeypatch.setattr(mod, "brackets", flipped_p0_j)
    decide_afresh(monkeypatch)
    p = ModelParams(B)
    assert cli.suite_cohomology(p)["pass"]
    assert i12_dims(B) == coh.EXPECTED_DIMS["i12"]
    structure = cli.suite_structure(p)
    assert structure["ad_spectrum"] >= 1.0 and not structure["pass"], structure
    assert grp.structural_series(B) == grp.decided_series()
    assert oracle.sampled_spectrum(p)["max_imag_eigenvalue"] > 1e-10
    for decide in (lambda: orb.decided_cases(), lambda: orb.check_cases(p)):
        with pytest.raises(ValueError, match=r"not closed under bracket: \(J, P\+, I\)"):
            decide()
    assert not cli.run_all_checks(p, 42)["orbits"]["pass"]


def test_each_report_gets_its_own_algebra_tables():
    # the suites read tables decided once per process; a caller that edits
    # one report's nested dicts and lists leaves the next report as it was
    p = ModelParams(1.3)
    first, want = cli.run_all_checks(p, 42), cli.run_all_checks(p, 42)
    first["cohomology"]["dims"]["i12"]["2"] = 99
    first["structure"]["central_series_dims"].append(99)
    first["structure"]["derived_series_dims"][0] = 99
    first["orbits"]["cases"]["CaseA"]["orbit_dim"] = 99
    assert cli.run_all_checks(p, 42) == want
    assert (coh.decided_dims()["i12"][2], grp.decided_series()["central_series_dims"],
            orb.decided_cases()[0]["CaseA"]["orbit_dim"]) == (0, [4, 3, 3], 2)


#: a null point, and the subalgebra span{P0 - P1, J, I}: subordinate and
#: maximal there, with h^perp = span{(1, 1, 0, 0)}.  The line zeta + h^perp
#: runs through the origin into the opposite light-cone component, so
#: Pukanszky's condition fails
NULL_ZETA = CoadjointPoint((1.0, 1.0, 0.0, 0.0))
NULL_BASIS = (AlgebraElement(1.0, -1.0, 0.0, 0.0), AlgebraElement(0.0, 0.0, 1.0, 0.0),
              AlgebraElement(0.0, 0.0, 0.0, 1.0))

#: a direction along which the Casimir at (0, 0, 0.5, -1) stays put at
#: B = 1 while u3 moves: the line leaves the orbit through u3 alone
CASE_A_ZETA, U3_DIRECTION = CoadjointPoint((0.0, 0.0, 0.5, -1.0)), [2, 0, 1, 2]


def dropping(name):
    """orbits._invariants with the invariant name left out: a planted defect."""
    real = orb._invariants
    return lambda tag, B: {k: f for k, f in real(tag, B).items() if k != name}


@pytest.mark.parametrize("B", (1e-8, 1.3, -1e4))
def test_planted_dropped_lightcone_condition_fails_exact_and_oracle(B, monkeypatch):
    p = ModelParams(B)
    h = orb.Subalgebra(NULL_BASIS, "(P-, J, I)", p)
    assert orb.subordination_check(h, NULL_ZETA, p)
    assert orb.pukanszky_check(h, NULL_ZETA, p) is False
    assert oracle.pukanszky_check(h, NULL_ZETA, p) is False
    assert oracle.pukanszky_check(h, NULL_ZETA, p, drop=("lightcone",)) is True
    monkeypatch.setattr(orb, "_invariants", dropping("lightcone"))
    assert orb.pukanszky_check(h, NULL_ZETA, p) is True


def test_planted_dropped_u3_condition_fails_exact_and_oracle(monkeypatch):
    # every 3-dimensional subalgebra holds I, so h^perp never moves u3 and
    # the defect shows on a line that no subalgebra gives
    p = ModelParams(1.0)
    assert orb.classify(CASE_A_ZETA, p).tag == "CaseA"
    assert orb._orbit_contains(CASE_A_ZETA, [U3_DIRECTION], p) is False
    assert oracle.affine_on_orbit(CASE_A_ZETA, [U3_DIRECTION], p) is False
    assert oracle.affine_on_orbit(CASE_A_ZETA, [U3_DIRECTION], p,
                                  drop=("u3",)) is True
    monkeypatch.setattr(orb, "_invariants", dropping("u3"))
    assert orb._orbit_contains(CASE_A_ZETA, [U3_DIRECTION], p) is True


# the float oracle's CaseA test is the Casimir itself, relative to its
# largest term: solved for u2 it subtracted terms of size 1/B, and at
# B = -1e-8 rejected (0.4, -1.2, 2.0, 0.3) from its own orbit
@given(B=st.sampled_from([s * b for b in (1e-8, 1e-4, 1e-2, 0.5, 1.3, 3.0, 100.0)
                          for s in (1.0, -1.0)]),
       zeta=st.sampled_from([(0.0, 0.0, 0.5, -1.0), (0.4, -1.2, 2.0, 0.3),
                             (0.0, 0.0, 0.7, 0.0), (1.0, 0.3, 0.0, 0.0),
                             (-0.5, 2.0, 1.1, 0.0), (1.0, 1.0, 0.0, 0.0),
                             (2.0, -2.0, 0.3, 0.0)]),
       directions=st.lists(st.tuples(*[st.integers(-2, 2)] * 4), max_size=2))
@example(B=-1e-8, zeta=(0.4, -1.2, 2.0, 0.3), directions=[])
def test_orbit_decision_is_the_sampling_oracle(B, zeta, directions):
    # the exact identities against orbit membership at 100 sampled points
    # of zeta + span(directions)
    p, zeta = ModelParams(B), CoadjointPoint(zeta)
    assert orb._orbit_contains(zeta, directions, p) \
        is oracle.affine_on_orbit(zeta, directions, p)
