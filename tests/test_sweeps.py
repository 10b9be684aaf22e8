"""The batched algebra sweeps against their per-pair and per-sample loops."""

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sweep_oracle as oracle
from poincare_ext import cli
from poincare_ext import group as grp
from poincare_ext import model
from poincare_ext import orbits as orb
from poincare_ext.group import (
    AlgebraElement,
    CoadjointPoint,
    ModelParams,
)

#: the representatives the orbits suite checks, and one more point per case
ZETAS = {"CaseA": [(0.0, 0.0, 0.5, -1.0), (0.4, -1.2, 2.0, 0.3)],
         "CaseB": [(0.0, 0.0, 0.7, 0.0), (0.0, 0.0, -2.5, 0.0)],
         "CaseC": [(1.0, 0.3, 0.0, 0.0), (-0.5, 2.0, 1.1, 0.0)]}
SUBALGEBRAS = (orb.CASE_A_SUBALGEBRA, orb.CASE_B_SUBALGEBRA,
               orb.CASE_C_SUBALGEBRA)

#: candidate bases for the closure check: the basis vectors, P+, P- and a
#: tilted J, two and three at a time
CANDIDATES = [np.eye(4)[i] for i in range(4)] + [
    np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, -1.0, 0.0, 0.0]),
    np.array([0.3, 0.0, 1.0, 0.0])]


def report_bytes(report):
    return json.dumps(report, sort_keys=True, indent=2).encode()


def zetas():
    return [CoadjointPoint(u) for us in ZETAS.values() for u in us]


def projector(rows):
    return rows.T @ rows


def orthonormal(rows):
    """Orthonormal rows spanning the rows given."""
    return np.linalg.qr(np.array(rows, dtype=float).reshape(-1, 4).T)[0].T


@pytest.mark.parametrize("B", oracle.BENCH_B)
def test_kirillov_and_subordination_match_the_loops(B):
    # the exact form rounds to the float loop's entries bit for bit: each
    # is one product, correctly rounded both ways
    p = ModelParams(B)
    for zeta in zetas():
        assert np.array_equal(orb.kirillov_form(zeta, p).astype(float),
                              oracle.kirillov_form(zeta, p))
        for h in SUBALGEBRAS:
            h = h(p)
            assert orb.subordination_check(h, zeta, p) \
                is oracle.subordination_check(h, zeta, p)


@pytest.mark.parametrize("B", oracle.BENCH_B)
def test_bracket_span_matches_the_loop(B):
    # the exact spans of the central and derived series against the float
    # SVD spans of the loop
    p = ModelParams(B)
    full, center = np.eye(4, dtype=int).tolist(), [[0, 0, 0, 1]]
    derived = model.row_basis([model.bracket(x, y, B) for x in full for y in full])
    for a, b in ((full, full), (full, derived), (derived, derived),
                 (full, center), (center, center), (full, [])):
        got = model.row_basis([model.bracket(x, y, B) for x in a for y in b])
        want = oracle.bracket_span(*(np.array(r, dtype=float).reshape(-1, 4)
                                     for r in (a, b)), p)
        assert len(got) == want.shape[0]
        assert np.allclose(projector(orthonormal(got)), projector(want),
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("B", oracle.BENCH_B)
def test_subalgebra_closure_decision_matches_the_loop(B):
    p = ModelParams(B)
    for k in (2, 3):
        for rows in itertools.combinations(CANDIDATES, k):
            basis = tuple(AlgebraElement(r) for r in rows)
            errors = []
            for check in (lambda: orb.Subalgebra(basis, "cand", p),
                          lambda: oracle.check_closure(SimpleNamespace(
                              basis=basis, name="cand", params=p))):
                try:
                    check()
                    errors.append(None)
                except ValueError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1], rows


@pytest.mark.parametrize("B", oracle.BENCH_B)
def test_suites_equal_the_loop_reports(B):
    # the suites read the tables decided for every B; the loops run the
    # same checks at B on float spans and tolerances
    p = ModelParams(B)
    cases, series = cli.suite_orbits(p), cli.suite_structure(p)
    got = [cases, {k: series[k] for k in ("central_series_dims", "derived_series_dims")}]
    with oracle.oracle_sweeps():
        loop_cases, loop_ok = orb.check_cases(p)
        want = [{"cases": loop_cases, "pass": loop_ok}, grp.structural_series(B)]
    assert [report_bytes(r) for r in got] == [report_bytes(r) for r in want]
    # the classical suite's exact identities read 0.0; the float oracle
    # reads round-off within the same gates
    exact, floats = cli.suite_classical(p), oracle.suite_classical(p, 42)
    assert exact == {"comoment_casimir": 0.0, "lightcone_bracket_exact": True,
                     "pullback": 0.0, "pass": True}
    assert floats["pass"] is True
    assert floats["lightcone_bracket_exact"] is exact["lightcone_bracket_exact"]


@given(B=st.sampled_from(oracle.BENCH_B), m=st.floats(0.1, 3.0),
       qp=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                   min_size=1, max_size=8))
def test_comoments_batch_is_the_row_by_row_scalar_calls(B, m, qp):
    # the oracle's float comoments: both square q as q * q, so they agree
    # bit for bit
    p = ModelParams(B)
    q, mom = np.array(qp).T
    batch = oracle.comoments(oracle.PhasePoint(q, mom), p, m).array
    scalar = np.array([oracle.comoments(oracle.PhasePoint(*row), p, m).array
                       for row in qp])
    assert np.array_equal(batch, scalar)
    assert np.array_equal(oracle.momentum_map(oracle.PhasePoint(q, mom), p, m).array,
                          batch / p.hbar)


def test_comoments_batch_is_bitwise_on_many_points():
    # pow(q, 2) missed the rounded q * q at 4 of these 20000 points, so a
    # point squared by pow and the same point in a batch differed in u2
    p = ModelParams(1.3)
    qp = np.random.default_rng(0).uniform(-3.0, 3.0, size=(20000, 2))
    batch = oracle.comoments(oracle.PhasePoint(*qp.T), p, 1.0).array
    scalar = np.array([oracle.comoments(oracle.PhasePoint(float(q), float(mom)), p,
                                        1.0).array for q, mom in qp])
    assert np.array_equal(batch, scalar)
