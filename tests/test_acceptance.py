"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or look at
captured output) and asserts the stated tolerance.
"""

import json
import subprocess
import sys
import time

import numpy as np

from poincare_ext import cohomology as coh
from poincare_ext import irreps as ir
from poincare_ext import quantization as qz
from poincare_ext.cli import (
    suite_coadjoint,
    suite_dynamics,
    suite_generators,
    suite_orbits,
    suite_quantization,
    suite_structure,
)
from poincare_ext.group import ModelParams
import dynamics_oracle
import sweep_oracle
from probe_oracle import generator_gaps, poisson_bracket
from sweep_oracle import PhasePoint, casimir_defect, pullback_residual

P = ModelParams()
SEED = 42


def report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_cohomology_dimensions():
    t0 = time.time()
    got = {
        "i12_H0": coh.cohomology_dim(0, coh.catalog_algebra("i12")),
        "i12_H1": coh.cohomology_dim(1, coh.catalog_algebra("i12")),
        "i12_H2": coh.cohomology_dim(2, coh.catalog_algebra("i12")),
        "p11_H2": coh.cohomology_dim(2, coh.catalog_algebra("p11")),
    }
    ok = got == {"i12_H0": 1, "i12_H1": 1, "i12_H2": 0, "p11_H2": 1} \
        and time.time() - t0 < 1.0
    report(1, "cohomology dimensions", ok)


def test_criterion_2_structural_report():
    t0 = time.time()
    rep = suite_structure(P)
    ok = rep["pass"] and time.time() - t0 < 5.0
    report(2, "structural report", ok)


def test_criterion_3_coadjoint_invariance():
    t0 = time.time()
    # decided for every B, g and zeta, and the float sampler within its bound
    ok = suite_coadjoint(P)["pass"] and sweep_oracle.suite_coadjoint(P, SEED)["pass"] \
        and time.time() - t0 < 1.0
    report(3, "coadjoint invariants (decided; 1000 samples within their bound)", ok)


def test_criterion_4_pukanszky_subordination_maximality():
    t0 = time.time()
    rep = suite_orbits(P)
    ok = rep["pass"] and time.time() - t0 < 2.0
    report(4, "Pukanszky + subordination + maximality", ok)


def test_criterion_5_representation_suites():
    t0 = time.time()
    ok = True
    for family, rep in (("A", ir.RepParams("A", P, c2=1.0, z3=-1.0)),
                        ("B", ir.RepParams("B", P, zeta2=0.7)),
                        ("C", ir.RepParams("C", P, zeta0=1.0, zeta1=0.3))):
        res = ir.rep_suite(rep)
        ok = ok and res["homomorphism"] <= 1e-8 and res["unitarity"] <= 1e-8 \
            and res["commutators"] <= 1e-9 and res["casimir"] <= 1e-9
    ok = ok and time.time() - t0 < 60.0
    report(5, "representation suites (hom/unitarity/commutators/Casimir)", ok)


def test_criterion_6_generator_finite_difference():
    t0 = time.time()
    rep6 = suite_generators(P)
    # the decided identity, and its float coefficient gaps at this B
    gaps = [gap for rep in (ir.RepParams("A", P, c2=1.0, z3=-1.0),
                            ir.RepParams("C", P, zeta0=1.0, zeta1=0.3))
            for gap in generator_gaps(rep).values()]
    ok = rep6["pass"] and max(gaps) <= 1e-12 and time.time() - t0 < 10.0
    report(6, "generators dT(X) = d/dt T(exp tX) at 0 (exact jet derivative, 1e-12)", ok)


def test_criterion_7_quantization():
    t0 = time.time()
    rep = suite_quantization(P)
    ok = rep["dirac"] <= 1e-9 and rep["dirac_wrong_sign"] > 0.1 \
        and rep["covariance"] <= 1e-8 and rep["degree3_rejected"] \
        and time.time() - t0 < 30.0
    report(7, "Dirac condition + covariance + degree-3 rejection", ok)


def test_criterion_8_classical_layer():
    t0 = time.time()
    # the decided identities, and the Fraction Casimir and float bracket at
    # this B
    decided = qz.decided_identities()
    worst = max(decided["comoment_casimir"], casimir_defect(P, 1.0))
    q0 = qz.PolynomialObservable({(0, 1): -1.0 / P.B})
    q1 = qz.PolynomialObservable({(1, 0): -1.0, (0, 1): -1.0 / P.B})
    exact = poisson_bracket(q0, q1).coeffs == (((0, 0), 1.0 / P.B),) \
        and decided["lightcone_bracket"] == 0.0
    points = np.random.default_rng(SEED).uniform(-2, 2, (5, 2)).tolist()
    pull = max(pullback_residual(PhasePoint(q, p), P, 1.0) for q, p in points)
    ok = worst <= 1e-12 and exact and decided["pullback"] == 0.0 and pull <= 1e-6 \
        and time.time() - t0 < 2.0
    report(8, "comoment Casimir + light-cone brackets + pullback", ok)


def test_criterion_9_dynamics():
    t0 = time.time()
    # decided in rapidity form, and the float oracles within their bounds
    rep = suite_dynamics(P)
    ok = rep["pass"] and dynamics_oracle.suite_dynamics(P)["pass"] \
        and time.time() - t0 < 120.0
    report(9, "closed-form dynamics vs dual oracle", ok)


def test_criterion_10_determinism():
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "poincare_ext.cli", "all-checks"],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.encode())
    ok = outs[0] == outs[1] and json.loads(outs[0])["pass"] is True
    report(10, "byte-identical all-checks reports", ok)
