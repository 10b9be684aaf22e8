import cmath
import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quadrature_oracle as qo
from poincare_ext import cli
from poincare_ext import dynamics as dy
from poincare_ext import wavefunctions as wfm
from poincare_ext.group import GroupElement, ModelParams

SRC = pathlib.Path(cli.__file__).parent

#: values that parse as strings but are malformed for their option
MALFORMED = (
    ("orbit", "classify", "--zeta=1,2,3"),
    ("trajectory", "--span=0:1"),
    ("evolve", "--packet=foo"),
    ("evolve", "--grid=0"),
    ("cohomology", "--degree=9"),
    ("quantize", "op", "--poly=q^3"),
    ("rep", "apply", "--g=1,2"),
    ("rep", "apply", "--g=0,0,0,0", "--probe=foo:1"),
    ("evolve", "--packet=gaussian:sigma=0"),
    ("all-checks", "--B=0"),
    ("cohomology", "--B=0"),
    ("cohomology", "--hbar=0"),
    ("cohomology", "--B=inf"),
    ("evolve", "--hbar=0"),
    ("evolve", "--m=0"),
    ("rep", "apply", "--g=0,0,800,0"),
    ("rep", "verify", "--z3=0"),
    ("rep", "apply", "--family=C", "--zeta0=0", "--zeta1=0", "--g=0,0,0,0"),
    ("orbit", "classify", "--zeta=0,0,0.5,-1", "--B=nan"),
    ("orbit", "classify", "--zeta=0,0,0.5,-1", "--hbar=inf"),
    ("trajectory", "--B=inf"),
    ("quantize", "op", "--poly=q^2", "--B=nan"),
    ("evolve", "--B=nan"),
    ("rep", "apply", "--family=C", "--g=0,0,0,0", "--B=nan"),
    ("orbit", "classify", "--zeta=0,0,nan,1"),
    ("orbit", "classify", "--zeta=1,inf,0,0"),
    ("trajectory", "--span=0:1:-2"),
    ("evolve", "--m=nan"),
    ("trajectory", "--m=inf"),
    ("quantize", "check", "--m=0"),
    ("quantize", "check", "--m=nan"),
    ("quantize", "check", "--m=inf"),
    ("quantize", "check", "--m=-1"),
    ("quantize", "op", "--poly=1e400q"),
    ("quantize", "op", "--poly=1e400q-1e400q"),
    ("quantize", "op", "--poly=p^2", "--hbar=1e200"),
    ("quantize", "op", "--poly=1e300p^2", "--hbar=1e300"),
    ("quantize", "op", "--poly=1e300qp", "--hbar=1e10"),
    ("rep", "verify", "--family=A", "--c2=nan"),
    ("rep", "verify", "--family=C", "--zeta0=inf"),
    ("rep", "verify", "--family=B", "--zeta2=nan"),
    ("rep", "apply", "--family=A", "--z3=-inf", "--g=0,0,0,0"),
)


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "poincare_ext.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_cohomology_subcommand():
    code, out, _ = run_cli("cohomology", "--algebra", "i12", "--degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"schema": 1, "algebra": "i12", "degree": 2, "dim": 0}


def test_orbit_classify():
    code, out, _ = run_cli("orbit", "classify", "--zeta", "0,0,0.5,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "CaseA"
    assert payload["labels"]["zeta3"] == -1.0
    assert payload["orbit_dim"] == 2


def test_algebra_check():
    code, out, _ = run_cli("algebra-check", "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["central_series_dims"][-1] == 3


def test_algebra_check_decides_the_spectrum(capsys):
    # the spectrum of ad(X) is one decided identity, with no samples to draw
    assert cli.run(["algebra-check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ad_spectrum"] == 0.0 and "samples" not in payload


def test_rep_verify_small():
    # every field is decided: no trials to draw, and no --trials
    code, out, _ = run_cli("rep", "verify", "--family", "B")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["homomorphism"] == payload["unitarity"] == 0.0
    code, _, err = run_cli("rep", "verify", "--family", "B", "--trials", "5")
    assert code == 2 and "unrecognized arguments: --trials 5" in err


def test_rep_apply_csv():
    code, out, _ = run_cli("rep", "apply", "--family", "A",
                           "--g", "0.1,0.2,0.3,0.4",
                           "--probe", "hermite:1", "--emit-samples=-1:1:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 6
    float_row = [float(t) for t in lines[1].split(",")]
    assert len(float_row) == 3


def test_rep_apply_family_b(capsys):
    # the point orbits act on any probe by the phase exp(i alpha zeta2)
    assert cli.run(["rep", "apply", "--family", "B", "--zeta2", "0.7",
                    "--g", "0.1,0.2,0.3,0.4", "--probe", "hermite:2",
                    "--emit-samples=-2:2:9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,re,im"
    rows = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    x = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(rows[:, 0], x)
    expect = cmath.exp(1j * 0.3 * 0.7) * qo.hermite_wf(2)(x)
    assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], expect)


#: the README's rep apply arguments, less the family
README_APPLY = ("--g=0.3,-0.2,0.5,0.1", "--emit-samples=-2:2:9")


@pytest.mark.parametrize("B", (1.0, -1.3, 1e-8, 1e4))
@pytest.mark.parametrize("family", ("A", "B", "C"))
def test_rep_apply_csv_is_the_tower_image(family, B, tmp_path):
    # the values by value against the evaluator tower the command printed
    # before, bit for bit, on the README grid and element
    rep = cli._rep_for_family(family, ModelParams(B=B))
    g = GroupElement(0.3, -0.2, 0.5, 0.1)
    xs = cli._linspace(-2.0, 2.0, 9)
    for k in range(5):
        out = tmp_path / f"{k}.csv"
        assert cli.run(["rep", "apply", f"--family={family}", f"--B={B!r}",
                        f"--probe=hermite:{k}", *README_APPLY,
                        f"--output={out}"]) == 0
        image = qo.rep_image(rep, g, qo.hermite_wf(k))(np.array(xs))
        want = "x,re,im\n" + "".join(
            f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n"
            for x, v in zip(xs, image))
        assert out.read_text() == want, (family, B, k)


def test_rep_apply_refuses_hermite_past_its_bound():
    # h_k's monomial form holds 1e-12 up to HERMITE_MAX; past it the
    # values drift (3.5e-10 at 30), and from 171 the normalisation
    # 2^k k! leaves the float range
    last = wfm.HERMITE_MAX
    code, out, err = run_cli("rep", "apply", "--family=A", *README_APPLY,
                             f"--probe=hermite:{last}")
    assert code == 0 and err == "" and len(out.splitlines()) == 10
    for k in (last + 1, 171):
        code, out, err = run_cli("rep", "apply", "--family=A", *README_APPLY,
                                 f"--probe=hermite:{k}")
        assert code == 2 and out == "" and "Traceback" not in err, err
        assert err.splitlines()[-1] == (
            "poincare-ext rep apply: error: argument --probe: "
            f"hermite:{k} is past hermite:{last}, the last index whose "
            "values hold 1e-12"), err


def test_quantize_op():
    for poly, hbar, operator in (
            ("q^2+2qp", "1", "(0-1j) + (1+0j)*x^2 + (0-2j)*x*d/dx"),
            ("-1.50q^2+0.30qp-2.00p^2+1.25q-0.75p+0.5", "0.3",
             "(0.5-0.045j) + (1.25+0j)*x + (-1.5+0j)*x^2 + (0+0.225j)*d/dx"
             " + (0-0.09j)*x*d/dx + (0.18+0j)*d2/dx2")):
        code, out, _ = run_cli("quantize", "op", f"--poly={poly}",
                               f"--hbar={hbar}")
        assert code == 0
        assert json.loads(out) == {"schema": 1, "poly": poly,
                                   "operator": operator}


def test_trajectory_csv():
    code, out, _ = run_cli("trajectory", "--span", "0:2:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,q0,q1,ptilde,proper_time"
    assert len(lines) == 4
    row = [float(t) for t in lines[-1].split(",")]
    assert row[0] == 2.0 and row[3] == 2.0


def test_evolve_json():
    code, out, _ = run_cli("evolve", "--grid", "50", "--tau", "1.0",
                           "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation"] < 1e-8


def test_covector_usage_error_text(capsys):
    # the option type parses the four components itself; the message is
    # the one CoadjointPoint's ValueError gave
    with pytest.raises(SystemExit) as exc:
        cli.run(["orbit", "classify", "--zeta=1,2,3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "poincare-ext orbit classify: error: argument --zeta: invalid "
        "covector value: '1,2,3'")


@pytest.mark.parametrize("zeta, label", (("1e200,1e-200,3,0", "mass_square"),
                                         ("1,0,1e200,1e200", "casimir")))
def test_orbit_classify_overflowing_label_is_a_usage_error(zeta, label, capsys):
    # a label past the float range would print as Infinity, which is not JSON
    with pytest.raises(SystemExit) as exc:
        cli.run(["orbit", "classify", f"--zeta={zeta}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == (
        f"poincare-ext: error: orbit classify at B=1.0: the label {label} "
        "leaves the float range")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: endpoints a few subnormal spacings apart, so that the step underflows
TINY = st.integers(-40, 40).map(lambda k: k * 5e-324)


@given(st.one_of(st.tuples(FINITE, FINITE), st.tuples(TINY, TINY)),
       st.integers(0, 300))
@example((0.0, 5e-324), 3)
@example((1.0, 1.0), 5)
@example((-1e308, 1e308), 3)
@example((2.0, -1.5), 1)
def test_samples_is_linspace_bit_for_bit(ends, n):
    # --span and --emit-samples parse without numpy; their values are
    # np.linspace's, signed zeros and the exact last point included
    x0, x1 = ends
    with np.errstate(all="ignore"):  # x1 - x0 may overflow
        want = np.linspace(x0, x1, n)
    got = np.array(cli._linspace(x0, x1, n), dtype=float)
    assert got.tobytes() == want.tobytes(), (x0, x1, n)


def test_usage_error_exit_2(capsys):
    code, _, err = run_cli("bogus-subcommand")
    assert code == 2
    code, _, err = run_cli("cohomology", "--no-such-flag")
    assert code == 2
    for argv in MALFORMED:
        with pytest.raises(SystemExit) as exc:
            cli.run(list(argv))
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("poincare-ext"), argv


@pytest.mark.parametrize("B", ("5e-324", "1e-310"))
def test_rep_at_subnormal_B_is_a_usage_error(B, capsys):
    # rep apply evaluates T(g) at B, where c2 / (2 B z3) overflows: one
    # error line that names B
    argv = ["rep", "apply", "--family=A", f"--B={B}", "--g=0.1,0.2,0.3,0.4"]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == (
        f"poincare-ext: error: family A at B={float(B)!r}: "
        "operator phase coefficient c0 is not finite")
    # rep verify reads the identities decided for every B, and takes no T(g)
    assert cli.run(["rep", "verify", "--family=A", f"--B={B}"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res == {"schema": 1, "family": "A", "homomorphism": 0.0, "unitarity": 0.0,
                   "commutators": 0.0, "casimir": 0.0, "pass": True}


def test_all_checks_negative_B_emits_json(capsys):
    # at B = -0.5 the minimum tau* = -4 lies left of tau0 = 0; the report
    # is complete and every suite passes
    assert cli.run(["all-checks", "--B", "-0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["dynamics"]["minimum_located"] is True
    assert sorted(name for name in payload if isinstance(payload[name], dict)) \
        == sorted(name for name, _ in cli._SUITES)
    assert all(payload[name]["pass"] for name, _ in cli._SUITES)


#: the central charges the benchmark draws all-checks reports at
BENCH_B = (-3.0, -2.0, -1.3, -1.0, -0.7, -0.5, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0)


@pytest.fixture(scope="module")
def dynamics_reports():
    """suite_dynamics at each benchmark B, with tau* as is and shifted."""
    real = dy.total_energy_minimum

    def shifted(cs, E):
        tau_star, value = real(cs, E)
        return tau_star + 1e-3, value

    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in (("exact", real), ("shifted", shifted)):
            mp.setattr(dy, "total_energy_minimum", fn)
            reports[name] = [cli.suite_dynamics(ModelParams(B=B), 42)
                             for B in BENCH_B]
    return reports


def test_dynamics_minimum_located_at_every_bench_B(dynamics_reports):
    # the locator is never told tau* = 2/B, which for most of these B lies
    # off any fixed grid of spacing 0.005
    assert [r["minimum_located"] for r in dynamics_reports["exact"]] \
        == [True] * len(BENCH_B)


def test_dynamics_suite_passes_at_every_bench_B(dynamics_reports):
    # the closed form and both oracles run at these B (times +-1, +-2), and
    # every field holds its gate
    assert [r["pass"] for r in dynamics_reports["exact"]] == [True] * len(BENCH_B)


#: the (b, m) pairs of the dynamics suite's oracle sweep, run at B = b times
#: the report's B
DYNAMICS_SWEEP = [(1.0, 0.5), (-1.0, 1.0), (2.0, 2.0), (-2.0, 0.5), (1.0, 2.0)]


@pytest.mark.parametrize("B", (-1.3, 1e-8, 1e4))
def test_dynamics_oracles_run_at_the_report_B(B, monkeypatch):
    # every pair of the sweep runs at b times the report's B
    real, seen = dy.oracle_propagate, []

    def recorded(cs, *args, **kwargs):
        seen.append((cs.params.B, cs.m))
        return real(cs, *args, **kwargs)

    monkeypatch.setattr(dy, "oracle_propagate", recorded)
    cli.suite_dynamics(ModelParams(B=B), 42)
    assert seen == [(B * b, m) for b, m in DYNAMICS_SWEEP]


def test_dynamics_minimum_catches_a_shifted_tau_star(dynamics_reports):
    # a planted defect: tau* moved by 1e-3 fails the check at every B, while
    # the value gate alone would let it through
    for r in dynamics_reports["shifted"]:
        assert r["minimum_located"] is False and r["pass"] is False


def test_seed_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli("quantize", "check", "--seed", "42",
                             "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def quadrature_calls(fn, *args):
    """fn(*args), with the quadrature functions that ran during it.

    A profile hook records every Python call: one to a function named in
    quadrature_oracle.QUADRATURE counts when its code is in the package,
    in quadrature_oracle or in numpy's Legendre module.
    """
    homes = (str(SRC), qo.__file__, np.polynomial.legendre.__file__)
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name in qo.QUADRATURE
                and code.co_filename.startswith(homes)):
            calls.append(code.co_name)

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("B", ("1", "-1.3"))
def test_all_checks_quadrature_budget(B, capsys):
    # a report runs no quadrature: the dynamics oracles' drift integrals
    # are closed forms (tests/test_source.py checks the source too)
    code, calls = quadrature_calls(cli.run, ["all-checks", "--seed", "42", f"--B={B}"])
    capsys.readouterr()
    assert code == 0 and calls == []


@pytest.mark.parametrize("suite", (cli.suite_quantization, cli.suite_reps,
                                   cli.suite_generators),
                         ids=("quantization", "representations", "generators"))
@pytest.mark.parametrize("B", (1.0, -1.3))
def test_quantization_suite_makes_no_quadrature(B, suite):
    # Dirac, hermiticity and covariance, the representations' homomorphism,
    # unitarity, commutator and Casimir checks, and generator consistency
    # are exact: coefficient arithmetic, jets and sums of Gaussian moments
    report, calls = quadrature_calls(suite, ModelParams(B=B), 42)
    assert report["pass"] and calls == []


#: the fixed B list of the sweep over the domain, both signs
SWEEP_B = [s * b for b in (1e-8, 1e-4, 1e-2, 10.0, 100.0, 1e4) for s in (1.0, -1.0)]


@pytest.mark.parametrize("B", SWEEP_B)
def test_generators_suite_passes_at_every_sweep_B(B):
    # the central-difference ladder failed at |B| <= 1e-3 and >= 100, where
    # the phase rate outgrew its fixed steps; the jet derivative is exact,
    # and the suite draws nothing, so no seed changes it
    p = ModelParams(B=B)
    report = cli.suite_generators(p, 42)
    assert report["pass"], report
    assert cli.suite_generators(p, 7) == report


#: B past the sweep, down to the least subnormal and up to 1e300
EDGE_B = [5e-324, 1e-310] + [s * b for b in (1e-20, 1e-13, 1e300) for s in (1.0, -1.0)]


@pytest.mark.parametrize("B", SWEEP_B + EDGE_B)
def test_algebra_suites_pass_at_every_sweep_and_edge_B(B):
    # the series dimensions, subalgebras, Kirillov ranks, subordination and
    # h^perp are exact on the bracket table; the float ranks read B as 0
    # at small |B| and dropped the central term at 1e300
    p = ModelParams(B=B)
    for suite in (cli.suite_structure, cli.suite_orbits):
        report = suite(p, 42)
        assert report["pass"], (suite.__name__, report)


@pytest.mark.parametrize("B", SWEEP_B + EDGE_B)
def test_decided_fields_at_every_sweep_and_edge_B(B):
    # the identities that hold at every B read their decided values, not
    # float-range errors, wherever the report's own checks leave the range
    p = ModelParams(B=B)
    families = cli.suite_reps(p, 42)["families"]
    assert all(families[f][k] == 0.0 for f in "ABC"
               for k in ("homomorphism", "unitarity", "commutators", "casimir")), families
    quant = cli.suite_quantization(p, 42)
    assert (quant["dirac"], quant["dirac_wrong_sign"], quant["hermiticity"],
            quant["covariance"]) == (0.0, 2.0, 0.0, 0.0), quant
    assert cli.suite_structure(p, 42)["ad_spectrum"] == 0.0
    generators = cli.suite_generators(p, 42)["families"]
    assert generators == {f: dict.fromkeys(("P0", "P1", "J", "I"), 0.0)
                          for f in "AC"}, generators
    classical = cli.suite_classical(p, 42)
    assert (classical["comoment_casimir"], classical["lightcone_bracket_exact"]) \
        == (0.0, True), classical


@pytest.mark.parametrize("B", SWEEP_B)
def test_quantization_suite_at_every_sweep_B(B):
    # every field is decided, covariance with its round trip too: no draw,
    # so every seed reads the one passing report
    reports = [cli.suite_quantization(ModelParams(B=B), seed) for seed in range(20)]
    assert reports[0]["pass"] and reports.count(reports[0]) == 20, reports[0]


#: |B| -> the measured cause of the dynamics suite's failure there; each
#: strict xfail must flip when its cause is mended
DYNAMICS_XFAIL = {
    1e-8: "minimum_located: the golden-section bracket grows with tau* = 2/B "
          "(3.73 wide at |B| = 1e-8) against the absolute 0.005 tau cap, "
          "where the expectation is flat",
    1e4: "minimum_located: the minimum value is off by 4.07e-10 against the "
         "absolute 1e-10 value gate",
}


@pytest.mark.parametrize("B", [
    pytest.param(B, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=DYNAMICS_XFAIL[abs(B)]))
    if abs(B) in DYNAMICS_XFAIL else B
    for B in SWEEP_B])
def test_dynamics_suite_at_every_sweep_B(B):
    # the closed form and both oracles run at the report's B times +-1 and
    # +-2; at every B here they agree within their gates, and only the
    # located minimum fails, at the four B of DYNAMICS_XFAIL
    report = cli.suite_dynamics(ModelParams(B=B), 42)
    assert report["pass"], report


@pytest.mark.parametrize("B", SWEEP_B)
def test_representations_suite_passes_at_edge_B(B):
    # the bracket table and the Casimir hold at every B != 0; their
    # quadrature read 6.8e-9 at |B| = 1e-8 and 8.7e-8 at 1e4, over the
    # 1e-9 gate, and the decided identities read 0.0.  Homomorphism and
    # unitarity are decided too, so no seed draws anything
    reports = [cli.suite_reps(ModelParams(B=B), seed) for seed in range(20)]
    assert reports[0]["pass"] and reports.count(reports[0]) == 20, reports[0]


#: B -> the measured cause (seed 42) of the coadjoint suite's failure there;
#: each strict xfail must flip when its cause is mended
COADJOINT_XFAIL = {
    B: f"casimir_residual {value} against its 1e-12 gate: the moved point, "
       "of order B, is stored in float64 before the Casimir pairing"
    for B, value in ((-10.0, "2.6e-12"), (100.0, "6.4e-11"), (-100.0, "2.0e-11"),
                     (1e4, "3.7e-9"), (-1e4, "6.2e-9"))}


@pytest.mark.parametrize("B", [
    pytest.param(B, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=COADJOINT_XFAIL[B]))
    if B in COADJOINT_XFAIL else B
    for B in SWEEP_B])
def test_coadjoint_suite_at_every_sweep_B(B):
    report = cli.suite_coadjoint(ModelParams(B=B), 42)
    assert report["pass"], report


@pytest.mark.parametrize("B", SWEEP_B + [B for B in EDGE_B if math.isfinite(1.0 / B)])
def test_classical_suite_at_every_sweep_B(B):
    # the comoment Casimir and the light-cone bracket are decided for every
    # B, and the pullback is exact: 0.0 at every B and seed.  The subnormal
    # B have a test of their own
    for seed in range(20):
        report = cli.suite_classical(ModelParams(B=B), seed)
        assert report == {"comoment_casimir": 0.0, "lightcone_bracket_exact": True,
                          "pullback": 0.0, "pass": True}, (seed, report)


@pytest.mark.parametrize("B", ("5e-324", "1e-310"))
def test_classical_suite_at_subnormal_B(B):
    # the light-cone coordinates carry 1/B, past the float range, and their
    # float bracket failed here; it is decided for every B, and the suite
    # passes
    assert cli.suite_classical(ModelParams(B=float(B)), 42) == {
        "comoment_casimir": 0.0, "lightcone_bracket_exact": True,
        "pullback": 0.0, "pass": True}


def strict_json(text):
    """json.loads, refusing the NaN and Infinity that json.dump writes."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("B", ("30", "-30", "1e300", "-1e300"))
def test_all_checks_at_large_B_is_a_whole_report(B):
    # a numeric failure, not a traceback: suites that fail there (a numpy
    # bool in pass, a cohomology rank disagreement) still print whole JSON.
    # At |B| = 1e300 the comoment and coadjoint Casimirs, the Dirac and the
    # family A residuals left the float range as NaN and numpy warnings;
    # they are named error entries
    code, out, err = run_cli("all-checks", f"--B={B}")
    assert code == 1 and err == "", err
    report = strict_json(out)
    assert report["pass"] is False
    for name, entry in report.items():
        if name != "schema":
            verdict = entry if name == "pass" else entry["pass"]
            assert type(verdict) is bool, (name, verdict)


@pytest.mark.parametrize("B", ("1e300", "-1e300"))
def test_all_checks_names_the_residuals_past_the_float_range(B):
    report = strict_json(run_cli("all-checks", f"--B={B}")[1])
    leaves = "residual leaves the float range"
    assert report["coadjoint"] == {"error": f"the coadjoint Casimir {leaves}",
                                   "pass": False}
    # the classical identities are exact: no float range to leave
    assert report["classical"] == {"comoment_casimir": 0.0,
                                   "lightcone_bracket_exact": True,
                                   "pullback": 0.0, "pass": True}
    # the quantization suite passes: the Dirac pair, hermiticity and
    # covariance are decided for every B, and take no T(g) at the report's B
    assert report["quantization"] == {
        "dirac": 0.0, "dirac_wrong_sign": 2.0, "hermiticity": 0.0,
        "covariance": 0.0, "degree3_rejected": True, "pass": True}
    # every family passes: each field is decided
    reps = report["representations"]
    assert reps["pass"] is True and "error" not in reps
    for family in ("A", "B", "C"):
        assert reps["families"][family] == {
            "family": family, "homomorphism": 0.0, "unitarity": 0.0,
            "commutators": 0.0, "casimir": 0.0, "pass": True}
    # the packet, moved by B D = 1.5e300 in energy, is narrower than the
    # float spacing there
    assert report["dynamics"] == {
        "error": "the energy grid around 1.5e+300 does not resolve the packet",
        "pass": False}


@pytest.mark.parametrize("B", ("1e300", "-1e300"))
def test_rep_verify_at_1e300_decides_its_identities(B, capsys):
    # a usage error before, when the float commutator residual overflowed:
    # the commutators and Casimir are decided, and the closed-form
    # homomorphism and unitarity stay in range
    assert cli.run(["rep", "verify", "--family=A", f"--B={B}"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["pass"] is True and res["commutators"] == res["casimir"] == 0.0


def test_weyl_overflow_is_a_usage_error_without_warnings():
    # the numpy overflow warnings of the Weyl rule's powers of hbar stay
    # off stderr: the one usage error is all it holds
    code, out, err = run_cli("quantize", "op", "--poly=p^2", "--hbar=1e200")
    assert code == 2 and out == "" and "Warning" not in err, err
    assert err.splitlines()[-1].startswith("poincare-ext: error: argument --poly:")


@pytest.mark.parametrize("argv, message", (
    # B D = 2e300: the packet is narrower than the float spacing there
    (("evolve", "--emit=json", "--B=-1e300"),
     "evolve at B=-1e+300: the energy grid around 2e+300 does not resolve "
     "the packet"),
    # the momentum at tau overflows, and D = inf / inf
    (("evolve", "--emit=json", "--B=1e308"),
     "evolve at B=1e+308: the energy grid around nan does not resolve "
     "the packet"),
    # a traceback from the Fraction of m before, or nan coefficients
    # printed with exit 0
    *((("quantize", "check", f"--m={m}"),
       f"argument --m: mass must be positive and finite, got {float(m)!r}")
      for m in ("0", "nan", "inf", "-1")),
    *((("quantize", "op", f"--poly={poly}"),
       "argument --poly: the coefficient of term '1e400q' is not finite")
      for poly in ("1e400q", "1e400q-1e400q")),
    # the powers of hbar in the Weyl rule overflowed, and the operator
    # printed (-inf+nanj) with exit 0 and numpy warnings on stderr
    *((("quantize", "op", f"--poly={poly}", f"--hbar={hbar}"),
       f"argument --poly: the operator's {what} at hbar={float(hbar)!r} "
       "leaves the float range")
      for poly, hbar, what in (("p^2", "1e200", "coefficient of d2/dx2"),
                               ("1e300p^2", "1e300", "coefficient of d2/dx2"),
                               ("1e300qp", "1e10", "constant term"))),
    # labels that are not finite passed rep verify with every field 0.0
    *((("rep", "verify", f"--family={family}", f"--{label}={value}"),
       f"the label {label} must be finite, got {float(value)!r}")
      for family, label, value in (("A", "c2", "nan"), ("C", "zeta0", "inf"),
                                   ("B", "zeta2", "nan")))),
    ids=("evolve--1e300", "evolve-1e308", "m-0", "m-nan", "m-inf", "m--1",
         "poly-inf", "poly-nan", "weyl-p2-hbar", "weyl-p2-coefficient",
         "weyl-constant", "label-c2", "label-zeta0", "label-zeta2"))
def test_checks_past_the_float_range_are_usage_errors(argv, message, capsys):
    # as the rep commands at subnormal B: one error line that names the
    # value, B, m or a coefficient
    with pytest.raises(SystemExit) as exc:
        cli.run(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == f"poincare-ext: error: {message}"


@pytest.mark.parametrize("B, code, classical", (
    ("-1e300", 0, True),
    # the light-cone bracket, whose coordinates carry 1/B past the float
    # range, is decided too
    ("5e-324", 0, True)))
def test_quantize_check_at_edge_B_decides_covariance(B, code, classical, capsys):
    # the quantization and classical identities are decided for every B: no
    # residual leaves the float range at -1e300, and no T(g) with its
    # overflowing phase c0 is taken at 5e-324
    assert cli.run(["quantize", "check", f"--B={B}"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["covariance"] == 0.0
    assert report["classical"]["lightcone_bracket_exact"] is classical


@pytest.mark.parametrize("B", ("1e-10", "1e300"))
def test_cohomology_at_extreme_B_is_exact(B):
    # exact ranks: H^2 of i12 is 0 at every B != 0; a float rank read 2 at
    # 1e-10 and gave up at 1e300
    code, out, err = run_cli("cohomology", "--algebra=i12", f"--B={B}")
    assert code == 0 and err == ""
    assert json.loads(out) == {"schema": 1, "algebra": "i12", "degree": 2,
                               "dim": 0}


@pytest.mark.parametrize("emit", ("json", "csv"))
@pytest.mark.parametrize("B", ("5e-324", "1e-310"))
def test_evolve_at_subnormal_B_runs(B, emit, monkeypatch, capsys):
    # the closed form's phase is D (B D / 2 - E) / hbar, with no 1 / B left
    # to overflow: the amplitudes are finite, and the dual-oracle guard
    # (1e-8) passed on them
    calls, real = [], dy.oracle_propagate

    def guarded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dy, "oracle_propagate", guarded)
    assert cli.run(["evolve", f"--B={B}", f"--emit={emit}", "--grid=20"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(calls) == 1
    if emit == "json":
        assert strict_json(out)["max_deviation"] <= 1e-15
    else:
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 20
        assert all(math.isfinite(v) for row in rows for v in row)
        assert max(row[4] for row in rows) <= 1e-15


@pytest.mark.parametrize("B, message", (
    # the two oracles disagree past their 1e-8 guard: a traceback before
    ("1e8", r"evolve at B=100000000\.0: oracle disagreement \d\.\d{3}e-08 "
            r"exceeds 1\.0e-08"),
    # the nodes round to multiples of 0.004 (0.03) against a step of 0.05:
    # an oracle traceback at 1e13, and a norm of 1.00000017 at 1e14
    ("1e13", r"evolve at B=10000000000000\.0: the energy grid around 2e\+13 "
             r"does not resolve the packet"),
    ("1e14", r"evolve at B=100000000000000\.0: the energy grid around 2e\+14 "
             r"does not resolve the packet")), ids=("oracles", "grid-1e13", "grid-1e14"))
def test_evolve_failures_are_usage_errors(B, message):
    code, out, err = run_cli("evolve", "--emit=json", f"--B={B}")
    assert code == 2 and out == "" and "Traceback" not in err, err
    assert re.fullmatch(f"poincare-ext: error: {message}", err.splitlines()[-1]), err


@pytest.mark.parametrize("B", BENCH_B)
def test_evolve_defaults_pass_the_grid_bound_at_every_bench_B(B, capsys):
    assert cli.run(["evolve", "--emit=json", f"--B={B}"]) == 0
    assert abs(strict_json(capsys.readouterr().out)["norm"] - 1.0) <= 1e-8


@pytest.mark.parametrize("B", ("1e-6", "1e-8", "1e-10", "1e-12"))
def test_evolve_keeps_its_accuracy_at_small_B(B):
    # dE = B D and the proper time m (delta / B) divide nothing by B; taken
    # as differences over B, the deviation would read 1.35e-4 at 1e-12
    code, out, err = run_cli("evolve", "--emit=json", f"--B={B}")
    assert code == 0 and err == ""
    assert strict_json(out)["max_deviation"] <= 1e-12


@pytest.mark.parametrize("m", ("1e-170", "1e-300"))
def test_evolve_at_tiny_mass_runs(m, capsys):
    # cosh delta = (E0 E1 - p0 p1) / m^2 divides by m twice: m * m
    # underflows to 0 from m of about 1e-162, a ZeroDivisionError before
    assert cli.run(["evolve", "--emit=json", f"--m={m}"]) == 0
    out, err = capsys.readouterr()
    report = strict_json(out)
    assert err == "" and report["max_deviation"] <= 1e-12
    assert abs(report["norm"] - 1.0) <= 1e-8


@pytest.mark.parametrize("m", ("5e-324", "1e-310"))
def test_evolve_names_a_mass_whose_square_leaves_the_float_range(m, capsys):
    # cosh delta = (E0 E1 - p0 p1) / m^2 overflows: the error names the
    # mass, not the two oracles whose gap it would turn to nan
    with pytest.raises(SystemExit) as exc:
        cli.run(["evolve", "--emit=json", f"--m={m}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"poincare-ext: error: evolve at B=1.0: mass m = {float(m)!r}: cosh delta "
        "= (E0 E1 - p0 p1) / m^2 leaves the float range")


@pytest.mark.parametrize("sigma", ("1e-170", "1e-300"))
def test_evolve_refuses_a_packet_whose_variance_underflows(sigma, capsys):
    # (2 pi sigma^2)^(-1/4) met 0.0 ** -0.25, a ZeroDivisionError before
    with pytest.raises(SystemExit) as exc:
        cli.run(["evolve", "--emit=json", f"--packet=gaussian:sigma={sigma}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "poincare-ext evolve: error: argument --packet: "
        f"sigma = {float(sigma)!r}: sigma^2 underflows to 0")


@pytest.mark.parametrize("B", ("1", "-1.3"))
def test_all_checks_byte_identical_and_suite_by_suite(B, capsys):
    # the report must not depend on how its suites run: two reports are
    # byte-identical, and each entry is its suite run alone
    argv = ["all-checks", "--seed", "42", f"--B={B}"]
    outs = []
    for _ in range(2):
        cli.run(argv)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    params = ModelParams(B=float(B))
    for name, fn in cli._SUITES:
        assert report[name] == json.loads(json.dumps(fn(params, 42))), name


# numpy warns of the overflows that make these suites fail
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("B", ("5e-324", "1e-310"))
def test_all_checks_at_subnormal_B_reports_failed_suites(B, capsys):
    # a suite that raises becomes a failed entry naming the error; the
    # report still has all nine suites and exits 1
    assert cli.run(["all-checks", f"--B={B}"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert sorted(name for name in payload if isinstance(payload[name], dict)) \
        == sorted(name for name, _ in cli._SUITES)
    params, raised = ModelParams(B=float(B)), []
    for name, fn in cli._SUITES:
        try:
            fn(params, 42)
        except (ValueError, RuntimeError) as exc:
            raised.append(name)
            assert payload[name] == {"error": str(exc), "pass": False}, name
    # the representations and quantization suites pass: every field is
    # decided for every B, and none takes family A's T(g) at B, whose
    # c2 / (2 B z3) overflows
    assert "representations" not in raised and "quantization" not in raised, raised
    families = payload["representations"]["families"]
    assert payload["representations"]["pass"] is True
    assert families["A"] == {"family": "A", "homomorphism": 0.0,
                             "unitarity": 0.0, "commutators": 0.0,
                             "casimir": 0.0, "pass": True}
    quant = payload["quantization"]
    assert quant["pass"] is True and quant["covariance"] == 0.0
    # generator consistency and the classical identities are decided too,
    # and take no jets of T(g) and no 1/B at B: only dynamics fails, on its
    # located minimum
    assert payload["generators"]["pass"] is True
    assert payload["classical"]["pass"] is True
    assert [name for name, _ in cli._SUITES if not payload[name]["pass"]] == ["dynamics"]
    assert payload["dynamics"]["minimum_located"] is False


@pytest.mark.parametrize("B", ("5e-324", "1e-310"))
def test_all_checks_at_subnormal_B_names_its_errors_briefly(B):
    # strict JSON and an empty stderr.  Error entries had to name a count
    # and a shape, not the 4 KB reprs of the classical suite's arrays; with
    # generator consistency and the light-cone bracket decided, no suite
    # raises here, so the report holds no error entry at all (dynamics fails
    # on its located minimum)
    code, out, err = run_cli("all-checks", f"--B={B}")
    assert code == 1 and err == "", err
    report = strict_json(out)
    errors = [entry["error"] for entry in report.values()
              if isinstance(entry, dict) and "error" in entry]
    assert errors == [], errors


@pytest.mark.parametrize("B", ("5e-324", "1e-310"))
def test_trajectory_at_subnormal_B(B, capsys):
    # at ptilde0 = 0 the proper time is about tau, never nan
    assert cli.run(["trajectory", f"--B={B}", "--ptilde0=0",
                    "--span=0:2:3"]) == 0
    rows = [[float(t) for t in line.split(",")]
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == [0.0, 1.0, 2.0]
    for row in rows:
        assert all(map(math.isfinite, row)), row
        assert math.isclose(row[4], row[0], abs_tol=1e-12), row
    # at ptilde0 = 0.5 it is asinh(0.5) / B, past the float range: one
    # error line that names B, and no inf on stdout
    with pytest.raises(SystemExit) as exc:
        cli.run(["trajectory", f"--B={B}", "--ptilde0=0.5", "--span=0:2:3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == (
        f"poincare-ext: error: trajectory at B={float(B)!r}: the values at "
        "tau=0.0 leave the float range")


def test_cli_import_loads_no_scipy():
    code = ("import sys, poincare_ext.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # the suites run in turn; concurrent.futures alone costs about 5 ms of
    # import
    code = ("import sys, poincare_ext.cli; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


#: interpreter arguments, and the modules each must leave unloaded beyond
#: scipy (the runtime needs none) and concurrent.futures (the suites run in
#: turn; the thread pool's import alone cost about 5 ms)
#: what the numpy-free commands leave unloaded besides numpy: frozen
#: dataclasses would bring inspect, ast, dis and tokenize
NO_DATACLASSES = ("dataclasses", "inspect")

FOOTPRINTS = {
    "import-package": (["-c", "import poincare_ext"], ("numpy",) + NO_DATACLASSES),
    "import-cli": (["-c", "import poincare_ext.cli"],
                   ("numpy", "poincare_ext.laurent") + NO_DATACLASSES),
    "cohomology": (["-m", "poincare_ext.cli", "cohomology", "--algebra=i12"],
                   ("numpy", "poincare_ext.laurent") + NO_DATACLASSES),
    "orbit-classify": (["-m", "poincare_ext.cli", "orbit", "classify",
                        "--zeta=0,0,0.5,-1"],
                       ("numpy", "poincare_ext.group", "poincare_ext.orbits",
                        "poincare_ext.irreps", "poincare_ext.wavefunctions",
                        "poincare_ext.quantization", "poincare_ext.dynamics")
                       + NO_DATACLASSES),
    # the Hermite coefficients come from their integer recurrence
    "rep-apply": (["-m", "poincare_ext.cli", "rep", "apply", "--family=C",
                   "--g=0.1,0.2,0.3,0.4", "--emit-samples=-1:1:3"],
                  ("numpy.polynomial", "poincare_ext.dynamics",
                   "poincare_ext.quantization", "poincare_ext.orbits",
                   "poincare_ext.laurent")),
    "orbit-check": (["-m", "poincare_ext.cli", "orbit", "check"],
                    ("poincare_ext.irreps", "poincare_ext.wavefunctions",
                     "poincare_ext.quantization", "poincare_ext.dynamics")),
    "trajectory": (["-m", "poincare_ext.cli", "trajectory", "--span=0:1:3"],
                   ("numpy", "poincare_ext.group", "poincare_ext.orbits",
                    "poincare_ext.dynamics", "poincare_ext.wavefunctions",
                    "poincare_ext.irreps", "poincare_ext.quantization")
                   + NO_DATACLASSES),
    # the Poisson bracket's derivatives and the quadrature rule need no
    # numpy.polynomial at import
    # the exact Laurent type is loaded only where an identity is decided
    "quantize-op": (["-m", "poincare_ext.cli", "quantize", "op", "--poly=q^2+2qp"],
                    ("numpy.polynomial", "poincare_ext.dynamics",
                     "poincare_ext.orbits", "poincare_ext.laurent")),
    # the drift integrals are closed forms, so no Gauss-Legendre nodes
    "evolve": (["-m", "poincare_ext.cli", "evolve", "--emit=json", "--grid=20"],
               ("numpy.polynomial", "poincare_ext.irreps",
                "poincare_ext.quantization", "poincare_ext.orbits",
                "poincare_ext.laurent")),
}


@pytest.mark.parametrize("case", FOOTPRINTS)
def test_import_footprint(case):
    # every module a command imports, as -X importtime lists them; a module
    # counts with its submodules
    argv, unloaded = FOOTPRINTS[case]
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, check=True)
    loaded = {line.rpartition("|")[2].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "poincare_ext" in loaded
    for name in ("scipy", "concurrent.futures") + unloaded:
        assert not {m for m in loaded
                    if m == name or m.startswith(name + ".")}, name
