import cmath
import collections
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from poincare_ext import cli
from poincare_ext import wavefunctions as wfm
from poincare_ext.group import ModelParams
from poincare_ext.wavefunctions import hermite_wf

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
    ("evolve", "--hbar=0"),
    ("evolve", "--m=0"),
    ("rep", "apply", "--g=0,0,800,0"),
    ("algebra-check", "--samples=0"),
    ("rep", "verify", "--z3=0"),
    ("rep", "apply", "--family=C", "--zeta0=0", "--zeta1=0", "--g=0,0,0,0"),
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


def test_algebra_check_samples(capsys):
    assert cli.run(["algebra-check", "--samples", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 5


def test_rep_verify_small():
    code, out, _ = run_cli("rep", "verify", "--family", "B", "--trials", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


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
    expect = cmath.exp(1j * 0.3 * 0.7) * hermite_wf(2)(x)
    assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], expect)


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
    # c2 / (2 B z3) overflows: one error line that names B, before any
    # quadrature runs
    for argv in (["rep", "verify", "--family=A", f"--B={B}"],
                 ["rep", "apply", "--family=A", f"--B={B}", "--g=0.1,0.2,0.3,0.4"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == (
            f"poincare-ext: error: family A at B={float(B)!r}: "
            "operator phase coefficient c0 is not finite"), argv


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
    real = cli.dy.total_energy_minimum

    def shifted(cs, E):
        tau_star, value = real(cs, E)
        return tau_star + 1e-3, value

    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in (("exact", real), ("shifted", shifted)):
            mp.setattr(cli.dy, "total_energy_minimum", fn)
            reports[name] = [cli.suite_dynamics(ModelParams(B=B), 42)
                             for B in BENCH_B]
    return reports


def test_dynamics_minimum_located_at_every_bench_B(dynamics_reports):
    # the locator is never told tau* = 2/B, which for most of these B lies
    # off any fixed grid of spacing 0.005
    assert [r["minimum_located"] for r in dynamics_reports["exact"]] \
        == [True] * len(BENCH_B)


def test_dynamics_minimum_catches_a_shifted_tau_star(dynamics_reports):
    # a planted defect: tau* moved by 1e-3 fails the check at every B, while
    # the value gate alone would let it through
    for r in dynamics_reports["shifted"]:
        assert r["minimum_located"] is False and r["pass"] is False


def test_cli_import_loads_no_scipy():
    code = ("import sys, poincare_ext.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_seed_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli("quantize", "check", "--seed", "42",
                             "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("B", ("1", "-1.3"))
def test_all_checks_quadrature_budget(B, capsys, monkeypatch):
    # every integral of the report passes its first 8 -> 16 panel check;
    # a change that makes some integrand refine shows up as 32 panels here.
    # The probe-set checks take one quadrature each and the homomorphism
    # and unitarity checks none (closed form), so a report makes 64; more
    # than 70 is a regression
    panels = collections.Counter()
    rule = wfm.gauss_legendre

    def counted(lo, hi, n):
        panels[n] += 1
        return rule(lo, hi, n)

    monkeypatch.setattr(wfm, "gauss_legendre", counted)
    cli.run(["all-checks", "--seed", "42", f"--B={B}"])
    capsys.readouterr()
    assert set(panels) == {8, 16} and panels[8] == panels[16], panels
    assert panels[8] <= 70, panels


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
    assert "representations" in raised, raised


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


def test_cli_import_loads_no_thread_pool():
    # the suites run in turn; concurrent.futures alone costs about 5 ms of
    # import
    code = ("import sys, poincare_ext.cli; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
