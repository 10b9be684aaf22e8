import cmath
import collections
import json
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from poincare_ext import cli
from poincare_ext import wavefunctions as wfm
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
    # at B = -0.5 the minimum tau* = -4 lies off the scanned grid, so the
    # dynamics minimum check fails: exit 1 with a complete report
    assert cli.run(["all-checks", "--B", "-0.5"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert payload["dynamics"]["minimum_located"] is False
    assert all(payload[name]["pass"] for name in payload
               if isinstance(payload[name], dict) and name != "dynamics")


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


class InTurn:
    """Executor stand-in that runs each suite as it is submitted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


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
def test_all_checks_byte_identical_pooled_and_in_turn(B, capsys, monkeypatch):
    # the batched numpy loops release the GIL, so the pooled suites overlap
    # in earnest; the report must not depend on how they interleave
    argv = ["all-checks", "--seed", "42", f"--B={B}"]
    outs = []
    for pooled in (True, True, False):
        if not pooled:
            monkeypatch.setattr(cli, "ThreadPoolExecutor", InTurn)
        cli.run(argv)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
