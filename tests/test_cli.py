import cmath
import json
import subprocess
import sys

import numpy as np
import pytest

from poincare_ext import cli
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
    code, out, _ = run_cli("quantize", "op", "--poly", "q^2+2qp")
    assert code == 0
    payload = json.loads(out)
    assert "x^2" in payload["operator"]
    assert "d/dx" in payload["operator"]


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
