"""The README's quick start runs, its CLI lines parse, and its dependency
floors are the ones pyproject.toml declares."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import poincare_ext
from poincare_ext import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# read by regex: tomllib is not in Python 3.10, the supported floor
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_quick_start_runs():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    tag, rep_residual, dirac = out.getvalue().split()
    assert tag == "CaseA"
    assert float(rep_residual) <= 1e-9
    assert float(dirac) <= 1e-9


def test_cli_lines_parse():
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("poincare-ext ")]
    assert len(lines) == 11
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def _pyproject(pattern):
    return re.search(pattern, PYPROJECT, re.M)[1]


def test_dependency_floors():
    assert _pyproject(r'^name = "(.+)"$') == cli._build_parser().prog
    assert _pyproject(r'^version = "(.+)"$') == poincare_ext.__version__
    python = _pyproject(r'^requires-python = ">=(.+)"$')
    numpy = _pyproject(r'^    "numpy>=(.+)",$')
    assert f"Python ≥ {python}, numpy ≥ {numpy};" in README
