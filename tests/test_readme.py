"""The README's quick start runs and its CLI lines parse."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from poincare_ext import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
