"""Every function in src/ runs from the command line, or is public API kept
on purpose.

A fixed list of CLI invocations runs under sys.setprofile, all in one
fresh interpreter, so imports and cached values start cold.  Each src/
function or method that no invocation enters must be on KEPT, the list of
public API kept on purpose that CHANGES.md states: the closed-form exp and
log with their helpers (the tests' statement that exp(t X_k) = t e_k, and
the group-calls bench workload), `identity` and `GroupElement.array` (the
bench too), `group.bracket` with its `structure_constants` and
`AlgebraElement.array` (public API in `poincare_ext.__all__`, and the
float bracket of the tests' oracles), `rep_from_orbit` (the orbit method's map from a point to its irrep),
`cli.main` (the console script), the `count` option type, and the
records' dunders.

Run as a script, this file prints the (file, first line, name) of every
function the invocations enter, as JSON.
"""

import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(importlib.util.find_spec("poincare_ext").origin).resolve().parent

#: the README's CLI lines, then each family, algebra and emit format they
#: leave out, and all-checks at edge B
INVOCATIONS = [
    *(shlex.split(line, comments=True)[1:] for line in re.findall(
        r"^poincare-ext .*$", (ROOT / "README.md").read_text(), re.M)),
    *(["rep", "verify", f"--family={f}"] for f in "BC"),
    *(["rep", "apply", f"--family={f}", "--g=0.3,-0.2,0.5,0.1"] for f in "BC"),
    *(["cohomology", f"--algebra={a}"] for a in ("p11", "wh", "so21")),
    ["evolve", "--emit=json"],
    *(["all-checks", f"--B={B}"] for B in ("1e-8", "1e300", "5e-324")),
]

#: (module, qualified name) of each src/ function no invocation enters
KEPT = {
    ("cli", "main"),
    ("cli", "_build_parser.<locals>.count"),
    ("group", "bracket"),
    ("group", "structure_constants"),
    ("group", "AlgebraElement.array"),
    ("group", "GroupElement.array"),
    ("group", "identity"),
    ("group", "_phi"),
    ("group", "_exp_times"),
    ("group", "_phi_times"),
    ("group", "_phi_divide"),
    ("group", "_sinh_defect_times"),
    ("group", "_overflow_check"),
    ("group", "exp_map"),
    ("group", "log_map"),
    ("irreps", "rep_from_orbit"),
    ("irreps", "QuantOperator.__eq__"),
    ("model", "_Record._values"),
    ("model", "_Record.__eq__"),
    ("model", "_Record.__hash__"),
    ("model", "_Record.__repr__"),
    ("model", "_Record.__setattr__"),
    ("model", "_Record.__reduce__"),
}

#: CO_OPTIMIZED: set on function code, clear on a class body
_FUNCTION = 0x1


def functions(code, prefix=""):
    """{(first line, name): qualified name} of the functions and methods
    compiled into code, lambdas and comprehensions left out."""
    out = {}
    for const in code.co_consts:
        if not hasattr(const, "co_consts") or const.co_name.startswith("<"):
            continue
        name = prefix + const.co_name
        if const.co_flags & _FUNCTION:
            out[const.co_firstlineno, const.co_name] = name
            out.update(functions(const, name + ".<locals>."))
        else:
            out.update(functions(const, name + "."))
    return out


def entered_functions():
    """[file, first line, name] of every function the invocations enter,
    the package's import included."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(hook)
    try:
        from poincare_ext import cli
        for argv in INVOCATIONS:
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    cli.run(argv)
            except SystemExit as exc:
                assert exc.code == 2, (argv, exc.code)
            assert "Traceback" not in err.getvalue(), argv
    finally:
        sys.setprofile(None)
    return sorted(seen)


def test_every_src_function_runs_or_is_kept_on_purpose():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, env=env, check=True)
    entered = {tuple(row) for row in json.loads(proc.stdout)}
    unentered = set()
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for (line, name), qualname in functions(code).items():
            if (str(path), line, name) not in entered:
                unentered.add((path.stem, qualname))
    assert unentered == KEPT, (sorted(unentered - KEPT), sorted(KEPT - unentered))


if __name__ == "__main__":
    json.dump(entered_functions(), sys.stdout)
