"""Static checks on the package source."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

from quadrature_oracle import EVALUATORS, QUADRATURE

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "poincare_ext"


def unused_imports(tree):
    """Names bound by an import and never read, outside __all__."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_names_resolve(path):
    name = "" if path.stem == "__init__" else f".{path.stem}"
    module = importlib.import_module(f"poincare_ext{name}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def wavefunctions_imports(module):
    """(names imported from wavefunctions, last parts of every imported module
    and name) in module's source."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {a.name for node in imports if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[-1] == "wavefunctions"
             for a in node.names}
    modules = {a.name.split(".")[-1] for node in imports for a in node.names}
    return names, modules


def test_irreps_imports_no_quadrature():
    # the representation and generator checks are exact; their quadrature
    # versions are the oracle in tests/quadrature_oracle.py
    names, modules = wavefunctions_imports("irreps")
    assert names and not names & QUADRATURE
    # nor the module itself, whose attributes would reach the rest
    assert "wavefunctions" not in modules


def test_dynamics_imports_no_fourier_quadrature():
    # oracle (a)'s projection is its exact Gaussian integral and both
    # oracles' drift integrals are model's closed forms; the Fourier and
    # time quadratures are their oracles in tests/quadrature_oracle.py, and
    # the package keeps no copy
    # dynamics takes nothing from wavefunctions: the H0 eigenfunction and
    # operators, whose only callers were tests, are in tests/test_dynamics.py
    names, modules = wavefunctions_imports("dynamics")
    assert not names
    assert "wavefunctions" not in modules
    wavefunctions = importlib.import_module("poincare_ext.wavefunctions")
    assert not {name for name in QUADRATURE if hasattr(wavefunctions, name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_defines_imports_or_calls_a_quadrature(path):
    # the package runs no quadrature, so a report makes none at any B; this
    # replaces the budget that counted the rules a report made (at most 20,
    # all in the dynamics oracles' drift integrals)
    tree = ast.parse(path.read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {(a.asname or a.name).split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else
              getattr(node.func, "id", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not (defined | imported | called) & QUADRATURE


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_defines_or_imports_a_derivative_evaluator(path):
    # a probe is a record of Hermite coefficients evaluated by value; the
    # evaluator tower, the operators' action on it and the H0 eigenfunction
    # are the test oracle in tests/quadrature_oracle.py and test_dynamics.py
    tree = ast.parse(path.read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {(a.asname or a.name).split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert not (defined | imported) & EVALUATORS


def test_wavefunctions_imports_cleanly_and_holds_the_probe_record():
    wavefunctions = importlib.import_module("poincare_ext.wavefunctions")
    assert not {name for name in EVALUATORS | QUADRATURE
                if hasattr(wavefunctions, name)}
    probe = wavefunctions.hermite_probe(2)
    assert {name for name in dir(probe) if not name.startswith("_")} == {"poly"}


def called_names(module):
    """Names of every function called in module's source, bare or as an attribute."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {node.func.attr if isinstance(node.func, ast.Attribute) else
            getattr(node.func, "id", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def imported_modules(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {a.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for a in node.names} | {
        (node.module or "").split(".")[0] for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)}


@pytest.mark.parametrize("module", ("group", "orbits", "quantization"))
def test_no_float_rank_decisions(module):
    # ranks, spans and kernels are decided by model's exact elimination;
    # the float SVD versions are the oracle in tests/sweep_oracle.py
    assert not called_names(module) & {"svd", "matrix_rank", "lstsq", "null_space"}


def test_orbits_brackets_exactly():
    # the Kirillov form, closure and subordination read model's table, not
    # group's float bracket and structure constants
    tree = ast.parse((SRC / "orbits.py").read_text())
    from_group = {a.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "group"
                  for a in node.names}
    assert from_group and not from_group & {"bracket", "structure_constants"}


def test_one_exact_elimination():
    # cohomology takes its rank from model and defines no elimination, and
    # the Laurent type lends model's elimination its exact division, with
    # no elimination of its own beside it
    for module in ("cohomology", "laurent"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_rank", "rank", "_echelon", "row_basis", "kernel",
                              "bareiss", "_bareiss", "echelon"}, module
    tree = ast.parse((SRC / "cohomology.py").read_text())
    assert any(isinstance(node, ast.ImportFrom) and node.module == "model"
               and "rank" in {a.name for a in node.names}
               for node in ast.walk(tree))


@pytest.mark.parametrize("module", ("model", "cohomology", "laurent"))
def test_exact_modules_import_no_numpy(module):
    # with the FOOTPRINTS rows of tests/test_cli.py, which run the commands
    assert "numpy" not in imported_modules(module)


@pytest.mark.parametrize("module", ("__init__", "model", "cohomology", "cli",
                                    "laurent"))
def test_numpy_free_modules_import_no_dataclasses(module):
    # model's records stand in for frozen dataclasses, whose import loads
    # inspect; the FOOTPRINTS rows of tests/test_cli.py run the commands
    assert "dataclasses" not in imported_modules(module)


#: the Gaussian-moment probe kernel, its probes and the float sweeps on
#: them, the float generator gaps and the Fraction comoment Casimir: the
#: oracle in tests/probe_oracle.py and tests/sweep_oracle.py, with no copy
#: in the package
PROBE_KERNEL = {"_xd_powers", "_moments", "_kernel", "_square_norms",
                "_relative_residual", "_hermite_probes", "default_probes",
                "verify_homomorphism", "verify_unitarity", "covariance_suite",
                "_covariance_residual", "gap", "unitarity_gap", "_sups",
                "generator_gaps", "casimir_defect"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_defines_the_probe_kernel(path):
    # homomorphism, unitarity, covariance, generator consistency and the
    # comoment Casimir are decided as Laurent identities; their seeded or
    # per-report float and Fraction versions are the oracle
    tree = ast.parse(path.read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {(a.asname or a.name).split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert not (defined | imported) & PROBE_KERNEL


def test_import_builds_no_probes_or_moment_matrices():
    # no check of the package evaluates a probe: a report, rep verify and
    # quantize check build no Hermite probe and no moment matrix, which
    # only the oracle in tests/probe_oracle.py makes
    code = ("import contextlib, io\n"
            "from poincare_ext import cli, wavefunctions\n"
            "from poincare_ext.model import ModelParams\n"
            "built = []\n"
            "real = wavefunctions.Probe.__post_init__\n"
            "def counted(self):\n"
            "    built.append(1)\n"
            "    real(self)\n"
            "wavefunctions.Probe.__post_init__ = counted\n"
            "cli.run_all_checks(ModelParams(1.3), 42)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.run(['rep', 'verify'])\n"
            "    cli.run(['quantize', 'check'])\n"
            "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "0\n"


#: the tables of identities decided once per process, as module.function
DECIDED = ("irreps.decided_identities", "irreps.decided_group_identities",
           "quantization.decided_identities", "quantization.decided_covariance",
           "group.decided_ad_spectrum", "cohomology.decided_dims",
           "group.decided_series", "orbits.decided_cases")


def _decided_counts(code):
    """Run code in a fresh interpreter, then print each DECIDED table's
    (entries, misses) as JSON."""
    code += ("\nimport importlib, json\n"
             "tables = [getattr(importlib.import_module('poincare_ext.' + m), f)"
             " for m, f in (n.split('.') for n in %r)]\n"
             "print(json.dumps([(t.cache_info().currsize, t.cache_info().misses)"
             " for t in tables]))\n" % (DECIDED,))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_decides_no_identity():
    # a cold command pays for the decided tables only when a report reads
    # them: importing the CLI and the modules that hold them builds none,
    # nor loads the Laurent type they are decided in
    code = ("import sys, poincare_ext.cli, poincare_ext.irreps, poincare_ext.quantization,"
            " poincare_ext.orbits\n"
            "assert 'poincare_ext.laurent' not in sys.modules")
    assert _decided_counts(code) == [[0, 0]] * len(DECIDED)


def test_each_identity_is_decided_once_per_process():
    # all-checks at several B and seeds, and rep verify, quantize check,
    # algebra-check and orbit check, read the tables decided by the first
    # of them
    code = ("from poincare_ext import cli\n"
            "from poincare_ext.model import ModelParams\n"
            "for B, seed in ((1.3, 1), (-2.0, 5), (1e300, 42)):\n"
            "    cli.run_all_checks(ModelParams(B), seed)\n"
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.run(['rep', 'verify', '--family=C'])\n"
            "    cli.run(['quantize', 'check', '--B=-0.5'])\n"
            "    cli.run(['algebra-check', '--B=5e-324'])\n"
            "    cli.run(['orbit', 'check', '--B=-1e4'])\n")
    assert _decided_counts(code) == [[1, 1]] * len(DECIDED)


def test_basis_names_have_one_home():
    # model states the basis order once; every other module imports it
    homes = [path.stem for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "BASIS_NAMES" for t in node.targets)]
    assert homes == ["model"]
