"""Static checks on the package source."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

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


#: the quadrature entry points of wavefunctions, with the Fourier sum that
#: moved to tests/quadrature_oracle.py
QUADRATURE = {"integrate_vec", "integrate_fourier", "inner", "norm", "l2_diff"}


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
    # oracle (a)'s projection is its exact Gaussian integral; the Fourier
    # quadrature is its oracle in tests/quadrature_oracle.py, and the
    # package keeps no copy
    names, modules = wavefunctions_imports("dynamics")
    assert names and "integrate_fourier" not in names
    assert "wavefunctions" not in modules
    wavefunctions = importlib.import_module("poincare_ext.wavefunctions")
    assert not hasattr(wavefunctions, "integrate_fourier")


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


@pytest.mark.parametrize("module", ("group", "orbits"))
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
    # cohomology takes its rank from model and defines no elimination
    tree = ast.parse((SRC / "cohomology.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_rank", "rank", "_echelon", "row_basis", "kernel"}
    assert any(isinstance(node, ast.ImportFrom) and node.module == "model"
               and "rank" in {a.name for a in node.names}
               for node in ast.walk(tree))


@pytest.mark.parametrize("module", ("model", "cohomology"))
def test_exact_modules_import_no_numpy(module):
    # with the FOOTPRINTS rows of tests/test_cli.py, which run the commands
    assert "numpy" not in imported_modules(module)


@pytest.mark.parametrize("module", ("__init__", "model", "cohomology", "cli"))
def test_numpy_free_modules_import_no_dataclasses(module):
    # model's records stand in for frozen dataclasses, whose import loads
    # inspect; the FOOTPRINTS rows of tests/test_cli.py run the commands
    assert "dataclasses" not in imported_modules(module)


def test_import_builds_no_probes_or_moment_matrices():
    # the moment kernel's caches fill on first use, so a cold start of a
    # command that imports quantization (quantize op, rep apply) pays for
    # none of them; one check then fills all three
    code = ("import poincare_ext.quantization as qz, poincare_ext.irreps as ir\n"
            "from poincare_ext.model import ModelParams\n"
            "caches = (ir._hermite_probes, ir._xd_powers, ir._moments)\n"
            "print([f.cache_info().currsize for f in caches])\n"
            "qz.hermiticity_residual(qz.quantize(qz.parse_poly('qp'), ModelParams()),\n"
            "                        ir.default_probes(2))\n"
            "print([f.cache_info().currsize > 0 for f in caches])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n")[:2] == ["[0, 0, 0]", "[True, True, True]"]
