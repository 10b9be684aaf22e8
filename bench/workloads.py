"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation
starts only after the previous one has finished.  Inputs come from the
workload seed alone.  ``prepare`` imports the package modules the
workload uses and generates its first inputs; the set-up probe times it
in a fresh interpreter.  ``op(state, i)`` performs operation ``i``,
checks its output and returns an ``Outcome``.  The checks of operations
``0 .. checked - 1`` make up a run's ``attempted`` and ``failed``, so
both are fixed by the seed, whatever the machine's speed.  A timed
window holds a whole number of ``cycle``s of operation kinds, so every
run times the same mix of kinds.

Why these three:

* verify-all -- the all-checks verdict that CI and users wait for; its
  quadrature-heavy suites share probes and params across thousands of
  integrals, so batching, caching and thread-pool changes show here.
* cli-oneshot -- cold ``python -m poincare_ext.cli`` invocations; each
  pays interpreter start and import, so set-up work (the scipy import)
  shows here and nowhere else.
* group-calls -- scalar library calls on fresh inputs with little
  shared between them; bypasses ``wavefunctions`` completely, so it shows
  when a batching change costs per-call latency.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

#: central charges drawn by every workload, both signs, 0.5 <= |B| <= 3
B_VALUES = (-3.0, -2.0, -1.3, -1.0, -0.7, -0.5, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0)


@dataclass
class Outcome:
    """One operation: its latency, and its checks as attempted/failed.

    ``known`` counts the failures that are one of the documented defects;
    they stay in ``failed``.
    """

    latency_s: float
    attempted: int = 1
    failed: int = 0
    known: int = 0
    trace: dict | None = None
    notes: list = field(default_factory=list)


def _json_default(obj):
    # suites return numpy scalars in places (np.bool_ from comparisons)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def report_bytes(report: dict) -> bytes:
    """A run_all_checks report as sorted JSON, for byte comparison."""
    return json.dumps(report, sort_keys=True, indent=2,
                      default=_json_default).encode()


# ---------------------------------------------------------------------------
# verify-all


class VerifyAll:
    name = "verify-all"
    unit = "suite verdict"
    checked = 5
    cycle = 1

    def prepare(self, seed: int):
        from poincare_ext import cli
        from poincare_ext.group import ModelParams

        rng = np.random.default_rng(seed)
        # (B, suite seed) for the warm-up and for each timed report
        warm = (float(rng.choice(B_VALUES)), int(rng.integers(2**31)))
        return {"cli": cli, "ModelParams": ModelParams, "rng": rng,
                "warm": warm, "inputs": []}

    def _input(self, state, i):
        inputs = state["inputs"]
        while len(inputs) <= i:
            rng = state["rng"]
            inputs.append((float(rng.choice(B_VALUES)),
                           int(rng.integers(2**31))))
        return inputs[i]

    def _report(self, state, B, seed):
        return state["cli"].run_all_checks(
            state["ModelParams"](B, hbar=1.0), seed)

    def warmup(self, state) -> Outcome:
        """Run the warm-up report twice; the bytes must be identical."""
        B, seed = state["warm"]
        first = report_bytes(self._report(state, B, seed))
        second = report_bytes(self._report(state, B, seed))
        same = first == second
        return Outcome(0.0, attempted=1, failed=0 if same else 1,
                       notes=[] if same else
                       [f"warm-up report differs between runs (B={B}, "
                        f"seed={seed})"])

    def op(self, state, i) -> Outcome:
        B, seed = self._input(state, i)
        t0 = time.perf_counter()
        report = self._report(state, B, seed)
        latency = time.perf_counter() - t0
        suites = [k for k, v in report.items() if isinstance(v, dict)]
        failed = [k for k in suites if not bool(report[k].get("pass"))]
        known = [k for k in failed if _known_defect(k, report[k], B)]
        out = Outcome(latency, attempted=len(suites), failed=len(failed),
                      known=len(known))
        if len(suites) != 9:
            out.failed += 1
            out.notes.append(f"report has {len(suites)} suites, not 9")
        if bool(report.get("pass")) != (not failed):
            out.failed += 1
            out.notes.append("overall pass disagrees with the suites")
        for k in failed:
            out.notes.append(f"{k} failed at B={B}, seed={seed}"
                             + (" (known defect)" if k in known else ""))
        return out


def _known_defect(suite: str, res: dict, B: float) -> bool:
    """A failure that is one of the two documented defects (README.md).

    dynamics: only the tau-grid minimum check fails, and the exact
    minimiser -ptilde0/B = 2/B lies off the suite's 0.005 grid on [-1, 5].
    coadjoint: the Casimir residual exceeds its 1e-12 gate by round-off
    (measured up to 1.7e-12 at |B| >= 2).
    """
    if suite == "dynamics":
        return (not res.get("minimum_located")
                and not _on_tau_grid(2.0 / B)
                and res.get("closed_vs_oracle", 1.0) <= 1e-6
                and res.get("norm_drift", 1.0) <= 1e-8
                and res.get("energy_expectation", 1.0) <= 1e-6)
    if suite == "coadjoint":
        return (res.get("u3_residual", 1.0) <= 1e-12
                and res.get("casimir_residual", 1.0) <= CASIMIR_ROUNDOFF)
    return False


def _on_tau_grid(tau: float) -> bool:
    """Whether tau is a point of the dynamics suite's grid, -1 + 0.005 k."""
    k = (tau + 1.0) / 0.005
    return 0 <= round(k) <= 1200 and abs(k - round(k)) <= 1e-6


#: largest Casimir residual still counted as the known round-off defect
CASIMIR_ROUNDOFF = 5e-12


# ---------------------------------------------------------------------------
# cli-oneshot

#: subcommand kinds, cycled in this order; arguments come from the seed
CLI_KINDS = ("cohomology:i12", "cohomology:p11", "cohomology:wh",
             "cohomology:so21", "orbit-classify", "rep-apply:A",
             "rep-apply:C", "quantize-op", "trajectory", "evolve:400",
             "evolve:1600")

_POLY_TERMS = ("q^2", "qp", "p^2", "q", "p", "")
_ORBIT_DIMS = {"CaseA": 2, "CaseB": 0, "CaseC": 2}


def _r(x: float) -> str:
    return repr(round(float(x), 6))


def _cli_args(kind: str, rng, expected_dims) -> tuple[list, dict]:
    """argv for one invocation and what its output must contain.

    Values are passed as --name=value, since many start with '-'.
    """
    B = float(rng.choice(B_VALUES))
    common = [f"--B={_r(B)}"]
    head, _, arg = kind.partition(":")
    if head == "cohomology":
        degree = int(rng.choice(sorted(expected_dims[arg])))
        return (["cohomology", f"--algebra={arg}", f"--degree={degree}"]
                + common,
                {"json": {"schema": 1, "algebra": arg, "degree": degree,
                          "dim": expected_dims[arg][degree]}})
    if head == "orbit-classify":
        tag = str(rng.choice(sorted(_ORBIT_DIMS)))
        u = rng.uniform(-3.0, 3.0, 4)
        if tag == "CaseA":
            u[3] = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
        elif tag == "CaseB":
            u[0] = u[1] = u[3] = 0.0
        else:
            u[3] = 0.0
        zeta = ",".join(_r(c) for c in u)
        return (["orbit", "classify", f"--zeta={zeta}"] + common,
                {"keys": {"schema", "tag", "labels", "orbit_dim"},
                 "fields": {"tag": tag, "orbit_dim": _ORBIT_DIMS[tag]}})
    if head == "rep-apply":
        g = ",".join(_r(c) for c in rng.uniform(-1.0, 1.0, 4))
        n = int(rng.integers(41, 162))
        return (["rep", "apply", f"--family={arg}", f"--g={g}",
                 f"--probe=hermite:{int(rng.integers(0, 4))}",
                 f"--emit-samples=-4:4:{n}"] + common,
                {"csv": ("x", "re", "im"), "rows": n})
    if head == "quantize-op":
        picks = rng.permutation(len(_POLY_TERMS))[:int(rng.integers(1, 5))]
        poly = "".join(f"{rng.choice((-1, 1)) * rng.uniform(0.25, 3.0):+.2f}"
                       f"{_POLY_TERMS[k]}" for k in sorted(picks))
        return (["quantize", "op", f"--poly={poly}"] + common,
                {"keys": {"schema", "poly", "operator"},
                 "fields": {"poly": poly}})
    if head == "trajectory":
        tau0 = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(50, 301))
        span = f"{_r(tau0)}:{_r(tau0 + rng.uniform(2.0, 6.0))}:{n}"
        return (["trajectory", f"--q1={_r(rng.uniform(-1.0, 1.0))}",
                 f"--ptilde0={_r(rng.uniform(-2.0, 2.0))}",
                 f"--tau0={_r(tau0)}", f"--span={span}"] + common,
                {"csv": ("tau", "q0", "q1", "ptilde", "proper_time"),
                 "rows": n})
    # evolve --emit json at the given E-grid size
    packet = (f"gaussian:E0={_r(rng.uniform(-1.0, 1.0))},"
              f"sigma={_r(rng.uniform(0.5, 1.5))}")
    return (["evolve", "--emit=json", f"--grid={arg}",
             f"--m={_r(rng.choice((0.5, 1.0, 2.0)))}",
             f"--q1={_r(rng.uniform(-1.0, 1.0))}",
             f"--ptilde0={_r(rng.uniform(-2.0, 2.0))}",
             f"--tau={_r(rng.uniform(0.5, 3.0))}", f"--packet={packet}"]
            + common,
            {"keys": {"schema", "max_deviation", "norm"},
             "bounds": {"max_deviation": (0.0, 1e-6), "norm": (1 - 1e-8,
                                                               1 + 1e-8)}})


def check_cli_output(code: int, stdout: str, expect: dict) -> list:
    """Problems with one invocation's exit code and output; [] if none."""
    if code != 0:
        return [f"exit code {code}"]
    if "csv" in expect:
        lines = stdout.splitlines()
        if not lines or tuple(lines[0].split(",")) != expect["csv"]:
            return ["CSV header mismatch"]
        rows = lines[1:]
        if len(rows) != expect["rows"]:
            return [f"{len(rows)} CSV rows, expected {expect['rows']}"]
        width = len(expect["csv"])
        for row in rows:
            try:
                vals = [float(t) for t in row.split(",")]
            except ValueError:
                return [f"unparsable CSV row {row!r}"]
            if len(vals) != width or not all(map(math.isfinite, vals)):
                return [f"bad CSV row {row!r}"]
        return []
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if "json" in expect:
        return [] if payload == expect["json"] else [
            f"got {payload}, expected {expect['json']}"]
    if set(payload) != expect["keys"]:
        return [f"keys {sorted(payload)}, expected {sorted(expect['keys'])}"]
    problems = [f"{k} = {payload[k]!r}, expected {v!r}"
                for k, v in expect.get("fields", {}).items()
                if payload[k] != v]
    for k, (lo, hi) in expect.get("bounds", {}).items():
        if not lo <= payload[k] <= hi:
            problems.append(f"{k} = {payload[k]!r} outside [{lo}, {hi}]")
    return problems


class CliOneshot:
    name = "cli-oneshot"
    unit = "invocation"
    checked = cycle = len(CLI_KINDS)

    def prepare(self, seed: int):
        import poincare_ext.cli  # noqa: F401  (what every child imports)
        from poincare_ext.cohomology import EXPECTED_DIMS

        return {"rng": np.random.default_rng(seed), "inputs": [],
                "dims": EXPECTED_DIMS}

    def _input(self, state, i):
        inputs = state["inputs"]
        while len(inputs) <= i:
            kind = CLI_KINDS[len(inputs) % len(CLI_KINDS)]
            inputs.append(_cli_args(kind, state["rng"], state["dims"]))
        return inputs[i]

    def warmup(self, state) -> Outcome:
        first = self.op(state, 0)
        return Outcome(0.0, failed=first.failed, notes=first.notes)

    def op(self, state, i, traced: bool = False) -> Outcome:
        argv, expect = self._input(state, i)
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "trace_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "poincare_ext.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        latency = time.perf_counter() - t0
        problems = check_cli_output(proc.returncode, proc.stdout, expect)
        out = Outcome(latency, failed=bool(problems),
                      notes=[f"{' '.join(argv)}: {p}" for p in problems])
        if traced:
            last = proc.stderr.strip().rpartition("\n")[2]
            try:
                out.trace = json.loads(last)
            except json.JSONDecodeError:
                out.failed = 1
                out.notes.append(f"{' '.join(argv)}: no trace summary")
        return out


# ---------------------------------------------------------------------------
# group-calls

#: call kinds, cycled in this order; each call draws fresh inputs
GROUP_KINDS = ("compose", "inverse", "exp_map", "exp_log_roundtrip",
               "coadjoint_casimir", "classify", "cohomology_dim")


class GroupCalls:
    name = "group-calls"
    unit = "call"
    cycle = len(GROUP_KINDS)
    checked = 100 * cycle
    chunk = 256

    def prepare(self, seed: int):
        import poincare_ext.cohomology as coh
        import poincare_ext.group as grp
        import poincare_ext.orbits as orb

        # checks use these references, taken before any tracer wraps the
        # module functions, so traced counts hold only the measured calls
        state = {"grp": grp, "orb": orb, "coh": coh, "inputs": [],
                 "rng": np.random.default_rng(seed),
                 "compose": grp.compose, "identity": grp.identity()}
        self._input(state, 0)
        return state

    def _input(self, state, i):
        """Inputs are drawn a chunk at a time, outside the timed calls."""
        inputs = state["inputs"]
        rng = state["rng"]
        while len(inputs) <= i:
            n = self.chunk
            Bs = rng.choice(B_VALUES, n)
            a, b = rng.uniform(-2.0, 2.0, (n, 4)), rng.uniform(-2.0, 2.0, (n, 4))
            x = rng.uniform(-1.0, 1.0, (n, 4))
            zeta = rng.uniform(-3.0, 3.0, (n, 4))
            tags = rng.choice(("CaseA", "CaseB", "CaseC"), n)
            for k in range(n):
                inputs.append((float(Bs[k]), a[k], b[k], x[k], zeta[k],
                               str(tags[k])))
        return inputs[i]

    def warmup(self, state) -> Outcome:
        out = Outcome(0.0, attempted=0)
        for i in range(len(GROUP_KINDS)):
            o = self.op(state, i)
            out.attempted += o.attempted
            out.failed += o.failed
            out.notes += o.notes
        state["inputs"] = state["inputs"][len(GROUP_KINDS):]
        return out

    def op(self, state, i) -> Outcome:
        grp, orb, coh = state["grp"], state["orb"], state["coh"]
        B, a, b, x, zeta, tag = self._input(state, i)
        kind = GROUP_KINDS[i % len(GROUP_KINDS)]
        p = grp.ModelParams(B=B)
        g2 = grp.GroupElement(*a)
        g1 = grp.GroupElement(*b)
        problem = None
        known = False
        if kind == "compose":
            t0 = time.perf_counter()
            g = grp.compose(g2, g1, p)
            latency = time.perf_counter() - t0
            # alpha is additive and the identity is neutral
            e_g1 = state["compose"](state["identity"], g1, p)
            if (abs(g.alpha - (g2.alpha + g1.alpha)) > 1e-12
                    or np.max(np.abs(e_g1.array - g1.array)) > 1e-12):
                problem = "compose breaks alpha additivity or identity"
        elif kind == "inverse":
            t0 = time.perf_counter()
            h = grp.inverse(g1, p)
            latency = time.perf_counter() - t0
            if np.max(np.abs(state["compose"](h, g1, p).array)) > 1e-9:
                problem = "inverse(g) * g is not the identity"
        elif kind == "exp_map":
            X = grp.AlgebraElement(x)
            t0 = time.perf_counter()
            g = grp.exp_map(X, p)
            latency = time.perf_counter() - t0
            if abs(g.alpha - x[2]) > 1e-9 or not np.all(np.isfinite(g.array)):
                problem = "exp_map alpha differs from X^J"
        elif kind == "exp_log_roundtrip":
            X = grp.AlgebraElement(x)
            t0 = time.perf_counter()
            Y = grp.log_map(grp.exp_map(X, p), p)
            latency = time.perf_counter() - t0
            err = float(np.max(np.abs(Y.array - x)))
            if not err <= 1e-9:
                problem = f"log(exp(X)) differs from X by {err:.2e}"
        elif kind == "coadjoint_casimir":
            z = grp.CoadjointPoint(tuple(zeta))
            t0 = time.perf_counter()
            moved = grp.coadjoint_action(g1, z, p)
            c0, c1 = grp.casimir_pairing(z, p), grp.casimir_pairing(moved, p)
            latency = time.perf_counter() - t0
            res = abs(c1 - c0) / max(abs(c0), 1.0)
            if not res <= 1e-12:
                problem = f"Casimir moved by {res:.2e}"
                known = res <= CASIMIR_ROUNDOFF
        elif kind == "classify":
            u = np.array(zeta)
            if tag == "CaseA":
                u[3] = math.copysign(max(abs(u[3]), 0.2), u[3])
            elif tag == "CaseB":
                u[0] = u[1] = u[3] = 0.0
            else:
                u[3] = 0.0
            z = grp.CoadjointPoint(tuple(u))
            t0 = time.perf_counter()
            cls = orb.classify(z, p)
            latency = time.perf_counter() - t0
            if cls.tag != tag:
                problem = f"classify gave {cls.tag}, built for {tag}"
        else:
            t0 = time.perf_counter()
            sc = coh.catalog_algebra("i12", B)
            dims = {k: coh.cohomology_dim(k, sc)
                    for k in coh.EXPECTED_DIMS["i12"]}
            latency = time.perf_counter() - t0
            if dims != coh.EXPECTED_DIMS["i12"]:
                problem = f"i12 cohomology {dims}"
        return Outcome(latency, failed=problem is not None, known=known,
                       notes=[f"{kind} at B={B}: {problem}"
                              + (" (known defect)" if known else "")]
                       if problem else [])


WORKLOADS = {w.name: w for w in (VerifyAll(), CliOneshot(), GroupCalls())}

