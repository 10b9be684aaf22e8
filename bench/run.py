"""poincare-ext benchmark: one command, three workloads.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 bench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Workloads are ``verify-all``, ``cli-oneshot`` and ``group-calls`` (see
``workloads.py`` and ``README.md``).  ``--trace 0`` measures the
end-to-end metrics with no instrumentation.  ``--trace 1`` runs a fixed
number of operations untraced and then traced (the count depends only on
``--seconds``), and reports the per-layer metrics and the tracing
overhead; its spans are written to ``.bench_out/<workload>.spans.jsonl``.

The second-to-last line of stdout is the full report: every metric with
its unit, sample count and percentile, the failure notes, and the
provenance.  The last line is the summary
``{"correct", "attempted", "failed", "metrics"}``, holding the metrics
named in BENCHMARK.json.  ``attempted`` and ``failed`` count the checks
of the warm-up and of a fixed number of operations per seed (see
``run_plain``); every failed check among them is counted in ``failed``.
``correct`` is false when a check fails for any reason other than the
two documented defects (README.md).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fresh interpreters timed for setup_s, spread through the timed window
#: (after one untimed warm start)
SETUP_REPEATS = 10
#: -X importtime runs behind the setup.* per-layer metrics
IMPORTTIME_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-all", "cli-oneshot", "group-calls"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# statistics


def timing(samples, unit="s") -> dict:
    """Median of the samples, with the sample count."""
    return {"value": statistics.median(samples), "unit": unit,
            "samples": len(samples), "percentile": 50}


def tail(samples, unit="s") -> dict:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return {"value": None, "unit": unit, "samples": n,
                "percentile": None,
                "note": "fewer than 11 samples: no percentile has ten "
                        "samples beyond it"}
    return {"value": xs[n - 11], "unit": unit, "samples": n,
            "percentile": round(100.0 * (n - 10) / n, 2),
            "beyond": 10}


# ---------------------------------------------------------------------------
# set-up


def _probe_code(workload: str, seed: int) -> str:
    return ("import sys; sys.path.insert(0, %r); import workloads; "
            "workloads.WORKLOADS[%r].prepare(%d)"
            % (str(BENCH_DIR), workload, seed))


def setup_probe(workload: str, seed: int) -> float:
    """Spawn-to-exit time of a fresh interpreter that imports and prepares."""
    cmd = [sys.executable, "-c", _probe_code(workload, seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return dt


def import_breakdown() -> dict:
    """Median numpy / scipy / own-package import cost of the CLI module.

    From ``python -X importtime -c "import poincare_ext.cli"``: numpy_s and
    scipy_s are the cumulative times of the outermost numpy and scipy
    imports; poincare_ext_s is the rest of the package import.
    """
    runs = []
    cmd = [sys.executable, "-X", "importtime", "-c", "import poincare_ext.cli"]
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr}")
        runs.append(_parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _parse_importtime(text: str) -> dict:
    # lines come in post-order: a module is listed after its imports, one
    # nesting level (two spaces) deeper than the module that imported it
    pending = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        node = {"name": name.strip(), "self": int(self_us) / 1e6,
                "cum": int(cum_us) / 1e6,
                "children": pending.pop(level + 1, [])}
        pending.setdefault(level, []).append(node)
    roots = [n for level in sorted(pending) for n in pending[level]]

    def within(node, prefix):
        return node["name"] == prefix or node["name"].startswith(prefix + ".")

    def outermost(nodes, prefix, other=""):
        # numpy modules first imported by scipy count as scipy, and back
        total = 0.0
        for n in nodes:
            if within(n, prefix):
                total += n["cum"]
            elif not (other and within(n, other)):
                total += outermost(n["children"], prefix, other)
        return total

    numpy_s = outermost(roots, "numpy", "scipy")
    scipy_s = outermost(roots, "scipy", "numpy")
    package = outermost(roots, "poincare_ext")
    return {"setup.numpy_s": numpy_s, "setup.scipy_s": scipy_s,
            "setup.poincare_ext_s": package - numpy_s - scipy_s}


# ---------------------------------------------------------------------------
# provenance


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    from poincare_ext import cli

    worker_count = getattr(cli, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "seed": seed,
        "pool_size": worker_count() if worker_count else None,
    }


# ---------------------------------------------------------------------------
# runs


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.known = 0
        self.unknown_beyond = 0
        self.notes = []
        self.info = {}

    def add(self, outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.known += outcome.known
        if len(self.notes) < 50:
            self.notes += outcome.notes[:50 - len(self.notes)]
        return outcome


def run_plain(wl, seed: int, seconds: int) -> tuple:
    """End-to-end metrics, no instrumentation.

    The timed window of ``seconds``, extended to a whole number of
    ``wl.cycle``s of operations, holds the operations and, spread evenly
    through it, the SETUP_REPEATS set-up probes; ``ops_per_s`` counts the
    operations' wall time only.  ``attempted`` and ``failed`` hold the
    warm-up and the first ``wl.checked`` operations (finished untimed if
    the window ends first), so a seed gives the same counts on every
    run; later operations are checked too, and a failure there that is
    not a known defect makes the run incorrect.
    """
    setup_probe(wl.name, seed)      # warms the page cache; not timed
    state = wl.prepare(seed)
    tally, beyond = Tally(), Tally()
    tally.add(wl.warmup(state))
    latencies, setup = [], []
    i = 0
    wall = 0.0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and i and i % wl.cycle == 0
                and len(setup) == SETUP_REPEATS):
            break
        due = min((len(setup) + 0.5) * seconds / SETUP_REPEATS, seconds)
        if len(setup) < SETUP_REPEATS and elapsed >= due:
            setup.append(setup_probe(wl.name, seed))
            continue
        t1 = time.perf_counter()
        outcome = wl.op(state, i)
        wall += time.perf_counter() - t1
        latencies.append(outcome.latency_s)
        (tally if i < wl.checked else beyond).add(outcome)
        i += 1
    for k in range(i, wl.checked):
        tally.add(wl.op(state, k))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if wl.name == "cli-oneshot"
                               else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": timing(setup),
        "latency_p50_s": timing(latencies),
        "latency_tail_s": tail(latencies),
        "ops_per_s": {"value": i / wall, "unit": "1/s", "ops": i,
                      "wall_s": wall},
        "fail_ratio": {"value": tally.failed / tally.attempted,
                       "unit": "ratio", "failed": tally.failed,
                       "attempted": tally.attempted, "per": wl.unit,
                       "beyond_checked": {"attempted": beyond.attempted,
                                          "failed": beyond.failed,
                                          "known": beyond.known}},
        "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB",
                        "of": "largest child" if wl.name == "cli-oneshot"
                        else "benchmark process"},
    }
    if wl.name == "verify-all":
        metrics["verdict_s"] = timing(latencies)
    tally.unknown_beyond = beyond.failed - beyond.known
    tally.notes += beyond.notes[:max(0, 50 - len(tally.notes))]
    return metrics, tally


def run_traced(wl, seed: int, seconds: int) -> tuple:
    """Per-layer metrics from a fixed number of traced operations."""
    from tracer import Tracer, layer_metrics, merge, write_spans

    setup = import_breakdown()
    state = wl.prepare(seed)
    tally = Tally()
    tally.add(wl.warmup(state))
    n = trace_ops(wl.name, seconds)
    plain = [tally.add(wl.op(state, i)).latency_s for i in range(n)]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}.spans.jsonl"
    if wl.name == "cli-oneshot":
        outcomes = [tally.add(wl.op(state, i, traced=True)) for i in range(n)]
        found = [o.trace for o in outcomes if o.trace]
        summary = merge(t["summary"] for t in found)
        write_spans(spans_path, (dict(rec, invocation=k)
                                 for k, t in enumerate(found)
                                 for rec in t["spans"]))
    else:
        tracer = Tracer()
        with tracer:
            outcomes = [tally.add(wl.op(state, i)) for i in range(n)]
        summary = tracer.summary()
        write_spans(spans_path, tracer.records())
    untraced_p50 = statistics.median(plain)
    traced_p50 = statistics.median(o.latency_s for o in outcomes)
    values = dict(layer_metrics(summary), **setup)
    values.update({"trace.untraced_p50_s": untraced_p50,
                   "trace.traced_p50_s": traced_p50,
                   "trace.overhead_s": traced_p50 - untraced_p50})
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    tally.info = {"ops": n, "spans": summary["spans"],
                  "threads": summary["threads"], "spans_file":
                  str(spans_path.relative_to(ROOT))}
    return metrics, tally


def trace_ops(workload: str, seconds: int) -> int:
    """Operations per traced run: fixed by the workload and --seconds."""
    if workload == "verify-all":
        return max(1, seconds // 10)
    if workload == "cli-oneshot":
        from workloads import CLI_KINDS
        return len(CLI_KINDS) * max(1, seconds // 30)
    from workloads import GROUP_KINDS
    return len(GROUP_KINDS) * max(1, seconds)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("useful_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poincare_ext" / "__init__.py").is_file():
        print(f"error: {SRC / 'poincare_ext'} not found; run from the root "
              "of a poincare-ext checkout", file=sys.stderr)
        return 2
    # children and this process both use the checkout's package only, and
    # the shipped thread-pool default
    os.environ.pop("POINCARE_EXT_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import poincare_ext
    from workloads import WORKLOADS

    if Path(poincare_ext.__file__).resolve().parent != \
            (SRC / "poincare_ext").resolve():
        print(f"error: imported {poincare_ext.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics, tally = run_traced(wl, args.seed, args.seconds)
    else:
        metrics, tally = run_plain(wl, args.seed, args.seconds)
    # the last line carries exactly the metrics BENCHMARK.json names
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    correct = tally.failed == tally.known and not tally.unknown_beyond
    report = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "metrics": metrics,
              "known_defect_failures": tally.known, "notes": tally.notes,
              "trace_run": tally.info,
              "provenance": provenance(args.seed)}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k]["value"],
                        "unit": metrics[k]["unit"]} for k in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
