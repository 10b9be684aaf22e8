#!/usr/bin/env python3
"""Record benchmark rows of one checkout, or of two run alternately.

    python3 tools/bench_record.py --out BENCH_<n>.json [--parent DIR]
        [--seeds 101 102 ...]

Run it from anywhere; it measures the checkout it lives in (the row
"change"), importing the package from that checkout's src/.  With
--parent, DIR is a second checkout (`git archive` of the parent commit
unpacked there, say), the row "parent": the two trees then run in turn,
seed by seed and repeat by repeat, in one run, so host load that drifts
over minutes falls on both alike.  Which tree goes first alternates.
Standard library only.  It reads bench/ and BENCHMARK.json and never
edits them.  Each row records:

* for each workload of BENCHMARK.json, `bench/run.py --trace 0 --seconds
  S` at each seed, S its `run_seconds`, one subprocess a run: the
  `end_to_end` metrics as median and IQR over the seeds, with each run's
  correct, attempted and failed;
* the CPU time of each all-checks suite in-process (time.process_time
  around `fn(ModelParams(1.3), 42)` for each `cli._SUITES` entry, after one
  warm-up report), one subprocess a repeat, median and IQR over REPEATS;
* the wall time of a cold `python -m poincare_ext.cli all-checks --seed 42`,
  median and IQR over REPEATS;
* provenance: the commit, whether src/poincare_ext/__pycache__ existed at
  start, and PYTHONDONTWRITEBYTECODE, since the bytecode state moves
  set-up times.

The file holds nproc, the load average at start and end, the Python and
numpy versions, the settings, and with --parent a comparison: for each
end-to-end metric, the pairs of runs at one seed (and for cold all-checks
the pairs of one repeat) that the change wins by its `better` direction,
and whether the medians differ by more than the parent's IQR.

A quartile is statistics.quantiles(..., n=4, method="inclusive"); the IQR
is the third less the first.  A run that fails is recorded with its exit
code and stderr tail, not retried.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the default bench seeds (a comparison takes seeds its change was not
#: tuned on), and the repeats of the suite timing and of the cold all-checks
SEEDS = (101, 102, 103, 104, 105)
REPEATS = 15

#: the in-process suite timing of one repeat, run in a subprocess that
#: imports src/
SUITE_CPU = """
import json, time
from poincare_ext import cli
from poincare_ext.model import ModelParams
params = ModelParams(1.3)
cli.run_all_checks(params, 42)
rows = {}
for name, fn in cli._SUITES:
    t0 = time.process_time()
    fn(params, 42)
    rows[name] = time.process_time() - t0
print(json.dumps(rows))
"""


def _stats(values) -> dict:
    """median and IQR of values, with the values themselves; None, for a
    run that failed, keeps its place in runs and counts in neither."""
    runs = list(values)
    values = [v for v in runs if v is not None]
    if not values:
        return {"median": None, "iqr": None, "runs": runs}
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "iqr": q3 - q1, "runs": runs}


def _run(tree: Path, cmd, **kwargs) -> subprocess.CompletedProcess:
    """cmd in tree, with tree's src/ first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(tree / "src") + (os.pathsep + path if path else "")}
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, **kwargs)


def _in_turn(trees: dict, k: int) -> list:
    """The (name, tree) pairs, rotated by k: who goes first alternates."""
    items = list(trees.items())
    k %= len(items)
    return items[k:] + items[:k]


def provenance(tree: Path) -> dict:
    commit = _run(tree, ["git", "rev-parse", "HEAD"]).stdout.strip() or None
    return {"commit": commit,
            "pycache_at_start": (tree / "src" / "poincare_ext" / "__pycache__").is_dir(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One bench/run.py run, its last stdout line parsed."""
    proc = _run(tree, [sys.executable, "bench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"])
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "exit": proc.returncode, "stderr": proc.stderr[-500:]}
    return {"seed": seed, "exit": proc.returncode, "correct": last["correct"],
            "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def suite_cpu(tree: Path) -> dict:
    return json.loads(_run(tree, [sys.executable, "-c", SUITE_CPU], check=True).stdout)


def all_checks_cold(tree: Path) -> tuple:
    t0 = time.perf_counter()
    proc = _run(tree, [sys.executable, "-m", "poincare_ext.cli", "all-checks",
                       "--seed", "42"])
    return time.perf_counter() - t0, proc.returncode


def record(trees: dict, spec: dict, seeds, seconds: int, repeats: int) -> dict:
    """Every row, the trees run in turn at each seed and repeat."""
    metrics = [m["name"] for m in spec["end_to_end"]]
    rows = {name: {"provenance": provenance(tree)} for name, tree in trees.items()}
    runs = {name: {w["name"]: [] for w in spec["workloads"]} for name in trees}
    for w in spec["workloads"]:
        for k, seed in enumerate(seeds):
            for name, tree in _in_turn(trees, k):
                runs[name][w["name"]].append(bench_run(tree, w["name"], seed, seconds))
    suites = {name: [] for name in trees}
    cold = {name: [] for name in trees}
    for k in range(repeats):
        for name, tree in _in_turn(trees, k):
            suites[name].append(suite_cpu(tree))
        for name, tree in _in_turn(trees, k):
            cold[name].append(all_checks_cold(tree))
    for name in trees:
        end_to_end = {}
        for workload, rs in runs[name].items():
            row = {m: _stats(r["metrics"][m] if "metrics" in r else None for r in rs)
                   for m in metrics}
            row["runs"] = [{k: v for k, v in r.items() if k != "metrics"} for r in rs]
            end_to_end[workload] = row
        rows[name] |= {
            "end_to_end": end_to_end,
            "suite_cpu_s": {s: _stats(r[s] for r in suites[name])
                            for s in suites[name][0]},
            "all_checks_cold_s": {**_stats(t for t, _ in cold[name]),
                                  "exit_codes": sorted({c for _, c in cold[name]})},
        }
    return rows


def _pairs(change, parent, better: str) -> dict:
    """Wins of change over parent, pair by pair, and whether the medians
    differ by more than the parent's IQR."""
    pairs = [(c, p) for c, p in zip(change["runs"], parent["runs"], strict=True)
             if c is not None and p is not None]
    wins = sum((c < p) if better == "lower" else (c > p) for c, p in pairs)
    gap = None
    if parent["median"] is not None and change["median"] is not None:
        gap = abs(change["median"] - parent["median"]) > parent["iqr"]
    return {"change_wins": wins, "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": gap}


def comparison(rows: dict, spec: dict) -> dict:
    change, parent = rows["change"], rows["parent"]
    out = {w: {m["name"]: _pairs(change["end_to_end"][w][m["name"]],
                                 parent["end_to_end"][w][m["name"]], m["better"])
               for m in spec["end_to_end"]}
           for w in change["end_to_end"]}
    out["all_checks_cold_s"] = _pairs(change["all_checks_cold_s"],
                                      parent["all_checks_cold_s"], "lower")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH.json", help="path, relative to the root")
    ap.add_argument("--parent", type=Path,
                    help="a second checkout, run in turn with this one")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    out = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy, "load_average_start": os.getloadavg(),
           "settings": {"seeds": args.seeds, "seconds": spec["run_seconds"],
                        "repeats": REPEATS, "suite_B": 1.3, "suite_seed": 42}}
    out["rows"] = record(trees, spec, args.seeds, spec["run_seconds"], REPEATS)
    if args.parent is not None:
        out["comparison"] = comparison(out["rows"], spec)
    out["load_average_end"] = os.getloadavg()
    path = ROOT / args.out
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
