#!/usr/bin/env python3
"""Record this checkout's benchmark rows in one JSON file.

    python3 tools/bench_record.py [--out BENCH_33.json]

Run it from anywhere; it measures the checkout it lives in, importing the
package from that checkout's src/.  Standard library only.  It reads
bench/ and BENCHMARK.json and never edits them.  It records:

* for each workload of BENCHMARK.json, `bench/run.py --trace 0 --seconds
  SECONDS` at each of SEEDS, one subprocess a run: the `end_to_end`
  metrics as median and IQR over the seeds, with each run's correct,
  attempted and failed;
* the CPU time of each all-checks suite in-process (time.process_time
  around `fn(ModelParams(1.3), 42)` for each `cli._SUITES` entry, after one
  warm-up report), median and IQR over REPEATS;
* the wall time of a cold `python -m poincare_ext.cli all-checks --seed 42`,
  median and IQR over REPEATS;
* provenance: nproc, the load average at start and end, the Python and
  numpy versions, the commit, whether src/poincare_ext/__pycache__
  existed at start and PYTHONDONTWRITEBYTECODE, since the bytecode state
  moves set-up times.

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

#: the bench seeds, each bench run's timed window, and the repeats of the
#: suite timing and of the cold all-checks
SEEDS = (101, 102, 103, 104, 105)
SECONDS = 10
REPEATS = 15

#: the in-process suite timing, run in a subprocess that imports src/
SUITE_CPU = """
import json, sys, time
from poincare_ext import cli
from poincare_ext.model import ModelParams
params, repeats = ModelParams(1.3), int(sys.argv[1])
cli.run_all_checks(params, 42)
rows = {name: [] for name, _ in cli._SUITES}
for _ in range(repeats):
    for name, fn in cli._SUITES:
        t0 = time.process_time()
        fn(params, 42)
        rows[name].append(time.process_time() - t0)
print(json.dumps(rows))
"""


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _stats(values) -> dict:
    """median and IQR of values, with the values themselves."""
    values = list(values)
    if not values:
        return {"median": None, "iqr": None, "runs": []}
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "iqr": q3 - q1, "runs": values}


def _run(cmd, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, **kwargs)


def provenance() -> dict:
    commit = _run(["git", "rev-parse", "HEAD"]).stdout.strip() or None
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "commit": commit,
            "pycache_at_start": (ROOT / "src" / "poincare_ext" / "__pycache__").is_dir(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def end_to_end(workload: str, metrics) -> dict:
    """bench/run.py at each seed, its last stdout line parsed."""
    runs = []
    for seed in SEEDS:
        proc = _run([sys.executable, "bench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"])
        try:
            last = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            runs.append({"seed": seed, "exit": proc.returncode,
                         "stderr": proc.stderr[-500:]})
            continue
        runs.append({"seed": seed, "exit": proc.returncode, "correct": last["correct"],
                     "attempted": last["attempted"], "failed": last["failed"],
                     "metrics": last["metrics"]})
    row = {name: _stats(r["metrics"][name]["value"] for r in runs if "metrics" in r)
           for name in metrics}
    return {**row, "runs": [{k: v for k, v in r.items() if k != "metrics"} for r in runs]}


def suite_cpu() -> dict:
    proc = _run([sys.executable, "-c", SUITE_CPU, str(REPEATS)], check=True)
    return {name: _stats(values) for name, values in json.loads(proc.stdout).items()}


def all_checks_cold() -> dict:
    times, codes = [], set()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-m", "poincare_ext.cli", "all-checks", "--seed", "42"])
        times.append(time.perf_counter() - t0)
        codes.add(proc.returncode)
    return {**_stats(times), "exit_codes": sorted(codes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_33.json", help="path, relative to the root")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]

    record = {"provenance": provenance(), "load_average_start": os.getloadavg(),
              "settings": {"seeds": SEEDS, "seconds": SECONDS, "repeats": REPEATS,
                           "suite_B": 1.3, "suite_seed": 42}}
    record["end_to_end"] = {w["name"]: end_to_end(w["name"], metrics)
                            for w in spec["workloads"]}
    record["suite_cpu_s"] = suite_cpu()
    record["all_checks_cold_s"] = all_checks_cold()
    record["load_average_end"] = os.getloadavg()
    out = ROOT / args.out
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
