"""Smoke test of the benchmark itself, at a tiny size.

    python -m pytest -q bench/test_smoke.py

Checks that every workload runs and prints, plain and traced, exactly
the metrics BENCHMARK.json names with their units, and that the tracer
changes no result of run_all_checks.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, report_bytes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: report-line metrics the plain run prints for every workload
REPORTED = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
            "ops_per_s": "1/s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)
    monkeypatch.setattr(run, "trace_ops", lambda workload, seconds: 1)
    for wl in WORKLOADS.values():
        monkeypatch.setattr(wl, "checked", 1)
        monkeypatch.setattr(wl, "cycle", 1)


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_emits_every_metric(tiny, capsys, workload, trace):
    report, last = _run(capsys, "--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in last["metrics"].values())
    if trace == "0":
        expected = dict(REPORTED)
        if workload == "verify-all":
            expected["verdict_s"] = "s"
        assert {k: report["metrics"][k]["unit"] for k in expected} == expected
    prov = report["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "commit", "seed",
                "pool_size"):
        assert key in prov


def test_tracer_changes_no_result():
    wl = WORKLOADS["verify-all"]
    state = wl.prepare(5)
    cli, params = state["cli"], state["ModelParams"](-1.3, hbar=1.0)
    plain = report_bytes(cli.run_all_checks(params, 11))
    originals = dict(vars(cli))
    tracer = Tracer()
    with tracer:
        traced = report_bytes(cli.run_all_checks(params, 11))
    assert traced == plain
    assert tracer.summary()["names"]["cli.suite_reps"]["calls"] == 1
    assert all(vars(cli)[k] is v for k, v in originals.items())


def test_counts_fixed_by_seed(tiny, monkeypatch, capsys):
    monkeypatch.setattr(WORKLOADS["group-calls"], "checked", 50)
    counts = []
    for seconds in ("1", "2"):
        _, last = _run(capsys, "--workload", "group-calls", "--seed", "7",
                       "--seconds", seconds, "--trace", "0")
        counts.append((last["attempted"], last["failed"]))
    assert counts[0] == counts[1]
