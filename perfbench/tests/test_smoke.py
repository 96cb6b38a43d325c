"""Tiny-size runs of every workload through the real CLI, both modes."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, run, trace

WORKLOADS = ["cli_short", "design_sweep", "mc_records"]
COUNTS = ("calls", "points", "chunks", "records_parsed", "bytes_written",
          "bytes_out", "no_yield", "degenerate", "invalid")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_passes_its_checks(workload):
    result, record = run.run_benchmark(workload, seed=5, seconds=0,
                                       trace_on=False, scale=inputs.TINY)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.declared_metrics(False))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["passes_started"] == 1
    if workload == "cli_short":                 # one item per call
        walls = [w for kind in record["per_kind"].values() for w in kind["walls_s"]]
        assert result["metrics"]["primary_per_s"]["value"] == pytest.approx(
            len(walls) / sum(walls))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_counts_repeat(workload, monkeypatch):
    monkeypatch.setattr(trace, "LAYER_SAMPLES", 1)
    results = [run.run_benchmark(workload, seed=5, seconds=0, trace_on=True,
                                 scale=inputs.TINY)[0] for _ in range(2)]
    for result in results:
        assert result["correct"], result
        assert set(result["metrics"]) == set(run.declared_metrics(True))
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.rsplit(".", 1)[-1] in COUNTS} for r in results]
    assert counts[0] == counts[1]
    m = results[0]["metrics"]
    assert m["trace.overhead_ratio"]["value"] > 0
    if workload == "mc_records":
        assert m["records.records_parsed"]["value"] == inputs.TINY.mc_pulses
        assert m["simulate.chunks"]["value"] == 1
    else:
        assert m["records.records_parsed"]["value"] == 0
    if workload == "design_sweep":
        assert m["optimize.points"]["value"] == 2 * 2 * inputs.TINY.grid_points ** 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli_short", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
