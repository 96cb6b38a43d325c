"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source tree of the repository (it needs ``src/`` and ``configs/``).
With ``--trace 0`` it runs the workload's closed loop of ``passive-decoy``
processes for S seconds and reports the end-to-end metrics; with
``--trace 1`` it runs one pass in-process and reports the per-layer metrics.
The last line of standard output is the result object; the line before it
is a record with the seed, the environment fingerprint and per-call detail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, this directory heads sys.path, where trace.py would shadow
# the standard library's trace module; import these files as ``perfbench``.
if sys.path and sys.path[0] and Path(sys.path[0]).resolve() == ROOT / "perfbench":
    del sys.path[0]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness, inputs, trace, workloads  # noqa: E402

WORK_ROOT = ROOT / "perfbench" / ".work"


def declared_metrics(trace_on: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace_on else "end_to_end"]}


def timed_run(plan, oracle, env: dict, work: Path, seconds: float,
              scale: inputs.Scale) -> tuple[dict, dict]:
    """The closed loop: passes of CLI processes until ``seconds`` have
    passed, always at least one whole pass."""
    cli = [sys.executable, "-m", "passive_decoy.cli"]
    results = []

    def call(args: list[str], ok_codes=(0,), label="help"):
        res = harness.run_child(cli + args, env, work, work / "stderr.txt")
        results.append(res)
        oracle.expect(res.exit_code in ok_codes,
                      f"{label} exited {res.exit_code}: {res.stderr.strip()[-300:]}")
        return res

    # The first call writes the bytecode caches an installed package has.
    call(["--help"])
    setup = [call(["--help"]).wall_s for _ in range(scale.setup_samples)]

    samples: list[tuple[str, float, int]] = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for c in plan.calls(passes):
            if passes > 0 and time.perf_counter() - start >= seconds:
                break
            res = call(c.args, c.ok_codes, c.kind)
            samples.append((c.kind, res.wall_s, c.items))
            if res.exit_code in c.ok_codes and c.check is not None:
                oracle.run(c.kind, c.check, res.exit_code)
        passes += 1
    loop_s = time.perf_counter() - start

    walls = defaultdict(list)
    for kind, wall, _ in samples:
        walls[kind].append(wall)
    per_pass = Counter(c.kind for c in plan.calls(0))

    def throughput(rate: workloads.Rate) -> float:
        mine = [(wall, items) for k, wall, items in samples
                if rate.kind is None or k == rate.kind]
        if rate.time_percentile is None:
            return sum(items for _, items in mine) / sum(wall for wall, _ in mine)
        return harness.percentile([items / wall for wall, items in mine],
                                  100.0 - rate.time_percentile)

    all_walls = [wall for _, wall, _ in samples]
    tail = harness.tail_percentile(len(all_walls))
    metrics = {
        "setup_s": harness.median(setup),
        "wall_s": sum(harness.median(walls[k]) * n for k, n in per_pass.items()),
        "peak_rss_mb": max(res.peak_rss_mb for res in results),
        "primary_per_s": throughput(plan.primary),
        "secondary_per_s": throughput(plan.secondary),
    }
    details = {
        plan.primary.label: metrics["primary_per_s"],
        plan.secondary.label: metrics["secondary_per_s"],
        "loop_s": loop_s,
        "passes_started": passes,
        "calls": len(samples),
        "cli_p50_s": harness.median(all_walls),
        "cli_tail": (None if tail is None else
                     {"percentile": tail,
                      "value_s": harness.percentile(all_walls, tail)}),
        "setup_samples_s": setup,
        "per_kind": {k: {"n": len(v), "median_s": harness.median(v), "walls_s": v}
                     for k, v in walls.items()},
    }
    return metrics, details


def run_benchmark(workload: str, seed: int, seconds: float, trace_on: bool,
                  scale: inputs.Scale = inputs.FULL) -> tuple[dict, dict]:
    """Run one benchmark; returns (result object, record)."""
    nproc = harness.usable_cpus()
    env = harness.pin_threads(dict(os.environ), nproc)
    for name in harness.THREAD_VARS:       # before this process loads numpy
        os.environ[name] = env[name]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    units = declared_metrics(trace_on)

    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        oracle = workloads.Oracle(ROOT)
        plan = workloads.WORKLOADS[workload](ROOT, work, seed, scale, oracle)
        if trace_on:
            metrics, details = trace.traced_run(plan, oracle, env, work)
        else:
            metrics, details = timed_run(plan, oracle, env, work, seconds, scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace_on),
        "failed_ratio": oracle.failed / oracle.attempted,
        "failures": oracle.failures,
        "env": harness.fingerprint(ROOT, env),
        **details,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "passive_decoy" / "cli.py").is_file():
        print(f"error: no passive_decoy sources under {ROOT / 'src'}; run "
              "from a source tree of the repository", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
