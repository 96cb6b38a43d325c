"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --workload cli_short --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median and the quartile spread (Q3 - Q1) / median over
the runs next to the metric's bound from BENCHMARK.json.  A benchmark is
steady when every spread except that of setup_s is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench import harness  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    if args.runs >= 2:
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            print(f"{m['name']:>16}: median {harness.median(xs):.6g} {m['unit']}, "
                  f"spread {harness.quartile_spread(xs):.4f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
