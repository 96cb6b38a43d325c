"""Per-layer numbers from a traced run.

One pass of the workload runs in this process through ``passive_decoy.cli.main``,
first plain and then with timing wrappers swapped in for the package's public
functions wherever a module refers to them.  The wrappers live here, so the
program is measured without being changed.  The extra layers measured in
child processes (interpreter start, imports) and the Monte Carlo extras
(sampling alone, heap peak) run outside both passes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from . import harness
from .inputs import McRecordsInputs

PER_CALL = ("statistics.branch_distributions", "simulate.predicted_statistics",
            "bounds.key_rate", "optimize.rate_for_point")
BUSY = ("config.load_run_config", "reports.dump_json", "reports.optimization_csv",
        "simulate.monte_carlo_run", "records.format_batch_csv",
        "records.write_records_csv", "records.iter_batches_from_csv",
        "records.tally_from_batch")
FLAGS = ("no_yield", "degenerate", "invalid")
SERIALIZERS = ("dump_json", "optimization_csv", "distribution_csv", "scan_csv")
LAYER_SAMPLES = 3       # child processes per interpreter/import measurement


def self_time(total_s: float, children_s: float) -> float:
    """A span's own time: its duration minus the time its children cover."""
    return total_s - children_s


class Tracer:
    """Call counts, busy time and work counts per traced function."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.counts: Counter = Counter()
        self.chunk_gaps: list[float] = []
        self._undo: list[tuple] = []

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped to add its wall time to ``busy[name]``; ``after``
        sees (result, args) of each call that returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.busy[name] += time.perf_counter() - start
                self.calls[name] += 1
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def timed_iter(self, name: str, fn, count: str):
        """A generator function wrapped to time each step; ``counts[count]``
        adds the length of every item it yields."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.busy[name] += time.perf_counter() - start
                self.counts[count] += len(item)
                yield item
        return wrapper

    def timed_monte_carlo(self, fn):
        """monte_carlo_run with its record sink timed: ``chunk_gaps`` gets
        the time from the run's start or the previous sink return to each
        sink call."""
        name = "simulate.monte_carlo_run"

        @functools.wraps(fn)
        def wrapper(*args, record_sink=None, **kwargs):
            last = time.perf_counter()

            def sink(batch):
                nonlocal last
                self.chunk_gaps.append(time.perf_counter() - last)
                self.counts["simulate.chunks"] += 1
                if record_sink is not None:
                    record_sink(batch)
                last = time.perf_counter()

            start = time.perf_counter()
            try:
                return fn(*args, record_sink=sink, **kwargs)
            finally:
                self.busy[name] += time.perf_counter() - start
                self.calls[name] += 1
        return wrapper

    def _swap(self, original, replacement) -> None:
        """Point every package-module name bound to ``original`` at
        ``replacement``; call sites look names up at run time."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "passive_decoy" and not mod_name.startswith("passive_decoy."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _count_bytes(self, key: str):
        def after(result, args):
            self.counts[key] += len(result.encode("utf-8"))
        return after

    def _count_flag(self, result, args) -> None:
        if result[1]:
            self.counts[f"optimize.flagged.{result[1]}"] += 1

    def _count_points(self, result, args) -> None:
        self.counts["optimize.points"] += len(result.trace)

    def _count_file(self, result, args) -> None:
        self.counts["records.bytes_written"] += os.path.getsize(args[0])

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        mod = {name: importlib.import_module(f"passive_decoy.{name}")
               for name in ("bounds", "cli", "config", "optimize", "records",
                            "reports", "simulate", "statistics")}
        plain = [("config", "load_run_config", None),
                 ("statistics", "branch_distributions", None),
                 ("simulate", "predicted_statistics", None),
                 ("bounds", "key_rate", None),
                 ("optimize", "rate_for_point", self._count_flag),
                 ("optimize", "optimize", self._count_points),
                 ("records", "format_batch_csv", None),
                 ("records", "write_records_csv", self._count_file)]
        plain += [("reports", name, self._count_bytes("reports.bytes_out"))
                  for name in SERIALIZERS]
        try:
            for module, attr, after in plain:
                fn = getattr(mod[module], attr)
                self._swap(fn, self.timed(f"{module}.{attr}", fn, after))
            fn = mod["records"].iter_batches_from_csv
            self._swap(fn, self.timed_iter("records.iter_batches_from_csv", fn,
                                           "records.records_parsed"))
            fn = mod["simulate"].monte_carlo_run
            self._swap(fn, self.timed_monte_carlo(fn))
            tally = mod["records"].TallyCounts
            original = tally.__dict__["from_batch"]
            tally.from_batch = classmethod(
                self.timed("records.tally_from_batch", original.__func__))
            self._undo.append((tally, "from_batch", original))
            yield self
        finally:
            while self._undo:
                target, attr, original = self._undo.pop()
                setattr(target, attr, original)

    def metrics(self) -> dict:
        m = {f"{name}.busy_s": float(self.busy[name]) for name in BUSY}
        for name in PER_CALL:
            calls, busy = self.calls[name], float(self.busy[name])
            m[f"{name}.calls"] = calls
            m[f"{name}.busy_s"] = busy
            m[f"{name}.per_call_us"] = busy / calls * 1e6 if calls else 0.0
        points = self.counts["optimize.points"]
        flagged = {f"optimize.flagged.{f}": self.counts[f"optimize.flagged.{f}"]
                   for f in FLAGS}
        m["optimize.points"] = points
        m["optimize.self_s"] = self_time(float(self.busy["optimize.optimize"]),
                                         float(self.busy["optimize.rate_for_point"]))
        m["optimize.useful_ratio"] = ((points - sum(flagged.values())) / points
                                      if points else 0.0)
        m.update(flagged)
        m["simulate.chunks"] = self.counts["simulate.chunks"]
        m["simulate.chunk_s"] = (harness.median(self.chunk_gaps)
                                 if self.chunk_gaps else 0.0)
        for key in ("reports.bytes_out", "records.bytes_written",
                    "records.records_parsed"):
            m[key] = self.counts[key]
        return m


def run_main(main, args: list[str]) -> int:
    """Exit code of ``passive-decoy ARGS`` run in this process."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(args)
        except SystemExit as exc:          # argparse: --help and usage errors
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:                  # the CLI would exit 1 with a traceback
            return 1


def _timed_pass(main, calls) -> tuple[float, list[int]]:
    total, codes = 0.0, []
    for call in calls:
        start = time.perf_counter()
        codes.append(run_main(main, call.args))
        total += time.perf_counter() - start
    return total, codes


def _child_seconds(code: str, env: dict, cwd: Path, oracle) -> float:
    """Median over child processes of the time ``code`` prints for itself."""
    values = []
    for _ in range(LAYER_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True,
                              timeout=harness.CALL_TIMEOUT_S)
        if oracle.expect(proc.returncode == 0, f"layer probe exited {proc.returncode}"):
            values.append(float(proc.stdout.split()[-1]))
    return harness.median(values) if values else 0.0


def _process_layers(env: dict, work: Path, oracle) -> dict:
    # As in the timed run, a first call writes the bytecode caches.
    warm = harness.run_child([sys.executable, "-m", "passive_decoy.cli", "--help"],
                             env, work, work / "stderr.txt")
    oracle.expect(warm.exit_code == 0, f"--help exited {warm.exit_code}")
    interp = []
    for _ in range(LAYER_SAMPLES):
        res = harness.run_child([sys.executable, "-c", "pass"], env, work,
                                work / "stderr.txt")
        if oracle.expect(res.exit_code == 0, "python -c pass failed"):
            interp.append(res.wall_s)
    timed_import = ("import time; t = time.perf_counter(); import {}; "
                    "print(time.perf_counter() - t)")
    return {
        "cli.interpreter_s": harness.median(interp) if interp else 0.0,
        "cli.import_s": _child_seconds(timed_import.format("passive_decoy.cli"),
                                       env, work, oracle),
        "cli.import_scipy_s": _child_seconds(
            timed_import.format("scipy.special, scipy.optimize"), env, work, oracle),
    }


def _monte_carlo_extras(main, calls, mc_inputs, oracle) -> dict:
    """Heap peak across each ``simulate`` call and sampling time alone."""
    from passive_decoy.config import load_run_config
    from passive_decoy.simulate import monte_carlo_run
    peak = 0
    for call in calls:
        if call.kind == "simulate":
            tracemalloc.start()
            try:
                code = run_main(main, call.args)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            oracle.expect(code in call.ok_codes, f"simulate (heap) exited {code}")
    out = {"records.simulate_heap_peak_mb": peak / 2 ** 20,
           "simulate.sample_s_per_mpulse": 0.0}
    if isinstance(mc_inputs, McRecordsInputs):
        cfg = load_run_config(str(mc_inputs.config))
        start = time.perf_counter()
        monte_carlo_run(cfg.source, cfg.alice_detector, cfg.channel,
                        mc_inputs.pulses, mc_inputs.pass_seed(0))
        out["simulate.sample_s_per_mpulse"] = ((time.perf_counter() - start)
                                               / (mc_inputs.pulses / 1e6))
    return out


def traced_run(plan, oracle, env: dict, work: Path) -> tuple[dict, dict]:
    """Per-layer metrics of one pass of ``plan``, plus details for the record."""
    metrics = _process_layers(env, work, oracle)
    from passive_decoy.cli import main
    calls = plan.calls(0)
    plain_s, plain_codes = _timed_pass(main, calls)
    tracer = Tracer()
    with tracer.installed():
        traced_s, codes = _timed_pass(main, calls)
    for call, plain, code in zip(calls, plain_codes, codes):
        oracle.expect(plain in call.ok_codes, f"{call.kind} (untraced) exited {plain}")
        if oracle.expect(code in call.ok_codes, f"{call.kind} exited {code}") and call.check:
            oracle.run(call.kind, call.check, code)
    metrics.update(tracer.metrics())
    metrics.update(_monte_carlo_extras(main, calls, plan.inputs, oracle))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    details = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
               "calls": len(calls)}
    return metrics, details
