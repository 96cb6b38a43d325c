"""The workloads: the CLI calls of one pass and the checks on their outputs.

Each workload is a closed loop with a single client: one CLI process at a
time, the next started when the previous one has exited.  A pass is a fixed
list of calls; the loop repeats passes until the run's time is up.

* ``cli_short``: many short calls on small configs.  Interpreter start,
  imports and config/report handling dominate; the physics is a few percent.
* ``design_sweep``: dense ``optimize`` grids and one long ``scan``, the
  analytic chain statistics -> predicted_statistics -> bounds -> optimize.
* ``mc_records``: ``simulate`` to a click-record CSV, ``ingest`` of it and
  ``keyrate`` on both statistics files; record I/O and Monte Carlo sampling.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import inputs as gen

REFERENCE_RATE = 1.5e-5                 # configs/reference.json golden r_total
REFERENCE_G2 = {"click": 1.24, "noclick": 1.19}
MAX_Z = 4.0                             # Monte Carlo versus analytic
SPOT_CHECKS = 16                        # trace rows re-evaluated in-process


@dataclass
class Call:
    kind: str
    args: list[str]
    items: int = 1                      # work units: calls, points, lengths, pulses
    ok_codes: tuple[int, ...] = (0,)
    check: Callable[[int], None] | None = None   # gets the exit code


@dataclass(frozen=True)
class Rate:
    """Items per second over the calls of one kind (None: every call).

    Without ``time_percentile`` it is the work completed per second, total
    items over total wall time, which does not jump when a run ends between
    two calls of unequal cost.  With it, it is items / call time at that
    percentile of call time (50: the median call).  ``label`` names it in the
    result record."""

    kind: str | None
    label: str
    time_percentile: float | None = None


@dataclass(frozen=True)
class Plan:
    """A workload: its calls per pass and the two throughputs it reports."""

    calls: Callable[[int], list[Call]]
    primary: Rate
    secondary: Rate
    inputs: object = None


@dataclass
class Oracle:
    """Output checks.  Every check is one attempted operation, and one failed
    operation when its comparison does not hold."""

    root: Path
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def __post_init__(self) -> None:
        import jsonschema
        self._jsonschema = jsonschema
        schema_dir = self.root / "src" / "passive_decoy" / "schemas"
        self.schemas = {
            name: json.loads((schema_dir / f"{name}.schema.json").read_text())
            for name in ("distribution_report", "keyrate_report",
                         "observed_stats")}

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def run(self, what: str, check: Callable[[int], None], code: int) -> None:
        """Run a check on a call's outputs; one that raises counts as one
        failure."""
        try:
            check(code)
        except Exception as exc:  # malformed output must not stop the run
            self.expect(False, f"{what}: {type(exc).__name__}: {exc}")

    def valid(self, doc: dict, schema: str, what: str) -> bool:
        try:
            self._jsonschema.validate(doc, self.schemas[schema])
        except self._jsonschema.ValidationError as exc:
            return self.expect(False, f"{what}: schema {schema}: {exc.message}")
        return self.expect(True, what)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _search_space(config):
    """The SearchSpace ``passive-decoy optimize`` builds from a config."""
    from passive_decoy.optimize import AxisSpec, SearchSpace
    s = config.search
    return SearchSpace(
        mu1=AxisSpec(*s.mu1), mu2=AxisSpec(*s.mu2), t=AxisSpec(*s.t),
        channel=config.channel, alice_detector=config.alice_detector,
        refinement_levels=s.refinement_levels, key_params=config.key_params,
        overlap=config.source.overlap, n_max=config.numerics.n_max,
        theta_nodes=config.numerics.theta_nodes)


def _scan_rates(config, lengths: list[float]) -> list[float]:
    from passive_decoy.optimize import scan_rate_vs_distance
    src = config.source
    rows = scan_rate_vs_distance(
        (src.mu1, src.mu2, src.t), config.alice_detector, config.channel,
        lengths, config.key_params, overlap=src.overlap,
        n_max=config.numerics.n_max, theta_nodes=config.numerics.theta_nodes)
    return [row.rate for row in rows]


# --- checks shared by several workloads ------------------------------------

def check_scan(o: Oracle, out: Path, config_path: Path, lengths: str,
               spot_seed: str) -> None:
    """Rows cover the requested lengths in sorted order, and sampled rows
    match an in-process evaluation exactly."""
    from passive_decoy.config import load_run_config
    rows = _read_rows(out)
    want = sorted(float(x) for x in lengths.split(","))
    got = [float(r["length_km"]) for r in rows]
    o.expect(got == want, f"scan {out.name}: lengths differ from the request")
    picks = sorted(random.Random(spot_seed).sample(range(len(rows)),
                                                   min(SPOT_CHECKS, len(rows))))
    config = load_run_config(str(config_path))
    rates = _scan_rates(config, [got[i] for i in picks])
    o.expect(rates == [float(rows[i]["rate"]) for i in picks],
             f"scan {out.name}: rates differ from an in-process scan")


def check_optimize_trace(o: Oracle, out: Path, config_path: Path,
                         points: int, spot_seed: str) -> None:
    """The trace has every grid point; re-running rate_for_point at the best
    point and at sampled points reproduces rate and flag, and none of them
    beats the best."""
    from passive_decoy.config import load_run_config
    from passive_decoy.optimize import rate_for_point
    rows = _read_rows(out)
    o.expect(len(rows) == points,
             f"optimize {out.name}: {len(rows)} trace rows, expected {points}")
    rates = [float(r["rate"]) for r in rows]
    best = max(range(len(rows)), key=lambda i: (rates[i], -i))
    space = _search_space(load_run_config(str(config_path)))
    picks = [best] + random.Random(spot_seed).sample(
        range(len(rows)), min(SPOT_CHECKS, len(rows)))
    again = [rate_for_point(float(rows[i]["mu1"]), float(rows[i]["mu2"]),
                            float(rows[i]["t"]), space) for i in picks]
    o.expect(all(a == (rates[i], rows[i]["flag"]) for a, i in zip(again, picks)),
             f"optimize {out.name}: trace rows differ from rate_for_point")
    o.expect(all(rate <= rates[best] for rate, _ in again),
             f"optimize {out.name}: a re-evaluated point beats the best")


# --- cli_short ---------------------------------------------------------------

def cli_short(root: Path, work: Path, seed: int, scale: gen.Scale,
              o: Oracle) -> Plan:
    inp = gen.generate("cli_short", seed, work / "inputs", scale)
    ref_config = root / "configs" / "reference.json"
    ref_stats = root / "configs" / "reference_stats.json"
    dist_configs = (ref_config,) + inp.configs

    def check_distribution(cfg: Path, js: Path, tab: Path) -> None:
        doc = _read_json(js)
        o.valid(doc, "distribution_report", f"distribution {cfg.name}")
        # Structure only: under numpy 2 the CSV cells read "np.float64(...)",
        # a defect of the program that a value check would trip on each call.
        rows = _read_rows(tab)
        o.expect([r["n"] for r in rows] == [str(n) for n in range(doc["n_max"] + 1)]
                 and all(len(r) == 4 for r in rows),
                 f"distribution {cfg.name}: csv rows do not cover n = 0..n_max")
        if cfg == ref_config:
            g2 = doc["g2"]
            o.expect(all(abs(g2[b] - v) <= 0.01 for b, v in REFERENCE_G2.items()),
                     f"reference g2 {g2['click']}/{g2['noclick']} not within "
                     "0.01 of 1.24/1.19")

    def check_keyrate(out: Path) -> None:
        doc = _read_json(out)
        o.valid(doc, "keyrate_report", "keyrate reference")
        r_total = doc["rates"]["r_total"]
        o.expect(abs(r_total / REFERENCE_RATE - 1.0) <= 0.10,
                 f"reference r_total {r_total} not within 10% of 1.5e-5")

    def check_reference_optimize(out: Path) -> None:
        from passive_decoy.config import load_run_config
        from passive_decoy.optimize import optimize, rate_for_point
        doc = _read_json(out)
        o.expect(doc["evaluations"] == gen.REFERENCE_SEARCH_POINTS,
                 f"reference optimize: {doc['evaluations']} evaluations")
        space = _search_space(load_run_config(str(ref_config)))
        bp = doc["best_point"]
        again, _ = rate_for_point(bp["mu1"], bp["mu2"], bp["t"], space)
        o.expect(again == doc["best_rate"],
                 "reference optimize: best_rate not reproduced in-process")
        trace_max = max(p.rate for p in optimize(space).trace)
        o.expect(trace_max <= doc["best_rate"],
                 "reference optimize: a trace point beats best_rate")

    def calls(p: int) -> list[Call]:
        cfg = dist_configs[p % len(dist_configs)]
        scan_cfg = inp.configs[p % len(inp.configs)]
        js, tab = work / "dist.json", work / "dist.csv"
        kr, scan, opt = work / "keyrate.json", work / "scan.csv", work / "opt.json"
        return [
            Call("help", ["--help"]),
            Call("distribution", ["distribution", "--config", str(cfg),
                                  "--out", str(js)]),
            Call("distribution_csv", ["distribution", "--config", str(cfg),
                                      "--format", "csv", "--out", str(tab)],
                 check=lambda _: check_distribution(cfg, js, tab)),
            Call("keyrate", ["keyrate", str(ref_stats), "--config",
                             str(ref_config), "--out", str(kr)],
                 check=lambda _: check_keyrate(kr)),
            Call("scan", ["scan", "--config", str(scan_cfg), "--lengths",
                          inp.lengths, "--out", str(scan)],
                 check=lambda _: check_scan(o, scan, scan_cfg, inp.lengths,
                                            f"{seed}:{p}")),
            Call("optimize", ["optimize", "--config", str(ref_config),
                              "--format", "json", "--out", str(opt)],
                 check=lambda _: check_reference_optimize(opt)),
        ]

    # The median call sits where one kind of call meets the next, so it jumps
    # between them from run to run; calls per second (1 / mean call time) and
    # the p75 call do not.  A 35 s run holds about 40 calls, leaving ten
    # samples beyond p75.
    return Plan(calls, primary=Rate(None, "calls_per_s"),
                secondary=Rate(None, "p75_calls_per_s", 75.0), inputs=inp)


# --- design_sweep ------------------------------------------------------------

def design_sweep(root: Path, work: Path, seed: int, scale: gen.Scale,
                 o: Oracle) -> Plan:
    inp = gen.generate("design_sweep", seed, work / "inputs", scale)
    n_lengths = len(inp.lengths.split(","))

    def optimize_call(i: int, p: int) -> Call:
        cfg, out = inp.search_configs[i], work / f"opt_{i}.csv"
        return Call("optimize", ["optimize", "--config", str(cfg), "--out", str(out)],
                    items=inp.search_points,
                    check=lambda _: check_optimize_trace(o, out, cfg, inp.search_points,
                                                         f"{seed}:{p}:{i}"))

    def scan_call(i: int, p: int) -> Call:
        out = work / "scan.csv"
        return Call("scan", ["scan", "--config", str(inp.scan_config), "--lengths",
                             inp.lengths, "--out", str(out)], items=n_lengths,
                    check=lambda _: check_scan(o, out, inp.scan_config, inp.lengths,
                                               f"{seed}:{p}:{i}"))

    def calls(p: int) -> list[Call]:
        # A scan after each optimize: with one, a run held two or three scans
        # and their throughput jumped with the host's speed at those moments.
        return [optimize_call(0, p), scan_call(0, p),
                optimize_call(1, p), scan_call(1, p)]

    return Plan(calls, primary=Rate("optimize", "points_per_s"),
                secondary=Rate("scan", "scan_lengths_per_s"), inputs=inp)


# --- mc_records --------------------------------------------------------------

STAT_FIELDS = ("q_c", "e_c", "q_nc", "e_nc", "q_t", "e_t")


def check_simulated_stats(o: Oracle, doc: dict, config_path: Path,
                          pulses: int) -> None:
    """Each branch's gain and error mass within |z| < MAX_Z of the analytic
    prediction, as acceptance criterion 5 tests it."""
    from passive_decoy.config import load_run_config
    from passive_decoy.simulate import predicted_statistics
    from passive_decoy.statistics import branch_distributions
    o.valid(doc, "observed_stats", "simulate stats")
    prov = doc["provenance"]
    o.expect(prov["pulses"] == pulses and prov["records"] == pulses,
             f"simulate: {prov['records']} records for {pulses} pulses")
    config = load_run_config(str(config_path))
    num = config.numerics
    dists = branch_distributions(config.source, config.alice_detector, num.n_max,
                                 nodes=num.theta_nodes, tail_tol=num.tail_tol)
    pred = predicted_statistics(dists, config.channel)
    sifted = prov["sifted"]
    pairs = {"q_c": (doc["q_c"], pred.q_c), "q_nc": (doc["q_nc"], pred.q_nc),
             "em_c": (doc["e_c"] * doc["q_c"], pred.e_c * pred.q_c),
             "em_nc": (doc["e_nc"] * doc["q_nc"], pred.e_nc * pred.q_nc)}
    for name, (got, want) in pairs.items():
        z = abs(got - want) / math.sqrt(want * (1.0 - want) / sifted)
        o.expect(z < MAX_Z, f"simulate {name}: |z| = {z:.2f} against prediction")


def mc_records(root: Path, work: Path, seed: int, scale: gen.Scale,
               o: Oracle) -> Plan:
    inp = gen.generate("mc_records", seed, work / "inputs", scale)
    records = work / "records.csv"
    sim_stats, ing_stats = work / "sim_stats.json", work / "ingest_stats.json"
    kr_sim, kr_ing = work / "keyrate_sim.json", work / "keyrate_ingest.json"
    exit_codes = {}

    def check_ingest() -> None:
        doc, sim = _read_json(ing_stats), _read_json(sim_stats)
        o.valid(doc, "observed_stats", "ingest stats")
        o.expect(doc["provenance"]["records"] == inp.pulses,
                 f"ingest: {doc['provenance']['records']} records")
        o.expect(all(doc[k] == sim[k] for k in STAT_FIELDS),
                 "ingest: gains and error rates differ from simulate")

    def keyrate_call(stats: Path, out: Path, last: bool) -> Call:
        def check(code: int) -> None:
            exit_codes[out] = code
            o.valid(_read_json(out), "keyrate_report", f"keyrate {stats.name}")
            if last:
                o.expect(kr_sim.read_bytes() == kr_ing.read_bytes()
                         and exit_codes[kr_sim] == exit_codes[kr_ing],
                         "keyrate: simulate and ingest reports differ")
        # Exit 4 (zero key) is a valid outcome, as in acceptance criterion 8.
        return Call("keyrate", ["keyrate", str(stats), "--config", str(inp.config),
                                "--out", str(out)], ok_codes=(0, 4), check=check)

    def calls(p: int) -> list[Call]:
        return [
            Call("simulate", ["simulate", "--config", str(inp.config), "--pulses",
                              str(inp.pulses), "--seed", str(inp.pass_seed(p)),
                              "--out", str(records), "--stats-out", str(sim_stats)],
                 items=inp.pulses,
                 check=lambda _: check_simulated_stats(o, _read_json(sim_stats),
                                                       inp.config, inp.pulses)),
            Call("ingest", ["ingest", str(records), "--out", str(ing_stats)],
                 items=inp.pulses, check=lambda _: check_ingest()),
            keyrate_call(sim_stats, kr_sim, last=False),
            keyrate_call(ing_stats, kr_ing, last=True),
        ]

    return Plan(calls, primary=Rate("simulate", "simulate_pulses_per_s"),
                secondary=Rate("ingest", "ingest_records_per_s"), inputs=inp)


WORKLOADS = {"cli_short": cli_short, "design_sweep": design_sweep,
             "mc_records": mc_records}
