"""Workload inputs generated from the benchmark seed.

Every input the program sees (run configs, search grids, fiber-length lists,
the Monte Carlo channel and its per-pass seeds) comes from here and is
written to a file, so one seed always gives byte-identical inputs.  The seed
moves parameter values; sizes (grid points, lengths, pulses) are fixed by the
``Scale``, so the work per pass does not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Scale:
    setup_samples: int      # timed `--help` calls per run, for setup_s
    short_lengths: int      # fiber lengths per cli_short scan
    grid_points: int        # points per search axis in design_sweep
    long_lengths: int       # fiber lengths in the design_sweep scan
    mc_pulses: int          # pulses per mc_records simulate


FULL = Scale(setup_samples=5, short_lengths=20, grid_points=16,
             long_lengths=20_000, mc_pulses=3 << 19)
# For the benchmark's own tests: same calls and checks, small sizes.
TINY = Scale(setup_samples=1, short_lengths=5, grid_points=3,
             long_lengths=50, mc_pulses=3 << 14)

KEY_PARAMS = {"q": 0.5, "f": 1.22, "e0": 0.5}
NUMERICS = {"n_max": 20, "theta_nodes": 256, "tail_tol": 1e-12}
REFERENCE_SEARCH_POINTS = 250   # configs/reference.json: 5 x 5 x 5, 2 levels


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"passive-decoy-bench:{seed}:{label}")


def _u(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _sci(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{rng.uniform(lo, hi):.3e}")


def _config(rng: random.Random, *, bright: bool = False) -> dict:
    """A run config with a channel.  ``bright`` picks a low-loss link and a
    sensitive monitor so every branch collects hundreds of sifted detections
    in a short Monte Carlo run."""
    if bright:
        source = {"mu1": _u(rng, 0.4, 0.8), "mu2": _u(rng, 0.05, 0.15),
                  "t": _u(rng, 0.4, 0.6), "overlap": 1.0}
        monitor = {"epsilon": _sci(rng, 1e-6, 1e-5), "eta_d": _u(rng, 0.2, 0.4)}
        channel = {"fiber_length_km": _u(rng, 0.0, 10.0, 2),
                   "alice_internal_loss_db": _u(rng, 0.0, 2.0, 2),
                   "fiber_loss_db_per_km": 0.2,
                   "bob_detector": {"epsilon": _sci(rng, 1e-6, 5e-6),
                                    "eta_d": _u(rng, 0.2, 0.4)},
                   "misalignment": _u(rng, 0.01, 0.03)}
    else:
        source = {"mu1": _u(rng, 0.3, 1.0), "mu2": _u(rng, 0.02, 0.15),
                  "t": _u(rng, 0.3, 0.7), "overlap": _u(rng, 0.9, 1.0)}
        monitor = {"epsilon": _sci(rng, 5e-6, 2e-5), "eta_d": _u(rng, 0.05, 0.3)}
        channel = {"fiber_length_km": _u(rng, 5.0, 60.0, 2),
                   "alice_internal_loss_db": _u(rng, 3.0, 9.0, 2),
                   "fiber_loss_db_per_km": 0.2,
                   "bob_detector": {"epsilon": _sci(rng, 1e-6, 4e-6),
                                    "eta_d": _u(rng, 0.03, 0.2)},
                   "misalignment": _u(rng, 0.01, 0.035)}
    return {"source": source, "alice_detector": monitor, "channel": channel,
            "key_params": dict(KEY_PARAMS), "numerics": dict(NUMERICS)}


def _search(rng: random.Random, points: int) -> dict:
    return {"mu1": [_u(rng, 0.05, 0.2), _u(rng, 0.9, 1.4), points],
            "mu2": [_u(rng, 0.005, 0.03), _u(rng, 0.15, 0.35), points],
            "t": [_u(rng, 0.15, 0.3), _u(rng, 0.7, 0.85), points],
            "refinement_levels": 2}


def _lengths(rng: random.Random, count: int, path: Path) -> str:
    # The CLI takes lengths as one argument.  One decimal below 100 km keeps
    # 2e4 of them inside the kernel's 128 KiB limit on a single argument.
    text = ",".join(f"{rng.uniform(0.0, 99.9):.1f}" for _ in range(count))
    path.write_text(text + "\n", encoding="utf-8")
    return text


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class CliShortInputs:
    configs: tuple[Path, ...]       # generated configs, cycled per pass
    lengths: str


@dataclass(frozen=True)
class DesignSweepInputs:
    search_configs: tuple[Path, ...]
    search_points: int              # grid points per optimize call
    scan_config: Path
    lengths: str


@dataclass(frozen=True)
class McRecordsInputs:
    config: Path
    pulses: int
    seed: int

    def pass_seed(self, index: int) -> int:
        """Monte Carlo seed of pass ``index``; each pass samples afresh."""
        return _rng(self.seed, f"mc-pass-{index}").getrandbits(31)


def generate(workload: str, seed: int, outdir: Path, scale: Scale):
    """Write the inputs of ``workload`` for ``seed`` under ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli_short":
        rng = _rng(seed, workload)
        configs = tuple(_write_json(outdir / f"short_{i}.json", _config(rng))
                        for i in range(3))
        return CliShortInputs(configs=configs,
                              lengths=_lengths(rng, scale.short_lengths,
                                               outdir / "short_lengths.txt"))
    if workload == "design_sweep":
        rng = _rng(seed, workload)
        search_configs = []
        for i in range(2):
            doc = _config(rng)
            doc["search"] = _search(rng, scale.grid_points)
            search_configs.append(_write_json(outdir / f"sweep_{i}.json", doc))
        scan_config = _write_json(outdir / "scan.json", _config(rng))
        return DesignSweepInputs(
            search_configs=tuple(search_configs),
            search_points=2 * scale.grid_points ** 3,
            scan_config=scan_config,
            lengths=_lengths(rng, scale.long_lengths, outdir / "long_lengths.txt"))
    if workload == "mc_records":
        rng = _rng(seed, workload)
        config = _write_json(outdir / "mc.json", _config(rng, bright=True))
        return McRecordsInputs(config=config, pulses=scale.mc_pulses, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")
