"""Report payloads and their serialization.

JSON payloads keep floats at full precision (Python's shortest round-trip
representation), carry a ``kind`` discriminator, and validate against the
schemas shipped under ``passive_decoy/schemas``.  Tables go to CSV with a
header row and fixed column order.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import stat
import sys
from dataclasses import asdict
from importlib import resources
from typing import TYPE_CHECKING, Iterator

from .bounds import KeyRateParams, KeyRateReport, ObservedStatistics
from .errors import IngestError, ParameterError
from .statistics import BranchDistributions, branch_mean, g2

if TYPE_CHECKING:
    from .config import RunConfig
    from .optimize import OptimizationResult, ScanRow

SCHEMA_NAMES = ("run_config", "observed_stats", "distribution_report",
                "keyrate_report", "optimization_result", "rate_scan")


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


@contextlib.contextmanager
def replace_on_success(*paths: str | None) -> Iterator[list]:
    """Paths to write ``paths`` through, replacing them only after the block.

    Yields one path per target (``None`` stays ``None``).  A target that is
    a regular file or does not exist, after following symlinks, gets a
    temporary sibling: an empty file beside it, so that ``os.replace`` stays
    on one filesystem, with the target's permission bits if it exists.
    When the block returns, every temporary file replaces its target; when
    it raises, every temporary file is removed and no such target is
    touched.  A process killed midway can leave a temporary sibling behind,
    never a partial target.  Any other target (a device such as
    ``/dev/null``, a FIFO) is yielded as it is and written directly.
    """
    temps, renames = [], []
    try:
        for i, path in enumerate(paths):
            if path is None:
                temps.append(None)
                continue
            # Errors name the target, as opening it directly would.
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        path)
            target = os.path.realpath(path)
            if os.path.exists(target) and not os.path.isfile(target):
                temps.append(path)
                continue
            head, tail = os.path.split(target)
            temp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
            try:
                open(temp, "wb").close()
                renames.append((temp, target))
                if os.path.exists(target):
                    os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            temps.append(temp)
        yield temps
        for temp, target in renames:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in renames:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise ParameterError(f"unknown schema {name!r}")
    text = resources.files("passive_decoy.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def _g2_or_none(dist) -> float | None:
    try:
        return g2(dist)
    except ParameterError:
        return None


def distribution_report(config: RunConfig, dists: BranchDistributions) -> dict:
    src = config.source
    return {
        "kind": "distribution_report",
        "source": asdict(src),
        "alice_detector": asdict(config.alice_detector),
        "numerics": asdict(config.numerics),
        "n_max": dists.n_max,
        "p_click": dists.p_click.tolist(),
        "p_noclick": dists.p_noclick.tolist(),
        "p_total": dists.p_total.tolist(),
        "tail_mass": dists.tail_mass,
        "branch_probability": {"click": float(dists.p_click.sum()),
                               "noclick": float(dists.p_noclick.sum())},
        "g2": {"click": _g2_or_none(dists.p_click),
               "noclick": _g2_or_none(dists.p_noclick),
               "total": _g2_or_none(dists.p_total)},
        "mean": {"click": branch_mean(dists.p_click) if dists.p_click.sum() > 0 else None,
                 "noclick": branch_mean(dists.p_noclick) if dists.p_noclick.sum() > 0 else None,
                 "total": branch_mean(dists.p_total)},
        "poisson_reduction": src.xi == 0.0,
    }


def distribution_csv(dists: BranchDistributions) -> str:
    lines = ["n,p_click,p_noclick,p_total"]
    columns = zip(dists.p_click.tolist(), dists.p_noclick.tolist(),
                  dists.p_total.tolist())
    for n, (click, noclick, total) in enumerate(columns):
        lines.append(f"{n},{click!r},{noclick!r},{total!r}")
    return "\n".join(lines) + "\n"


def stats_payload(stats: ObservedStatistics, provenance: dict | None = None) -> dict:
    return {
        "kind": "observed_statistics",
        "q_c": stats.q_c,
        "e_c": stats.e_c,
        "q_nc": stats.q_nc,
        "e_nc": stats.e_nc,
        "q_t": stats.q_t,
        "e_t": stats.e_t,
        "provenance": provenance,
    }


def observed_from_payload(doc: dict) -> ObservedStatistics:
    """Build statistics from a parsed stats JSON document.

    Raises:
        IngestError: on missing fields or ones that are not a float
            (message names them).
        ParameterError: on out-of-range values.
    """
    if not isinstance(doc, dict):
        raise IngestError("stats document must be a JSON object")
    values = {}
    for name in ("q_c", "e_c", "q_nc", "e_nc"):
        if name not in doc:
            raise IngestError(f"stats document: missing field {name!r}")
        value = doc[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise IngestError(f"stats document: field {name!r} must be a number")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise IngestError(f"stats document: field {name!r} is beyond the "
                              "float range")
        values[name] = float(value)
    return ObservedStatistics(**values)


def keyrate_report_payload(report: KeyRateReport, stats: ObservedStatistics,
                           params: KeyRateParams) -> dict:
    return {
        "kind": "keyrate_report",
        "observed": {"q_c": stats.q_c, "e_c": stats.e_c,
                     "q_nc": stats.q_nc, "e_nc": stats.e_nc,
                     "q_t": stats.q_t, "e_t": stats.e_t},
        "key_params": asdict(params),
        "bounds": {"y0_lower": report.y0_lower, "y0_upper": report.y0_upper,
                   "y1_lower": report.y1_lower, "e1_upper": report.e1_upper,
                   "combined_lower_c": report.combined_lower_c,
                   "combined_lower_nc": report.combined_lower_nc},
        "rates": {"r_c": report.r_c, "r_nc": report.r_nc,
                  "r_total": report.r_total},
        "diagnostics": dict(report.diagnostics),
    }


def optimization_csv(result: OptimizationResult) -> str:
    lines = ["level,mu1,mu2,t,rate,flag"]
    for p in result.trace:
        lines.append(f"{p.level},{p.mu1!r},{p.mu2!r},{p.t!r},{p.rate!r},{p.flag}")
    return "\n".join(lines) + "\n"


def optimization_payload(result: OptimizationResult) -> dict:
    return {
        "kind": "optimization_result",
        "best_point": {"mu1": result.best_point[0], "mu2": result.best_point[1],
                       "t": result.best_point[2]},
        "best_rate": result.best_rate,
        "all_zero": result.all_zero,
        "refinement_history": list(result.refinement_history),
        "evaluations": len(result.trace),
    }


def scan_csv(rows: list[ScanRow]) -> str:
    lines = ["length_km,rate"]
    for row in rows:
        lines.append(f"{row.length_km!r},{row.rate!r}")
    return "\n".join(lines) + "\n"


def scan_payload(rows: list[ScanRow]) -> dict:
    return {"kind": "rate_scan",
            "rows": [{"length_km": r.length_km, "rate": r.rate} for r in rows]}
