"""Child processes, per-child resource accounting, summary statistics and
the environment fingerprint recorded with every result."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# Every variable that sets a worker or BLAS thread count.  Each is capped at
# the usable CPU count so that runs on the same machine share one thread
# budget, whatever the caller's environment says.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "PASSIVE_DECOY_THREADS")

# A call that exceeds this is killed and counted as failed.
CALL_TIMEOUT_S = 150.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads(env: dict, nproc: int) -> dict:
    """Set every thread variable to min(its value, nproc); unset or invalid
    values become nproc.  Mutates and returns ``env``."""
    for name in THREAD_VARS:
        try:
            value = int(env.get(name, ""))
        except ValueError:
            value = nproc
        env[name] = str(min(value if value >= 1 else nproc, nproc))
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a
    repository (the benchmark may run from an exported tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def fingerprint(root: Path, env: dict) -> dict:
    return {
        "nproc": usable_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "threads": {name: env.get(name) for name in THREAD_VARS},
    }


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def peak_rss_mb(rusage) -> float:
    """Peak RSS of one reaped child from its own ``wait4`` rusage.

    ``ru_maxrss`` is in KiB on Linux.  ``getrusage(RUSAGE_CHILDREN)`` would
    instead give the largest peak of any child reaped so far."""
    return rusage.ru_maxrss / 1024.0


def run_child(argv: list[str], env: dict, cwd: Path, stderr_path: Path,
              timeout_s: float = CALL_TIMEOUT_S) -> ChildResult:
    """Run one process to completion; wall time counts from before spawn."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", errors="replace")
    return ChildResult(exit_code=proc.returncode, wall_s=wall,
                       peak_rss_mb=peak_rss_mb(usage), stderr=text)


def tail_percentile(n: int, min_beyond: int = 10, cap: int = 90) -> int | None:
    """Highest whole percentile, at most ``cap``, that leaves at least
    ``min_beyond`` of ``n`` samples above it; None when that is below the
    median."""
    if n <= 0:
        return None
    p = min(cap, math.floor(100.0 * (n - min_beyond) / n))
    return p if p >= 50 else None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
