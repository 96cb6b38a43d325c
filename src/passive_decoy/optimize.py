"""Source-parameter search for the maximum predicted key rate.

The objective surface is piecewise-defined (every bound in the chain carries
a clamp), so rather than gradients this runs a nested grid search: evaluate
a coarse grid, shrink each axis range by a factor of three around the best
point, and re-grid.  Scoring goes through the analytic forward model only,
which keeps every evaluation deterministic; ties break lexicographically on
(mu1, mu2, t) so results never depend on evaluation order.

Each level is scored in grid order by ``_score``.  A level of at least
twice ``_POINTS_PER_PROCESS`` points is scored as rows of source points,
``_score_rows``: blocks of about 32 points go through the phase-quadrature
kernel, the channel's gains and the bound chain at once, and each point gets
the bits and flag ``rate_for_point`` gives it.  A smaller level takes one
``rate_for_point`` call per point.  Where more than one CPU is usable, a
level of at least twice ``_POINTS_PER_PROCESS`` points is also cut into
contiguous parts, one per usable CPU but none smaller than
``_POINTS_PER_PROCESS`` points, scored by ``forkjoin.fork_join``: this
process scores the first part, forked worker processes the rest, and the
parts are joined in grid order.  So the result does not depend on the
number of CPUs or on the size of a block, and the first failing point in
grid order raises what a serial search raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bounds import KeyRateParams, key_rate, key_rate_rows, source_rate_rows
from .errors import DegenerateSourceError, ParameterError, excerpt
from .channel import (ChannelModel, _channel_yields, _row_dots,
                      predicted_statistics, predicted_statistics_over_lengths)
from .forkjoin import _process_count, fork_join
from .statistics import (DEFAULT_N_MAX, DEFAULT_TAIL_TOL, DEFAULT_THETA_NODES,
                         PulsePairParams, ThresholdDetector, _check_counts,
                         _check_unit_interval, _phase_averages,
                         _truncation_error, _vacuum_sums, branch_distributions)

SHRINK_FACTOR = 3.0
# Fewest points a process scores when a level is split; a level that can
# split, of at least 2 * _POINTS_PER_PROCESS points, is scored as rows.
# Timed in a fresh process on a 2-vCPU host (11-21 alternated runs), a
# two-level search scored as rows took, split in two, 103-112% of its
# one-process time at 512 points a level, 90% at 729, 78% at 1,000 and 73%
# at 1,728.  A larger value would keep the levels below that break-even
# whole, but would also score them one rate_for_point call per point, at
# about 1.6 times the rows' cost, so it stays 256.  Being above 62 keeps
# the reference search's 125-point levels in one process.
_POINTS_PER_PROCESS = 256
# Values in each of the two (rows, n_max + 1, nodes) quadrature arrays of a
# block of rows: 32 rows at n_max 20 and 256 nodes.
_BLOCK_VALUES = 32 * 21 * 256


@dataclass(frozen=True, slots=True)
class AxisSpec:
    """Closed interval with a grid resolution."""

    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ParameterError(f"axis range inverted: [{self.lo}, {self.hi}]")
        if self.lo == self.hi:
            if self.points != 1:
                raise ParameterError("degenerate axis must use exactly 1 point")
        elif self.points < 2:
            raise ParameterError(f"axis needs >= 2 points (got {excerpt(self.points)})")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def refined_around(self, center: float) -> "AxisSpec":
        """Same resolution over a window 1/SHRINK_FACTOR as wide, clipped
        into the original range and guaranteed to contain the center."""
        width = (self.hi - self.lo) / SHRINK_FACTOR
        if width <= 0.0:
            return self
        lo = min(max(center - width / 2.0, self.lo), self.hi - width)
        return AxisSpec(lo=lo, hi=lo + width, points=self.points)


@dataclass(frozen=True)
class SearchSpace:
    """Grid ranges plus everything held fixed during the search."""

    mu1: AxisSpec
    mu2: AxisSpec
    t: AxisSpec
    channel: ChannelModel
    alice_detector: ThresholdDetector
    refinement_levels: int = 2
    key_params: KeyRateParams = field(default_factory=KeyRateParams)
    overlap: float = 1.0
    n_max: int = DEFAULT_N_MAX
    theta_nodes: int = DEFAULT_THETA_NODES
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        if self.refinement_levels < 1:
            raise ParameterError("refinement_levels must be >= 1")
        for name in ("mu1", "mu2"):
            axis = getattr(self, name)
            if axis.lo < 0.0:
                raise ParameterError(f"{name}: intensity range must be "
                                     f"non-negative (got [{axis.lo}, {axis.hi}])")
        if self.t.lo < 0.0 or self.t.hi > 1.0:
            raise ParameterError(f"t: range must lie within [0, 1] "
                                 f"(got [{self.t.lo}, {self.t.hi}])")


@dataclass(frozen=True, slots=True)
class GridPoint:
    level: int
    mu1: float
    mu2: float
    t: float
    rate: float
    flag: str = ""


@dataclass(frozen=True)
class OptimizationResult:
    best_point: tuple[float, float, float]
    best_rate: float
    trace: tuple
    refinement_history: tuple
    all_zero: bool


def rate_for_point(mu1: float, mu2: float, t: float,
                   space: SearchSpace) -> tuple[float, str]:
    """Predicted rate at one source point, with its flag.

    A grid may legitimately touch configurations with no decoy information,
    no certified single-photon yield or an invalid source; those are worth
    zero to the search, not an abort.  An invalid source scores zero, flagged
    "invalid"; one with no decoy information (factorized) scores zero,
    flagged "degenerate"; one with no certified single-photon yield keeps its
    rate, flagged "no_yield".
    """
    try:
        params = PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=space.overlap)
        dists = branch_distributions(params, space.alice_detector, space.n_max,
                                     nodes=space.theta_nodes,
                                     tail_tol=space.tail_tol)
        obs = predicted_statistics(dists, space.channel)
        report = key_rate(dists, obs, space.key_params)
    except DegenerateSourceError:
        return 0.0, "degenerate"
    except ParameterError:
        return 0.0, "invalid"
    if report.diagnostics["no_single_photon_yield"]:
        return float(report.r_total), "no_yield"
    return float(report.r_total), ""


def _score_block(points: np.ndarray, space: SearchSpace) -> list[tuple[float, str]]:
    """``rate_for_point`` of each (mu1, mu2, t) row of ``points``, in order,
    through the steps it takes, over all rows at once; the first row whose
    distributions are truncated raises its error."""
    det, n_max = space.alice_detector, space.n_max
    mu1, mu2, t = points.T
    with np.errstate(all="ignore"):
        # PulsePairParams' values and checks.
        nu = mu1 + mu2
        xi = 2.0 * space.overlap * np.sqrt(mu1 * mu2 * t * (1.0 - t))
        mean_mode_a = mu1 * t + mu2 * (1.0 - t)
        invalid = ~((mu1 >= 0.0) & (mu2 >= 0.0) & (0.0 <= t) & (t <= 1.0)
                    & (xi <= nu + 1e-15))
        # branch_distributions: a row without light, or an invalid one, goes
        # through the quadrature as a stand-in source and takes the vacuum's.
        light = ~invalid & (nu > 0.0)
        sums = _phase_averages(np.where(light, nu, 1.0)[:, None],
                               np.where(light, xi, 0.0)[:, None],
                               np.where(light, mean_mode_a, 1.0)[:, None],
                               det, n_max, space.theta_nodes)
        sums[~light] = _vacuum_sums(det, n_max)
        tail = 1.0 - sums[:, 0].sum(axis=-1)
        truncated = np.flatnonzero(~invalid & (tail > space.tail_tol))
        if truncated.size:
            first = truncated[0]
            raise _truncation_error(float(tail[first]), n_max, space.tail_tol,
                                    float(nu[first]))
        # predicted_statistics and ObservedStatistics' checks.
        yields, err_mass = _channel_yields(space.channel, n_max)
        _, p_noclick, p_click = sums.transpose(1, 0, 2)
        q_c, q_nc = _row_dots(p_click, yields), _row_dots(p_noclick, yields)
        e_c = np.where(q_c > 0.0, _row_dots(p_click, err_mass) / q_c, 0.0)
        e_nc = np.where(q_nc > 0.0, _row_dots(p_noclick, err_mass) / q_nc, 0.0)
        for value in (q_c, e_c, q_nc, e_nc):
            invalid |= ~((0.0 <= value) & (value <= 1.0))
    rates, no_yield, chain_invalid, degenerate = source_rate_rows(
        [sums[:, k, :3].T for k in (2, 1, 0)], q_c, e_c, q_nc, e_nc,
        space.key_params)
    invalid |= chain_invalid
    flags = np.where(invalid, "invalid", np.where(
        degenerate, "degenerate", np.where(no_yield, "no_yield", "")))
    return list(zip(np.where(invalid | degenerate, 0.0, rates).tolist(),
                    flags.tolist()))


def _score_rows(coords: list, space: SearchSpace) -> list[tuple[float, str]]:
    """``rate_for_point`` of each (mu1, mu2, t) in ``coords``, in order, with
    its bits, scored in blocks of rows; the first point in ``coords`` whose
    ``rate_for_point`` raises raises the same error."""
    try:
        _check_unit_interval("overlap", space.overlap)
        _check_counts(space.n_max, space.theta_nodes)
    except ParameterError:  # as rate_for_point meets it at every point
        return [(0.0, "invalid")] * len(coords)
    rows = max(1, _BLOCK_VALUES // ((space.n_max + 1) * space.theta_nodes))
    scored = []
    for lo in range(0, len(coords), rows):
        scored += _score_block(np.array(coords[lo:lo + rows], dtype=float), space)
    return scored


def _score(coords: list, space: SearchSpace,
           processes: int = 1) -> list[tuple[float, str]]:
    """``rate_for_point`` of each (mu1, mu2, t) in ``coords``, in order.

    A level of at least ``2 * _POINTS_PER_PROCESS`` points is scored as rows.
    A smaller one takes one ``rate_for_point`` call per point for one reason
    only: ``perfbench/tests/test_trace.py`` counts 250 ``rate_for_point`` and
    250 ``branch_distributions`` calls on the reference search (125-point
    levels), and a change that claims a speed-up may not edit the benchmark.
    Once the benchmark counts spans instead (ROADMAP items 1 and 9), this
    branch goes.
    With ``processes`` above 1, ``coords`` is cut into that many contiguous
    parts, one per rank of ``fork_join``, whose results are joined in part
    order, so the first failing point in ``coords`` raises.
    """
    bounds = [len(coords) * k // processes for k in range(processes + 1)]

    def part(rank: int) -> list[tuple[float, str]]:
        points = coords[bounds[rank]:bounds[rank + 1]]
        if len(coords) >= 2 * _POINTS_PER_PROCESS:
            return _score_rows(points, space)
        return [rate_for_point(m1, m2, tt, space) for m1, m2, tt in points]

    return [point for scored in fork_join(part, processes) for point in scored]


def _evaluate_grid(level: int, axes: tuple[AxisSpec, AxisSpec, AxisSpec],
                   space: SearchSpace, processes: int) -> list[GridPoint]:
    coords = list(itertools.product(*(axis.grid().tolist() for axis in axes)))
    return [GridPoint(level=level, mu1=m1, mu2=m2, t=tt, rate=rate, flag=flag)
            for (m1, m2, tt), (rate, flag)
            in zip(coords, _score(coords, space, processes))]


def _best_of(points: Sequence[GridPoint],
             incumbent: GridPoint | None) -> GridPoint:
    # Strict improvement only, scanning in lexicographic grid order, keeps
    # the argmax reproducible under ties and under any parallel regrouping.
    best = incumbent
    for p in points:
        if best is None or p.rate > best.rate:
            best = p
    return best


def optimize(space: SearchSpace) -> OptimizationResult:
    """Nested grid search over (mu1, mu2, t).

    Each refinement level re-centers a three-fold smaller window on the
    incumbent best point, so the per-level best rate is non-decreasing and
    the final argmax always lies inside the last window.
    """
    axes = (space.mu1, space.mu2, space.t)
    trace: list[GridPoint] = []
    history: list[dict] = []
    best: GridPoint | None = None
    # Refinement keeps each axis's point count, so every level has one size.
    processes = _process_count(space.mu1.points * space.mu2.points
                               * space.t.points, _POINTS_PER_PROCESS)
    for level in range(space.refinement_levels):
        points = _evaluate_grid(level, axes, space, processes)
        trace.extend(points)
        best = _best_of(points, best)
        history.append({
            "level": level,
            "mu1_range": (axes[0].lo, axes[0].hi),
            "mu2_range": (axes[1].lo, axes[1].hi),
            "t_range": (axes[2].lo, axes[2].hi),
            "best_rate": best.rate,
            "best_point": (best.mu1, best.mu2, best.t),
        })
        axes = (axes[0].refined_around(best.mu1),
                axes[1].refined_around(best.mu2),
                axes[2].refined_around(best.t))
    assert best is not None
    return OptimizationResult(
        best_point=(best.mu1, best.mu2, best.t),
        best_rate=best.rate,
        trace=tuple(trace),
        refinement_history=tuple(history),
        all_zero=bool(best.rate <= 0.0))


@dataclass(frozen=True, slots=True)
class ScanRow:
    length_km: float
    rate: float


def scan_rate_vs_distance(point: tuple[float, float, float],
                          det: ThresholdDetector, ch_template: ChannelModel,
                          lengths: Sequence[float],
                          key_params: KeyRateParams = KeyRateParams(),
                          *, overlap: float = 1.0, n_max: int = DEFAULT_N_MAX,
                          theta_nodes: int = DEFAULT_THETA_NODES,
                          tail_tol: float = DEFAULT_TAIL_TOL) -> list[ScanRow]:
    """Key rate of a fixed source point across fiber lengths (sorted rows).

    The distributions are computed once and the lengths go through the
    forward model and the bound chain as arrays.  Each row's rate has the
    bits that ``key_rate`` on ``predicted_statistics`` at that one length
    gives, so a row does not depend on which other lengths are scanned.  A
    degenerate source scores zero at every length.  Errors are raised in the
    order a length-by-length evaluation meets them: the lengths before the
    first one that ``ChannelModel`` or the ``ObservedStatistics`` range
    checks reject are evaluated first, then that length's error is raised.
    """
    if len(lengths) == 0:
        raise ParameterError("lengths must be non-empty")
    if any(length < 0.0 for length in lengths):
        raise ParameterError("fiber lengths must be >= 0")
    mu1, mu2, t = point
    params = PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=overlap)
    dists = branch_distributions(params, det, n_max, nodes=theta_nodes,
                                 tail_tol=tail_tol)
    ordered = [float(length) for length in sorted(lengths)]
    (q_c, e_c, q_nc, e_nc), valid = predicted_statistics_over_lengths(
        dists, ch_template, ordered)
    rates = []
    if valid:
        try:
            rates = key_rate_rows(dists, q_c[:valid], e_c[:valid], q_nc[:valid],
                                  e_nc[:valid], key_params).tolist()
        except DegenerateSourceError:
            rates = [0.0] * valid
    if valid < len(ordered):  # raises the first rejected length's error
        predicted_statistics(dists, replace(ch_template,
                                            fiber_length_km=ordered[valid]))
    return [ScanRow(length_km=length, rate=rate)
            for length, rate in zip(ordered, rates)]
