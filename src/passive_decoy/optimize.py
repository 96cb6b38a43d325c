"""Source-parameter search for the maximum predicted key rate.

The objective surface is piecewise-defined (every bound in the chain carries
a clamp), so rather than gradients this runs a nested grid search: evaluate
a coarse grid, shrink each axis range by a factor of three around the best
point, and re-grid.  Scoring goes through the analytic forward model only,
which keeps every evaluation deterministic; ties break lexicographically on
(mu1, mu2, t) so results never depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bounds import KeyRateParams, key_rate, key_rate_rows
from .errors import DegenerateSourceError, ParameterError
from .simulate import (ChannelModel, predicted_statistics,
                       predicted_statistics_over_lengths)
from .statistics import (DEFAULT_N_MAX, DEFAULT_TAIL_TOL, DEFAULT_THETA_NODES,
                         BranchDistributions, PulsePairParams,
                         ThresholdDetector, branch_distributions)

SHRINK_FACTOR = 3.0


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
            raise ParameterError(f"axis needs >= 2 points (got {self.points})")

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


def _score(dists: BranchDistributions, channel: ChannelModel,
           key_params: KeyRateParams) -> tuple[float, str]:
    """Predicted rate of one source over one channel, with its flag.

    A source with no decoy information (factorized) scores zero, flagged
    "degenerate"; one with no certified single-photon yield keeps its rate,
    flagged "no_yield".
    """
    obs = predicted_statistics(dists, channel)
    try:
        report = key_rate(dists, obs, key_params)
    except DegenerateSourceError:
        return 0.0, "degenerate"
    if report.diagnostics["no_single_photon_yield"]:
        return float(report.r_total), "no_yield"
    return float(report.r_total), ""


def rate_for_point(mu1: float, mu2: float, t: float,
                   space: SearchSpace) -> tuple[float, str]:
    """Predicted rate at one source point; degeneracies score zero, flagged.

    A grid may legitimately touch configurations with no decoy information,
    no certified single-photon yield or an invalid source; those are worth
    zero to the search, not an abort.
    """
    try:
        params = PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=space.overlap)
        dists = branch_distributions(params, space.alice_detector, space.n_max,
                                     nodes=space.theta_nodes,
                                     tail_tol=space.tail_tol)
        return _score(dists, space.channel, space.key_params)
    except ParameterError:
        return 0.0, "invalid"


def _evaluate_grid(level: int, axes: tuple[AxisSpec, AxisSpec, AxisSpec],
                   space: SearchSpace) -> list[GridPoint]:
    points = []
    for m1 in axes[0].grid():
        for m2 in axes[1].grid():
            for tt in axes[2].grid():
                rate, flag = rate_for_point(float(m1), float(m2), float(tt), space)
                points.append(GridPoint(level=level, mu1=float(m1), mu2=float(m2),
                                        t=float(tt), rate=rate, flag=flag))
    return points


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
    for level in range(space.refinement_levels):
        points = _evaluate_grid(level, axes, space)
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
    order a length-by-length evaluation meets them: from the first length
    that ``ChannelModel`` or the ``ObservedStatistics`` range checks reject,
    the lengths are evaluated one at a time, which raises that length's error.
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
    for length in ordered[valid:]:
        ch = replace(ch_template, fiber_length_km=length)
        rates.append(_score(dists, ch, key_params)[0])
    return [ScanRow(length_km=length, rate=rate)
            for length, rate in zip(ordered, rates)]
