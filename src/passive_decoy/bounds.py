"""Decoy-branch security bounds and the GLLP-style secret key rate.

The click and no-click branches of the passive source act as signal and
decoy ensembles sharing one channel.  From the per-branch gains and error
rates this module bounds the background (vacuum) yield from both sides,
the single-photon yield from below, and the single-photon error rate from
above, then combines error-correction cost and privacy amplification into
per-branch achievable rates.

Conventions:

* Per-branch gains carry the branch probability weight (they sum to the
  total gain), matching the unnormalized branch arrays in ``statistics``.
* ``r_c``, ``r_nc`` and ``r_total`` are quoted in the same normalization as
  the gains fed in, with the basis-reconciliation factor treated as already
  reflected in how those gains were measured (the usual convention for
  experimentally quoted rates).  The explicitly rescaled value
  ``q * r_total`` is carried in the report diagnostics for callers that
  track raw emitted pulses.
* Every one-sided bound is clamped exactly as defined (max with 0, min over
  clauses); pre-clamp values are kept in the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DegenerateSourceError, NoSinglePhotonYieldError, ParameterError
from .statistics import BranchDistributions, _check_unit_interval

DEGENERATE_DENOMINATOR_TOL = 1e-15


@dataclass(frozen=True, slots=True)
class ObservedStatistics:
    """Measured or simulated per-branch gains and error rates.

    Args:
        q_c: gain given a monitor click (probability per pulse).
        e_c: error rate among click-branch detections, in [0, 1].
        q_nc: gain given no monitor click.
        e_nc: error rate among no-click-branch detections.

    The totals ``q_t`` and ``e_t`` are always derived, never stored.
    """

    q_c: float
    e_c: float
    q_nc: float
    e_nc: float

    def __post_init__(self) -> None:
        for name in ("q_c", "e_c", "q_nc", "e_nc"):
            _check_unit_interval(name, getattr(self, name))

    @property
    def q_t(self) -> float:
        return self.q_c + self.q_nc

    @property
    def e_t(self) -> float:
        if self.q_t <= 0.0:
            return 0.0
        return (self.q_c * self.e_c + self.q_nc * self.e_nc) / self.q_t


@dataclass(frozen=True, slots=True)
class KeyRateParams:
    """Protocol-level constants of the rate formula.

    ``q`` is the protocol efficiency (1/2 for standard BB84 basis choice),
    ``f`` the error-correction inefficiency, ``e0`` the error rate of pure
    background events.
    """

    q: float = 0.5
    f: float = 1.22
    e0: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ParameterError(f"q must be within (0, 1] (got {self.q})")
        if not self.f >= 1.0:
            raise ParameterError(f"f must be >= 1 (got {self.f})")
        _check_unit_interval("e0", self.e0)


class Y0Bounds(NamedTuple):
    lower: float
    upper: float
    upper_branch: str    # which branch achieved the min in the upper bound
    lower_raw: float     # lower bound before clamping into [0, upper]


class E1Upper(NamedTuple):
    value: float
    clause: int          # 1-based index of the active minimum clause
    raw_clauses: tuple[float, float, float]


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary_entropy argument must be within [0, 1] (got {x})")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _guard_denominator(value: float, what: str) -> float:
    if abs(value) < DEGENERATE_DENOMINATOR_TOL:
        raise DegenerateSourceError(
            f"{what} denominator {value:.3e} is below {DEGENERATE_DENOMINATOR_TOL:.0e}; "
            "the branch distributions are numerically indistinguishable "
            "(ill-conditioned source configuration)")
    return value


def _background_denominator(dists: BranchDistributions) -> float:
    pnc, pt = dists.p_noclick, dists.p_total
    return _guard_denominator(float(pt[1] * pnc[0] - pnc[1] * pt[0]),
                              "background-yield")


def _y0_bounds(dists: BranchDistributions, obs: ObservedStatistics,
               params: KeyRateParams) -> tuple[Y0Bounds, float]:
    """``y0_bounds`` plus the guarded background denominator it used."""
    pc, pnc, pt = dists.p_click, dists.p_noclick, dists.p_total
    if pc[0] <= 0.0 or pnc[0] <= 0.0:
        raise ParameterError("vacuum probability of each branch must be positive")
    cand_c = float(obs.e_c * obs.q_c / (pc[0] * params.e0))
    cand_nc = float(obs.e_nc * obs.q_nc / (pnc[0] * params.e0))
    if cand_c <= cand_nc:
        upper, upper_branch = cand_c, "c"
    else:
        upper, upper_branch = cand_nc, "nc"
    den = _background_denominator(dists)
    lower_raw = float((pt[1] * obs.q_nc - pnc[1] * obs.q_t) / den)
    lower = min(max(lower_raw, 0.0), upper)
    return Y0Bounds(lower=lower, upper=upper, upper_branch=upper_branch,
                    lower_raw=lower_raw), den


def y0_bounds(dists: BranchDistributions, obs: ObservedStatistics,
              params: KeyRateParams) -> Y0Bounds:
    """Two-sided bound on the background yield of the receiver.

    The upper bound assumes every observed error in a vacuum-heavy branch
    could be background; the lower bound eliminates the single-photon
    contribution between the two branches.  The lower bound is clamped into
    [0, upper] so the pair is always consistent.
    """
    return _y0_bounds(dists, obs, params)[0]


def _elimination_coefficients(dists: BranchDistributions,
                              obs: ObservedStatistics) -> tuple[float, float, float]:
    """Branch-independent pieces of the single-photon lower bound.

    Eliminating the two-photon term between the branches expresses the
    single-photon yield bound as ``slope - vacuum_coeff * Y0_upper``; both
    pieces share the same guarded denominator, returned third.
    """
    pnc, pt = dists.p_noclick, dists.p_total
    den = _guard_denominator(float(pt[2] * pnc[1] - pnc[2] * pt[1]),
                             "single-photon-yield")
    slope = float((pt[2] * obs.q_nc - pnc[2] * obs.q_t) / den)
    vacuum_coeff = float((pt[2] * pnc[0] - pnc[2] * pt[0]) / den)
    return slope, vacuum_coeff, den


def y1_lower(dists: BranchDistributions, obs: ObservedStatistics,
             y0_upper: float) -> float:
    """Lower bound on the single-photon yield, clamped at zero."""
    slope, vacuum_coeff, _ = _elimination_coefficients(dists, obs)
    return max(slope - vacuum_coeff * y0_upper, 0.0)


def _single_photon_raw(p, slope: float, vacuum_coeff: float,
                       y0_upper: float) -> float:
    return float(p[1] * slope + (p[0] - p[1] * vacuum_coeff) * y0_upper)


def single_photon_bound(dists: BranchDistributions, obs: ObservedStatistics,
                        y0_upper: float, branch: str) -> float:
    """Clamped lower bound on P1*Y1 + P0*Y0 for one branch.

    This is the combination entering the privacy-amplification term; dividing
    its unclamped form by the branch single-photon probability recovers
    ``y1_lower``.
    """
    if branch not in ("c", "nc"):
        raise ParameterError(f"branch must be 'c' or 'nc' (got {branch!r})")
    slope, vacuum_coeff, _ = _elimination_coefficients(dists, obs)
    return max(_single_photon_raw(dists.branch(branch), slope, vacuum_coeff,
                                  y0_upper), 0.0)


def _e1_upper(dists: BranchDistributions, obs: ObservedStatistics,
              y0_lower: float, y1_lower_value: float, params: KeyRateParams,
              background_den: float) -> E1Upper:
    """``e1_upper`` for a positive ``y1_lower_value`` and a guarded
    background denominator."""
    pc, pnc, pt = dists.p_click, dists.p_noclick, dists.p_total
    clauses = (
        float((obs.e_c * obs.q_c - pc[0] * y0_lower * params.e0)
              / (pc[1] * y1_lower_value)),
        float((obs.e_nc * obs.q_nc - pnc[0] * y0_lower * params.e0)
              / (pnc[1] * y1_lower_value)),
        float((pnc[0] * obs.e_t * obs.q_t - pt[0] * obs.e_nc * obs.q_nc)
              / (background_den * y1_lower_value)),
    )
    best = min(range(3), key=lambda i: clauses[i])
    return E1Upper(value=max(clauses[best], 0.0), clause=best + 1,
                   raw_clauses=tuple(clauses))


def e1_upper(dists: BranchDistributions, obs: ObservedStatistics,
             y0_lower: float, y1_lower_value: float,
             params: KeyRateParams) -> E1Upper:
    """Upper bound on the single-photon error rate, clamped below at zero.

    Three independent clauses: one per branch (subtracting the certified
    background error mass) and one combining both branches through the total
    statistics.  The smallest applies.

    Raises:
        NoSinglePhotonYieldError: if ``y1_lower_value`` is not positive.
    """
    if y1_lower_value <= 0.0:
        raise NoSinglePhotonYieldError(
            "no single-photon yield established; the key rate is zero")
    return _e1_upper(dists, obs, y0_lower, y1_lower_value, params,
                     _background_denominator(dists))


@dataclass(frozen=True)
class KeyRateReport:
    """Full bound chain with per-branch rates and diagnostics.

    ``r_c`` and ``r_nc`` may be negative; ``r_total`` sums their clamps.
    ``e1_upper`` is None when no single-photon yield could be established.
    """

    y0_lower: float
    y0_upper: float
    y1_lower: float
    e1_upper: float | None
    combined_lower_c: float
    combined_lower_nc: float
    r_c: float
    r_nc: float
    r_total: float
    diagnostics: dict = field(default_factory=dict)


def key_rate(dists: BranchDistributions, obs: ObservedStatistics,
             params: KeyRateParams = KeyRateParams()) -> KeyRateReport:
    """Run the full bound chain and form the secret key rate.

    Per branch, the achievable rate is the privacy-amplified single-photon
    (plus background) contribution minus the error-correction cost; branches
    contributing negatively are dropped from the total.  If the single-photon
    error bound reaches 1/2 or no single-photon yield can be certified, the
    privacy-amplification factor is clamped to zero and flagged rather than
    extrapolated.
    """
    y0, background_den = _y0_bounds(dists, obs, params)
    slope, vacuum_coeff, single_photon_den = _elimination_coefficients(dists, obs)
    y1_raw = slope - vacuum_coeff * y0.upper
    y1l = max(y1_raw, 0.0)
    comb_raw = {b: _single_photon_raw(dists.branch(b), slope, vacuum_coeff, y0.upper)
                for b in ("c", "nc")}
    comb = {b: max(v, 0.0) for b, v in comb_raw.items()}

    entropy_clamped = False
    no_yield = y1l <= 0.0
    e1_value: float | None = None
    raw_clauses: tuple | None = None
    active_clause: int | None = None
    privacy_factor = 0.0
    if not no_yield:
        e1 = _e1_upper(dists, obs, y0.lower, y1l, params, background_den)
        e1_value, active_clause, raw_clauses = e1.value, e1.clause, e1.raw_clauses
        if e1.value >= 0.5:
            entropy_clamped = True
        else:
            privacy_factor = 1.0 - binary_entropy(e1.value)

    rates = {}
    for branch, gain, err in (("c", obs.q_c, obs.e_c), ("nc", obs.q_nc, obs.e_nc)):
        rates[branch] = float(-gain * params.f * binary_entropy(err)
                              + comb[branch] * privacy_factor)
    r_total = max(rates["c"], 0.0) + max(rates["nc"], 0.0)

    diagnostics = {
        "q": params.q,
        "f": params.f,
        "e0": params.e0,
        "q_t": obs.q_t,
        "e_t": obs.e_t,
        "r_total_emitted": params.q * r_total,
        "y0_upper_branch": y0.upper_branch,
        "y0_lower_raw": y0.lower_raw,
        "y1_lower_raw": y1_raw,
        "combined_raw_c": comb_raw["c"],
        "combined_raw_nc": comb_raw["nc"],
        "denominators": {
            "background": background_den,
            "single_photon": single_photon_den,
        },
        "e1_active_clause": active_clause,
        "e1_raw_clauses": list(raw_clauses) if raw_clauses is not None else None,
        "privacy_factor": privacy_factor,
        "entropy_clamped": entropy_clamped,
        "no_single_photon_yield": no_yield,
    }
    return KeyRateReport(
        y0_lower=y0.lower, y0_upper=y0.upper, y1_lower=y1l, e1_upper=e1_value,
        combined_lower_c=comb["c"], combined_lower_nc=comb["nc"],
        r_c=rates["c"], r_nc=rates["nc"], r_total=r_total,
        diagnostics=diagnostics)
