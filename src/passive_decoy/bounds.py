"""Decoy-branch security bounds and the GLLP-style secret key rate.

The click and no-click branches of the passive source act as signal and
decoy ensembles sharing one channel.  ``key_rate`` is the one evaluator of
the bound chain: from the per-branch gains and error rates it bounds the
background (vacuum) yield from both sides, the single-photon yield from
below and the single-photon error rate from above, then combines
error-correction cost and privacy amplification into per-branch achievable
rates.  Each intermediate bound is a field of the returned ``KeyRateReport``.

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

import numpy as np

from .errors import DegenerateSourceError, ParameterError
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
        if not 0.0 < self.e0 <= 1.0:
            raise ParameterError(f"e0 must be within (0, 1] (got {self.e0})")


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


def _clamp(x: float) -> float:
    return 0.0 if 0.0 > x else x  # max(x, 0.0), which keeps -0.0 and nan


def _select(cond, a, b):
    return a if cond else b


def _clamp_rows(x: np.ndarray) -> np.ndarray:
    # Not np.maximum: it turns -0.0 into 0.0, where max(x, 0.0) keeps -0.0.
    return np.where(0.0 > x, 0.0, x)


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    # One binary_entropy per element: np.log2 differs from math.log2 in the
    # last bit on some inputs.
    return np.array([binary_entropy(v) for v in x.tolist()])


_FLOAT_OPS = (_clamp, _select, binary_entropy)
_ROW_OPS = (_clamp_rows, np.where, _entropy_rows)


def _bound_chain(heads, stats, params: KeyRateParams, ops) -> dict:
    """The bound chain from Y0 to r_total, for one observation or for rows.

    ``heads`` holds the first three entries of ``p_click``, ``p_noclick`` and
    ``p_total``; ``stats`` is ``(q_c, e_c, q_nc, e_nc, q_t, e_t)``, each a
    float or each a 1-d array with one observation per row.  ``ops`` is
    ``(clamp, select, entropy)`` for that kind of value: ``max(x, 0.0)``,
    ``a if cond else b`` and the binary entropy.  Both sides of a select are
    evaluated, so a quantity a row does not use is still computed, with a
    divisor that is not zero.  The guards depend on the distributions alone
    and raise before any row is evaluated.
    """
    clamp, select, entropy = ops
    (pc0, pc1, pc2), (pnc0, pnc1, pnc2), (pt0, pt1, pt2) = heads
    q_c, e_c, q_nc, e_nc, q_t, e_t = stats
    e0 = params.e0

    # Background yield Y0.  The upper bound assumes every observed error of a
    # branch could be background and keeps the smaller branch; the lower
    # bound eliminates the single-photon term between the branches and is
    # clamped into [0, upper] so the pair is always consistent.
    if pc0 <= 0.0 or pnc0 <= 0.0:
        raise ParameterError("vacuum probability of each branch must be positive")
    if pc0 * e0 == 0.0 or pnc0 * e0 == 0.0:
        raise ParameterError(f"e0 = {e0!r} is too small: a branch's vacuum "
                             "probability times e0 underflows to zero")
    cand_c = e_c * q_c / (pc0 * e0)
    cand_nc = e_nc * q_nc / (pnc0 * e0)
    upper_is_c = cand_c <= cand_nc
    y0_upper = select(upper_is_c, cand_c, cand_nc)
    background_den = _guard_denominator(pt1 * pnc0 - pnc1 * pt0, "background-yield")
    y0_lower_raw = (pt1 * q_nc - pnc1 * q_t) / background_den
    y0_lower = clamp(y0_lower_raw)
    y0_lower = select(y0_upper < y0_lower, y0_upper, y0_lower)

    # Single-photon yield Y1 >= slope - vacuum_coeff * Y0_upper, from
    # eliminating the two-photon term; per branch the same elimination bounds
    # P1*Y1 + P0*Y0, the term privacy amplification uses.  Both clamp at zero.
    single_photon_den = _guard_denominator(pt2 * pnc1 - pnc2 * pt1,
                                           "single-photon-yield")
    slope = (pt2 * q_nc - pnc2 * q_t) / single_photon_den
    vacuum_coeff = (pt2 * pnc0 - pnc2 * pt0) / single_photon_den
    y1_raw = slope - vacuum_coeff * y0_upper
    y1_lower = clamp(y1_raw)
    comb_raw_c = pc1 * slope + (pc0 - pc1 * vacuum_coeff) * y0_upper
    comb_raw_nc = pnc1 * slope + (pnc0 - pnc1 * vacuum_coeff) * y0_upper
    comb_c, comb_nc = clamp(comb_raw_c), clamp(comb_raw_nc)

    # Single-photon error rate e1, bounded only for a certified yield: one
    # clause per branch (subtracting the certified background error mass) and
    # one combining both branches through the totals; the smallest applies
    # (the first on a tie), clamped below at zero.  A yield whose product
    # with a clause's coefficient underflows to zero is not certified either.
    no_yield = ((y1_lower <= 0.0) | (pc1 * y1_lower == 0.0)
                | (pnc1 * y1_lower == 0.0) | (background_den * y1_lower == 0.0))
    y1_div = select(no_yield, 1.0, y1_lower)
    clauses = ((e_c * q_c - pc0 * y0_lower * e0) / (pc1 * y1_div),
               (e_nc * q_nc - pnc0 * y0_lower * e0) / (pnc1 * y1_div),
               (pnc0 * e_t * q_t - pt0 * e_nc * q_nc) / (background_den * y1_div))
    e1_raw, active_clause = clauses[0], 1
    for number in (2, 3):
        smaller = clauses[number - 1] < e1_raw
        e1_raw = select(smaller, clauses[number - 1], e1_raw)
        active_clause = select(smaller, number, active_clause)
    e1_upper = clamp(e1_raw)
    entropy_clamped = select(no_yield, False, e1_upper >= 0.5)
    no_privacy = no_yield | entropy_clamped
    privacy_factor = select(no_privacy, 0.0,
                            1.0 - entropy(select(no_privacy, 0.0, e1_upper)))

    r_c = -q_c * params.f * entropy(e_c) + comb_c * privacy_factor
    r_nc = -q_nc * params.f * entropy(e_nc) + comb_nc * privacy_factor
    return {
        "y0_upper": y0_upper, "upper_is_c": upper_is_c,
        "y0_lower_raw": y0_lower_raw, "y0_lower": y0_lower,
        "background_den": background_den, "single_photon_den": single_photon_den,
        "y1_raw": y1_raw, "y1_lower": y1_lower,
        "comb_raw_c": comb_raw_c, "comb_raw_nc": comb_raw_nc,
        "comb_c": comb_c, "comb_nc": comb_nc,
        "no_yield": no_yield, "clauses": clauses, "active_clause": active_clause,
        "e1_upper": e1_upper, "entropy_clamped": entropy_clamped,
        "privacy_factor": privacy_factor,
        "r_c": r_c, "r_nc": r_nc, "r_total": clamp(r_c) + clamp(r_nc),
    }


def key_rate(dists: BranchDistributions, obs: ObservedStatistics,
             params: KeyRateParams = KeyRateParams()) -> KeyRateReport:
    """Run the full bound chain and form the secret key rate.

    Per branch, the achievable rate is the privacy-amplified single-photon
    (plus background) contribution minus the error-correction cost; branches
    contributing negatively are dropped from the total.  If the single-photon
    error bound reaches 1/2 or no single-photon yield can be certified, the
    privacy-amplification factor is clamped to zero and flagged rather than
    extrapolated.  A yield too small to divide by, one whose product with an
    e1 clause's coefficient underflows to zero, counts as not certified.

    The chain runs in Python floats.  ``key_rate_rows`` runs the same chain
    over arrays of observations and gives each row's ``r_total`` bit for bit
    as this function does.

    Raises:
        ParameterError: if a branch has no vacuum probability, or its
            vacuum probability times ``e0`` underflows to zero.
        DegenerateSourceError: if an elimination denominator is below
            ``DEGENERATE_DENOMINATOR_TOL``.
    """
    heads = [p[:3].tolist() for p in (dists.p_click, dists.p_noclick, dists.p_total)]
    stats = (obs.q_c, obs.e_c, obs.q_nc, obs.e_nc, obs.q_t, obs.e_t)
    c = _bound_chain(heads, stats, params, _FLOAT_OPS)
    no_yield = c["no_yield"]
    diagnostics = {
        "q": params.q,
        "f": params.f,
        "e0": params.e0,
        "q_t": obs.q_t,
        "e_t": obs.e_t,
        "r_total_emitted": params.q * c["r_total"],
        "y0_upper_branch": "c" if c["upper_is_c"] else "nc",
        "y0_lower_raw": c["y0_lower_raw"],
        "y1_lower_raw": c["y1_raw"],
        "combined_raw_c": c["comb_raw_c"],
        "combined_raw_nc": c["comb_raw_nc"],
        "denominators": {
            "background": c["background_den"],
            "single_photon": c["single_photon_den"],
        },
        "e1_active_clause": None if no_yield else c["active_clause"],
        "e1_raw_clauses": None if no_yield else list(c["clauses"]),
        "privacy_factor": c["privacy_factor"],
        "entropy_clamped": c["entropy_clamped"],
        "no_single_photon_yield": no_yield,
    }
    return KeyRateReport(
        y0_lower=c["y0_lower"], y0_upper=c["y0_upper"], y1_lower=c["y1_lower"],
        e1_upper=None if no_yield else c["e1_upper"],
        combined_lower_c=c["comb_c"], combined_lower_nc=c["comb_nc"],
        r_c=c["r_c"], r_nc=c["r_nc"], r_total=c["r_total"],
        diagnostics=diagnostics)


def key_rate_rows(dists: BranchDistributions, q_c: np.ndarray, e_c: np.ndarray,
                  q_nc: np.ndarray, e_nc: np.ndarray,
                  params: KeyRateParams = KeyRateParams()) -> np.ndarray:
    """``r_total`` of ``key_rate`` for each row of observed statistics.

    Row ``i`` gives the bits ``key_rate(dists, ObservedStatistics(q_c[i],
    e_c[i], q_nc[i], e_nc[i]), params).r_total`` gives, and it raises what
    that call raises for the first row that raises.  The rows must pass
    ``ObservedStatistics``' range checks.
    """
    heads = [p[:3].tolist() for p in (dists.p_click, dists.p_noclick, dists.p_total)]
    # Rows a select discards may divide by zero; numpy's warnings would only
    # report those.
    with np.errstate(all="ignore"):
        q_t = q_c + q_nc  # q_t and e_t as ObservedStatistics derives them
        e_t = np.where(q_t <= 0.0, 0.0, (q_c * e_c + q_nc * e_nc) / q_t)
        return _bound_chain(heads, (q_c, e_c, q_nc, e_nc, q_t, e_t), params,
                            _ROW_OPS)["r_total"]
