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
    pc, pnc, pt = dists.p_click, dists.p_noclick, dists.p_total

    # Background yield Y0.  The upper bound assumes every observed error of a
    # branch could be background and keeps the smaller branch; the lower
    # bound eliminates the single-photon term between the branches and is
    # clamped into [0, upper] so the pair is always consistent.
    if pc[0] <= 0.0 or pnc[0] <= 0.0:
        raise ParameterError("vacuum probability of each branch must be positive")
    cand_c = float(obs.e_c * obs.q_c / (pc[0] * params.e0))
    cand_nc = float(obs.e_nc * obs.q_nc / (pnc[0] * params.e0))
    if cand_c <= cand_nc:
        y0_upper, y0_upper_branch = cand_c, "c"
    else:
        y0_upper, y0_upper_branch = cand_nc, "nc"
    background_den = _guard_denominator(float(pt[1] * pnc[0] - pnc[1] * pt[0]),
                                        "background-yield")
    y0_lower_raw = float((pt[1] * obs.q_nc - pnc[1] * obs.q_t) / background_den)
    y0_lower = min(max(y0_lower_raw, 0.0), y0_upper)

    # Single-photon yield Y1 >= slope - vacuum_coeff * Y0_upper, from
    # eliminating the two-photon term; per branch the same elimination bounds
    # P1*Y1 + P0*Y0, the term privacy amplification uses.  Both clamp at zero.
    single_photon_den = _guard_denominator(
        float(pt[2] * pnc[1] - pnc[2] * pt[1]), "single-photon-yield")
    slope = float((pt[2] * obs.q_nc - pnc[2] * obs.q_t) / single_photon_den)
    vacuum_coeff = float((pt[2] * pnc[0] - pnc[2] * pt[0]) / single_photon_den)
    y1_raw = slope - vacuum_coeff * y0_upper
    y1l = max(y1_raw, 0.0)
    comb_raw = {b: float(p[1] * slope + (p[0] - p[1] * vacuum_coeff) * y0_upper)
                for b, p in (("c", pc), ("nc", pnc))}
    comb = {b: max(v, 0.0) for b, v in comb_raw.items()}

    # Single-photon error rate e1, bounded only for a certified yield: one
    # clause per branch (subtracting the certified background error mass) and
    # one combining both branches through the totals; the smallest applies,
    # clamped below at zero.
    entropy_clamped = False
    no_yield = y1l <= 0.0
    e1_value: float | None = None
    raw_clauses: list[float] | None = None
    active_clause: int | None = None
    privacy_factor = 0.0
    if not no_yield:
        raw_clauses = [
            float((obs.e_c * obs.q_c - pc[0] * y0_lower * params.e0)
                  / (pc[1] * y1l)),
            float((obs.e_nc * obs.q_nc - pnc[0] * y0_lower * params.e0)
                  / (pnc[1] * y1l)),
            float((pnc[0] * obs.e_t * obs.q_t - pt[0] * obs.e_nc * obs.q_nc)
                  / (background_den * y1l)),
        ]
        best = min(range(3), key=raw_clauses.__getitem__)
        e1_value, active_clause = max(raw_clauses[best], 0.0), best + 1
        if e1_value >= 0.5:
            entropy_clamped = True
        else:
            privacy_factor = 1.0 - binary_entropy(e1_value)

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
        "y0_upper_branch": y0_upper_branch,
        "y0_lower_raw": y0_lower_raw,
        "y1_lower_raw": y1_raw,
        "combined_raw_c": comb_raw["c"],
        "combined_raw_nc": comb_raw["nc"],
        "denominators": {
            "background": background_den,
            "single_photon": single_photon_den,
        },
        "e1_active_clause": active_clause,
        "e1_raw_clauses": raw_clauses,
        "privacy_factor": privacy_factor,
        "entropy_clamped": entropy_clamped,
        "no_single_photon_yield": no_yield,
    }
    return KeyRateReport(
        y0_lower=y0_lower, y0_upper=y0_upper, y1_lower=y1l, e1_upper=e1_value,
        combined_lower_c=comb["c"], combined_lower_nc=comb["nc"],
        r_c=rates["c"], r_nc=rates["nc"], r_total=r_total,
        diagnostics=diagnostics)
