"""Forward model of the full link and a pulse-level Monte Carlo sampler.

The analytic path expands the receiver response in the photon number of the
kept mode: an n-photon pulse is detected with yield
``Y_n = 1 - (1 - Y0) * (1 - eta)**n`` where ``eta`` is the end-to-end
per-photon transmission (sender internal loss, fiber, receiver detector
efficiency) and ``Y0`` the combined background click probability of the
receiver's detector pair; errors split into background (random, rate 1/2)
and optical misalignment contributions; ``ChannelModel.yields`` returns
both.  The Monte Carlo path samples the same physics pulse by pulse and
returns ``TallyCounts``, the counts ingested experimental data are
aggregated through, serving as an independent cross-check of both the photon
statistics and the analytic yields.  Every detector is a threshold detector,
so the sampler draws no photon counts: per pulse it draws the relative phase,
and each detector's click is one uniform draw against the probability that
its Poisson-thinned photon count and its dark count are both zero.  Double
clicks are kept and settled by a fair coin.

Reproducibility: one seed drives a run; pulses are processed in fixed-size
chunks, each with its own deterministically derived substream drawn in a
fixed order, so results are identical no matter how chunks are scheduled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bounds import ObservedStatistics
from .errors import ParameterError, excerpt
from .records import RecordBatch, TallyCounts
from .statistics import (DEFAULT_THETA_NODES, BranchDistributions,
                         PulsePairParams, ThresholdDetector, theta_nodes)

BACKGROUND_ERROR_RATE = 0.5

# Pulses per Monte Carlo chunk.  Fixed (not configurable) so that the stream
# of random draws, and therefore every output, is independent of scheduling.
_CHUNK_PULSES = 1 << 20


@dataclass(frozen=True, slots=True)
class ChannelModel:
    """Everything between the source's kept mode and the receiver's bits.

    Args:
        fiber_length_km: channel length in km (>= 0).
        bob_detector: per-detector dark probability and efficiency of the
            receiver pair (both detectors identical).
        misalignment: probability an arriving photon is routed to the wrong
            detector, in [0, 0.5].
        alice_internal_loss_db: sender-side optical loss after the source
            splitter, in dB (>= 0).
        fiber_loss_db_per_km: attenuation coefficient (>= 0).
    """

    fiber_length_km: float
    bob_detector: ThresholdDetector
    misalignment: float = 0.0
    alice_internal_loss_db: float = 9.0
    fiber_loss_db_per_km: float = 0.2

    def __post_init__(self) -> None:
        for name in ("fiber_length_km", "alice_internal_loss_db", "fiber_loss_db_per_km"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0 (got {value})")
        if not 0.0 <= self.misalignment <= 0.5:
            raise ParameterError(
                f"misalignment must be within [0, 0.5] (got {self.misalignment})")

    @property
    def path_transmission(self) -> float:
        """Optical transmission excluding detector efficiency."""
        return self._path_transmission_at(self.fiber_length_km)

    def _path_transmission_at(self, fiber_length_km: float) -> float:
        db = self.alice_internal_loss_db + fiber_length_km * self.fiber_loss_db_per_km
        return 10.0 ** (-db / 10.0)

    @property
    def transmission(self) -> float:
        """End-to-end per-photon detection probability."""
        return self.path_transmission * self.bob_detector.eta_d

    @property
    def background_yield(self) -> float:
        """Probability at least one receiver detector dark-fires in a gate."""
        eps = self.bob_detector.epsilon
        return 1.0 - (1.0 - eps) ** 2

    def yields(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Yield ``Y_n`` and error mass ``e_n * Y_n`` for n = 0..n_max.

        These are the true values the decoy bounds estimate: ``Y0`` is
        ``background_yield``, ``Y1`` is ``yields[1]`` and ``e1`` is
        ``err_mass[1] / yields[1]``.
        """
        return _yield_expansion(self.background_yield, self.transmission,
                                self.misalignment, n_max)


def _yield_expansion(y0: float, transmission, misalignment: float,
                     n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``ChannelModel.yields`` for a transmission, or for a column of them
    (one row each)."""
    n = np.arange(n_max + 1)
    yields = 1.0 - (1.0 - y0) * (1.0 - transmission) ** n
    err_mass = BACKGROUND_ERROR_RATE * y0 + misalignment * (yields - y0)
    return yields, err_mass


@functools.lru_cache(maxsize=16)
def _channel_yields(ch: ChannelModel, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``ch.yields(n_max)``, read-only and kept: a search has one channel."""
    arrays = ch.yields(n_max)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def predicted_statistics(dists: BranchDistributions,
                         ch: ChannelModel) -> ObservedStatistics:
    """Expected per-branch gains and error rates over the channel model.

    The per-branch gain is the yield expansion summed against the branch's
    (unnormalized) photon-number array, so it carries the branch probability
    weight just like the ingested experimental quantities.
    """
    yields, err_mass = _channel_yields(ch, dists.n_max)
    q_c = float(np.dot(dists.p_click, yields))
    q_nc = float(np.dot(dists.p_noclick, yields))
    em_c = float(np.dot(dists.p_click, err_mass))
    em_nc = float(np.dot(dists.p_noclick, err_mass))
    e_c = em_c / q_c if q_c > 0.0 else 0.0
    e_nc = em_nc / q_nc if q_nc > 0.0 else 0.0
    return ObservedStatistics(q_c=q_c, e_c=e_c, q_nc=q_nc, e_nc=e_nc)


def _row_dots(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``np.dot(p, row)`` for each row, with its bits.

    A (1 x n) @ (n x 1) product goes through the routine np.dot uses for two
    vectors; a 2-d @ (gemv), einsum or ``(rows * p).sum(-1)`` sums in
    another order and differs in the last bit on about half the rows.
    """
    return (rows[:, None, :] @ p[:, None])[:, 0, 0]


def predicted_statistics_over_lengths(dists: BranchDistributions,
                                      ch: ChannelModel, lengths: Sequence[float]
                                      ) -> tuple[tuple[np.ndarray, ...], int]:
    """``predicted_statistics`` of ``ch`` at each fiber length, as arrays.

    Returns ``(q_c, e_c, q_nc, e_nc)``, whose entry ``i`` has the bits of
    ``predicted_statistics(dists, replace(ch, fiber_length_km=lengths[i]))``,
    and the number of leading lengths that ``ChannelModel`` accepts and whose
    statistics pass the ``ObservedStatistics`` range checks.  Entries from
    the first length that fails are not meaningful.
    """
    # ChannelModel.transmission in Python floats: numpy's power can round
    # differently.
    path_at, eta = ch._path_transmission_at, ch.bob_detector.eta_d
    trans = np.array([path_at(length) * eta for length in lengths])
    yields, err_mass = _yield_expansion(ch.background_yield, trans[:, None],
                                        ch.misalignment, dists.n_max)
    pc, pnc = dists.p_click, dists.p_noclick
    q_c, q_nc = _row_dots(yields, pc), _row_dots(yields, pnc)
    em_c, em_nc = _row_dots(err_mass, pc), _row_dots(err_mass, pnc)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_c = np.where(q_c > 0.0, em_c / q_c, 0.0)
        e_nc = np.where(q_nc > 0.0, em_nc / q_nc, 0.0)
    km = np.asarray(lengths, dtype=float)
    valid = (0.0 <= km) & (km < math.inf)
    for value in (q_c, e_c, q_nc, e_nc):
        valid &= (0.0 <= value) & (value <= 1.0)
    return (q_c, e_c, q_nc, e_nc), valid.size if valid.all() else int(valid.argmin())


def _simulate_chunk(params: PulsePairParams, det: ThresholdDetector,
                    ch: ChannelModel, start: int, size: int,
                    rng: np.random.Generator) -> RecordBatch:
    # Threshold detectors see only whether their photon count is zero.  At a
    # phase theta the counts at the monitor and at Bob's right and wrong
    # detector are independent Poisson variables (splitting and thinning),
    # so each click is one uniform draw u against the chance s that the
    # detector stays silent: it clicks when u >= s, so s = 0 or 1 holds
    # exactly.  Draw order is part of the reproducibility contract: theta,
    # the monitor's u, four fair bits, the wrong and the right detector's u.
    # Three float buffers are reused.
    lam = rng.uniform(0.0, 2.0 * np.pi, size)  # theta
    np.cos(lam, out=lam)
    lam *= params.xi
    lam += params.mean_mode_a  # nu * gamma(theta), photons in the kept mode
    silent = np.subtract(params.nu, lam)  # photons to the monitor
    silent *= -det.eta_d
    np.exp(silent, out=silent)
    silent *= 1.0 - det.epsilon
    u = rng.random(size)
    alice_click = u >= silent

    # Alice's basis and bit, Bob's basis and the double-click coin.
    bits = rng.integers(0, 16, size, dtype=np.int8)
    alice_basis = bits & 1
    alice_bit = (bits >> 1) & 1
    bob_basis = (bits >> 2) & 1
    coin = np.right_shift(bits, 3, out=bits)

    # A photon goes to the wrong detector with probability p: misalignment
    # in matching bases, 1/2 in the others (exact for a misalignment of 0 or
    # 1/2).
    lam *= -ch.transmission  # minus the mean photons arriving at Bob
    np.equal(alice_basis, bob_basis, out=silent)
    silent *= ch.misalignment - 0.5
    silent += 0.5  # p
    silent *= lam  # minus the wrong detector's mean
    lam -= silent  # minus the right detector's mean
    keep = 1.0 - ch.bob_detector.epsilon
    for arr in (silent, lam):
        np.exp(arr, out=arr)
        arr *= keep
    wrong = rng.random(out=u) >= silent
    del silent
    right = rng.random(out=u) >= lam
    del lam, u

    # Alice's bit from the right detector alone, its flip from the wrong one
    # alone, the coin from both and -1 from neither, in int8 arithmetic.
    detected = right | wrong
    bob_bit = alice_bit ^ wrong.view(np.int8)
    coin ^= bob_bit
    coin &= right.view(np.int8)
    coin &= wrong.view(np.int8)
    bob_bit ^= coin
    bob_bit += 1
    bob_bit *= detected.view(np.int8)
    bob_bit -= 1

    return RecordBatch(
        pulse_index=np.arange(start, start + size, dtype=np.int64),
        alice_click=alice_click.view(np.int8),
        alice_basis=alice_basis,
        alice_bit=alice_bit,
        bob_basis=bob_basis,
        detected=detected.view(np.int8),
        bob_bit=bob_bit)


def monte_carlo_run(params: PulsePairParams, det: ThresholdDetector,
                    ch: ChannelModel, n_pulses: int, seed: int,
                    record_sink: Callable[[RecordBatch], None] | None = None
                    ) -> TallyCounts:
    """Sample the link pulse by pulse and count its events.

    ``to_observed()`` on the returned tallies gives the observed statistics,
    through the same code that aggregates ingested records.

    Args:
        record_sink: optional callable receiving each RecordBatch in pulse
            order (for CSV streaming); aggregation happens either way.
    """
    if n_pulses < 1:
        raise ParameterError(f"n_pulses must be >= 1 (got {excerpt(n_pulses)})")
    n_chunks = (n_pulses + _CHUNK_PULSES - 1) // _CHUNK_PULSES
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    tallies = TallyCounts()
    for i in range(n_chunks):
        start = i * _CHUNK_PULSES
        size = min(_CHUNK_PULSES, n_pulses - start)
        batch = _simulate_chunk(params, det, ch, start, size,
                                np.random.default_rng(streams[i]))
        tallies.merge(TallyCounts.from_batch(batch))
        if record_sink is not None:
            record_sink(batch)
        del batch  # not held while the next chunk is sampled
    return tallies


@dataclass(frozen=True, slots=True)
class HomPoint:
    overlap: float
    coincidence: float
    visibility: float


@dataclass(frozen=True)
class HomScan:
    rows: tuple
    visibility: float


def hom_coincidence_scan(params: PulsePairParams,
                         overlaps: Sequence[float],
                         nodes: int = DEFAULT_THETA_NODES) -> HomScan:
    """Two-detector coincidence probability versus mode overlap.

    Ideal threshold detectors (unit efficiency, no dark counts) watch both
    splitter outputs.  Per row, ``visibility`` compares the coincidence
    against the factorized (zero-overlap) baseline; the scan-level
    ``visibility`` is (max - min) / max across the scanned rows.  For
    balanced weak pulses on a symmetric splitter the scan from zero to full
    overlap approaches visibility 1/2.
    """
    if len(overlaps) == 0:
        raise ParameterError("overlaps must be non-empty")
    th = theta_nodes(nodes)
    rows = []
    mean_a = params.mean_mode_a
    mean_b = params.nu - mean_a
    baseline = (1.0 - np.exp(-mean_a)) * (1.0 - np.exp(-mean_b))
    for s in sorted(overlaps):
        p = replace(params, overlap=float(s))
        if p.nu > 0.0:
            gam = p.gamma(th)
            lam_a, lam_b = p.nu * gam, p.nu * (1.0 - gam)
            coinc = float(np.mean((1.0 - np.exp(-lam_a)) * (1.0 - np.exp(-lam_b))))
        else:
            coinc = 0.0
        vis = 1.0 - coinc / baseline if baseline > 0.0 else 0.0
        rows.append(HomPoint(overlap=float(s), coincidence=coinc, visibility=vis))
    cmax = max(r.coincidence for r in rows)
    cmin = min(r.coincidence for r in rows)
    scan_vis = (cmax - cmin) / cmax if cmax > 0.0 else 0.0
    return HomScan(rows=tuple(rows), visibility=scan_vis)


def fit_channel_to_observed(dists: BranchDistributions, obs: ObservedStatistics,
                            *, fiber_length_km: float = 10.0,
                            alice_internal_loss_db: float = 9.0,
                            fiber_loss_db_per_km: float = 0.2,
                            bob_dark_per_detector: float = 2.0e-6) -> ChannelModel:
    """Invert the no-click branch observables into a channel model.

    With the per-detector dark probability pinned, the receiver efficiency is
    bisected to the last ulp so the predicted no-click gain matches
    ``obs.q_nc`` (the gain rises monotonically with efficiency) and the
    misalignment follows in closed form from ``obs.e_nc``.  The click-branch
    observables are deliberately left out: how well they are then predicted
    measures the consistency of the whole source-plus-channel description.
    """
    n = np.arange(dists.n_max + 1)
    p_nc = dists.p_noclick
    s_nc = float(p_nc.sum())
    y0 = 1.0 - (1.0 - bob_dark_per_detector) ** 2
    floor = s_nc * y0

    if obs.q_nc <= floor:
        raise ParameterError(
            f"observed no-click gain {obs.q_nc:.3e} is below the background "
            f"floor {floor:.3e}; lower bob_dark_per_detector")

    def gain_mismatch(eta_b: float) -> float:
        eta = 10.0 ** (-(alice_internal_loss_db
                         + fiber_length_km * fiber_loss_db_per_km) / 10.0) * eta_b
        q = s_nc - (1.0 - y0) * float(np.dot(p_nc, (1.0 - eta) ** n))
        return q - obs.q_nc

    lo, hi = 0.0, 1.0
    f_lo, f_hi = gain_mismatch(lo), gain_mismatch(hi)
    if f_hi < 0.0:
        raise ParameterError("observed no-click gain is unreachably large "
                             "for the given path loss")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = gain_mismatch(mid)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    eta_b = lo if abs(f_lo) < abs(f_hi) else hi

    err_mass = obs.e_nc * obs.q_nc
    misalignment = ((err_mass - BACKGROUND_ERROR_RATE * y0 * s_nc)
                    / (obs.q_nc - y0 * s_nc))
    if not 0.0 <= misalignment <= 0.5:
        raise ParameterError(
            f"fitted misalignment {misalignment:.4f} outside [0, 0.5]; "
            "the pinned dark probability is inconsistent with the error rate")
    return ChannelModel(
        fiber_length_km=fiber_length_km,
        bob_detector=ThresholdDetector(epsilon=bob_dark_per_detector, eta_d=eta_b),
        misalignment=misalignment,
        alice_internal_loss_db=alice_internal_loss_db,
        fiber_loss_db_per_km=fiber_loss_db_per_km)
