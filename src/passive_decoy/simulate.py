"""Pulse-level Monte Carlo sampler of ``channel.ChannelModel``'s link, and the
source's HOM dip.

The sampler returns ``TallyCounts``, which also aggregate ingested records:
an independent cross-check of the photon statistics and the analytic yields.
Threshold detectors see only whether their photon count is zero, so no photon
counts are drawn: per pulse the relative phase is drawn, and each click is one
uniform draw against the probability that the detector's Poisson-thinned
photon count and its dark count are both zero.  Double clicks are kept and
settled by a fair coin.

Reproducibility: one seed drives a run; pulses are processed in fixed-size
chunks, each with its own deterministically derived substream drawn in a
fixed order, so results are identical no matter how chunks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelModel, predicted_statistics  # noqa: F401 (re-exported)
from .errors import ParameterError, excerpt
from .records import RecordBatch, TallyCounts
from .statistics import (DEFAULT_THETA_NODES, PulsePairParams,
                         ThresholdDetector, theta_nodes)

# Pulses per Monte Carlo chunk.  Fixed (not configurable) so that the stream
# of random draws, and therefore every output, is independent of scheduling.
_CHUNK_PULSES = 1 << 20


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
    tallies = TallyCounts()
    for i in range(n_chunks):
        start = i * _CHUNK_PULSES
        size = min(_CHUNK_PULSES, n_pulses - start)
        # SeedSequence(seed).spawn(n_chunks)[i], made only as chunk i starts.
        stream = np.random.SeedSequence(seed, spawn_key=(i,))
        batch = _simulate_chunk(params, det, ch, start, size,
                                np.random.default_rng(stream))
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
