"""Pulse-level Monte Carlo sampler of ``channel.ChannelModel``'s link, and the
source's HOM dip.

The sampler returns ``TallyCounts``, which also aggregate ingested records:
an independent cross-check of the photon statistics and the analytic yields.
Threshold detectors see only whether their photon count is zero, so no photon
counts are drawn: per pulse the relative phase is drawn, and each click is one
uniform draw against the probability that the detector's Poisson-thinned
photon count and its dark count are both zero.  Double clicks are kept and
settled by a fair coin.

Reproducibility: one seed drives a run.  The chunk defines the stream: each
chunk of ``_CHUNK_PULSES`` pulses draws from its own substream in a fixed
order.  The block is only the unit of work: chunks are sampled, tallied and
sunk ``_BLOCK_PULSES`` (65,536) pulses at a time, in arrays made for each
block, four of the record writer's slices, and the block size reaches no
output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelModel, predicted_statistics  # noqa: F401 (re-exported)
from .errors import ParameterError, excerpt
from .records import _FORMAT_ROWS, RecordBatch, TallyCounts
from .statistics import (DEFAULT_THETA_NODES, PulsePairParams,
                         ThresholdDetector, _check_integer, theta_nodes)

# Pulses per Monte Carlo chunk.  Fixed (not configurable): the chunk defines
# the stream of random draws, and therefore every output.
_CHUNK_PULSES = 1 << 20
# Pulses sampled, tallied and sunk at a time: a multiple of 4, so that each
# block's 4-bit draws start on a fresh 32-bit draw, as one call's would, and
# of the writer's slice, so that no slice is short.
_BLOCK_PULSES = 4 * _FORMAT_ROWS


def _chunk_draws(stream: np.random.SeedSequence, size: int) -> list[np.random.Generator]:
    """Generators on a chunk's stream advanced to its sections (theta, the
    monitor's u, the 4-bit draw, the wrong and the right detector's u): the
    draws of one generator, each section taken in one call.  A float takes
    a 64-bit output; an ``int8`` takes a byte of a 32-bit half of one."""
    skip = (size + 7) // 8  # outputs of the 4-bit draw
    return [np.random.Generator(np.random.PCG64(stream).advance(offset))
            for offset in (0, size, 2 * size, 2 * size + skip, 3 * size + skip)]


def _simulate_chunk(params: PulsePairParams, det: ThresholdDetector,
                    ch: ChannelModel, start: int, size: int,
                    draws: Sequence[np.random.Generator]) -> RecordBatch:
    # Threshold detectors see only whether their photon count is zero.  At a
    # phase theta the counts at the monitor and at Bob's right and wrong
    # detector are independent Poisson variables (splitting and thinning),
    # so each click is one uniform draw u against the chance s that the
    # detector stays silent: it clicks when u >= s, so s = 0 or 1 holds
    # exactly.  Draw order is part of the reproducibility contract: theta,
    # the monitor's u, four fair bits, the wrong and the right detector's u.
    # ``draws`` come from ``_chunk_draws``, at pulse ``start``.  The floats
    # are worked in place in three new rows: plain expressions give the same
    # bits, but sampled 3*2^19 pulses in 0.15-0.21 s where this takes
    # 0.09-0.13 s, and made simulate peak 1.4 MB higher.
    theta_u, monitor_u, bits_draw, wrong_u, right_u = draws
    lam, silent, u = np.empty((3, size))
    theta_u.random(out=lam)
    lam *= 2.0 * np.pi  # theta, with the bits of uniform(0, 2 pi)
    np.cos(lam, out=lam)
    lam *= params.xi
    lam += params.mean_mode_a  # nu * gamma(theta), photons in the kept mode
    np.subtract(params.nu, lam, out=silent)  # photons to the monitor
    silent *= -det.eta_d
    np.exp(silent, out=silent)
    silent *= 1.0 - det.epsilon
    alice_click = monitor_u.random(out=u) >= silent

    # Alice's basis and bit, Bob's basis and the double-click coin.
    bits = bits_draw.integers(0, 16, size, dtype=np.int8)
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
    wrong = wrong_u.random(out=u) >= silent
    right = right_u.random(out=u) >= lam

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
        record_sink: optional callable receiving the records in pulse
            order, a block at a time; aggregation happens either way.
    """
    _check_integer("n_pulses", n_pulses)
    _check_integer("seed", seed)
    if n_pulses < 1:
        raise ParameterError(f"n_pulses must be >= 1 (got {excerpt(n_pulses)})")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0 (got {excerpt(seed)})")
    n_pulses, seed = int(n_pulses), int(seed)  # PCG64.advance takes no np.int64
    n_chunks = (n_pulses + _CHUNK_PULSES - 1) // _CHUNK_PULSES
    tallies = TallyCounts()
    for i in range(n_chunks):
        start = i * _CHUNK_PULSES
        size = min(_CHUNK_PULSES, n_pulses - start)
        # SeedSequence(seed).spawn(n_chunks)[i], made only as chunk i starts.
        draws = _chunk_draws(np.random.SeedSequence(seed, spawn_key=(i,)), size)
        for lo in range(start, start + size, _BLOCK_PULSES):
            batch = _simulate_chunk(params, det, ch, lo,
                                    min(_BLOCK_PULSES, start + size - lo),
                                    draws)
            tallies.merge(TallyCounts.from_batch(batch))
            if record_sink is not None:
                record_sink(batch)
            # Not held while the next block is sampled: held, it made
            # simulate peak 1.2 MB higher.
            del batch
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
    # A Python float, as numpy computed it: math.exp may round differently.
    baseline = float((1.0 - np.exp(-mean_a)) * (1.0 - np.exp(-mean_b)))
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
