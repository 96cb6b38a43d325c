"""The bulk kernels give the bits of the element-at-a-time references.

``branch_distributions``, ``key_rate``, ``rate_for_point`` and
``scan_rate_vs_distance`` are compared with the forms kept in
``reference_kernels``, and points the optimizer scores as rows with
``rate_for_point``.  Floats are compared through ``repr``, ``hex`` or
``tobytes``, so a difference in the last bit, or in the sign of a zero,
fails.  The Monte Carlo chunk sampler is compared with the photon-level
sampler there in law, and exactly where a click probability is 0 or 1.
"""

import importlib
import itertools
import math
from dataclasses import asdict, replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from passive_decoy import (AxisSpec, ChannelModel, KeyRateParams,
                           ObservedStatistics, ParameterError, PulsePairParams,
                           SearchSpace, ThresholdDetector, branch_distributions,
                           key_rate, scan_rate_vs_distance)
from passive_decoy.bounds import key_rate_rows
from passive_decoy.optimize import _score_rows, rate_for_point
from passive_decoy.records import CSV_COLUMNS
from passive_decoy.reports import dump_json, keyrate_report_payload
from passive_decoy.channel import _channel_yields
from passive_decoy.simulate import _block_draws, _simulate_chunk
from passive_decoy.statistics import _node_cosines, theta_nodes

from conftest import REFERENCE_DETECTOR, UNDERFLOW_OBSERVED
from test_acceptance import MC_CROSS_CHECK_SETS
from test_bounds import synthetic_sweep_points

optimize_module = importlib.import_module("passive_decoy.optimize")


def outcome(fn, *args, **kwargs):
    """The rows a scan returns, spelled bit for bit, or the error it raises."""
    try:
        rows = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [repr(asdict(row)) for row in rows]


def distribution_bits(params, det, n_max=20, nodes=256):
    def arrays(fn):
        try:
            d = fn(params, det, n_max, nodes=nodes, tail_tol=1.0)
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return (d.n_max, d.tail_mass.hex(),
                *(p.dtype.str + p.tobytes().hex() for p in (d.p_click, d.p_noclick,
                                                           d.p_total)))
    return arrays(branch_distributions), arrays(ref.branch_distributions)


class TestBranchDistributions:
    def test_random_points(self):
        rng = np.random.default_rng(81920)
        for _ in range(2000):
            params = PulsePairParams(mu1=rng.uniform(0.0, 3.0), mu2=rng.uniform(0.0, 3.0),
                                     t=rng.uniform(0.0, 1.0),
                                     overlap=rng.uniform(0.0, 1.0))
            det = ThresholdDetector(epsilon=10 ** rng.uniform(-8.0, -1.0),
                                    eta_d=rng.uniform(0.0, 1.0))
            n_max = int(rng.integers(2, 61))
            nodes = int(rng.choice([4, 5, 16, 64, 255, 256]))
            new, old = distribution_bits(params, det, n_max, nodes)
            assert new == old, (params, det, n_max, nodes)

    @pytest.mark.parametrize("mu1,mu2,t,overlap", [
        (0.0, 0.0, 0.5, 1.0),     # vacuum
        (0.64, 0.08, 0.0, 1.0),   # t = 0
        (0.64, 0.08, 1.0, 1.0),   # t = 1
        (0.0, 0.5, 1.0, 1.0),     # the kept mode is empty at every node
        (0.5, 0.0, 1.0, 1.0),     # the monitored mode is empty at every node
        (0.64, 0.08, 0.5, 0.0),   # factorized
        (0.3, 0.3, 0.5, 1.0),     # gamma = 0 at theta = pi, a node for odd counts
        (2.0, 1e-300, 0.5, 1.0),  # rates that underflow
    ])
    @pytest.mark.parametrize("nodes", [4, 5, 7, 64, 255, 256, 1001, 4096])
    def test_edges(self, mu1, mu2, t, overlap, nodes):
        params = PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=overlap)
        for det in (ThresholdDetector(**REFERENCE_DETECTOR),
                    ThresholdDetector(epsilon=0.0, eta_d=1.0),
                    ThresholdDetector(epsilon=1.0, eta_d=0.0)):
            new, old = distribution_bits(params, det, 20, nodes)
            assert new == old

    def test_a_node_with_zero_rate_is_covered(self):
        params = PulsePairParams(mu1=0.3, mu2=0.3, t=0.5)
        assert params.gamma(theta_nodes(5)).min() == 0.0


def random_observations(rng, sources):
    """One observation per source: half are free draws, with gains over nine
    decades and error rates up to 1 (exact zeros included), and half are a
    channel's predictions moved by up to 10%, over misalignments up to 1/2."""
    for i, dists in enumerate(sources):
        if i % 2:
            pred = ref.predicted_statistics(dists, bright_channel(
                fiber_length_km=rng.uniform(0.0, 100.0),
                misalignment=rng.uniform(0.0, 0.5)))
            q_c, e_c, q_nc, e_nc = (min(v * rng.uniform(0.9, 1.1), 1.0)
                                    for v in (pred.q_c, pred.e_c, pred.q_nc, pred.e_nc))
        else:
            q_nc = 10 ** rng.uniform(-8.0, -1.0)
            q_c = min(q_nc * 10 ** rng.uniform(-3.0, 0.5), 1.0)
            e_c, e_nc = (float(rng.choice([0.0, rng.uniform(0.0, 0.08),
                                           rng.uniform(0.0, 0.6), rng.uniform(0.0, 1.0),
                                           1.0], p=[0.1, 0.4, 0.3, 0.15, 0.05]))
                         for _ in range(2))
        yield dists, ObservedStatistics(q_c=q_c, e_c=e_c, q_nc=q_nc, e_nc=e_nc)


def report_bits(dists, obs, params):
    """The keyrate payload text and every field of the report, new and old."""
    def spelled(fn):
        try:
            report = fn(dists, obs, params)
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return (dump_json(keyrate_report_payload(report, obs, params)),
                repr(asdict(report)))
    return spelled(key_rate), spelled(ref.key_rate)


class TestKeyRate:
    def test_criterion_6_sweep(self):
        for src, det, ch in synthetic_sweep_points(1000, seed=602214076):
            dists = ref.branch_distributions(src, det)
            new, old = report_bits(dists, ref.predicted_statistics(dists, ch),
                                   KeyRateParams())
            assert new == old

    def test_random_points(self):
        rng = np.random.default_rng(3000)
        sources = [ref.branch_distributions(
            PulsePairParams(mu1=rng.uniform(0.05, 1.5), mu2=rng.uniform(0.0, 0.8),
                            t=rng.uniform(0.05, 0.95), overlap=rng.uniform(0.0, 1.0)),
            ThresholdDetector(epsilon=10 ** rng.uniform(-7.0, -3.0),
                              eta_d=rng.uniform(0.01, 0.5))) for _ in range(39)]
        sources.append(ref.branch_distributions(  # degenerate: raises
            PulsePairParams(mu1=0.64, mu2=0.08, t=0.5, overlap=0.0),
            ThresholdDetector(**REFERENCE_DETECTOR)))
        seen = {"no_yield": 0, "entropy_clamped": 0, "positive": 0, "raises": 0}
        picks = [sources[i % len(sources)] for i in range(3000)]
        for i, (dists, obs) in enumerate(random_observations(rng, picks)):
            params = KeyRateParams(q=rng.uniform(0.1, 1.0), f=rng.uniform(1.0, 1.5),
                                   e0=float(rng.choice([0.5, rng.uniform(0.01, 1.0)])))
            new, old = report_bits(dists, obs, params)
            assert new == old, (i, obs, params)
            if isinstance(new[0], str) and new[0].startswith("{"):
                doc = new[0]
                seen["no_yield"] += '"no_single_photon_yield": true' in doc
                seen["entropy_clamped"] += '"entropy_clamped": true' in doc
                seen["positive"] += '"r_total": 0.0' not in doc
            else:
                seen["raises"] += 1
        assert min(seen.values()) >= 30, seen

    def test_subnormal_e0_is_rejected(self, reference_dists):
        # pc[0] * e0 underflows to zero, where the reference divides by zero
        # over numpy scalars: the float and row paths both raise instead.
        obs = ObservedStatistics(q_c=2.54e-6, e_c=0.0613, q_nc=8.18e-5, e_nc=0.0555)
        params = KeyRateParams(e0=5e-324)
        message = r"^e0 = 5e-324 is too small: .* underflows to zero$"
        with pytest.raises(ParameterError, match=message):
            key_rate(reference_dists, obs, params)
        rows = (np.array([v]) for v in (obs.q_c, obs.e_c, obs.q_nc, obs.e_nc))
        with pytest.raises(ParameterError, match=message):
            key_rate_rows(reference_dists, *rows, params)

    def test_underflowing_yield_is_not_certified(self, reference_dists):
        # Both paths count the subnormal yield as not certified instead of
        # dividing by its products that underflow to zero.
        obs = ObservedStatistics(**UNDERFLOW_OBSERVED)
        new, old = report_bits(reference_dists, obs, KeyRateParams())
        assert new == old
        assert '"no_single_photon_yield": true' in new[0]
        rows = (np.array([v]) for v in (obs.q_c, obs.e_c, obs.q_nc, obs.e_nc))
        assert ([r.hex() for r in key_rate_rows(reference_dists, *rows).tolist()]
                == [key_rate(reference_dists, obs).r_total.hex()])

    def test_zero_gains(self, reference_dists):
        new, old = report_bits(reference_dists, ObservedStatistics(0.0, 0.0, 0.0, 0.0),
                               KeyRateParams())
        assert new == old


def point_bits(point, space):
    """The (rate, flag) of one grid point, the rate spelled bit for bit, or
    the error raised; from the package and from the reference."""
    def spelled(fn):
        try:
            rate, flag = fn(*point, space)
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return rate.hex(), flag
    return spelled(rate_for_point), spelled(ref.rate_for_point)


def rows_bits(points, space):
    """The (rate, flag) of each point scored as rows, the rate spelled bit
    for bit, or the error raised; and the same from ``rate_for_point`` one
    point at a time, up to the first point that raises."""
    try:
        rows = [(rate.hex(), flag) for rate, flag in _score_rows(points, space)]
    except Exception as exc:
        rows = type(exc).__name__, str(exc)
    points_bits = []
    for point in points:
        try:
            rate, flag = rate_for_point(*point, space)
        except Exception as exc:
            return rows, (type(exc).__name__, str(exc))
        points_bits.append((rate.hex(), flag))
    return rows, points_bits


def search_space(**changes):
    fields = dict(mu1=AxisSpec(0.1, 1.0, 2), mu2=AxisSpec(0.0, 0.2, 2),
                  t=AxisSpec(0.0, 1.0, 2), channel=bright_channel(fiber_length_km=10.0),
                  alice_detector=ThresholdDetector(**REFERENCE_DETECTOR))
    fields.update(changes)
    return SearchSpace(**fields)


def random_spaces():
    """2,000 random search spaces, each with a random point."""
    rng = np.random.default_rng(8192)
    # Channels are drawn from five, so that the package's channel cache
    # is both hit and missed.
    channels = [bright_channel(fiber_length_km=rng.uniform(0.0, 150.0),
                               misalignment=rng.uniform(0.0, 0.2))
                for _ in range(5)]
    for i in range(2000):
        space = search_space(
            channel=channels[i % len(channels)],
            alice_detector=ThresholdDetector(epsilon=10 ** rng.uniform(-8.0, -2.0),
                                             eta_d=rng.uniform(0.0, 1.0)),
            key_params=KeyRateParams(f=rng.uniform(1.0, 1.5),
                                     e0=rng.uniform(0.05, 1.0)),
            overlap=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])),
            n_max=int(rng.integers(8, 41)),
            theta_nodes=int(rng.choice([4, 5, 16, 64, 255, 256])),
            tail_tol=1e-6)
        point = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        yield space, point


EDGE_POINTS = [
    (0.0, 0.0, 0.5),      # vacuum
    (0.0, 0.5, 0.5),      # mu1 = 0
    (0.5, 0.0, 0.5),      # mu2 = 0
    (0.64, 0.08, 0.0),    # t = 0
    (0.64, 0.08, 1.0),    # t = 1
    (0.3, 0.3, 0.5),      # gamma = 0 at theta = pi, a node for odd counts
    (0.64, 0.08, 0.5),
    (-0.1, 0.08, 0.5),    # invalid
    (0.64, 0.08, 1.5),    # invalid
]


def edge_spaces(nodes):
    spaces = [search_space(theta_nodes=nodes, overlap=overlap)
              for overlap in (0.0, 1.0)]
    spaces.append(replace(spaces[1], channel=bright_channel(fiber_length_km=400.0)))
    return spaces


class TestRateForPoint:
    def test_random_points(self):
        seen = set()
        for i, (space, point) in enumerate(random_spaces()):
            new, old = point_bits(point, space)
            assert new == old, (i, point, space)
            seen.add(new[1])
        assert {"", "degenerate", "no_yield"} <= seen, seen

    @pytest.mark.parametrize("nodes", [4, 5, 256, 1000])
    def test_edges(self, nodes):
        spaces = edge_spaces(nodes)
        seen = set()
        for space in spaces:
            for point in EDGE_POINTS:
                new, old = point_bits(point, space)
                assert new == old, (point, space)
                seen.add(new[1])
        assert seen == {"", "degenerate", "no_yield", "invalid"}
        # A subnormal e0 makes every point invalid, where the reference
        # divides by zero over numpy scalars.
        subnormal = replace(spaces[1], key_params=KeyRateParams(e0=5e-324))
        for point in EDGE_POINTS:
            assert rate_for_point(*point, subnormal) == (0.0, "invalid")

    def test_cached_arrays_are_read_only(self):
        for arr in (_node_cosines(256),
                    *_channel_yields(bright_channel(), 20)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestScoreRows:
    """Points scored as rows give what ``rate_for_point`` gives."""

    def test_random_spaces(self):
        # Each random space scores its point and four more as one block.
        rng = np.random.default_rng(4096)
        seen = set()
        for i, (space, point) in enumerate(random_spaces()):
            points = [point, *((rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0),
                                rng.uniform(0.0, 1.0)) for _ in range(4))]
            rows, points_bits = rows_bits(points, space)
            assert rows == points_bits, (i, points, space)
            seen |= ({rows[0]} if isinstance(rows, tuple)
                     else {flag for _, flag in rows})
        assert {"", "degenerate", "no_yield", "TruncationError"} <= seen, seen

    @pytest.mark.parametrize("nodes", [4, 5, 255, 256, 1000])
    def test_edges(self, nodes):
        spaces = edge_spaces(nodes)
        spaces += [replace(spaces[1], key_params=KeyRateParams(e0=5e-324)),
                   replace(spaces[1], n_max=1), replace(spaces[1], n_max=2),
                   replace(spaces[1], overlap=1.5),
                   replace(spaces[1], alice_detector=ThresholdDetector(0.0, 0.0)),
                   replace(spaces[1], alice_detector=ThresholdDetector(1.0, 0.5))]
        # Rows nobody would search, which rate_for_point still scores.
        points = EDGE_POINTS + [(math.nan, 0.1, 0.5), (1e200, 1e200, 0.5),
                                (0.1, 0.2, -0.0), (-0.0, -0.0, 0.5)]
        seen = set()
        for space in spaces:
            rows, points_bits = rows_bits(points, space)
            assert rows == points_bits, space
            seen |= ({rows[0]} if isinstance(rows, tuple)
                     else {flag for _, flag in rows})
        assert seen == {"", "degenerate", "no_yield", "invalid", "TruncationError"}

    def test_statistics_outside_their_range_are_invalid(self):
        # 800 photons at the monitor put the whole kept mode in the click
        # branch, and a receiver that always clicks makes its gain the sum
        # of the branch, 1 give or take a rounding: above 1 at 0.1 and 0.2,
        # where ObservedStatistics rejects it before the chain finds the
        # factorized source degenerate.
        space = search_space(
            alice_detector=ThresholdDetector(epsilon=0.0, eta_d=0.875),
            channel=bright_channel(bob_detector=ThresholdDetector(1.0, 0.5)))
        points = [(mu1, 800.0, 1.0) for mu1 in (0.05, 0.1, 0.15, 0.2)]
        rows, points_bits = rows_bits(points, space)
        assert rows == points_bits
        assert [flag for _, flag in rows] == ["degenerate", "invalid"] * 2

    def test_first_truncated_row_raises(self, monkeypatch):
        # Blocks of two rows at n_max 8 and 256 nodes, where total
        # intensities from 1.3 up are truncated.  The first truncated point,
        # at 1.3, is the second row of the second block; two later ones, at
        # 2.1 and 1.6, would raise with other messages.
        monkeypatch.setattr(optimize_module, "_BLOCK_VALUES", 2 * 9 * 256)
        space = search_space(n_max=8, tail_tol=1e-7)
        points = [(0.3, 0.1, 0.5), (0.5, 0.1, 0.5), (0.8, 0.1, 0.5),
                  (1.2, 0.1, 0.5), (1.0, 0.1, 0.5), (2.0, 0.1, 0.5),
                  (1.5, 0.1, 0.5)]
        rows, points_bits = rows_bits(points, space)
        assert rows == points_bits
        assert rows[0] == "TruncationError"
        assert rows[1].endswith("increase n_max for total intensity 1.3")
        rows, points_bits = rows_bits(points[:3] + points[4:5], space)
        assert rows == points_bits
        assert {flag for _, flag in rows} == {""}


def bright_channel(**changes):
    fields = dict(fiber_length_km=0.0,
                  bob_detector=ThresholdDetector(epsilon=2e-6, eta_d=0.1),
                  misalignment=0.015, alice_internal_loss_db=3.0)
    fields.update(changes)
    return ChannelModel(**fields)


SCAN_DETECTOR = ThresholdDetector(**REFERENCE_DETECTOR)


def scan_outcomes(point, lengths, channel=None, det=SCAN_DETECTOR, **kwargs):
    channel = channel or bright_channel()
    return tuple(outcome(fn, point, det, channel, lengths, KeyRateParams(), **kwargs)
                 for fn in (scan_rate_vs_distance, ref.scan_rate_vs_distance))


class TestScan:
    def test_twenty_thousand_lengths(self):
        rng = np.random.default_rng(20000)
        lengths = [*np.round(rng.uniform(0.0, 400.0, 20000), 1).tolist(),
                   0.0, -0.0, 0.0, 1e6, 1.7e308]
        rows = scan_rate_vs_distance((0.5, 0.1, 0.5), SCAN_DETECTOR,
                                     bright_channel(), lengths)
        assert [repr(asdict(row)) for row in rows] == outcome(
            ref.scan_rate_vs_distance, (0.5, 0.1, 0.5), SCAN_DETECTOR,
            bright_channel(), lengths)
        assert sum(row.rate > 0.0 for row in rows) > 1000
        assert sum(row.rate == 0.0 for row in rows) > 1000

    @pytest.mark.parametrize("point,overlap", [
        ((0.64, 0.08, 0.5), 0.0),   # degenerate: every rate is zero
        ((0.0, 0.0, 0.5), 1.0),     # vacuum source
        ((0.64, 0.08, 0.5), 1.0),
        ((1.3, 0.02, 0.9), 0.7),
    ])
    def test_sources(self, point, overlap):
        lengths = [0.0, 3.0, 10.0, 10.0, 55.5, 120.0, 400.0]
        new, old = scan_outcomes(point, lengths, overlap=overlap)
        assert new == old

    @pytest.mark.parametrize("changes", [
        dict(bob_detector=ThresholdDetector(epsilon=0.0, eta_d=0.0)),  # no clicks
        dict(bob_detector=ThresholdDetector(epsilon=1.0, eta_d=0.5)),  # always clicks
        dict(misalignment=0.5),
        dict(alice_internal_loss_db=0.0, fiber_loss_db_per_km=0.0),
    ])
    def test_channels(self, changes):
        new, old = scan_outcomes((0.5, 0.1, 0.5), [0.0, 1.0, 50.0, 1e6],
                                 channel=bright_channel(**changes))
        assert new == old

    @pytest.mark.parametrize("lengths", [
        [], [-1.0], [3.0, -0.5], [math.nan], [10.0, math.inf], [math.inf, 10.0],
        [5.0, math.nan, 1.0], [math.inf, math.nan], [math.nan, math.inf],
    ])
    def test_rejected_lengths(self, lengths):
        new, old = scan_outcomes((0.5, 0.1, 0.5), lengths)
        assert new == old
        assert new[0] == "ParameterError"

    def test_source_error_comes_before_a_later_length_error(self):
        # A monitor that never clicks fails key_rate's vacuum check at the
        # first length, before the infinite length is reached.
        blind = ThresholdDetector(epsilon=0.0, eta_d=0.0)
        new, old = scan_outcomes((0.5, 0.1, 0.5), [10.0, math.inf], det=blind)
        assert new == old == ("ParameterError",
                              "vacuum probability of each branch must be positive")


POOL = [*np.round(np.random.default_rng(7).uniform(0.0, 300.0, 120), 2).tolist(),
        0.0, 0.0, 25.0, 25.0, 1e4]
FULL_SCAN = {}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=40))
def test_a_subset_of_lengths_gives_the_same_rows(picks):
    if not FULL_SCAN:
        for row in scan_rate_vs_distance((0.5, 0.1, 0.5), SCAN_DETECTOR,
                                         bright_channel(), POOL):
            assert FULL_SCAN.setdefault(row.length_km, row.rate) == row.rate
    lengths = [POOL[i] for i in picks]
    rows = scan_rate_vs_distance((0.5, 0.1, 0.5), SCAN_DETECTOR, bright_channel(),
                                 lengths)
    assert [row.length_km for row in rows] == sorted(lengths)
    assert [row.rate.hex() for row in rows] == [FULL_SCAN[x].hex() for x in sorted(lengths)]


# The package samples each click from its Poisson-thinned probability and the
# reference draws photon counts: the same law through different random
# streams.  Their samples are compared by the count of each joint value of
# the six record flags (alice_click, alice_basis, alice_bit, bob_basis and
# detected take 2 values, bob_bit 3), cell by cell with a two-proportion z
# test.  FALSE_ALARM is the chance that a sampler with the reference's law
# fails one comparison, split over the cells (Bonferroni).
FLAG_CELLS = 96
FALSE_ALARM = 1e-5
Z_LIMIT = NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2 * FLAG_CELLS))


def package_chunk(params, det, ch, start, size, entropy):
    """The package's sampler on the positioned draws of
    ``SeedSequence(entropy)``, which are one generator's draws on it."""
    return _simulate_chunk(params, det, ch, start, size,
                           _block_draws(np.random.SeedSequence(entropy), size, 0))


def reference_chunk(params, det, ch, start, size, entropy):
    return ref.simulate_chunk(params, det, ch, start, size,
                              np.random.default_rng(entropy))


def flag_counts(kernel, params, det, ch, pulses, seed):
    """How often each joint value of the record flags occurs in ``pulses``
    pulses sampled by ``kernel``, in chunks of at most 2^20."""
    counts = np.zeros(FLAG_CELLS, dtype=np.int64)
    for start in range(0, pulses, 2 ** 20):
        batch = kernel(params, det, ch, start, min(2 ** 20, pulses - start),
                       [seed, start])
        cell = batch.bob_bit + np.int64(1)
        for name in CSV_COLUMNS[1:6]:
            cell *= 2
            cell += getattr(batch, name)
        counts += np.bincount(cell, minlength=FLAG_CELLS)
    return counts


def assert_same_law(params, det, ch, pulses):
    new = flag_counts(package_chunk, params, det, ch, pulses, seed=1)
    old = flag_counts(reference_chunk, params, det, ch, pulses, seed=2)
    assert new.size == old.size == FLAG_CELLS
    pooled = (new + old) / (2 * pulses)
    se = np.sqrt(pooled * (1.0 - pooled) * 2 / pulses)
    # A cell that neither or both samples always hit has se 0 and no difference.
    z = np.divide((new - old) / pulses, se, out=np.zeros(FLAG_CELLS), where=se > 0)
    worst = int(np.abs(z).argmax())
    assert abs(z[worst]) < Z_LIMIT, (worst, new[worst], old[worst], z[worst])


def assert_forced_flags(batch, params, det, ch):
    """Every flag whose click probability is exactly 0 or 1 takes the value it
    forces, and ``detected`` says whether ``bob_bit`` is present."""
    for name in CSV_COLUMNS[1:6]:
        assert np.isin(getattr(batch, name), (0, 1)).all(), name
    detected = batch.detected == 1
    assert np.array_equal(detected, batch.bob_bit >= 0)
    if det.epsilon == 1.0:
        assert batch.alice_click.all()
    elif det.epsilon == 0.0 and (det.eta_d == 0.0
                                 or params.nu - params.mean_mode_a == 0.0):
        assert not batch.alice_click.any()
    bob = ch.bob_detector
    if bob.epsilon == 1.0:
        assert detected.all()
    elif bob.epsilon == 0.0 and (ch.transmission == 0.0 or params.mean_mode_a == 0.0):
        assert not detected.any()
    elif bob.epsilon == 0.0 and ch.misalignment == 0.0:
        # Only the right detector can click in matching bases.
        sifted = detected & (batch.alice_basis == batch.bob_basis)
        assert np.array_equal(batch.bob_bit[sifted], batch.alice_bit[sifted])


class TestSimulateChunk:
    def test_random_cases(self):
        rng = np.random.default_rng(1048576)
        for case in range(6):
            # A few bright sources so that the monitor counts run high.
            scale = 30.0 if case % 10 == 0 else 3.0
            params = PulsePairParams(mu1=rng.uniform(0.0, scale),
                                     mu2=rng.uniform(0.0, scale),
                                     t=rng.uniform(0.0, 1.0),
                                     overlap=rng.uniform(0.0, 1.0))
            det = ThresholdDetector(epsilon=10 ** rng.uniform(-8.0, -0.5),
                                    eta_d=rng.uniform(0.0, 1.0))
            ch = ChannelModel(
                fiber_length_km=rng.uniform(0.0, 50.0),
                bob_detector=ThresholdDetector(epsilon=10 ** rng.uniform(-8.0, -0.5),
                                               eta_d=rng.uniform(0.0, 1.0)),
                misalignment=rng.uniform(0.0, 0.5),
                alice_internal_loss_db=rng.uniform(0.0, 10.0))
            # Unused size and start draws keep each case's parameters as before.
            rng.integers(1, 20000), rng.integers(0, 2 ** 40)
            assert_same_law(params, det, ch, 2 ** 18)

    @pytest.mark.parametrize("size", [1, 7, 65537])
    @pytest.mark.parametrize("mu1,mu2,t", [
        (0.0, 0.0, 0.5),     # vacuum
        (0.64, 0.08, 0.0),   # t = 0
        (0.64, 0.08, 1.0),   # t = 1
        (2.0, 1.5, 0.5),
        (0.64, 0.0, 0.0),    # nothing in the kept mode
        (0.64, 0.0, 1.0),    # nothing to the monitor
    ])
    def test_edges(self, mu1, mu2, t, size):
        params = PulsePairParams(mu1=mu1, mu2=mu2, t=t)
        detectors = [ThresholdDetector(**REFERENCE_DETECTOR),
                     *(ThresholdDetector(epsilon=e, eta_d=d)
                       for e in (0.0, 1.0) for d in (0.0, 1.0))]
        for det, bob, misalignment in itertools.product(detectors, detectors,
                                                        (0.0, 0.5)):
            ch = bright_channel(bob_detector=bob, misalignment=misalignment,
                                alice_internal_loss_db=0.0)
            for kernel in (package_chunk, reference_chunk):
                batch = kernel(params, det, ch, 3, size, size)
                assert np.array_equal(batch.pulse_index, np.arange(3, 3 + size))
                assert_forced_flags(batch, params, det, ch)

    @pytest.mark.parametrize("misalignment", [0.0, 0.5])
    def test_full_chunk(self, misalignment):
        assert_same_law(PulsePairParams(mu1=0.64, mu2=0.08, t=0.5),
                        ThresholdDetector(**REFERENCE_DETECTOR),
                        bright_channel(misalignment=misalignment), 2 ** 20)

    @pytest.mark.parametrize("name", sorted(MC_CROSS_CHECK_SETS))
    def test_criterion_5_sets(self, name):
        assert_same_law(*MC_CROSS_CHECK_SETS[name], 2 ** 20)

    def test_bright_misaligned_link(self):
        # Several photons often reach Bob: both detectors click on about one
        # pulse in 18 and one sifted pulse in 120, so the coin counts.
        ch = ChannelModel(fiber_length_km=0.0, alice_internal_loss_db=1.0,
                          bob_detector=ThresholdDetector(epsilon=1e-5, eta_d=0.5),
                          misalignment=0.02)
        assert_same_law(PulsePairParams(mu1=2.0, mu2=1.5, t=0.5),
                        ThresholdDetector(**REFERENCE_DETECTOR), ch, 2 ** 20)
