"""The bulk kernels give the bits of the element-at-a-time references.

``branch_distributions``, ``key_rate`` and ``scan_rate_vs_distance`` are
compared with the forms kept in ``reference_kernels``.  Floats are compared
through ``repr`` or ``tobytes``, so a difference in the last bit, or in the
sign of a zero, fails.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from passive_decoy import (ChannelModel, KeyRateParams, ObservedStatistics,
                           PulsePairParams, ThresholdDetector,
                           branch_distributions, key_rate,
                           scan_rate_vs_distance)
from passive_decoy.reports import dump_json, keyrate_report_payload
from passive_decoy.statistics import theta_nodes

from conftest import REFERENCE_DETECTOR
from test_bounds import synthetic_sweep_points


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

    def test_subnormal_e0_divides_as_numpy_scalars(self, reference_dists):
        # pc[0] * e0 underflows to zero: the chain takes inf, not an exception.
        obs = ObservedStatistics(q_c=2.54e-6, e_c=0.0613, q_nc=8.18e-5, e_nc=0.0555)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            new, old = report_bits(reference_dists, obs, KeyRateParams(e0=5e-324))
        assert new == old
        assert '"y1_lower_raw": -Infinity' in new[0]

    def test_zero_gains(self, reference_dists):
        new, old = report_bits(reference_dists, ObservedStatistics(0.0, 0.0, 0.0, 0.0),
                               KeyRateParams())
        assert new == old


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
