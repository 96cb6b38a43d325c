import pytest

from passive_decoy import (AxisSpec, KeyRateParams, ParameterError,
                           SearchSpace, ThresholdDetector,
                           branch_distributions, key_rate, optimize,
                           predicted_statistics, scan_rate_vs_distance)
from passive_decoy.optimize import rate_for_point

from conftest import REFERENCE_DETECTOR, REFERENCE_SOURCE
from test_simulate import make_channel


def space_around_reference(channel, levels=2, points=5):
    return SearchSpace(
        mu1=AxisSpec(0.14, 1.14, points),
        mu2=AxisSpec(0.02, 0.14, points),
        t=AxisSpec(0.3, 0.7, points),
        channel=channel,
        alice_detector=ThresholdDetector(**REFERENCE_DETECTOR),
        refinement_levels=levels)


class TestAxisSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AxisSpec(1.0, 0.5, 3)
        with pytest.raises(ParameterError):
            AxisSpec(0.1, 0.5, 1)
        with pytest.raises(ParameterError):
            AxisSpec(0.1, 0.1, 2)

    def test_search_needs_a_level(self):
        with pytest.raises(ParameterError, match="^refinement_levels must be >= 1$"):
            space_around_reference(make_channel(), levels=0)

    def test_refined_window_shrinks_and_contains_center(self):
        axis = AxisSpec(0.0, 0.9, 4)
        fine = axis.refined_around(0.45)
        assert fine.hi - fine.lo == pytest.approx(0.3)
        assert fine.lo <= 0.45 <= fine.hi
        edge = axis.refined_around(0.9)
        assert edge.hi == pytest.approx(0.9)
        assert edge.lo >= axis.lo

    def test_degenerate_axis(self):
        axis = AxisSpec(0.64, 0.64, 1)
        assert list(axis.grid()) == [0.64]
        assert axis.refined_around(0.64) is axis


class TestOptimize:
    def test_single_point_space(self, fitted_channel):
        space = SearchSpace(
            mu1=AxisSpec(0.64, 0.64, 1), mu2=AxisSpec(0.08, 0.08, 1),
            t=AxisSpec(0.5, 0.5, 1), channel=fitted_channel,
            alice_detector=ThresholdDetector(**REFERENCE_DETECTOR),
            refinement_levels=1)
        result = optimize(space)
        assert result.best_point == (0.64, 0.08, 0.5)
        rate, _ = rate_for_point(0.64, 0.08, 0.5, space)
        assert result.best_rate == rate
        assert len(result.trace) == 1

    def test_beats_reference_point_included_in_grid(self, fitted_channel):
        space = space_around_reference(fitted_channel)
        result = optimize(space)
        ref_rate, _ = rate_for_point(0.64, 0.08, 0.5, space)
        grid_points = [(p.mu1, p.mu2, p.t) for p in result.trace if p.level == 0]
        assert any(abs(m1 - 0.64) < 1e-9 and abs(m2 - 0.08) < 1e-9
                   and abs(tt - 0.5) < 1e-9 for m1, m2, tt in grid_points)
        assert result.best_rate >= ref_rate - 1e-18

    def test_deterministic(self, fitted_channel):
        space = space_around_reference(fitted_channel)
        a = optimize(space)
        b = optimize(space)
        assert a.best_point == b.best_point
        assert a.best_rate == b.best_rate
        assert a.trace == b.trace

    def test_refinement_monotone_and_contained(self, fitted_channel):
        space = space_around_reference(fitted_channel, levels=3)
        result = optimize(space)
        history = result.refinement_history
        rates = [h["best_rate"] for h in history]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        for h in history:
            m1, m2, tt = h["best_point"]
            assert h["mu1_range"][0] - 1e-12 <= m1 <= h["mu1_range"][1] + 1e-12
            assert h["mu2_range"][0] - 1e-12 <= m2 <= h["mu2_range"][1] + 1e-12
            assert h["t_range"][0] - 1e-12 <= tt <= h["t_range"][1] + 1e-12

    def test_hopeless_channel_flags_all_zero(self):
        dead = make_channel(fiber_length_km=500.0)
        space = space_around_reference(dead, levels=1, points=3)
        result = optimize(space)
        assert result.best_rate == 0.0
        assert result.all_zero is True

    def test_degenerate_grid_points_score_zero(self, fitted_channel):
        # t = 0 factorizes the source; worth nothing, not an abort.
        space = SearchSpace(
            mu1=AxisSpec(0.64, 0.64, 1), mu2=AxisSpec(0.08, 0.08, 1),
            t=AxisSpec(0.0, 0.0, 1), channel=fitted_channel,
            alice_detector=ThresholdDetector(**REFERENCE_DETECTOR),
            refinement_levels=1)
        result = optimize(space)
        assert result.best_rate == 0.0
        assert result.trace[0].flag == "degenerate"


class TestScan:
    def test_loss_monotonicity(self, reference_detector, fitted_channel):
        point = (REFERENCE_SOURCE["mu1"], REFERENCE_SOURCE["mu2"], REFERENCE_SOURCE["t"])
        rows = scan_rate_vs_distance(point, reference_detector, fitted_channel,
                                     [0.0, 5.0, 10.0, 20.0, 40.0, 80.0])
        rates = [r.rate for r in rows]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_long_fiber_rate_is_zero(self, reference_detector, fitted_channel):
        rows = scan_rate_vs_distance((0.2, 0.02, 0.8), reference_detector,
                                     fitted_channel, [400.0])
        assert rows[0].rate == 0.0

    def test_rows_sorted(self, reference_detector, fitted_channel):
        rows = scan_rate_vs_distance((0.2, 0.02, 0.8), reference_detector,
                                     fitted_channel, [10.0, 0.0, 5.0])
        assert [r.length_km for r in rows] == [0.0, 5.0, 10.0]

    def test_matches_direct_chain_evaluation(self, reference_params,
                                             reference_detector, fitted_channel):
        rows = scan_rate_vs_distance((0.64, 0.08, 0.5), reference_detector,
                                     fitted_channel, [10.0])
        dists = branch_distributions(reference_params, reference_detector)
        pred = predicted_statistics(dists, fitted_channel)
        direct = key_rate(dists, pred, KeyRateParams())
        assert rows[0].rate == direct.r_total

    def test_rejects_bad_lengths(self, reference_detector, fitted_channel):
        with pytest.raises(ParameterError):
            scan_rate_vs_distance((0.64, 0.08, 0.5), reference_detector,
                                  fitted_channel, [])
        with pytest.raises(ParameterError):
            scan_rate_vs_distance((0.64, 0.08, 0.5), reference_detector,
                                  fitted_channel, [-1.0])
