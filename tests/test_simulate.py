import math

import numpy as np
import pytest

from passive_decoy import (ChannelModel, ObservedStatistics, ParameterError,
                           PulsePairParams, ThresholdDetector,
                           branch_distributions, fit_channel_to_observed,
                           hom_coincidence_scan, monte_carlo_run,
                           predicted_statistics)

from conftest import channel_truth
from test_cli import REPO_CONFIG, read_json


def make_channel(**overrides):
    base = dict(fiber_length_km=10.0,
                bob_detector=ThresholdDetector(epsilon=2e-6, eta_d=0.05),
                misalignment=0.02, alice_internal_loss_db=9.0,
                fiber_loss_db_per_km=0.2)
    base.update(overrides)
    return ChannelModel(**base)


class TestChannelModel:
    def test_validation(self):
        with pytest.raises(ParameterError):
            make_channel(fiber_length_km=-1.0)
        with pytest.raises(ParameterError):
            make_channel(misalignment=0.6)
        with pytest.raises(ParameterError):
            make_channel(alice_internal_loss_db=-0.1)

    def test_transmission_composition(self):
        short = make_channel(fiber_length_km=7.0)
        double = make_channel(fiber_length_km=14.0)
        zero = make_channel(fiber_length_km=0.0)
        # Doubling the fiber squares the fiber factor.
        lhs = double.transmission * zero.transmission
        rhs = short.transmission ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_background_yield_pairs_two_detectors(self):
        ch = make_channel(bob_detector=ThresholdDetector(epsilon=1e-3, eta_d=0.1))
        assert ch.background_yield == pytest.approx(1 - (1 - 1e-3) ** 2, abs=1e-18)


class TestPredictedStatistics:
    def test_blocked_channel_leaves_only_darks(self, reference_dists):
        ch = make_channel(bob_detector=ThresholdDetector(epsilon=1e-4, eta_d=0.0))
        pred = predicted_statistics(reference_dists, ch)
        y0 = ch.background_yield
        assert pred.q_c == pytest.approx(float(reference_dists.p_click.sum()) * y0, rel=1e-12)
        assert pred.q_nc == pytest.approx(float(reference_dists.p_noclick.sum()) * y0, rel=1e-12)
        assert pred.e_c == pytest.approx(0.5, abs=1e-12)
        assert pred.e_nc == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_source_dark_free_receiver_is_silent(self):
        dists = branch_distributions(PulsePairParams(0.0, 0.0, 0.5),
                                     ThresholdDetector(0.0, 0.1))
        ch = make_channel(bob_detector=ThresholdDetector(epsilon=0.0, eta_d=0.3))
        pred = predicted_statistics(dists, ch)
        assert pred.q_c == 0.0 and pred.q_nc == 0.0

    def test_ground_truth_from_channel_yields(self):
        ch = make_channel()
        y0, y1, e1 = channel_truth(ch)
        assert y0 == pytest.approx(ch.background_yield, abs=1e-18)
        eta = ch.transmission
        assert y1 == pytest.approx(
            1 - (1 - ch.background_yield) * (1 - eta), rel=1e-12)
        assert 0.0 <= e1 <= 0.5


class TestChannelFit:
    def test_reproduces_noclick_observables_exactly(self, reference_dists, reference_obs,
                                                    fitted_channel):
        pred = predicted_statistics(reference_dists, fitted_channel)
        assert pred.q_nc == pytest.approx(reference_obs.q_nc, rel=1e-9)
        assert pred.e_nc == pytest.approx(reference_obs.e_nc, rel=1e-9)

    def test_reproduces_reference_config_channel(self, fitted_channel):
        # The shipped config holds the channel fitted to the reference
        # observables; the fit must land within 2 ulp of those values.
        channel = read_json(REPO_CONFIG)["channel"]
        for got, want in (
                (fitted_channel.bob_detector.eta_d, channel["bob_detector"]["eta_d"]),
                (fitted_channel.misalignment, channel["misalignment"])):
            assert abs(got - want) <= 2 * math.ulp(want)

    def test_predicts_click_branch_within_consistency_margin(
            self, reference_dists, reference_obs, fitted_channel):
        # The click branch was never fitted; agreement here cross-checks the
        # interference structure of the source model.
        pred = predicted_statistics(reference_dists, fitted_channel)
        assert pred.q_c == pytest.approx(reference_obs.q_c, rel=0.20)

    def test_rejects_gain_below_dark_floor(self, reference_dists):
        obs = ObservedStatistics(q_c=1e-9, e_c=0.05, q_nc=1e-9, e_nc=0.05)
        with pytest.raises(ParameterError):
            fit_channel_to_observed(reference_dists, obs,
                                    bob_dark_per_detector=1e-4)


class TestMonteCarlo:
    def test_same_seed_is_bit_identical(self, reference_params, reference_detector):
        ch = make_channel()
        batches_a, batches_b = [], []
        ra = monte_carlo_run(reference_params, reference_detector, ch, 50_000, 7,
                             record_sink=batches_a.append)
        rb = monte_carlo_run(reference_params, reference_detector, ch, 50_000, 7,
                             record_sink=batches_b.append)
        assert ra.to_observed() == rb.to_observed()
        for a, b in zip(batches_a, batches_b):
            for name in ("pulse_index", "alice_click", "alice_basis", "alice_bit",
                         "bob_basis", "detected", "bob_bit"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self, reference_params, reference_detector):
        ch = make_channel()
        ra = monte_carlo_run(reference_params, reference_detector, ch, 50_000, 7)
        rb = monte_carlo_run(reference_params, reference_detector, ch, 50_000, 8)
        assert ra.to_observed() != rb.to_observed()

    def test_rejects_zero_pulses(self, reference_params, reference_detector):
        with pytest.raises(ParameterError):
            monte_carlo_run(reference_params, reference_detector, make_channel(), 0, 1)

    def test_dead_source_and_receiver_never_click(self):
        params = PulsePairParams(0.0, 0.0, 0.5)
        det = ThresholdDetector(0.0, 0.1)
        ch = make_channel(bob_detector=ThresholdDetector(epsilon=0.0, eta_d=0.3))
        batches = []
        stats = monte_carlo_run(params, det, ch, 20_000, 3,
                                record_sink=batches.append).to_observed()
        assert stats.q_c == 0.0 and stats.q_nc == 0.0
        assert all(not batch.detected.any() and not batch.alice_click.any()
                   for batch in batches)

    def test_matches_analytic_forward_model(self, reference_params, reference_detector):
        # Full-size cross-validation lives in the acceptance suite; this is a
        # single moderate-size sanity run.
        ch = make_channel(bob_detector=ThresholdDetector(epsilon=2e-6, eta_d=0.01))
        dists = branch_distributions(reference_params, reference_detector)
        pred = predicted_statistics(dists, ch)
        tallies = monte_carlo_run(reference_params, reference_detector, ch, 2_000_000, 99)
        mc = tallies.to_observed()
        sifted = tallies.sifted
        for label, got, want_p in (
                ("q_c", mc.q_c, pred.q_c),
                ("q_nc", mc.q_nc, pred.q_nc),
                ("eq_c", mc.e_c * mc.q_c, pred.e_c * pred.q_c),
                ("eq_nc", mc.e_nc * mc.q_nc, pred.e_nc * pred.q_nc)):
            se = math.sqrt(want_p * (1 - want_p) / sifted)
            assert abs(got - want_p) < 4 * se + 1e-12, label


class TestHomScan:
    def test_zero_overlap_factorizes(self):
        params = PulsePairParams(0.3, 0.2, 0.4)
        scan = hom_coincidence_scan(params, [0.0])
        row = scan.rows[0]
        mean_a = params.mean_mode_a
        mean_b = params.nu - mean_a
        product = (1 - math.exp(-mean_a)) * (1 - math.exp(-mean_b))
        assert row.coincidence == pytest.approx(product, rel=1e-12)
        assert row.visibility == pytest.approx(0.0, abs=1e-12)

    def test_no_splitting_means_no_interference(self):
        params = PulsePairParams(0.3, 0.2, 0.0)
        scan = hom_coincidence_scan(params, [0.0, 1.0])
        assert scan.rows[0].coincidence == pytest.approx(
            scan.rows[1].coincidence, rel=1e-12)
        assert scan.visibility == pytest.approx(0.0, abs=1e-12)

    def test_ideal_visibility_is_one_half(self):
        params = PulsePairParams(1e-3, 1e-3, 0.5)
        scan = hom_coincidence_scan(params, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert scan.visibility == pytest.approx(0.5, abs=0.01)
        full = scan.rows[-1]
        assert full.overlap == 1.0
        assert full.visibility == pytest.approx(0.5, abs=0.01)

    def test_rows_sorted_and_monotone(self):
        params = PulsePairParams(0.05, 0.05, 0.5)
        scan = hom_coincidence_scan(params, [1.0, 0.2, 0.6, 0.0])
        overlaps = [r.overlap for r in scan.rows]
        assert overlaps == sorted(overlaps)
        coincidences = [r.coincidence for r in scan.rows]
        assert all(a >= b for a, b in zip(coincidences, coincidences[1:]))

    def test_rejects_empty_scan(self):
        with pytest.raises(ParameterError):
            hom_coincidence_scan(PulsePairParams(0.1, 0.1, 0.5), [])
