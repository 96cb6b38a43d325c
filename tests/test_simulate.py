import math

import numpy as np
import pytest

from passive_decoy import (ChannelModel, Numerics, ObservedStatistics,
                           ParameterError, PulsePairParams, ThresholdDetector,
                           branch_distributions, fit_channel_to_observed,
                           hom_coincidence_scan, monte_carlo_run,
                           predicted_statistics)
from passive_decoy import simulate

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

    def test_rejects_gain_no_efficiency_reaches(self, reference_dists):
        obs = ObservedStatistics(q_c=2.54e-6, e_c=0.0613, q_nc=0.5, e_nc=0.0555)
        with pytest.raises(ParameterError, match="^observed no-click gain is "
                           "unreachably large for the given path loss$"):
            fit_channel_to_observed(reference_dists, obs)

    def test_rejects_error_rate_beyond_any_misalignment(self, reference_dists):
        obs = ObservedStatistics(q_c=2.54e-6, e_c=0.0613, q_nc=8.18e-5, e_nc=0.9)
        with pytest.raises(ParameterError, match=r"^fitted misalignment 0\.9\d* "
                           r"outside \[0, 0\.5\]; the pinned dark probability"):
            fit_channel_to_observed(reference_dists, obs)


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

    @pytest.mark.parametrize("n_pulses, seed, message", [
        (1e6, 1, "n_pulses must be an integer (got 1000000.0)"),
        (100, -1, "seed must be >= 0 (got -1)"),
        (100, 1.5, "seed must be an integer (got 1.5)"),
    ])
    def test_names_a_bad_count_or_seed(
            self, reference_params, reference_detector, n_pulses, seed, message):
        with pytest.raises(ParameterError) as err:
            monte_carlo_run(reference_params, reference_detector, make_channel(),
                            n_pulses, seed)
        assert str(err.value) == message

    def test_numpy_integers_count_as_integers(self, reference_params,
                                              reference_detector):
        ch = make_channel()
        assert (monte_carlo_run(reference_params, reference_detector, ch,
                                np.int64(3000), np.uint32(7))
                == monte_carlo_run(reference_params, reference_detector, ch, 3000, 7))

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

    @pytest.mark.parametrize("seed", range(4))
    def test_bright_workload_matches_analytic_forward_model(self, seed):
        # The brightest corner of the configs the benchmark's mc_records
        # workload draws, where the double clicks that the analytic model
        # leaves out count most, at its 3 * 2^19 pulses and |z| < 4 check.
        source = PulsePairParams(0.8, 0.15, 0.5)
        monitor = ThresholdDetector(1e-5, 0.4)
        ch = make_channel(fiber_length_km=0.0, alice_internal_loss_db=0.0,
                          bob_detector=ThresholdDetector(5e-6, 0.4),
                          misalignment=0.03)
        pred = predicted_statistics(branch_distributions(source, monitor), ch)
        tallies = monte_carlo_run(source, monitor, ch, 3 << 19, seed)
        mc = tallies.to_observed()
        for label, got, want in (
                ("q_c", mc.q_c, pred.q_c),
                ("q_nc", mc.q_nc, pred.q_nc),
                ("em_c", mc.e_c * mc.q_c, pred.e_c * pred.q_c),
                ("em_nc", mc.e_nc * mc.q_nc, pred.e_nc * pred.q_nc)):
            z = abs(got - want) / math.sqrt(want * (1.0 - want) / tallies.sifted)
            assert z < 4.0, (label, z)


class TestDrawRule:
    """A chunk's generators from ``_chunk_draws``, each drawn a block at a
    time, give the draws of one generator on the chunk's stream, each
    section taken in one call: theta, the monitor's u, the 4-bit draw, the
    wrong and the right detector's u."""

    @pytest.mark.parametrize("size", [1, 7, 9, 2 ** 16 - 1, 2 ** 16 + 3,
                                      2 ** 19, 2 ** 20])
    def test_positioned_draws_are_one_generators_draws(self, size):
        stream = np.random.SeedSequence(20261019, spawn_key=(3,))
        one = np.random.default_rng(stream)
        expected = [one.uniform(0.0, 2.0 * np.pi, size), one.random(size),
                    one.integers(0, 16, size, dtype=np.int8), one.random(size),
                    one.random(size)]
        theta, monitor, bits, wrong, right = simulate._chunk_draws(stream, size)
        blocks = []
        for lo in range(0, size, simulate._BLOCK_PULSES):
            n = min(simulate._BLOCK_PULSES, size - lo)
            blocks.append([theta.random(n) * (2.0 * np.pi), monitor.random(n),
                           bits.integers(0, 16, n, dtype=np.int8),
                           wrong.random(n), right.random(n)])
        for want, got in zip(expected, zip(*blocks)):
            assert np.concatenate(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("call, message", [
    (lambda: Numerics(n_max=10 ** 5000),
     "n_max must be within [2, 60] (got an integer of 16610 bits)"),
    (lambda: monte_carlo_run(PulsePairParams(0.64, 0.08, 0.5),
                             ThresholdDetector(1e-5, 0.1), make_channel(),
                             n_pulses=-10 ** 5000, seed=1),
     "n_pulses must be >= 1 (got a negative integer of 16610 bits)"),
])
def test_integer_too_long_for_str_is_named_by_its_size(call, message):
    # 5001 digits, past the 4300 that Python converts to str by default.
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message


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

    def test_rows_hold_python_floats(self):
        # Each visibility keeps the bits of numpy's baseline, as a float.
        params = PulsePairParams(0.1, 0.1, 0.5)
        scan = hom_coincidence_scan(params, [0.0, 0.5, 1.0])
        mean_a = params.mean_mode_a
        baseline = (1.0 - np.exp(-mean_a)) * (1.0 - np.exp(-(params.nu - mean_a)))
        for row in scan.rows:
            assert [type(v) for v in (row.overlap, row.coincidence,
                                      row.visibility)] == [float] * 3
            assert row.visibility == 1.0 - row.coincidence / baseline
        assert type(scan.visibility) is float
        assert scan.rows[1].visibility == pytest.approx(0.12491540173336013,
                                                        rel=1e-12)

    def test_vacuum_source_has_no_coincidences(self):
        scan = hom_coincidence_scan(PulsePairParams(0.0, 0.0, 0.5), [0.0, 1.0])
        assert [(r.coincidence, r.visibility) for r in scan.rows] == [(0.0, 0.0)] * 2
        assert scan.visibility == 0.0

    def test_rejects_empty_scan(self):
        with pytest.raises(ParameterError):
            hom_coincidence_scan(PulsePairParams(0.1, 0.1, 0.5), [])
