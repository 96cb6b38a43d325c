import numpy as np
import pytest

from passive_decoy import (ChannelModel, DegenerateSourceError, KeyRateParams,
                           ObservedStatistics, ParameterError, PulsePairParams,
                           ThresholdDetector, binary_entropy,
                           branch_distributions, key_rate,
                           predicted_statistics)

from passive_decoy.bounds import key_rate_rows, source_rate_rows
from passive_decoy.statistics import BranchDistributions

from conftest import REFERENCE_RATE, channel_truth

# Frozen from a 40-digit evaluation of -x*log2(x) - (1-x)*log2(1-x) at x=1/4.
H_QUARTER = 0.81127812445913286391


class TestBinaryEntropy:
    def test_continuity_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter_against_high_precision(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(20240811)
        xs = np.concatenate([rng.uniform(0, 1, 400),
                             [1e-15, 1e-10, 1e-5, 0.5, 1 - 1e-10, 1 - 1e-15]])
        for x in xs:
            assert abs(binary_entropy(float(x)) - binary_entropy(float(1 - x))) < 1e-14

    def test_rejects_outside_domain(self):
        with pytest.raises(ParameterError):
            binary_entropy(-1e-12)
        with pytest.raises(ParameterError):
            binary_entropy(1.0000001)


class TestObservedStatistics:
    def test_totals_are_derived(self):
        obs = ObservedStatistics(q_c=0.2, e_c=0.1, q_nc=0.3, e_nc=0.05)
        assert obs.q_t == pytest.approx(0.5)
        assert obs.e_t == pytest.approx((0.2 * 0.1 + 0.3 * 0.05) / 0.5)

    def test_zero_gain_total_error_is_zero(self):
        assert ObservedStatistics(0.0, 0.0, 0.0, 0.0).e_t == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            ObservedStatistics(q_c=-0.1, e_c=0.0, q_nc=0.0, e_nc=0.0)
        with pytest.raises(ParameterError):
            ObservedStatistics(q_c=0.1, e_c=1.1, q_nc=0.0, e_nc=0.0)


class TestKeyRateParams:
    def test_defaults(self):
        p = KeyRateParams()
        assert (p.q, p.f, p.e0) == (0.5, 1.22, 0.5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            KeyRateParams(q=0.0)
        with pytest.raises(ParameterError):
            KeyRateParams(f=0.9)


def lossless_channel():
    return ChannelModel(fiber_length_km=0.0,
                        bob_detector=ThresholdDetector(epsilon=0.0, eta_d=1.0),
                        misalignment=0.0, alice_internal_loss_db=0.0)


def synthetic_sweep_points(count, seed=1234509876):
    """Randomized source/channel configurations with known ground truth."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        mu1 = rng.uniform(0.05, 1.2)
        mu2 = rng.uniform(0.01, 0.75)
        t = rng.uniform(0.2, 0.8)
        overlap = rng.uniform(0.4, 1.0)
        det = ThresholdDetector(epsilon=10 ** rng.uniform(-6, -4),
                                eta_d=rng.uniform(0.05, 0.3))
        ch = ChannelModel(
            fiber_length_km=rng.uniform(0.0, 40.0),
            bob_detector=ThresholdDetector(epsilon=10 ** rng.uniform(-7.0, -4.3),
                                           eta_d=10 ** rng.uniform(-3.0, -0.7)),
            misalignment=rng.uniform(0.0, 0.05),
            alice_internal_loss_db=rng.uniform(0.0, 12.0))
        points.append((PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=overlap),
                       det, ch))
    return points


class TestY0Bounds:
    def test_no_errors_forces_zero(self, reference_dists):
        obs = ObservedStatistics(q_c=1e-6, e_c=0.0, q_nc=1e-4, e_nc=0.0)
        report = key_rate(reference_dists, obs, KeyRateParams())
        assert report.y0_upper == 0.0
        assert report.y0_lower == 0.0

    def test_lower_clamped_into_upper(self, reference_dists, reference_obs):
        report = key_rate(reference_dists, reference_obs, KeyRateParams())
        assert 0.0 <= report.y0_lower <= report.y0_upper
        assert report.diagnostics["y0_upper_branch"] in ("c", "nc")

    def test_degenerate_source_raises(self, reference_obs):
        factorized = PulsePairParams(mu1=0.64, mu2=0.08, t=0.5, overlap=0.0)
        dists = branch_distributions(factorized, ThresholdDetector(1.2e-5, 0.10))
        with pytest.raises(DegenerateSourceError):
            key_rate(dists, reference_obs, KeyRateParams())

    def test_sound_on_synthetic_channels(self):
        for params, det, ch in synthetic_sweep_points(100):
            dists = branch_distributions(params, det)
            pred = predicted_statistics(dists, ch)
            report = key_rate(dists, pred, KeyRateParams())
            y0, _, _ = channel_truth(ch)
            assert report.y0_lower <= y0 * (1 + 1e-9) + 1e-15
            assert report.y0_upper >= y0 * (1 - 1e-9) - 1e-15


class TestSinglePhotonBound:
    def test_degenerate_elimination_raises(self, reference_obs):
        # Heads whose background denominator is about 0.01 but whose
        # single-photon one is 0.2 * 0.1 - 0.1 * 0.2 = 0.
        pc, pnc = np.array([0.1, 0.1, 0.1]), np.array([0.2, 0.1, 0.1])
        dists = BranchDistributions(n_max=2, p_click=pc, p_noclick=pnc,
                                    p_total=pc + pnc, tail_mass=0.0)
        message = r"^single-photon-yield denominator 0\.000e\+00 is below 1e-15;"
        with pytest.raises(DegenerateSourceError, match=message):
            key_rate(dists, reference_obs)
        stats = [np.array([getattr(reference_obs, name)])
                 for name in ("q_c", "e_c", "q_nc", "e_nc")]
        with pytest.raises(DegenerateSourceError, match=message):
            key_rate_rows(dists, *stats)
        heads = [p[:3, None] for p in (pc, pnc, pc + pnc)]
        _, _, invalid, degenerate = source_rate_rows(heads, *stats)
        assert (invalid.tolist(), degenerate.tolist()) == ([False], [True])

    def test_undefined_e1_is_invalid(self):
        # Y0_upper overflows to inf through a subnormal e0 and the vacuum
        # coefficient is 0, so Y1 and e1 are nan; binary_entropy rejects it.
        pc, pnc = np.array([0.5, 0.2, 0.05]), np.array([0.5, 0.1, 0.05])
        dists = BranchDistributions(n_max=2, p_click=pc, p_noclick=pnc,
                                    p_total=pc + pnc, tail_mass=0.0)
        obs = ObservedStatistics(q_c=0.01, e_c=0.5, q_nc=0.02, e_nc=0.5)
        params = KeyRateParams(e0=1e-311)
        with pytest.raises(ParameterError, match=r"\(got nan\)$"):
            key_rate(dists, obs, params)
        stats = [np.array([getattr(obs, name)]) for name in ("q_c", "e_c", "q_nc", "e_nc")]
        _, _, invalid, degenerate = source_rate_rows(
            [p[:3, None] for p in (pc, pnc, pc + pnc)], *stats, params)
        assert (invalid.tolist(), degenerate.tolist()) == ([True], [False])

    def test_zero_gains_clamp_to_zero(self, reference_dists):
        report = key_rate(reference_dists, ObservedStatistics(0.0, 0.0, 0.0, 0.0))
        assert report.y0_upper == 0.0
        assert report.combined_lower_c == 0.0
        assert report.combined_lower_nc == 0.0

    def test_sound_on_synthetic_channels(self):
        for params, det, ch in synthetic_sweep_points(100, seed=777001):
            dists = branch_distributions(params, det)
            pred = predicted_statistics(dists, ch)
            report = key_rate(dists, pred, KeyRateParams())
            y0, y1, _ = channel_truth(ch)
            for bound, arr in ((report.combined_lower_c, dists.p_click),
                               (report.combined_lower_nc, dists.p_noclick)):
                truth = arr[1] * y1 + arr[0] * y0
                assert bound <= truth * (1 + 1e-9) + 1e-15


class TestE1Upper:
    def test_no_errors_gives_zero(self, reference_dists):
        # The reference gains certify a single-photon yield; without errors
        # every e1 clause is zero.
        obs = ObservedStatistics(q_c=2.54e-6, e_c=0.0, q_nc=8.18e-5, e_nc=0.0)
        report = key_rate(reference_dists, obs, KeyRateParams())
        assert report.y1_lower > 0.0
        assert report.e1_upper == 0.0

    def test_sound_on_synthetic_channels(self):
        skipped = 0
        for params, det, ch in synthetic_sweep_points(100, seed=424242):
            dists = branch_distributions(params, det)
            pred = predicted_statistics(dists, ch)
            report = key_rate(dists, pred, KeyRateParams())
            if report.e1_upper is None:
                assert report.y1_lower == 0.0
                skipped += 1
                continue
            _, _, e1 = channel_truth(ch)
            assert report.e1_upper >= e1 * (1 - 1e-9) - 1e-15
        assert skipped < 100


class TestKeyRate:
    def test_reference_reproduces_published_rate(self, reference_dists, reference_obs):
        report = key_rate(reference_dists, reference_obs, KeyRateParams())
        assert report.r_total == pytest.approx(REFERENCE_RATE, rel=0.10)
        # The emitted-pulse figure carries the explicit protocol-efficiency factor.
        assert report.diagnostics["r_total_emitted"] == pytest.approx(
            0.5 * report.r_total, rel=1e-12)

    def test_no_detections_gives_zero_rate(self, reference_dists):
        report = key_rate(reference_dists, ObservedStatistics(0.0, 0.0, 0.0, 0.0))
        assert report.r_total == 0.0
        assert report.diagnostics["no_single_photon_yield"] is True
        assert report.e1_upper is None

    def test_clean_channel_has_positive_rate_and_zero_e1(self, reference_dists):
        pred = predicted_statistics(reference_dists, lossless_channel())
        report = key_rate(reference_dists, pred)
        assert report.r_total > 0.0
        assert report.e1_upper == 0.0

    def test_branch_clamping_structure(self, reference_dists, reference_obs):
        report = key_rate(reference_dists, reference_obs)
        assert report.r_total == pytest.approx(
            max(report.r_c, 0.0) + max(report.r_nc, 0.0), abs=1e-18)
        assert report.r_total >= 0.0

    def test_common_error_increase_never_raises_rate(self, reference_dists):
        pred = predicted_statistics(reference_dists, lossless_channel())
        base = pred
        previous = key_rate(reference_dists, base).r_total
        for delta in (1e-4, 1e-3, 5e-3, 0.02, 0.05, 0.1):
            bumped = ObservedStatistics(
                q_c=base.q_c, e_c=min(base.e_c + delta, 1.0),
                q_nc=base.q_nc, e_nc=min(base.e_nc + delta, 1.0))
            rate = key_rate(reference_dists, bumped).r_total
            assert rate <= previous + 1e-15
            previous = rate

    def test_entropy_clamp_flag(self, reference_dists):
        # Misalignment high enough that the certified single-photon error
        # bound exceeds one half, but not so high that the yield bound dies.
        ch = ChannelModel(fiber_length_km=10.0,
                          bob_detector=ThresholdDetector(2e-6, 0.003),
                          misalignment=0.125, alice_internal_loss_db=9.0)
        report = key_rate(reference_dists, predicted_statistics(reference_dists, ch))
        assert report.e1_upper is not None and report.e1_upper >= 0.5
        assert report.diagnostics["entropy_clamped"] is True
        assert report.diagnostics["privacy_factor"] == 0.0
        assert report.r_total == 0.0

    def test_active_clause_recorded(self, reference_dists, reference_obs):
        report = key_rate(reference_dists, reference_obs)
        assert report.diagnostics["e1_active_clause"] in (1, 2, 3)
        raw = report.diagnostics["e1_raw_clauses"]
        assert len(raw) == 3
        assert report.e1_upper == pytest.approx(max(min(raw), 0.0), abs=1e-18)
