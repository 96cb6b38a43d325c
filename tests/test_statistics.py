import math

import numpy as np
import pytest

from passive_decoy import (ParameterError, PulsePairParams, ThresholdDetector,
                           TruncationError, branch_distributions, branch_mean,
                           g2)
from passive_decoy.statistics import theta_nodes

from conftest import REFERENCE_SOURCE, poisson_vector
from reference_kernels import _poisson_pmf_matrix, joint_probability_matrix


def trapezoid_joint_oracle(mu1, mu2, t, n, m, nodes=1_000_000, overlap=1.0):
    """Independent brute-force quadrature: composite trapezoid, closed form
    factorials, endpoint-inclusive grid (nothing shared with the package)."""
    nu = mu1 + mu2
    xi = 2.0 * overlap * math.sqrt(mu1 * mu2 * t * (1 - t))
    th = np.linspace(0.0, 2.0 * np.pi, nodes + 1)
    gam = (mu1 * t + mu2 * (1 - t) + xi * np.cos(th)) / nu
    pref = nu ** (n + m) * math.exp(-nu) / (2 * math.pi * math.factorial(n) * math.factorial(m))
    return float(np.trapezoid(pref * gam**n * (1 - gam)**m, th))


class TestPulsePairParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            PulsePairParams(mu1=-0.1, mu2=0.1, t=0.5)
        with pytest.raises(ParameterError):
            PulsePairParams(mu1=0.1, mu2=-1e-9, t=0.5)
        with pytest.raises(ParameterError):
            PulsePairParams(mu1=0.1, mu2=0.1, t=1.5)
        with pytest.raises(ParameterError):
            PulsePairParams(mu1=0.1, mu2=0.1, t=0.5, overlap=1.01)

    def test_derived_quantities(self):
        p = PulsePairParams(**REFERENCE_SOURCE)
        assert p.nu == pytest.approx(0.72)
        assert p.xi == pytest.approx(2 * math.sqrt(0.64 * 0.08 * 0.25))
        assert p.mean_mode_a == pytest.approx(0.36)

    def test_overlap_scales_interference(self):
        full = PulsePairParams(**REFERENCE_SOURCE)
        half = PulsePairParams(overlap=0.5, **REFERENCE_SOURCE)
        assert half.xi == pytest.approx(0.5 * full.xi)

    @pytest.mark.parametrize("mu1,mu2,t,overlap", [
        (0.64, 0.08, 0.5, 1.0), (1.3, 0.7, 0.17, 1.0), (0.01, 1.9, 0.93, 0.6),
        (0.5, 0.5, 0.5, 1.0), (2.0, 0.0, 0.4, 1.0),
    ])
    def test_gamma_within_unit_interval(self, mu1, mu2, t, overlap):
        p = PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=overlap)
        th = np.linspace(-10, 10, 4001)
        gam = p.gamma(th)
        assert np.all(gam >= -1e-15) and np.all(gam <= 1 + 1e-15)

    def test_gamma_periodic_and_even(self):
        p = PulsePairParams(**REFERENCE_SOURCE)
        th = np.linspace(0, 2 * np.pi, 97)
        assert p.gamma(th) == pytest.approx(p.gamma(-th), abs=1e-15)
        assert p.gamma(th) == pytest.approx(p.gamma(th + 2 * np.pi), abs=1e-12)

    def test_vacuum_has_no_kernel(self):
        with pytest.raises(ParameterError):
            PulsePairParams(mu1=0.0, mu2=0.0, t=0.5).gamma(0.0)


class TestThresholdDetector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            ThresholdDetector(epsilon=-0.1, eta_d=0.5)
        with pytest.raises(ParameterError):
            ThresholdDetector(epsilon=0.0, eta_d=1.2)


def joint_probability(params, n, m):
    return joint_probability_matrix(params, n, m)[n, m]


class TestJointProbability:
    def test_vacuum_source(self):
        p = PulsePairParams(mu1=0.0, mu2=0.0, t=0.5)
        assert joint_probability(p, 0, 0) == 1.0
        assert joint_probability(p, 1, 0) == 0.0
        assert joint_probability(p, 0, 2) == 0.0

    def test_single_laser_is_poisson_product(self):
        # One laser only: no interference, independent Poisson outputs.
        p = PulsePairParams(mu1=0.64, mu2=0.0, t=0.5)
        assert joint_probability(p, 0, 0) == pytest.approx(math.exp(-0.64), abs=1e-12)
        for n, m in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 4)]:
            expect = (math.exp(-0.32) * 0.32**n / math.factorial(n)
                      * math.exp(-0.32) * 0.32**m / math.factorial(m))
            assert joint_probability(p, n, m) == pytest.approx(expect, abs=1e-12)

    # Frozen from the trapezoid oracle below at 1e6 intervals.
    ORACLE_REFERENCE = {
        (0, 0): 0.48675225595997285,
        (1, 0): 0.17523081214558986,
        (1, 1): 0.050622234619837066,
        (2, 3): 0.00016272634139088052,
    }

    @pytest.mark.parametrize("n,m", sorted(ORACLE_REFERENCE))
    def test_against_brute_force_quadrature(self, n, m):
        p = PulsePairParams(**REFERENCE_SOURCE)
        oracle = trapezoid_joint_oracle(p.mu1, p.mu2, p.t, n, m)
        assert oracle == pytest.approx(self.ORACLE_REFERENCE[(n, m)], abs=1e-12)
        assert joint_probability(p, n, m) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_beyond_cap(self):
        p = PulsePairParams(**REFERENCE_SOURCE)
        with pytest.raises(ParameterError):
            joint_probability_matrix(p, 61, 0)
        with pytest.raises(ParameterError):
            joint_probability_matrix(p, 0, 61)
        with pytest.raises(ParameterError):
            joint_probability_matrix(p, -1, 0)

    def test_normalization_to_cap(self):
        # nu <= 2: everything beyond the cap is dust.
        for src in [(1.2, 0.8, 0.3), (0.64, 0.08, 0.5), (1.9, 0.1, 0.5)]:
            p = PulsePairParams(mu1=src[0], mu2=src[1], t=src[2])
            total = joint_probability_matrix(p, 60, 60).sum()
            assert total >= 1 - 1e-10

    @pytest.mark.parametrize("mu1,mu2,t", [
        (0.64, 0.08, 0.5), (1.1, 0.3, 0.25), (0.2, 0.7, 0.9),
    ])
    def test_swap_symmetry(self, mu1, mu2, t):
        a = PulsePairParams(mu1=mu1, mu2=mu2, t=t)
        b = PulsePairParams(mu1=mu2, mu2=mu1, t=1 - t)
        ma = joint_probability_matrix(a, 12, 12)
        mb = joint_probability_matrix(b, 12, 12)
        assert np.max(np.abs(ma - mb)) < 1e-12

    @pytest.mark.parametrize("kind", ["mu2_zero", "overlap_zero", "t_zero"])
    def test_poisson_reduction(self, kind):
        if kind == "mu2_zero":
            p = PulsePairParams(mu1=0.64, mu2=0.0, t=0.5)
        elif kind == "overlap_zero":
            p = PulsePairParams(mu1=0.64, mu2=0.08, t=0.5, overlap=0.0)
        else:
            p = PulsePairParams(mu1=0.64, mu2=0.08, t=0.0)
        assert p.xi == 0.0
        gamma0 = p.mean_mode_a / p.nu
        la, lb = p.nu * gamma0, p.nu * (1 - gamma0)
        got = joint_probability_matrix(p, 15, 15)
        n = np.arange(16)
        pa = np.exp(-la) * la**n / [math.factorial(k) for k in n]
        pb = np.exp(-lb) * lb**n / [math.factorial(k) for k in n]
        assert np.max(np.abs(got - np.outer(pa, pb))) < 1e-10


class TestBranchDistributions:
    def test_branch_identity_and_positivity(self, reference_dists):
        d = reference_dists
        assert np.all(d.p_click >= 0)
        assert np.all(d.p_noclick >= 0)
        assert np.max(np.abs(d.p_click + d.p_noclick - d.p_total)) < 1e-12
        assert d.p_total.sum() <= 1 + 1e-12
        assert d.tail_mass < 1e-12

    def test_blind_detector_never_clicks(self, reference_params):
        d = branch_distributions(reference_params, ThresholdDetector(0.0, 0.0))
        assert np.all(d.p_click == 0)
        assert d.p_noclick == pytest.approx(d.p_total, abs=1e-15)

    def test_certain_dark_count_always_clicks(self, reference_params):
        d = branch_distributions(reference_params, ThresholdDetector(1.0, 0.3))
        assert np.all(d.p_noclick == 0)
        assert d.p_click == pytest.approx(d.p_total, abs=1e-15)

    def test_quadrature_doubling_is_converged(self, reference_params, reference_detector):
        base = branch_distributions(reference_params, reference_detector, nodes=256)
        fine = branch_distributions(reference_params, reference_detector, nodes=512)
        assert np.max(np.abs(base.p_total - fine.p_total)) < 1e-12
        assert np.max(np.abs(base.p_click - fine.p_click)) < 1e-12

    def test_tail_tolerance_enforced(self):
        p = PulsePairParams(mu1=1.5, mu2=0.4, t=0.5)
        with pytest.raises(TruncationError):
            branch_distributions(p, ThresholdDetector(0.0, 0.1), n_max=2)

    def test_n_max_bounds(self, reference_params, reference_detector):
        with pytest.raises(ParameterError):
            branch_distributions(reference_params, reference_detector, n_max=1)
        with pytest.raises(ParameterError):
            branch_distributions(reference_params, reference_detector, n_max=61)

    @pytest.mark.parametrize("kwargs,field,vacuum", [
        ({"n_max": 20.5}, "n_max", False),
        ({"n_max": "20"}, "n_max", False),
        ({"nodes": 256.5}, "nodes", False),
        ({"nodes": "256"}, "nodes", False),
        ({"nodes": 256.5}, "nodes", True),
    ], ids=["n_max_float", "n_max_string", "nodes_float", "nodes_string",
            "nodes_float_vacuum"])
    def test_rejects_non_integer_count(self, reference_params, reference_detector,
                                       kwargs, field, vacuum):
        # A vacuum source (mu1 = mu2 = 0) takes no phase integral, but its
        # node count is checked all the same.
        params = PulsePairParams(0.0, 0.0, 0.5) if vacuum else reference_params
        with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
            branch_distributions(params, reference_detector, **kwargs)

    def test_vacuum_source(self):
        d = branch_distributions(PulsePairParams(0.0, 0.0, 0.5),
                                 ThresholdDetector(0.01, 0.4))
        assert d.p_total[0] == 1.0 and np.all(d.p_total[1:] == 0)
        assert d.p_click[0] == pytest.approx(0.01, abs=1e-15)

    def test_matches_pulse_sampling_oracle(self, reference_params, reference_detector):
        # Sample the physics directly: uniform phase, Poisson photon pair,
        # Bernoulli threshold response; compare per-bin joint frequencies.
        d = branch_distributions(reference_params, reference_detector)
        rng = np.random.default_rng(987654321)
        n_samples = 10_000_000
        gam = reference_params.gamma(rng.uniform(0, 2 * np.pi, n_samples))
        n_a = rng.poisson(reference_params.nu * gam)
        m_b = rng.poisson(reference_params.nu * (1 - gam))
        p_click = 1 - (1 - reference_detector.epsilon) * (1 - reference_detector.eta_d) ** m_b
        clicked = rng.random(n_samples) < p_click
        for n in range(11):
            in_bin = n_a == n
            for label, mask, branch in (("c", in_bin & clicked, d.p_click),
                                        ("nc", in_bin & ~clicked, d.p_noclick)):
                p_hat = np.count_nonzero(mask) / n_samples
                p_ref = branch[n]
                se = math.sqrt(max(p_ref * (1 - p_ref), 1e-300) / n_samples)
                assert abs(p_hat - p_ref) < 4 * se + 1e-12, (n, label)


class TestMomentFunctions:
    def test_g2_poisson_is_one(self):
        for mu in (0.5, 1.0, 2.0):
            assert g2(poisson_vector(mu)) == pytest.approx(1.0, abs=1e-9)
        # Small means renormalize by a tiny squared mean, so the truncation
        # bias is amplified; a tighter tail restores the target accuracy.
        assert g2(poisson_vector(0.05, tail=1e-15)) == pytest.approx(1.0, abs=1e-9)

    def test_g2_single_photon_is_zero(self):
        assert g2([0.0, 1.0]) == 0.0

    def test_g2_conditional_branches(self, reference_dists):
        assert g2(reference_dists.p_click) == pytest.approx(1.24, abs=0.01)
        assert g2(reference_dists.p_noclick) == pytest.approx(1.19, abs=0.01)

    def test_g2_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            g2([1.0])                       # vacuum: zero mean
        with pytest.raises(ParameterError):
            g2([0.0, -0.1, 0.5])
        with pytest.raises(ParameterError):
            g2(np.zeros(4))
        with pytest.raises(ParameterError, match="^distribution must be a "
                           "non-empty 1-d array$"):
            g2(np.full((2, 3), 0.5))

    def test_branch_mean_poisson(self):
        assert branch_mean(poisson_vector(0.5)) == pytest.approx(0.5, abs=1e-9)

    def test_branch_mean_two_point(self):
        assert branch_mean([0.5, 0.0, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_branch_mean_total_matches_moment_identity(self, reference_dists):
        # Phase-averaged first moment collapses to mu1*t + mu2*(1-t).
        assert branch_mean(reference_dists.p_total) == pytest.approx(0.36, abs=1e-9)


@pytest.mark.parametrize("lam", [1e-3, 0.08, 0.72, 1.28, 6.0, 30.0])
def test_poisson_pmf_matches_scipy_oracle(lam):
    from scipy.stats import poisson

    got = _poisson_pmf_matrix(np.array([lam]), 60)[:, 0]
    want = poisson.pmf(np.arange(61), lam)
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


def test_theta_nodes_midpoint_layout():
    nodes = theta_nodes(8)
    assert nodes[0] == pytest.approx(np.pi / 8)
    assert np.all(np.diff(nodes) == pytest.approx(np.pi / 4))
    with pytest.raises(ParameterError):
        theta_nodes(2)


def test_theta_nodes_upper_bound(reference_params, reference_detector):
    with pytest.raises(ParameterError, match=r"must be <= 65536 \(got 65537\)"):
        theta_nodes(65537)
    with pytest.raises(ParameterError, match=r"must be <= 65536 \(got 65537\)"):
        branch_distributions(reference_params, reference_detector, nodes=65537)
