import os

import numpy as np
import pytest

from passive_decoy import (ObservedStatistics, PulsePairParams,
                           ThresholdDetector, branch_distributions,
                           fit_channel_to_observed)

# Headline operating point used throughout: the published source intensities,
# splitter, monitor detector, and observed statistics.
REFERENCE_SOURCE = dict(mu1=0.64, mu2=0.08, t=0.5)
REFERENCE_DETECTOR = dict(epsilon=1.2e-5, eta_d=0.10)
REFERENCE_OBSERVED = dict(q_c=2.54e-6, e_c=0.0613, q_nc=8.18e-5, e_nc=0.0555)
REFERENCE_RATE = 1.50e-5
# Gains so small, on the reference source, that the certified single-photon
# yield is subnormal and its products with the e1 clauses' coefficients
# underflow to zero.
UNDERFLOW_OBSERVED = dict(q_c=6.784e-321, e_c=0.20216467322520487,
                          q_nc=2.3526e-319, e_nc=0.10002609181006616)

# A split optimize level, simulate run or ingest forks while numpy's BLAS
# threads run, which Python 3.12 and later warn about.
forks = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture(scope="session")
def reference_params():
    return PulsePairParams(**REFERENCE_SOURCE)


@pytest.fixture(scope="session")
def reference_detector():
    return ThresholdDetector(**REFERENCE_DETECTOR)


@pytest.fixture(scope="session")
def reference_dists(reference_params, reference_detector):
    return branch_distributions(reference_params, reference_detector)


@pytest.fixture(scope="session")
def reference_obs():
    return ObservedStatistics(**REFERENCE_OBSERVED)


@pytest.fixture(scope="session")
def fitted_channel(reference_dists, reference_obs):
    """Channel inverted from the no-click observables at 10 km."""
    return fit_channel_to_observed(reference_dists, reference_obs)


def channel_truth(ch):
    """The true (Y0, Y1, e1) of a channel: the values the decoy bounds estimate."""
    yields, err_mass = ch.yields(1)
    return ch.background_yield, yields[1], err_mass[1] / yields[1]


def poisson_vector(mu: float, tail: float = 1e-12, cap: int = 400) -> np.ndarray:
    """Truncated Poisson pmf used as a reference distribution in tests."""
    from scipy.stats import poisson

    n_max = 2
    while poisson.sf(n_max, mu) > tail and n_max < cap:
        n_max += 1
    return poisson.pmf(np.arange(n_max + 1), mu)
