"""Photon-number statistics of a passively switched two-laser decoy source.

Two phase-randomized weak coherent pulses with mean photon numbers ``mu1``
and ``mu2`` interfere on a beam splitter of transmittance ``t``.  At a fixed
relative phase ``theta`` the two output modes carry independent Poissonian
photon numbers with means ``nu * gamma(theta)`` and ``nu * (1 - gamma(theta))``,
where ``nu = mu1 + mu2``; averaging over the uniform phase yields a
correlated, super-Poissonian joint distribution of the two modes.

A threshold detector monitoring the second output splits the emitted pulses
into a "click" and a "no-click" branch whose conditional photon-number
distributions differ, which is what makes the source usable for decoy-state
estimation.  An ``overlap`` factor in [0, 1] scales the interference
amplitude to model partially distinguishable pulses; ``overlap = 0``
factorizes the joint distribution, ``overlap = 1`` is perfect mode overlap.

All phase integrals use the composite midpoint rule, which converges
spectrally for these smooth periodic integrands; all factorials are taken in
log space so photon numbers up to the hard cap of 60 stay finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TruncationError, excerpt

PHOTON_NUMBER_CAP = 60
DEFAULT_N_MAX = 20
DEFAULT_THETA_NODES = 256
# A quadrature holds two arrays of (n_max + 1) * nodes floats: at the
# photon-number cap, 65536 nodes take 64 MB, and their kept cosines 0.5 MB.
MAX_THETA_NODES = 65536
DEFAULT_TAIL_TOL = 1e-12

# log(n!) for every photon number up to the cap, correctly rounded.
_LOG_FACTORIAL = np.array([math.log(math.factorial(k))
                           for k in range(PHOTON_NUMBER_CAP + 1)])
_PHOTON_NUMBERS = np.arange(PHOTON_NUMBER_CAP + 1, dtype=float)


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be within [0, 1] (got {value})")


def _check_nonnegative(name: str, value: float) -> None:
    if not value >= 0.0:
        raise ParameterError(f"{name} must be >= 0 (got {value})")


@dataclass(frozen=True, slots=True)
class PulsePairParams:
    """Source-side physics of one pulse pair.

    Args:
        mu1: mean photon number of the first laser (>= 0).
        mu2: mean photon number of the second laser (>= 0).
        t: beam-splitter transmittance, in [0, 1].
        overlap: interference mode-overlap factor, in [0, 1]; 1 means
            perfectly indistinguishable pulses.
    """

    mu1: float
    mu2: float
    t: float
    overlap: float = 1.0

    def __post_init__(self) -> None:
        _check_nonnegative("mu1", self.mu1)
        _check_nonnegative("mu2", self.mu2)
        _check_unit_interval("t", self.t)
        _check_unit_interval("overlap", self.overlap)
        # AM-GM bounds xi by nu for in-range inputs unless mu1 * mu2 overflows.
        if not self.xi <= self.nu + 1e-15:
            raise ParameterError(f"mu1 * mu2 is not representable as a float "
                                 f"(got mu1={self.mu1}, mu2={self.mu2})")

    @property
    def nu(self) -> float:
        """Total mean photon number of the pair."""
        return self.mu1 + self.mu2

    @property
    def xi(self) -> float:
        """Interference amplitude, already scaled by the mode overlap."""
        return 2.0 * self.overlap * math.sqrt(self.mu1 * self.mu2 * self.t * (1.0 - self.t))

    @property
    def mean_mode_a(self) -> float:
        """Phase-averaged mean photon number of the kept output mode."""
        return self.mu1 * self.t + self.mu2 * (1.0 - self.t)

    def gamma(self, theta):
        """Fraction of the total intensity exiting into the kept mode.

        A function of the relative phase ``theta``: 2*pi periodic, even, and
        always within [0, 1].
        """
        if self.nu <= 0.0:
            raise ParameterError("vacuum source has no interference kernel")
        return (self.mean_mode_a + self.xi * np.cos(theta)) / self.nu


@dataclass(frozen=True, slots=True)
class ThresholdDetector:
    """Click/no-click detector with dark counts and finite efficiency.

    Args:
        epsilon: dark count probability per gate, in [0, 1].
        eta_d: detection efficiency, in [0, 1].
    """

    epsilon: float
    eta_d: float

    def __post_init__(self) -> None:
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("eta_d", self.eta_d)


@dataclass(frozen=True)
class BranchDistributions:
    """Truncated photon-number distributions of the kept mode.

    ``p_click[n]`` and ``p_noclick[n]`` are joint probabilities of carrying
    ``n`` photons *and* the monitor detector clicking / staying silent, so each
    array sums to its branch probability and the two sum elementwise to
    ``p_total``.  ``tail_mass`` is the total probability beyond ``n_max``.
    """

    n_max: int
    p_click: np.ndarray
    p_noclick: np.ndarray
    p_total: np.ndarray
    tail_mass: float


def _check_integer(name: str, value: int) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(
            f"{name} must be an integer (got {excerpt(repr(value), str)})")


def theta_nodes(count: int) -> np.ndarray:
    """Midpoint quadrature nodes on [0, 2*pi).

    Callers take the count as ``nodes``, so errors name it that way.
    """
    _check_integer("nodes", count)
    if count < 4:
        raise ParameterError(f"theta node count must be >= 4 (got {excerpt(count)})")
    if count > MAX_THETA_NODES:
        raise ParameterError(
            f"theta node count must be <= {MAX_THETA_NODES} (got {excerpt(count)})")
    return 2.0 * np.pi * (np.arange(count) + 0.5) / count


@functools.lru_cache(maxsize=8)
def _node_cosines(count: int) -> np.ndarray:
    """``np.cos(theta_nodes(count))``, read-only and kept per integer count."""
    cosines = np.cos(theta_nodes(count))
    cosines.flags.writeable = False
    return cosines


def branch_distributions(params: PulsePairParams, det: ThresholdDetector,
                         n_max: int = DEFAULT_N_MAX, *,
                         nodes: int = DEFAULT_THETA_NODES,
                         tail_tol: float = DEFAULT_TAIL_TOL) -> BranchDistributions:
    """Click-conditioned photon-number distributions of the kept mode.

    The sum over the monitored mode's photon number collapses analytically
    (the no-click weight at phase theta is ``(1-epsilon) * exp(-lam_b(theta)
    * eta_d)``), so a single phase quadrature per photon number suffices and
    no second truncation is introduced.

    Raises:
        TruncationError: if the mass beyond ``n_max`` exceeds ``tail_tol``.
    """
    _check_integer("n_max", n_max)
    if not 2 <= n_max <= PHOTON_NUMBER_CAP:
        raise ParameterError(
            f"n_max must be within [2, {PHOTON_NUMBER_CAP}] (got {excerpt(n_max)})")
    _check_integer("nodes", nodes)  # before a float count meets the cache
    if params.nu <= 0.0:
        theta_nodes(nodes)  # no phase integral, but the count is still checked
        p_total = np.zeros(n_max + 1)
        p_total[0] = 1.0
        p_noclick = (1.0 - det.epsilon) * p_total
        p_click = det.epsilon * p_total
    else:
        # params.gamma(theta), lam_a = nu * gamma and lam_b = nu * (1 - gamma),
        # formed in place: IEEE + and * commute.
        lam_a = _node_cosines(nodes) * params.xi
        lam_a += params.mean_mode_a
        lam_a /= params.nu
        lam_b = np.subtract(1.0, lam_a)
        lam_b *= params.nu
        lam_a *= params.nu
        # Poisson pmf of the kept mode for n = 0..n_max at each node, in log
        # space; a rate <= 0 takes log(1), and a zero rate has all its mass at 0.
        positive = lam_a.min() > 0.0
        pmf, weighted = mats = np.empty((2, n_max + 1, nodes))
        np.multiply.outer(_PHOTON_NUMBERS[:n_max + 1], np.log(
            lam_a if positive else np.where(lam_a > 0.0, lam_a, 1.0)), out=pmf)
        pmf -= lam_a
        pmf -= _LOG_FACTORIAL[:n_max + 1, None]
        np.exp(pmf, out=pmf)
        if not positive:
            zero = lam_a == 0.0
            pmf[:, zero] = 0.0
            pmf[0, zero] = 1.0
        # The no-click weight (1 - epsilon) * exp(-lam_b * eta_d); -x*y == x*-y.
        lam_b *= -det.eta_d
        np.exp(lam_b, out=lam_b)
        lam_b *= 1.0 - det.epsilon
        # Phase averages: sum / nodes has the bits of mean(), and summing the
        # contiguous last axis adds each row pairwise as a 1-d sum does.
        sums = np.empty((3, n_max + 1))
        np.multiply(pmf, lam_b, out=weighted)
        mats.sum(axis=2, out=sums[:2])
        np.multiply(pmf, np.subtract(1.0, lam_b, out=lam_b), out=weighted)
        weighted.sum(axis=1, out=sums[2])
        sums /= nodes
        p_total, p_noclick, p_click = sums
    tail = 1.0 - float(p_total.sum())
    if tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} beyond n_max={n_max} exceeds tolerance "
            f"{tail_tol:.1e}; increase n_max for total intensity {params.nu:g}")
    for arr in (p_click, p_noclick, p_total):
        arr.flags.writeable = False
    return BranchDistributions(n_max=n_max, p_click=p_click, p_noclick=p_noclick,
                               p_total=p_total, tail_mass=tail)


def _clean_distribution(dist) -> np.ndarray:
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ParameterError("distribution must be a non-empty 1-d array")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ParameterError("distribution entries must be finite and >= 0")
    total = p.sum()
    if total <= 0.0:
        raise ParameterError("distribution has zero total mass")
    return p / total


def g2(dist) -> float:
    """Second-order intensity correlation of a photon-number distribution.

    Ratio of the second factorial moment to the squared mean of the
    renormalized distribution; 1 for Poissonian light, above 1 for bunched.

    Raises:
        ParameterError: for an empty, negative, or zero-mean (vacuum) input.
    """
    p = _clean_distribution(dist)
    n = np.arange(p.size)
    mean = float(np.dot(n, p))
    if mean <= 0.0:
        raise ParameterError("g2 is undefined for a zero-mean (vacuum) distribution")
    pairs = float(np.dot(n * (n - 1), p))
    return pairs / mean**2


def branch_mean(dist) -> float:
    """Mean photon number of a (possibly unnormalized) distribution."""
    p = _clean_distribution(dist)
    return float(np.dot(np.arange(p.size), p))
