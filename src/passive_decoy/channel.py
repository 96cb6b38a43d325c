"""Analytic forward model of the link and its inversion: ``ChannelModel``
gives the yield and error mass of each photon number of the kept mode,
``predicted_statistics`` sums them over the source's branches, and
``fit_channel_to_observed`` fits a channel to the no-click branch.
``simulate`` samples the same physics pulse by pulse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import ObservedStatistics
from .errors import ParameterError
from .statistics import BranchDistributions, ThresholdDetector

BACKGROUND_ERROR_RATE = 0.5


@dataclass(frozen=True, slots=True)
class ChannelModel:
    """Everything between the source's kept mode and the receiver's bits.

    Args:
        fiber_length_km: channel length in km (>= 0).
        bob_detector: per-detector dark probability and efficiency of the
            receiver pair (both detectors identical).
        misalignment: probability an arriving photon is routed to the wrong
            detector, in [0, 0.5].
        alice_internal_loss_db: sender-side optical loss after the source
            splitter, in dB (>= 0).
        fiber_loss_db_per_km: attenuation coefficient (>= 0).
    """

    fiber_length_km: float
    bob_detector: ThresholdDetector
    misalignment: float = 0.0
    alice_internal_loss_db: float = 9.0
    fiber_loss_db_per_km: float = 0.2

    def __post_init__(self) -> None:
        for name in ("fiber_length_km", "alice_internal_loss_db", "fiber_loss_db_per_km"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0 (got {value})")
        if not 0.0 <= self.misalignment <= 0.5:
            raise ParameterError(
                f"misalignment must be within [0, 0.5] (got {self.misalignment})")

    @property
    def path_transmission(self) -> float:
        """Optical transmission excluding detector efficiency."""
        return self._path_transmission_at(self.fiber_length_km)

    def _path_transmission_at(self, fiber_length_km: float) -> float:
        db = self.alice_internal_loss_db + fiber_length_km * self.fiber_loss_db_per_km
        return 10.0 ** (-db / 10.0)

    @property
    def transmission(self) -> float:
        """End-to-end per-photon detection probability."""
        return self.path_transmission * self.bob_detector.eta_d

    @property
    def background_yield(self) -> float:
        """Probability at least one receiver detector dark-fires in a gate."""
        eps = self.bob_detector.epsilon
        return 1.0 - (1.0 - eps) ** 2

    def yields(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Yield ``Y_n`` and error mass ``e_n * Y_n`` for n = 0..n_max.

        These are the true values the decoy bounds estimate: ``Y0`` is
        ``background_yield``, ``Y1`` is ``yields[1]`` and ``e1`` is
        ``err_mass[1] / yields[1]``.
        """
        return _yield_expansion(self.background_yield, self.transmission,
                                self.misalignment, n_max)


def _yield_expansion(y0: float, transmission, misalignment: float,
                     n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``ChannelModel.yields`` for a transmission, or for a column of them
    (one row each)."""
    n = np.arange(n_max + 1)
    yields = 1.0 - (1.0 - y0) * (1.0 - transmission) ** n
    err_mass = BACKGROUND_ERROR_RATE * y0 + misalignment * (yields - y0)
    return yields, err_mass


@functools.lru_cache(maxsize=16)
def _channel_yields(ch: ChannelModel, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``ch.yields(n_max)``, read-only and kept: a search has one channel."""
    arrays = ch.yields(n_max)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def predicted_statistics(dists: BranchDistributions,
                         ch: ChannelModel) -> ObservedStatistics:
    """Expected per-branch gains and error rates over the channel model.

    The per-branch gain is the yield expansion summed against the branch's
    (unnormalized) photon-number array, so it carries the branch probability
    weight just like the ingested experimental quantities.
    """
    yields, err_mass = _channel_yields(ch, dists.n_max)
    q_c = float(np.dot(dists.p_click, yields))
    q_nc = float(np.dot(dists.p_noclick, yields))
    em_c = float(np.dot(dists.p_click, err_mass))
    em_nc = float(np.dot(dists.p_noclick, err_mass))
    e_c = em_c / q_c if q_c > 0.0 else 0.0
    e_nc = em_nc / q_nc if q_nc > 0.0 else 0.0
    return ObservedStatistics(q_c=q_c, e_c=e_c, q_nc=q_nc, e_nc=e_nc)


def _row_dots(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``np.dot(p, row)`` for each row, with its bits.

    A (1 x n) @ (n x 1) product goes through the routine np.dot uses for two
    vectors; a 2-d @ (gemv), einsum or ``(rows * p).sum(-1)`` sums in
    another order and differs in the last bit on about half the rows.
    """
    return (rows[:, None, :] @ p[:, None])[:, 0, 0]


def predicted_statistics_over_lengths(dists: BranchDistributions,
                                      ch: ChannelModel, lengths: Sequence[float]
                                      ) -> tuple[tuple[np.ndarray, ...], int]:
    """``predicted_statistics`` of ``ch`` at each fiber length, as arrays.

    Returns ``(q_c, e_c, q_nc, e_nc)``, whose entry ``i`` has the bits of
    ``predicted_statistics(dists, replace(ch, fiber_length_km=lengths[i]))``,
    and the number of leading lengths that ``ChannelModel`` accepts and whose
    statistics pass the ``ObservedStatistics`` range checks.  Entries from
    the first length that fails are not meaningful.
    """
    # ChannelModel.transmission in Python floats: numpy's power can round
    # differently.
    path_at, eta = ch._path_transmission_at, ch.bob_detector.eta_d
    trans = np.array([path_at(length) * eta for length in lengths])
    yields, err_mass = _yield_expansion(ch.background_yield, trans[:, None],
                                        ch.misalignment, dists.n_max)
    pc, pnc = dists.p_click, dists.p_noclick
    q_c, q_nc = _row_dots(yields, pc), _row_dots(yields, pnc)
    em_c, em_nc = _row_dots(err_mass, pc), _row_dots(err_mass, pnc)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_c = np.where(q_c > 0.0, em_c / q_c, 0.0)
        e_nc = np.where(q_nc > 0.0, em_nc / q_nc, 0.0)
    km = np.asarray(lengths, dtype=float)
    valid = (0.0 <= km) & (km < math.inf)
    for value in (q_c, e_c, q_nc, e_nc):
        valid &= (0.0 <= value) & (value <= 1.0)
    return (q_c, e_c, q_nc, e_nc), valid.size if valid.all() else int(valid.argmin())


def fit_channel_to_observed(dists: BranchDistributions, obs: ObservedStatistics,
                            *, fiber_length_km: float = 10.0,
                            alice_internal_loss_db: float = 9.0,
                            fiber_loss_db_per_km: float = 0.2,
                            bob_dark_per_detector: float = 2.0e-6) -> ChannelModel:
    """Invert the no-click branch observables into a channel model.

    With the per-detector dark probability pinned, the receiver efficiency is
    bisected to the last ulp so the predicted no-click gain matches
    ``obs.q_nc`` (the gain rises monotonically with efficiency) and the
    misalignment follows in closed form from ``obs.e_nc``.  The click-branch
    observables are deliberately left out: how well they are then predicted
    measures the consistency of the whole source-plus-channel description.
    """
    n = np.arange(dists.n_max + 1)
    p_nc = dists.p_noclick
    s_nc = float(p_nc.sum())
    y0 = 1.0 - (1.0 - bob_dark_per_detector) ** 2
    floor = s_nc * y0

    if obs.q_nc <= floor:
        raise ParameterError(
            f"observed no-click gain {obs.q_nc:.3e} is below the background "
            f"floor {floor:.3e}; lower bob_dark_per_detector")

    def gain_mismatch(eta_b: float) -> float:
        eta = 10.0 ** (-(alice_internal_loss_db
                         + fiber_length_km * fiber_loss_db_per_km) / 10.0) * eta_b
        q = s_nc - (1.0 - y0) * float(np.dot(p_nc, (1.0 - eta) ** n))
        return q - obs.q_nc

    lo, hi = 0.0, 1.0
    f_lo, f_hi = gain_mismatch(lo), gain_mismatch(hi)
    if f_hi < 0.0:
        raise ParameterError("observed no-click gain is unreachably large "
                             "for the given path loss")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = gain_mismatch(mid)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    eta_b = lo if abs(f_lo) < abs(f_hi) else hi

    err_mass = obs.e_nc * obs.q_nc
    misalignment = ((err_mass - BACKGROUND_ERROR_RATE * y0 * s_nc)
                    / (obs.q_nc - y0 * s_nc))
    if not 0.0 <= misalignment <= 0.5:
        raise ParameterError(
            f"fitted misalignment {misalignment:.4f} outside [0, 0.5]; "
            "the pinned dark probability is inconsistent with the error rate")
    return ChannelModel(
        fiber_length_km=fiber_length_km,
        bob_detector=ThresholdDetector(epsilon=bob_dark_per_detector, eta_d=eta_b),
        misalignment=misalignment,
        alice_internal_loss_db=alice_internal_loss_db,
        fiber_loss_db_per_km=fiber_loss_db_per_km)
