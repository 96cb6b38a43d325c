"""Reference implementations the package is compared against bit for bit.

The two-mode joint distribution is an oracle no package code needs.  The
rest are the element-at-a-time forms of code the package now evaluates in
bulk: the phase-quadrature kernel of ``branch_distributions``, the yield
expansion and ``predicted_statistics`` of one channel, ``key_rate``, the
length-by-length scan and the Monte Carlo chunk sampler.  ``rate_for_point``
scores one optimizer grid point through the first three, with nothing kept
from one point to the next.  They are kept as they were written before the bulk
forms replaced them, so a change in the package's arithmetic shows up as a
mismatch in the last bit.
"""

from dataclasses import replace

import numpy as np

from passive_decoy import (DegenerateSourceError, KeyRateParams, KeyRateReport,
                           ObservedStatistics, ParameterError, PulsePairParams,
                           ScanRow, TruncationError, binary_entropy)
from passive_decoy.bounds import _guard_denominator
from passive_decoy.records import RecordBatch
from passive_decoy.channel import BACKGROUND_ERROR_RATE
from passive_decoy.statistics import (_LOG_FACTORIAL, DEFAULT_N_MAX,
                                      DEFAULT_TAIL_TOL, DEFAULT_THETA_NODES,
                                      PHOTON_NUMBER_CAP, BranchDistributions,
                                      _check_integer, theta_nodes)


def _poisson_pmf_matrix(lam: np.ndarray, n_max: int) -> np.ndarray:
    """Poisson pmf for n = 0..n_max at each rate, shape (n_max+1, len(lam)).

    Evaluated in log space; zero rates are handled exactly.
    """
    n = np.arange(n_max + 1)
    safe = np.where(lam > 0.0, lam, 1.0)
    logs = (n[:, None] * np.log(safe[None, :]) - lam[None, :]
            - _LOG_FACTORIAL[:n_max + 1, None])
    pmf = np.exp(logs)
    zero = lam == 0.0
    if np.any(zero):
        pmf[:, zero] = 0.0
        pmf[0, zero] = 1.0
    return pmf


def _mode_rates(params: PulsePairParams, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    gam = params.gamma(theta_nodes(nodes))
    return params.nu * gam, params.nu * (1.0 - gam)


def _validate_count(name: str, value: int) -> None:
    _check_integer(name, value)
    if value < 0:
        raise ParameterError(f"{name} must be >= 0 (got {value})")
    if value > PHOTON_NUMBER_CAP:
        raise ParameterError(
            f"{name} exceeds the photon-number cap of {PHOTON_NUMBER_CAP} (got {value}); "
            "normalization guarantees do not extend past the cap"
        )


def joint_probability_matrix(params: PulsePairParams, n_max: int, m_max: int, *,
                             nodes: int = DEFAULT_THETA_NODES) -> np.ndarray:
    """All joint probabilities up to (n_max, m_max) in one quadrature pass."""
    _validate_count("n_max", n_max)
    _validate_count("m_max", m_max)
    if params.nu <= 0.0:
        out = np.zeros((n_max + 1, m_max + 1))
        out[0, 0] = 1.0
        return out
    lam_a, lam_b = _mode_rates(params, nodes)
    pmf_a = _poisson_pmf_matrix(lam_a, n_max)
    pmf_b = _poisson_pmf_matrix(lam_b, m_max)
    return np.einsum("nj,mj->nm", pmf_a, pmf_b) / lam_a.size


def branch_distributions(params, det, n_max=DEFAULT_N_MAX, *,
                         nodes=DEFAULT_THETA_NODES, tail_tol=DEFAULT_TAIL_TOL):
    """``passive_decoy.branch_distributions`` with its original kernel."""
    _check_integer("n_max", n_max)
    if not 2 <= n_max <= PHOTON_NUMBER_CAP:
        raise ParameterError(
            f"n_max must be within [2, {PHOTON_NUMBER_CAP}] (got {n_max})")
    if params.nu <= 0.0:
        theta_nodes(nodes)  # no phase integral, but the count is still checked
        p_total = np.zeros(n_max + 1)
        p_total[0] = 1.0
        p_noclick = (1.0 - det.epsilon) * p_total
        p_click = det.epsilon * p_total
    else:
        lam_a, lam_b = _mode_rates(params, nodes)
        pmf = _poisson_pmf_matrix(lam_a, n_max)
        noclick_weight = (1.0 - det.epsilon) * np.exp(-lam_b * det.eta_d)
        p_total = pmf.mean(axis=1)
        p_noclick = (pmf * noclick_weight[None, :]).mean(axis=1)
        p_click = (pmf * (1.0 - noclick_weight)[None, :]).mean(axis=1)
    tail = 1.0 - float(p_total.sum())
    if tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} beyond n_max={n_max} exceeds tolerance "
            f"{tail_tol:.1e}; increase n_max for total intensity {params.nu:g}")
    for arr in (p_click, p_noclick, p_total):
        arr.flags.writeable = False
    return BranchDistributions(n_max=n_max, p_click=p_click, p_noclick=p_noclick,
                               p_total=p_total, tail_mass=tail)


def predicted_statistics(dists, ch):
    """``passive_decoy.predicted_statistics`` with the yield expansion of one
    channel written out."""
    n = np.arange(dists.n_max + 1)
    y0 = 1.0 - (1.0 - ch.bob_detector.epsilon) ** 2
    db = ch.alice_internal_loss_db + ch.fiber_length_km * ch.fiber_loss_db_per_km
    transmission = 10.0 ** (-db / 10.0) * ch.bob_detector.eta_d
    yields = 1.0 - (1.0 - y0) * (1.0 - transmission) ** n
    err_mass = BACKGROUND_ERROR_RATE * y0 + ch.misalignment * (yields - y0)
    q_c = float(np.dot(dists.p_click, yields))
    q_nc = float(np.dot(dists.p_noclick, yields))
    em_c = float(np.dot(dists.p_click, err_mass))
    em_nc = float(np.dot(dists.p_noclick, err_mass))
    e_c = em_c / q_c if q_c > 0.0 else 0.0
    e_nc = em_nc / q_nc if q_nc > 0.0 else 0.0
    return ObservedStatistics(q_c=q_c, e_c=e_c, q_nc=q_nc, e_nc=e_nc)


def key_rate(dists, obs, params=KeyRateParams()):
    """``passive_decoy.key_rate`` evaluated one clause at a time."""
    pc, pnc, pt = dists.p_click, dists.p_noclick, dists.p_total

    if pc[0] <= 0.0 or pnc[0] <= 0.0:
        raise ParameterError("vacuum probability of each branch must be positive")
    cand_c = float(obs.e_c * obs.q_c / (pc[0] * params.e0))
    cand_nc = float(obs.e_nc * obs.q_nc / (pnc[0] * params.e0))
    if cand_c <= cand_nc:
        y0_upper, y0_upper_branch = cand_c, "c"
    else:
        y0_upper, y0_upper_branch = cand_nc, "nc"
    background_den = _guard_denominator(float(pt[1] * pnc[0] - pnc[1] * pt[0]),
                                        "background-yield")
    y0_lower_raw = float((pt[1] * obs.q_nc - pnc[1] * obs.q_t) / background_den)
    y0_lower = min(max(y0_lower_raw, 0.0), y0_upper)

    single_photon_den = _guard_denominator(
        float(pt[2] * pnc[1] - pnc[2] * pt[1]), "single-photon-yield")
    slope = float((pt[2] * obs.q_nc - pnc[2] * obs.q_t) / single_photon_den)
    vacuum_coeff = float((pt[2] * pnc[0] - pnc[2] * pt[0]) / single_photon_den)
    y1_raw = slope - vacuum_coeff * y0_upper
    y1l = max(y1_raw, 0.0)
    comb_raw = {b: float(p[1] * slope + (p[0] - p[1] * vacuum_coeff) * y0_upper)
                for b, p in (("c", pc), ("nc", pnc))}
    comb = {b: max(v, 0.0) for b, v in comb_raw.items()}

    entropy_clamped = False
    # A yield whose product with a clause's coefficient underflows to zero
    # is not certified: the clause could not divide by it.
    no_yield = y1l <= 0.0 or any(coeff * y1l == 0.0
                                 for coeff in (pc[1], pnc[1], background_den))
    e1_value = None
    raw_clauses = None
    active_clause = None
    privacy_factor = 0.0
    if not no_yield:
        raw_clauses = [
            float((obs.e_c * obs.q_c - pc[0] * y0_lower * params.e0)
                  / (pc[1] * y1l)),
            float((obs.e_nc * obs.q_nc - pnc[0] * y0_lower * params.e0)
                  / (pnc[1] * y1l)),
            float((pnc[0] * obs.e_t * obs.q_t - pt[0] * obs.e_nc * obs.q_nc)
                  / (background_den * y1l)),
        ]
        best = min(range(3), key=raw_clauses.__getitem__)
        e1_value, active_clause = max(raw_clauses[best], 0.0), best + 1
        if e1_value >= 0.5:
            entropy_clamped = True
        else:
            privacy_factor = 1.0 - binary_entropy(e1_value)

    rates = {}
    for branch, gain, err in (("c", obs.q_c, obs.e_c), ("nc", obs.q_nc, obs.e_nc)):
        rates[branch] = float(-gain * params.f * binary_entropy(err)
                              + comb[branch] * privacy_factor)
    r_total = max(rates["c"], 0.0) + max(rates["nc"], 0.0)

    diagnostics = {
        "q": params.q,
        "f": params.f,
        "e0": params.e0,
        "q_t": obs.q_t,
        "e_t": obs.e_t,
        "r_total_emitted": params.q * r_total,
        "y0_upper_branch": y0_upper_branch,
        "y0_lower_raw": y0_lower_raw,
        "y1_lower_raw": y1_raw,
        "combined_raw_c": comb_raw["c"],
        "combined_raw_nc": comb_raw["nc"],
        "denominators": {
            "background": background_den,
            "single_photon": single_photon_den,
        },
        "e1_active_clause": active_clause,
        "e1_raw_clauses": raw_clauses,
        "privacy_factor": privacy_factor,
        "entropy_clamped": entropy_clamped,
        "no_single_photon_yield": no_yield,
    }
    return KeyRateReport(
        y0_lower=y0_lower, y0_upper=y0_upper, y1_lower=y1l, e1_upper=e1_value,
        combined_lower_c=comb["c"], combined_lower_nc=comb["nc"],
        r_c=rates["c"], r_nc=rates["nc"], r_total=r_total,
        diagnostics=diagnostics)


def rate_for_point(mu1, mu2, t, space):
    """``passive_decoy.optimize.rate_for_point`` with its scoring written
    out, through the distributions, forward model and bound chain above."""
    try:
        params = PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=space.overlap)
        dists = branch_distributions(params, space.alice_detector, space.n_max,
                                     nodes=space.theta_nodes,
                                     tail_tol=space.tail_tol)
        obs = predicted_statistics(dists, space.channel)
        try:
            report = key_rate(dists, obs, space.key_params)
        except DegenerateSourceError:
            return 0.0, "degenerate"
        if report.diagnostics["no_single_photon_yield"]:
            return float(report.r_total), "no_yield"
        return float(report.r_total), ""
    except ParameterError:
        return 0.0, "invalid"


def scan_rate_vs_distance(point, det, ch_template, lengths,
                          key_params=KeyRateParams(), *, overlap=1.0,
                          n_max=DEFAULT_N_MAX, theta_nodes=DEFAULT_THETA_NODES,
                          tail_tol=DEFAULT_TAIL_TOL):
    """``passive_decoy.scan_rate_vs_distance`` one length at a time."""
    if len(lengths) == 0:
        raise ParameterError("lengths must be non-empty")
    if any(length < 0.0 for length in lengths):
        raise ParameterError("fiber lengths must be >= 0")
    mu1, mu2, t = point
    params = PulsePairParams(mu1=mu1, mu2=mu2, t=t, overlap=overlap)
    dists = branch_distributions(params, det, n_max, nodes=theta_nodes,
                                 tail_tol=tail_tol)
    rows = []
    for length in sorted(lengths):
        ch = replace(ch_template, fiber_length_km=float(length))
        obs = predicted_statistics(dists, ch)
        try:
            rate = float(key_rate(dists, obs, key_params).r_total)
        except DegenerateSourceError:
            rate = 0.0
        rows.append(ScanRow(length_km=float(length), rate=rate))
    return rows


def simulate_chunk(params, det, ch, start, size, rng):
    """The photon-level sampler ``passive_decoy.simulate._simulate_chunk``
    replaced: it draws the photon counts that the package's sampler thins
    away, so it samples the same law through another random stream."""
    # Draw order is part of the reproducibility contract; do not reorder.
    theta = rng.uniform(0.0, 2.0 * np.pi, size)
    if params.nu > 0.0:
        gam = params.gamma(theta)
        n_kept = rng.poisson(params.nu * gam)
        m_mon = rng.poisson(params.nu * (1.0 - gam))
    else:
        n_kept = np.zeros(size, dtype=np.int64)
        m_mon = np.zeros(size, dtype=np.int64)
    click_prob = 1.0 - (1.0 - det.epsilon) * (1.0 - det.eta_d) ** m_mon
    alice_click = rng.random(size) < click_prob

    alice_basis = rng.integers(0, 2, size, dtype=np.int8)
    alice_bit = rng.integers(0, 2, size, dtype=np.int8)
    bob_basis = rng.integers(0, 2, size, dtype=np.int8)

    arrived = rng.binomial(n_kept, ch.transmission)
    # Matching bases route photons to the bit's detector up to misalignment
    # flips; mismatched bases scatter them half-half.
    wrong_prob = np.where(alice_basis == bob_basis, ch.misalignment, 0.5)
    to_wrong = rng.binomial(arrived, wrong_prob)
    to_right = arrived - to_wrong

    eps_b = ch.bob_detector.epsilon
    dark0 = rng.random(size) < eps_b
    dark1 = rng.random(size) < eps_b
    coin = rng.integers(0, 2, size, dtype=np.int8)

    photons_d0 = np.where(alice_bit == 0, to_right, to_wrong)
    photons_d1 = np.where(alice_bit == 0, to_wrong, to_right)
    click0 = (photons_d0 > 0) | dark0
    click1 = (photons_d1 > 0) | dark1
    detected = click0 | click1
    bob_bit = np.full(size, -1, dtype=np.int8)
    bob_bit[click1 & ~click0] = 1
    bob_bit[click0 & ~click1] = 0
    both = click0 & click1
    bob_bit[both] = coin[both]

    return RecordBatch(
        pulse_index=np.arange(start, start + size, dtype=np.int64),
        alice_click=alice_click.astype(np.int8),
        alice_basis=alice_basis,
        alice_bit=alice_bit,
        bob_basis=bob_basis,
        detected=detected.astype(np.int8),
        bob_bit=bob_bit)
