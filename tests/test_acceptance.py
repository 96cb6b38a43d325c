"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (one pass/fail line per
criterion) or add ``-s`` for the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from passive_decoy import (AxisSpec, ChannelModel, KeyRateParams,
                           PulsePairParams, SearchSpace, ThresholdDetector,
                           branch_distributions, g2, hom_coincidence_scan,
                           joint_probability_matrix, key_rate,
                           monte_carlo_run, optimize, predicted_statistics,
                           write_records_csv)
from passive_decoy.cli import main as cli_main
from passive_decoy.optimize import rate_for_point
from passive_decoy.reports import dump_json, keyrate_report_payload

from conftest import REFERENCE_DETECTOR, REFERENCE_RATE, poisson_vector
from test_bounds import synthetic_sweep_points
from test_cli import REPO_CONFIG, read_json


def report_line(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok


def test_criterion_1_reference_golden_rate(reference_dists, reference_obs):
    start = time.monotonic()
    report = key_rate(reference_dists, reference_obs, KeyRateParams(q=0.5, f=1.22))
    elapsed = time.monotonic() - start
    rel = report.r_total / REFERENCE_RATE - 1.0
    # Rates are quoted in the measured-gain normalization; the protocol
    # efficiency factor q applies on top for raw emitted-pulse bookkeeping.
    assert report.diagnostics["r_total_emitted"] == pytest.approx(
        0.5 * report.r_total, rel=1e-12)
    report_line(
        "1 (reference golden rate)",
        abs(rel) <= 0.10 and elapsed < 1.0,
        f"r_total={report.r_total:.4e} vs {REFERENCE_RATE:.2e} "
        f"({rel:+.2%}), {elapsed * 1e3:.0f} ms")


def test_criterion_2_g2_predictions(reference_dists):
    # The Poisson reference comes from the scipy oracle; build it before the
    # clock starts so the timed region covers only the g2 evaluations.
    poisson_ref = poisson_vector(0.64)
    start = time.monotonic()
    g2_click = g2(reference_dists.p_click)
    g2_noclick = g2(reference_dists.p_noclick)
    g2_poisson = g2(poisson_ref)
    elapsed = time.monotonic() - start
    ok = (abs(g2_click - 1.24) <= 0.01 and abs(g2_noclick - 1.19) <= 0.01
          and abs(g2_poisson - 1.0) <= 1e-9 and elapsed < 1.0)
    report_line(
        "2 (conditional g2)", ok,
        f"click={g2_click:.4f} (1.24±0.01), noclick={g2_noclick:.4f} "
        f"(1.19±0.01), poisson-1={g2_poisson - 1:.1e}, {elapsed * 1e3:.0f} ms")


def test_criterion_3_hom_ideal_visibility():
    params = PulsePairParams(mu1=1e-3, mu2=1e-3, t=0.5, overlap=1.0)
    scan = hom_coincidence_scan(params, [0.0, 0.25, 0.5, 0.75, 1.0])
    ok = abs(scan.visibility - 0.5) <= 0.01
    report_line("3 (ideal interference visibility)", ok,
                f"visibility={scan.visibility:.6f} (0.5±0.01)")


def test_criterion_4_distribution_correctness(reference_params, reference_detector):
    checks = []

    norm = joint_probability_matrix(PulsePairParams(1.2, 0.8, 0.3), 60, 60).sum()
    checks.append(("normalization", norm >= 1 - 1e-10))

    d = branch_distributions(reference_params, reference_detector)
    identity = float(np.max(np.abs(d.p_click + d.p_noclick - d.p_total)))
    checks.append(("branch identity", identity < 1e-12))

    single = PulsePairParams(mu1=0.64, mu2=0.0, t=0.5)
    got = joint_probability_matrix(single, 20, 20)
    n = np.arange(21)
    pois = np.exp(-0.32) * 0.32**n / [math.factorial(int(k)) for k in n]
    reduction = float(np.max(np.abs(got - np.outer(pois, pois))))
    checks.append(("poisson reduction", reduction < 1e-10))

    doubled = branch_distributions(reference_params, reference_detector, nodes=512)
    stability = float(np.max(np.abs(d.p_total - doubled.p_total)))
    checks.append(("quadrature doubling", stability < 1e-12))

    ok = all(flag for _, flag in checks)
    report_line(
        "4 (distribution correctness)", ok,
        f"norm={1 - norm:.1e} below 1, identity={identity:.1e}, "
        f"reduction={reduction:.1e}, doubling={stability:.1e}")


MC_CROSS_CHECK_SETS = {
    "reference_fit": (PulsePairParams(0.64, 0.08, 0.5),
                   ThresholdDetector(1.2e-5, 0.10),
                   ChannelModel(fiber_length_km=10.0,
                                bob_detector=ThresholdDetector(2.0e-6, 0.0028053895580594478),
                                misalignment=0.0334919709244105)),
    "short_fiber": (PulsePairParams(0.5, 0.3, 0.5),
                    ThresholdDetector(1e-4, 0.15),
                    ChannelModel(fiber_length_km=0.0,
                                 bob_detector=ThresholdDetector(1e-5, 0.05),
                                 misalignment=0.02, alice_internal_loss_db=6.0)),
    "asym_overlap": (PulsePairParams(0.9, 0.1, 0.3, overlap=0.9),
                     ThresholdDetector(1e-5, 0.25),
                     ChannelModel(fiber_length_km=20.0,
                                  bob_detector=ThresholdDetector(5e-6, 0.1),
                                  misalignment=0.01)),
    "balanced": (PulsePairParams(0.2, 0.2, 0.5),
                 ThresholdDetector(0.0, 0.5),
                 ChannelModel(fiber_length_km=5.0,
                              bob_detector=ThresholdDetector(1e-6, 0.2),
                              misalignment=0.05, alice_internal_loss_db=3.0)),
    "bright": (PulsePairParams(1.2, 0.4, 0.6, overlap=0.7),
               ThresholdDetector(5e-5, 0.08),
               ChannelModel(fiber_length_km=15.0,
                            bob_detector=ThresholdDetector(2e-5, 0.3),
                            misalignment=0.0)),
}


@pytest.mark.parametrize("name", sorted(MC_CROSS_CHECK_SETS))
def test_criterion_5_monte_carlo_matches_analytic(name):
    params, det, ch = MC_CROSS_CHECK_SETS[name]
    start = time.monotonic()
    dists = branch_distributions(params, det)
    pred = predicted_statistics(dists, ch)
    mc = monte_carlo_run(params, det, ch, 10_000_000, seed=20260810)
    elapsed = time.monotonic() - start
    sifted = mc.tallies.sifted
    worst = 0.0
    for got, want in ((mc.stats.q_c, pred.q_c), (mc.stats.q_nc, pred.q_nc),
                      (mc.stats.e_c * mc.stats.q_c, pred.e_c * pred.q_c),
                      (mc.stats.e_nc * mc.stats.q_nc, pred.e_nc * pred.q_nc)):
        se = math.sqrt(want * (1 - want) / sifted)
        worst = max(worst, abs(got - want) / se if se > 0 else abs(got - want))
    report_line(f"5 (monte carlo vs analytic, {name})",
                worst < 4.0 and elapsed < 60.0,
                f"worst |z|={worst:.2f} of 4.0, {elapsed:.1f} s per set")


def test_criterion_5_seed_determinism(reference_params, reference_detector,
                                      fitted_channel, tmp_path):
    outputs = []
    for run in range(2):
        batches = []
        result = monte_carlo_run(reference_params, reference_detector, fitted_channel,
                                 200_000, seed=7, record_sink=batches.append)
        path = tmp_path / f"run{run}" / "records.csv"
        path.parent.mkdir()
        write_records_csv(str(path), batches)
        outputs.append((path.read_bytes(), result.stats))
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    report_line("5 (seed determinism)", ok,
                f"{len(outputs[0][0])} bytes byte-identical")


def test_criterion_6_bound_soundness_sweep():
    points = synthetic_sweep_points(1000, seed=602214076)
    params = KeyRateParams()
    violations = 0
    no_yield = 0
    for src, det, ch in points:
        dists = branch_distributions(src, det)
        pred = predicted_statistics(dists, ch)
        truth = pred.truth
        report = key_rate(dists, pred, params)
        if not (report.y0_lower <= truth.y0 * (1 + 1e-9) + 1e-15
                and report.y0_upper >= truth.y0 * (1 - 1e-9) - 1e-15):
            violations += 1
            continue
        bad = False
        for bound, arr in ((report.combined_lower_c, dists.p_click),
                           (report.combined_lower_nc, dists.p_noclick)):
            true_combo = arr[1] * truth.y1 + arr[0] * truth.y0
            bad = bad or bound > true_combo * (1 + 1e-9) + 1e-15
        if report.y1_lower > 0.0:
            bad = bad or report.e1_upper < truth.e1 * (1 - 1e-9) - 1e-15
        else:
            no_yield += 1
        violations += bad
    report_line("6 (bound soundness sweep)", violations == 0,
                f"{len(points)} channels, {violations} violations, "
                f"{no_yield} with no certified single-photon yield")


def test_criterion_7_optimizer_sanity(fitted_channel):
    space = SearchSpace(
        mu1=AxisSpec(0.14, 0.64, 6), mu2=AxisSpec(0.02, 0.08, 4),
        t=AxisSpec(0.5, 0.9, 5), channel=fitted_channel,
        alice_detector=ThresholdDetector(**REFERENCE_DETECTOR),
        refinement_levels=2)
    result = optimize(space)

    ref_rate, _ = rate_for_point(0.64, 0.08, 0.5, space)
    level0 = [(p.mu1, p.mu2, p.t) for p in result.trace if p.level == 0]
    ref_in_grid = any(abs(m1 - 0.64) < 1e-9 and abs(m2 - 0.08) < 1e-9
                      and abs(tt - 0.5) < 1e-9 for m1, m2, tt in level0)

    axes = (space.mu1, space.mu2, space.t)
    fine_steps = [(a.hi - a.lo) / 3.0 / (a.points - 1) / 3.0 for a in axes]
    grids = [np.linspace(a.lo, a.hi, round((a.hi - a.lo) / s) + 1)
             for a, s in zip(axes, fine_steps)]
    brute_rate, brute_point = -1.0, None
    for m1 in grids[0]:
        for m2 in grids[1]:
            for tt in grids[2]:
                r, _ = rate_for_point(float(m1), float(m2), float(tt), space)
                if r > brute_rate:
                    brute_rate, brute_point = r, (float(m1), float(m2), float(tt))
    diffs = [abs(b - r) for b, r in zip(brute_point, result.best_point)]
    within_cell = all(dd <= ss * (1 + 1e-9) for dd, ss in zip(diffs, fine_steps))

    ok = (ref_in_grid and result.best_rate >= ref_rate - 1e-18 and within_cell)
    report_line(
        "7 (optimizer sanity)", ok,
        f"best={result.best_rate:.3e} at {tuple(round(x, 4) for x in result.best_point)} "
        f">= ref {ref_rate:.3e}; brute={brute_rate:.3e}, "
        f"cell offsets {[round(dd / ss, 2) for dd, ss in zip(diffs, fine_steps)]}")


def test_criterion_8_round_trip_bit_exact(reference_params, reference_detector,
                                          fitted_channel, tmp_path):
    config_path = REPO_CONFIG
    pulses, seed = 120_000, 31
    records = tmp_path / "records.csv"
    stats_json = tmp_path / "stats.json"
    assert cli_main(["simulate", "--config", config_path, "--pulses",
                     str(pulses), "--seed", str(seed), "--out", str(records),
                     "--stats-out", str(stats_json)]) in (0, 4)
    ingested_json = tmp_path / "ingested.json"
    assert cli_main(["ingest", str(records), "--out", str(ingested_json)]) == 0
    report_a = tmp_path / "report_direct.json"
    report_b = tmp_path / "report_ingested.json"
    code_a = cli_main(["keyrate", str(stats_json), "--config", config_path,
                       "--out", str(report_a)])
    code_b = cli_main(["keyrate", str(ingested_json), "--config", config_path,
                       "--out", str(report_b)])

    # In-memory pipeline with the same inputs.
    config_doc = read_json(config_path)
    result = monte_carlo_run(reference_params, reference_detector, fitted_channel,
                             pulses, seed)
    kp = KeyRateParams(**config_doc["key_params"])
    dists = branch_distributions(reference_params, reference_detector)
    in_memory = dump_json(keyrate_report_payload(
        key_rate(dists, result.stats, kp), result.stats, kp))

    files_equal = report_a.read_bytes() == report_b.read_bytes()
    memory_equal = report_a.read_text() == in_memory
    ok = files_equal and memory_equal and code_a == code_b
    report_line("8 (round-trip bit-exact)", ok,
                f"file/file identical: {files_equal}, "
                f"file/in-memory identical: {memory_equal}")
