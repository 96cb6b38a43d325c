import importlib
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from passive_decoy import (AxisSpec, KeyRateParams, ParameterError,
                           SearchSpace, ThresholdDetector, TruncationError,
                           branch_distributions, cli, key_rate, load_run_config,
                           optimize, predicted_statistics,
                           scan_rate_vs_distance)
from passive_decoy.optimize import rate_for_point
from passive_decoy.forkjoin import _process_count

from conftest import REFERENCE_DETECTOR, REFERENCE_SOURCE, forks, usable_cpus
from test_cli import REPO_CONFIG
from test_simulate import make_channel

optimize_module = importlib.import_module("passive_decoy.optimize")


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


def split_config(tmp_path, fiber_length_km=10.0, n_max=20):
    """A config whose 3 x 3 x 5 search has t edges, which are degenerate, and
    over 120 km points with no certified single-photon yield."""
    doc = json.loads(Path(REPO_CONFIG).read_text())
    doc["channel"].update(fiber_length_km=fiber_length_km, misalignment=0.02)
    doc["channel"]["bob_detector"]["eta_d"] = 0.05
    doc["numerics"]["n_max"] = n_max
    doc["search"] = {"mu1": [0.14, 1.14, 3], "mu2": [0.02, 0.14, 3],
                     "t": [0.0, 1.0, 5], "refinement_levels": 2}
    path = tmp_path / f"split_{fiber_length_km}_{n_max}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def cli_outputs(config, tmp_path, capsys):
    """(exit code, stderr, output bytes) of ``optimize`` on ``config``, for
    CSV and for JSON."""
    runs = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"opt.{fmt}"
        out.unlink(missing_ok=True)
        code = cli.main(["optimize", "--config", config, "--format", fmt,
                         "--out", str(out)])
        runs.append((code, capsys.readouterr().err,
                     out.read_bytes() if out.exists() else None))
    return runs


class TestSplitLevels:
    """A level cut across processes gives what one process gives."""

    def force_split(self, monkeypatch):
        # 45-point levels in three parts of 15: this process and two workers.
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(optimize_module, "_POINTS_PER_PROCESS", 4)

    @forks
    @pytest.mark.parametrize("fiber_length_km, flags", [
        (10.0, {"", "degenerate"}),
        (120.0, {"", "degenerate", "no_yield"}),
    ])
    def test_split_search_equals_serial(self, monkeypatch, tmp_path, capsys,
                                        fiber_length_km, flags):
        config = split_config(tmp_path, fiber_length_km)
        space = cli._search_space(load_run_config(config))
        usable_cpus(monkeypatch, 1)
        serial = optimize(space)
        serial_cli = cli_outputs(config, tmp_path, capsys)
        assert {p.flag for p in serial.trace} == flags
        assert [run[:2] for run in serial_cli] == [(cli.EXIT_OK, "")] * 2
        self.force_split(monkeypatch)
        assert optimize_module._process_count(45, 4) == 3
        assert optimize(space) == serial
        assert cli_outputs(config, tmp_path, capsys) == serial_cli

    @forks
    def test_first_failing_point_raises_as_in_serial(self, monkeypatch,
                                                     tmp_path, capsys):
        # n_max 10 truncates both worker parts (mu1 0.64 and 1.14); the
        # first, at total intensity 0.66, is the error a serial search meets.
        config = split_config(tmp_path, n_max=10)
        space = cli._search_space(load_run_config(config))
        usable_cpus(monkeypatch, 1)
        with pytest.raises(TruncationError) as serial:
            optimize(space)
        serial_cli = cli_outputs(config, tmp_path, capsys)
        assert "total intensity 0.66" in str(serial.value)
        assert serial_cli == [(cli.EXIT_VALIDATION, f"error: {serial.value}\n",
                               None)] * 2
        self.force_split(monkeypatch)
        # This process scores its 15 points in full, so the error is a
        # worker's.
        scored, score_block = [], optimize_module._score_block

        def counted_block(*args):
            scored.extend(score_block(*args))
            return scored[-len(args[0]):]
        monkeypatch.setattr(optimize_module, "_score_block", counted_block)
        with pytest.raises(TruncationError) as split:
            optimize(space)
        assert str(split.value) == str(serial.value)
        assert len(scored) == 15
        assert cli_outputs(config, tmp_path, capsys) == serial_cli
        assert [p.name for p in tmp_path.iterdir()] == [Path(config).name]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @forks
    def test_dead_worker_is_an_unexpected_error(self, monkeypatch, tmp_path,
                                                capsys):
        parent, score_block = os.getpid(), optimize_module._score_block

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(9)
            return score_block(*args)
        self.force_split(monkeypatch)
        monkeypatch.setattr(optimize_module, "_score_block", dies_in_a_worker)
        config = split_config(tmp_path)
        assert cli.main(["optimize", "--config", config,
                         "--out", str(tmp_path / "opt.csv")]) == cli.EXIT_UNEXPECTED
        assert capsys.readouterr().err == ("error: ChildProcessError: a worker "
                                           "process exited with code 9\n")
        assert [p.name for p in tmp_path.iterdir()] == [Path(config).name]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @forks
    def test_rows_search_finds_a_positive_argmax(self, monkeypatch, tmp_path):
        # 512-point levels are scored as rows and, on two CPUs, cut in two.
        # Unlike the reference search, whose every rate is 0, this grid
        # reaches positive rates, so its best point is a real argmax.
        space = replace(cli._search_space(load_run_config(split_config(tmp_path))),
                        mu1=AxisSpec(0.14, 1.14, 8), mu2=AxisSpec(0.02, 0.14, 8),
                        t=AxisSpec(0.3, 0.7, 8))
        blocks, score_block = [], optimize_module._score_block
        monkeypatch.setattr(optimize_module, "_score_block",
                            lambda *args: blocks.append(1) or score_block(*args))
        usable_cpus(monkeypatch, 1)
        serial = optimize(space)
        assert len(blocks) == 2 * 512 // 32
        usable_cpus(monkeypatch, 2)
        assert optimize_module._process_count(
            512, optimize_module._POINTS_PER_PROCESS) == 2
        assert optimize(space) == serial
        points = [rate_for_point(p.mu1, p.mu2, p.t, space) for p in serial.trace]
        assert [(p.rate, p.flag) for p in serial.trace] == points
        rates = [rate for rate, _ in points]
        assert sum(rate > 0.0 for rate in rates) > 500
        best = serial.trace[rates.index(max(rates))]
        assert serial.best_rate == best.rate > 0.0
        assert serial.best_point == (best.mu1, best.mu2, best.t)

    def test_reference_search_stays_in_process(self, monkeypatch, tmp_path):
        def no_fork():
            raise AssertionError("a worker was forked")
        usable_cpus(monkeypatch, 1000)
        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "opt.csv"
        assert cli.main(["optimize", "--config", REPO_CONFIG,
                         "--out", str(out)]) == cli.EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 250

    def test_process_count(self, monkeypatch):
        per = optimize_module._POINTS_PER_PROCESS
        assert 62 < per
        usable_cpus(monkeypatch, 1000)
        assert _process_count(4096, per) == 4096 // per
        assert _process_count(125, per) == 1
        assert _process_count(2 * per - 1, per) == 1
        usable_cpus(monkeypatch, 2)
        assert _process_count(4096, per) == 2
        usable_cpus(monkeypatch, 1)
        assert _process_count(4096, per) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _process_count(4096, per) == 1


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
