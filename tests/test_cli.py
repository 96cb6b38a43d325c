import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from passive_decoy.cli import (EXIT_NO_KEY, EXIT_OK, EXIT_PARSE,
                               EXIT_UNEXPECTED, EXIT_VALIDATION, main)
from passive_decoy.reports import load_schema

from conftest import REFERENCE_RATE

REPO_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "reference.json")
REPO_STATS = str(Path(__file__).resolve().parents[1] / "configs" / "reference_stats.json")


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def config_path(tmp_path):
    doc = read_json(REPO_CONFIG)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestDistributionCommand:
    def test_report_matches_schema_and_g2(self, config_path, tmp_path):
        out = tmp_path / "dist.json"
        assert run_cli("distribution", "--config", config_path,
                       "--out", str(out)) == EXIT_OK
        payload = read_json(out)
        jsonschema.validate(payload, load_schema("distribution_report"))
        assert payload["g2"]["click"] == pytest.approx(1.24, abs=0.01)
        assert payload["g2"]["noclick"] == pytest.approx(1.19, abs=0.01)
        assert payload["poisson_reduction"] is False

    def test_single_laser_flags_poisson_reduction(self, tmp_path):
        doc = read_json(REPO_CONFIG)
        doc["source"]["mu2"] = 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "dist.json"
        assert run_cli("distribution", "--config", str(cfg),
                       "--out", str(out)) == EXIT_OK
        assert read_json(out)["poisson_reduction"] is True

    def test_invalid_transmittance_names_field(self, tmp_path, capsys):
        doc = read_json(REPO_CONFIG)
        doc["source"]["t"] = 1.5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("distribution", "--config", str(cfg)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "source" in err and "t " in err

    def test_csv_format(self, config_path, tmp_path):
        out = tmp_path / "dist.csv"
        assert run_cli("distribution", "--config", config_path, "--format",
                       "csv", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,p_click,p_noclick,p_total"
        assert len(lines) == 22
        report = tmp_path / "dist.json"
        assert run_cli("distribution", "--config", config_path,
                       "--out", str(report)) == EXIT_OK
        payload = read_json(report)
        for n, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == n
            assert [float(c) for c in cells[1:]] == [
                payload[key][n] for key in ("p_click", "p_noclick", "p_total")]


class TestKeyrateCommand:
    def test_reference_rate(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("keyrate", REPO_STATS, "--config", config_path,
                       "--out", str(out)) == EXIT_OK
        payload = read_json(out)
        jsonschema.validate(payload, load_schema("keyrate_report"))
        assert payload["rates"]["r_total"] == pytest.approx(REFERENCE_RATE, rel=0.10)

    def test_all_zero_stats_exit_no_key(self, config_path, tmp_path):
        stats = tmp_path / "zero.json"
        stats.write_text(json.dumps(
            {"kind": "observed_statistics", "q_c": 0.0, "e_c": 0.0,
             "q_nc": 0.0, "e_nc": 0.0}))
        out = tmp_path / "report.json"
        assert run_cli("keyrate", str(stats), "--config", config_path,
                       "--out", str(out)) == EXIT_NO_KEY
        assert read_json(out)["rates"]["r_total"] == 0.0

    def test_malformed_stats_is_parse_error(self, config_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"q_c": 1e-6,,}')
        assert run_cli("keyrate", str(bad), "--config",
                       config_path) == EXIT_PARSE
        assert "line" in capsys.readouterr().err

    def test_missing_field_names_it(self, config_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"q_c": 1e-6, "e_c": 0.05, "q_nc": 1e-4}))
        assert run_cli("keyrate", str(bad), "--config",
                       config_path) == EXIT_PARSE
        assert "e_nc" in capsys.readouterr().err


class TestSimulateAndIngest:
    def test_seed_repeat_is_byte_identical(self, config_path, tmp_path):
        # Same file names in sibling directories so provenance paths agree.
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            d.mkdir()
            assert run_cli("simulate", "--config", config_path,
                           "--pulses", "40000", "--seed", "5",
                           "--out", str(d / "records.csv"),
                           "--stats-out", str(d / "stats.json")) == EXIT_OK
        a, b = dirs
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        rel = lambda p: p.read_text().replace(str(p.parent), "")
        assert rel(a / "stats.json") == rel(b / "stats.json")

    def test_zero_pulses_rejected(self, config_path, tmp_path):
        assert run_cli("simulate", "--config", config_path, "--pulses", "0",
                       "--seed", "1", "--out", str(tmp_path / "x.csv")
                       ) == EXIT_VALIDATION

    def test_ingest_matches_simulator_aggregation(self, config_path, tmp_path):
        csv_path, stats_path = tmp_path / "r.csv", tmp_path / "s.json"
        run_cli("simulate", "--config", config_path, "--pulses", "60000",
                "--seed", "12", "--out", str(csv_path),
                "--stats-out", str(stats_path))
        ingested_path = tmp_path / "ingested.json"
        assert run_cli("ingest", str(csv_path),
                       "--out", str(ingested_path)) == EXIT_OK
        sim_doc = read_json(stats_path)
        ing_doc = read_json(ingested_path)
        jsonschema.validate(ing_doc, load_schema("observed_stats"))
        assert ing_doc["provenance"]["source_path"] == str(csv_path)
        for key in ("q_c", "e_c", "q_nc", "e_nc", "q_t", "e_t"):
            assert ing_doc[key] == sim_doc[key]

    def test_no_sifted_pulses_writes_no_records(self, config_path, tmp_path,
                                                capsys):
        records = tmp_path / "one.csv"
        assert run_cli("simulate", "--config", config_path, "--pulses", "1",
                       "--seed", "3", "--out", str(records)) == EXIT_PARSE
        assert "no sifted pulses" in capsys.readouterr().err
        assert not records.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unwritable_stats_out_leaves_no_records(self, config_path, tmp_path,
                                                    capsys):
        records = tmp_path / "r.csv"
        assert run_cli("simulate", "--config", config_path, "--pulses", "2000",
                       "--seed", "3", "--out", str(records), "--stats-out",
                       str(tmp_path / "nodir" / "s.json")) == EXIT_UNEXPECTED
        err = capsys.readouterr().err
        assert "No such file or directory" in err and "nodir" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failed_chunk_leaves_no_output(self, config_path, tmp_path,
                                           monkeypatch, capsys):
        # Three chunks; the second fails after the first was written out.
        from passive_decoy import simulate
        monkeypatch.setattr(simulate, "_CHUNK_PULSES", 1000)
        real_chunk = simulate._simulate_chunk

        def failing_chunk(*args):
            if args[3] > 0:
                raise RuntimeError("chunk failed")
            return real_chunk(*args)

        monkeypatch.setattr(simulate, "_simulate_chunk", failing_chunk)
        assert run_cli("simulate", "--config", config_path, "--pulses", "2500",
                       "--seed", "3", "--out", str(tmp_path / "r.csv"),
                       "--stats-out", str(tmp_path / "s.json")) == EXIT_UNEXPECTED
        assert "chunk failed" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_killed_run_leaves_no_partial_records(self, config_path, tmp_path):
        # Killed once the first chunk is on disk, long before the run ends.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        records = tmp_path / "r.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "passive_decoy.cli", "simulate", "--config",
             config_path, "--pulses", "50000000", "--seed", "3", "--out",
             str(records)], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            written = []
            while not written and time.monotonic() < deadline:
                time.sleep(0.02)
                written = [p for p in tmp_path.glob(".r.csv.*.tmp")
                           if p.stat().st_size > 0]
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert written, "no records were written within 60 s"
        assert not records.exists()

    def test_outputs_replace_existing_files(self, config_path, tmp_path):
        records, stats = tmp_path / "r.csv", tmp_path / "s.json"
        records.write_text("old")
        stats.write_text("old")
        records.chmod(0o640)
        assert run_cli("simulate", "--config", config_path, "--pulses", "2000",
                       "--seed", "3", "--out", str(records),
                       "--stats-out", str(stats)) == EXIT_OK
        assert records.read_text().startswith("pulse_index,")
        assert stat.S_IMODE(records.stat().st_mode) == 0o640
        assert read_json(stats)["provenance"]["source_path"] == str(records)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "r.csv", "s.json"]

    def test_symlinked_out_replaces_the_file_it_points_to(self, config_path,
                                                          tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old")
        link.symlink_to(real)
        argv = ["simulate", "--config", config_path, "--seed", "3",
                "--out", str(link), "--stats-out", str(tmp_path / "s.json")]
        assert run_cli(*argv, "--pulses", "1") == EXIT_PARSE
        assert real.read_text() == "old"
        assert run_cli(*argv, "--pulses", "2000") == EXIT_OK
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert real.read_text().startswith("pulse_index,")
        assert read_json(tmp_path / "s.json")["provenance"]["source_path"] == str(link)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "link.csv", "real.csv", "s.json"]

    def test_fifo_out_is_written_directly(self, config_path, tmp_path):
        # 2000 records fit in the pipe's buffer, so nothing has to drain it
        # while the run writes.
        fifo = tmp_path / "r.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli("simulate", "--config", config_path, "--pulses",
                           "2000", "--seed", "3", "--out", str(fifo),
                           "--stats-out", str(tmp_path / "s.json")) == EXIT_OK
            data = os.read(reader, 1 << 20)
        finally:
            os.close(reader)
        assert data.startswith(b"pulse_index,") and data.count(b"\n") == 2001
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "r.fifo", "s.json"]

    def test_ingest_empty_file_is_parse_error(self, tmp_path, capsys):
        empty = tmp_path / "none.csv"
        empty.write_text("pulse_index,alice_click,alice_basis,alice_bit,"
                         "bob_basis,detected,bob_bit\n")
        assert run_cli("ingest", str(empty)) == EXIT_PARSE
        assert "no records" in capsys.readouterr().err

    def test_ingest_inconsistent_record_names_index(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("pulse_index,alice_click,alice_basis,alice_bit,"
                        "bob_basis,detected,bob_bit\n"
                        "0,0,0,0,0,0,\n"
                        "1,0,0,0,0,0,1\n")
        assert run_cli("ingest", str(path)) == EXIT_PARSE
        assert "record 2" in capsys.readouterr().err

    def test_ingest_byte_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"pulse_index,alice_click,alice_basis,alice_bit,"
                         b"bob_basis,detected,bob_bit\n"
                         b"0,0,0,0,0,0,\n"
                         b"1,0,0,\xff,0,0,\n")
        assert run_cli("ingest", str(path)) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: record 2: byte 0xff is not valid UTF-8\n")

    def test_round_trip_keyrate_is_bit_exact(self, config_path, tmp_path):
        csv_path, stats_path = tmp_path / "r.csv", tmp_path / "s.json"
        run_cli("simulate", "--config", config_path, "--pulses", "80000",
                "--seed", "21", "--out", str(csv_path),
                "--stats-out", str(stats_path))
        ingested_path = tmp_path / "i.json"
        run_cli("ingest", str(csv_path), "--out", str(ingested_path))
        rep_direct = tmp_path / "rep_direct.json"
        rep_ingest = tmp_path / "rep_ingest.json"
        code_a = run_cli("keyrate", str(stats_path), "--config", config_path,
                         "--out", str(rep_direct))
        code_b = run_cli("keyrate", str(ingested_path), "--config", config_path,
                         "--out", str(rep_ingest))
        assert code_a == code_b
        assert rep_direct.read_bytes() == rep_ingest.read_bytes()


class TestOptimizeAndScanCommands:
    def test_single_point_space_one_row(self, tmp_path):
        doc = read_json(REPO_CONFIG)
        doc["search"] = {"mu1": [0.64, 0.64, 1], "mu2": [0.08, 0.08, 1],
                         "t": [0.5, 0.5, 1], "refinement_levels": 1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "opt.csv"
        assert run_cli("optimize", "--config", str(cfg),
                       "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "level,mu1,mu2,t,rate,flag"
        assert len(lines) == 2

    def test_scan_two_lengths_monotone(self, config_path, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--config", config_path, "--lengths", "0,10",
                       "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "length_km,rate"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 10.0]
        assert float(rows[0][1]) >= float(rows[1][1])

    def test_scan_keeps_negative_zero_and_duplicate_lengths(self, config_path,
                                                            tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--config", config_path, "--lengths", "10,-0.0,10,0",
                       "--out", str(out)) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["-0.0", "0.0", "10.0", "10.0"]
        assert rows[0][1] == rows[1][1] and rows[2][1] == rows[3][1]

    def test_optimize_without_search_section(self, tmp_path, capsys):
        doc = read_json(REPO_CONFIG)
        doc.pop("search")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("optimize", "--config", str(cfg)) == EXIT_VALIDATION
        assert "search" in capsys.readouterr().err

    def test_scan_json_format(self, config_path, tmp_path):
        out = tmp_path / "scan.json"
        assert run_cli("scan", "--config", config_path, "--lengths", "5,15",
                       "--format", "json", "--out", str(out)) == EXIT_OK
        payload = read_json(out)
        jsonschema.validate(payload, load_schema("rate_scan"))
        assert payload["kind"] == "rate_scan"
        assert len(payload["rows"]) == 2

    def test_optimize_json_format(self, tmp_path):
        doc = read_json(REPO_CONFIG)
        doc["search"] = {"mu1": [0.5, 0.7, 3], "mu2": [0.06, 0.1, 3],
                         "t": [0.4, 0.6, 3], "refinement_levels": 1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "opt.json"
        assert run_cli("optimize", "--config", str(cfg), "--format", "json",
                       "--out", str(out)) == EXIT_OK
        payload = read_json(out)
        jsonschema.validate(payload, load_schema("optimization_result"))
        assert payload["kind"] == "optimization_result"
        assert payload["evaluations"] == 27
        assert isinstance(payload["all_zero"], bool)

    def test_optimize_and_scan_honour_tail_tol(self, tmp_path):
        # Four photons leave about 1e-4 of the reference source's mass
        # untruncated: within 1e-3, far beyond the default 1e-12.
        doc = read_json(REPO_CONFIG)
        doc["numerics"] = {"n_max": 4, "theta_nodes": 256, "tail_tol": 1e-3}
        doc["search"] = {"mu1": [0.64, 0.64, 1], "mu2": [0.08, 0.08, 1],
                         "t": [0.5, 0.5, 1], "refinement_levels": 1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("distribution", "--config", str(cfg),
                       "--out", str(tmp_path / "d.json")) == EXIT_OK
        assert run_cli("optimize", "--config", str(cfg),
                       "--out", str(tmp_path / "o.csv")) == EXIT_OK
        assert run_cli("scan", "--config", str(cfg), "--lengths", "0,10",
                       "--out", str(tmp_path / "s.csv")) == EXIT_OK


class TestConfigFiles:
    def test_repo_config_matches_schema(self):
        jsonschema.validate(read_json(REPO_CONFIG), load_schema("run_config"))

    def test_repo_stats_matches_schema(self):
        jsonschema.validate(read_json(REPO_STATS), load_schema("observed_stats"))

    @pytest.mark.parametrize("path,value,command,field", [
        (("seed",), -1, ["simulate"], "seed"),
        (("seed",), True, ["simulate"], "seed"),
        ((), None, ["simulate", "--seed", "-1"], "--seed"),
        (("search", "mu1"), ["a", 1, 3], ["optimize"], "search.mu1"),
        (("numerics", "n_max"), 2.5, ["distribution"], "n_max"),
        (("key_params", "e0"), 0.0, ["keyrate", REPO_STATS], "e0"),
        (("source", "mu1"), True, ["distribution"], "source.mu1"),
        (("alice_detector", "eta_d"), True, ["distribution"],
         "alice_detector.eta_d"),
        (("channel", "misalignment"), True, ["distribution"],
         "channel.misalignment"),
        (("key_params", "q"), True, ["distribution"], "key_params.q"),
        (("numerics", "tail_tol"), True, ["distribution"], "numerics.tail_tol"),
        (("key_params", "f"), float("inf"), ["keyrate", REPO_STATS],
         "key_params.f"),
        (("source", "mu1"), float("inf"), ["distribution"], "source.mu1"),
        (("source", "mu1"), 10 ** 400, ["distribution"], "source.mu1"),
        (("source",), {"mu1": 1e200, "mu2": 1e200, "t": 0.5}, ["distribution"],
         "mu1 * mu2"),
        (("source",), {"mu1": 0.64, "mu2": 0.08}, ["distribution"], "source.t"),
        (("source", "mu1"), "0.64", ["distribution"], "source.mu1"),
        ((), None, ["scan", "--lengths", "inf,10"], "fiber_length_km"),
        (("search", "mu1"), [1.0, 0.5, 3], ["optimize"], "search.mu1"),
        (("search", "mu2"), [0.05, 0.1, 1], ["optimize"], "search.mu2"),
        (("search", "mu2"), [-0.1, 0.1, 3], ["optimize"], "search.mu2"),
        (("search", "t"), [0.5, 1.5, 3], ["optimize"], "search.t"),
        ((), None, ["scan", "--lengths", "nan"],
         "fiber_length_km must be finite and >= 0 (got nan)"),
        ((), None, ["scan", "--lengths", "1e309"],
         "fiber_length_km must be finite and >= 0 (got inf)"),
        ((), None, ["scan", "--lengths", "10,inf"],
         "fiber_length_km must be finite and >= 0 (got inf)"),
        ((), None, ["scan", "--lengths", "5,-1,3"], "fiber lengths must be >= 0"),
        (("numerics", "theta_nodes"), 65537, ["distribution"],
         "numerics: theta_nodes must be <= 65536 (got 65537)"),
    ], ids=["seed_negative", "seed_bool", "seed_flag_negative",
            "search_axis_not_numeric", "n_max_not_integer", "e0_zero",
            "mu1_bool", "eta_d_bool", "misalignment_bool", "q_bool",
            "tail_tol_bool", "f_infinite", "mu1_infinite", "mu1_int_overflow",
            "mu1_mu2_product_overflow", "source_t_missing", "mu1_string",
            "scan_length_infinite", "search_axis_inverted",
            "search_axis_one_point", "search_intensity_negative",
            "search_t_beyond_one", "scan_length_nan", "scan_length_overflows",
            "scan_length_infinite_after_valid", "scan_length_negative_not_first",
            "theta_nodes_above_bound"])
    def test_bad_field_exits_validation(self, tmp_path, capsys, path, value,
                                        command, field):
        doc = read_json(REPO_CONFIG)
        if path:
            *parents, leaf = path
            section = doc
            for name in parents:
                section = section[name]
            section[leaf] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if command[0] == "simulate":
            command = [*command, "--pulses", "10", "--out", str(tmp_path / "r.csv")]
        assert run_cli(*command, "--config", str(cfg)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        doc = read_json(REPO_CONFIG)
        doc["sources"] = doc["source"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("distribution", "--config", str(cfg)) == EXIT_VALIDATION
        assert "sources" in capsys.readouterr().err


class TestOutputPaths:
    @pytest.mark.parametrize("out", ["missing/dist.json", "."],
                             ids=["missing_directory", "is_directory"])
    def test_unwritable_out_is_unexpected_error(self, config_path, tmp_path,
                                                capsys, out):
        assert run_cli("distribution", "--config", config_path,
                       "--out", str(tmp_path / out)) == EXIT_UNEXPECTED
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(str(tmp_path / out)) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, passive_decoy.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
