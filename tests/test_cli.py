import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from passive_decoy.cli import (EXIT_NO_KEY, EXIT_OK, EXIT_PARSE,
                               EXIT_VALIDATION, main)
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
        for key in ("q_c", "e_c", "q_nc", "e_nc", "q_t", "e_t"):
            assert ing_doc[key] == sim_doc[key]

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
    ], ids=["seed_negative", "seed_bool", "seed_flag_negative",
            "search_axis_not_numeric", "n_max_not_integer", "e0_zero",
            "mu1_bool", "eta_d_bool", "misalignment_bool", "q_bool",
            "tail_tol_bool", "f_infinite", "mu1_infinite", "mu1_int_overflow",
            "mu1_mu2_product_overflow", "source_t_missing", "mu1_string"])
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
