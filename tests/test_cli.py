import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passive_decoy import load_run_config, monte_carlo_run
from passive_decoy.cli import (EXIT_NO_KEY, EXIT_OK, EXIT_PARSE,
                               EXIT_UNEXPECTED, EXIT_VALIDATION, main)
from passive_decoy.records import CSV_HEADER
from passive_decoy.reports import load_schema

from conftest import REFERENCE_RATE, UNDERFLOW_OBSERVED

REPO_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "reference.json")
# sha256 of the records that simulate writes for the reference config and
# seed 20261019, by --pulses.
RECORD_DIGESTS = {
    1: "b8dfefd65204a85b19315cbed399dee520488877f2f5df99b01857a415bb36be",
    2 ** 20 + 1: "5f001ecda0602855a05dc09024beb42827a40506bcc0643e866d1862ea5cff63",
    3 * 2 ** 19: "8e859a0f336e9411a22ee6f99eebed0d0458ba38c496d210879accde4fc7899f",
}
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


def unsifted_seed(config_path):
    """The first seed whose one-pulse run of the config has no sifted pulse."""
    config = load_run_config(config_path)
    return next(seed for seed in itertools.count()
                if monte_carlo_run(config.source, config.alice_detector,
                                   config.channel, 1, seed).sifted == 0)


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

    def test_blind_monitor_has_no_click_moments(self, tmp_path):
        doc = read_json(REPO_CONFIG)
        doc["alice_detector"] = {"epsilon": 0.0, "eta_d": 0.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "dist.json"
        assert run_cli("distribution", "--config", str(cfg),
                       "--out", str(out)) == EXIT_OK
        payload = read_json(out)
        jsonschema.validate(payload, load_schema("distribution_report"))
        assert payload["branch_probability"]["click"] == 0.0
        assert payload["g2"]["click"] is None and payload["mean"]["click"] is None
        assert payload["g2"]["noclick"] == payload["g2"]["total"]

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

    def test_underflowing_yield_gives_a_valid_report(self, config_path, tmp_path,
                                                    capsys):
        stats = tmp_path / "tiny.json"
        stats.write_text(json.dumps(UNDERFLOW_OBSERVED))
        out = tmp_path / "report.json"
        assert run_cli("keyrate", str(stats), "--config", config_path,
                       "--out", str(out)) == EXIT_NO_KEY
        assert capsys.readouterr() == ("", "")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        payload = json.loads(out.read_text(), parse_constant=refuse)
        jsonschema.validate(payload, load_schema("keyrate_report"))
        assert payload["bounds"]["y1_lower"] > 0.0
        assert payload["diagnostics"]["no_single_photon_yield"] is True
        assert payload["rates"]["r_total"] == 0.0

    def test_malformed_stats_is_parse_error(self, config_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"q_c": 1e-6,,}')
        assert run_cli("keyrate", str(bad), "--config",
                       config_path) == EXIT_PARSE
        assert "line" in capsys.readouterr().err

    def test_stats_byte_not_utf8_is_parse_error(self, config_path, tmp_path,
                                                capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"q_c": 1e-6\xff}')
        assert run_cli("keyrate", str(bad), "--config",
                       config_path) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: stats file {bad} is not valid UTF-8: byte 0xff at offset 12\n")

    def test_missing_field_names_it(self, config_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"q_c": 1e-6, "e_c": 0.05, "q_nc": 1e-4}))
        assert run_cli("keyrate", str(bad), "--config",
                       config_path) == EXIT_PARSE
        assert "e_nc" in capsys.readouterr().err

    @pytest.mark.parametrize("q_c,code,message", [
        ("1" + "0" * 400, EXIT_PARSE,
         "stats document: field 'q_c' is beyond the float range"),
        ("1" * 5000, EXIT_PARSE, "holds an integer with too many digits"),
        ("NaN", EXIT_VALIDATION, "q_c must be within [0, 1] (got nan)"),
        ("Infinity", EXIT_VALIDATION, "q_c must be within [0, 1] (got inf)"),
    ], ids=["int_401_digits", "int_5000_digits", "nan", "infinity"])
    def test_number_outside_the_floats(self, config_path, tmp_path, capsys,
                                       q_c, code, message):
        bad = tmp_path / "bad.json"
        bad.write_text('{"q_c": %s, "e_c": 0.05, "q_nc": 1e-4, "e_nc": 0.05}' % q_c)
        assert run_cli("keyrate", str(bad), "--config", config_path) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


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

    @pytest.mark.parametrize("pulses, digest", RECORD_DIGESTS.items())
    def test_records_keep_their_bytes(self, tmp_path, pulses, digest):
        # Chunk i draws from SeedSequence(seed).spawn(n)[i]: these digests
        # were written when every chunk's seed was spawned up front, and
        # each chunk was sampled in one piece.
        out = tmp_path / "records.csv"
        assert run_cli("simulate", "--config", REPO_CONFIG, "--pulses",
                       str(pulses), "--seed", "20261019", "--out", str(out),
                       "--stats-out", os.devnull) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("block", [1000, 2 ** 14, 2 ** 16, 2 ** 20])
    def test_block_size_is_not_part_of_the_stream(self, tmp_path, monkeypatch,
                                                  block):
        # Two chunks, the second of 2^19 pulses: with 1000 its last block
        # is short, with 2^20 each chunk is one block.  The writer's slices
        # move with the sampler's block: 2^14 is the writer's default and
        # 2^16 the sampler's, which the test above runs together.
        from passive_decoy import records, simulate
        monkeypatch.setattr(records, "_FORMAT_ROWS", block)
        monkeypatch.setattr(simulate, "_BLOCK_PULSES", block)
        self.test_records_keep_their_bytes(tmp_path, 3 * 2 ** 19,
                                           RECORD_DIGESTS[3 * 2 ** 19])

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
                       "--seed", str(unsifted_seed(config_path)),
                       "--out", str(records)) == EXIT_PARSE
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

    def test_one_file_for_records_and_stats_is_refused(self, config_path,
                                                      tmp_path, monkeypatch,
                                                      capsys):
        # The stats file would replace the records.  The paths are judged
        # before any sampling, with symlinks followed.
        from passive_decoy import simulate
        monkeypatch.setattr(simulate, "monte_carlo_run", None)
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        link.symlink_to(real)
        for out, stats in ((real, real), (link, real), (real, link)):
            for exists in (False, True):
                if exists:
                    real.write_text("old")
                assert run_cli("simulate", "--config", config_path,
                               "--pulses", "100", "--seed", "3", "--out", str(out),
                               "--stats-out", str(stats)) == EXIT_VALIDATION
                err = capsys.readouterr().err
                assert "--out and --stats-out name the same file" in err
                assert real.read_text() == "old" if exists else not real.exists()
                real.unlink(missing_ok=True)

    def test_one_device_for_records_and_stats_is_allowed(self, config_path):
        assert run_cli("simulate", "--config", config_path, "--pulses", "100",
                       "--seed", "3", "--out", os.devnull,
                       "--stats-out", os.devnull) == EXIT_OK

    def test_symlinked_out_replaces_the_file_it_points_to(self, config_path,
                                                          tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old")
        link.symlink_to(real)
        argv = ["simulate", "--config", config_path,
                "--seed", str(unsifted_seed(config_path)),
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

    @pytest.mark.parametrize("line", [
        b"+1,0,0,0,0,0,", b" 1,0,0,0,0,0,", b"01,0,0,0,0,0,", b"-1,0,0,0,0,0,",
        b"", "\u0661,0,0,0,0,0,".encode(), b"1,0,+0,0,0,0,", b"1,0,0,0,0,1, 1",
    ], ids=["plus", "space", "leading_zero", "negative", "blank_line",
            "non_ascii_digit", "flag_plus", "bob_bit_space"])
    def test_ingest_rejects_forms_outside_the_grammar(self, tmp_path, capsys,
                                                      line):
        path, out = tmp_path / "r.csv", tmp_path / "s.json"
        path.write_bytes(CSV_HEADER.encode() + b"\n0,0,0,0,0,0,\n" + line
                         + b"\n2,0,0,0,0,0,\n")
        assert run_cli("ingest", str(path), "--out", str(out)) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: record 2: ") and err.count("\n") == 1
        assert not out.exists()

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


def nested_array(depth):
    """An array holding an array, ``depth`` deep."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


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
        (("source", "mu1"), "x" * 100_000, ["distribution"],
         f"source.mu1 must be a finite number (got '{'x' * 32}…' (100000 chars))"),
        (("search", "t"), nested_array(500), ["optimize"],
         f"search.t must be an array of 3 items (got {'[' * 32}… (1000 chars))"),
        (("numerics", "n_max"), 10 ** 3999, ["distribution"],
         f"numerics: n_max must be within [2, 60] (got 1{'0' * 31}… (4000 chars))"),
        (("seed",), -10 ** 3999, ["simulate"],
         f"seed must be >= 0 (got -{'1' + '0' * 30}… (4001 chars))"),
    ], ids=["seed_negative", "seed_bool", "seed_flag_negative",
            "search_axis_not_numeric", "n_max_not_integer", "e0_zero",
            "mu1_bool", "eta_d_bool", "misalignment_bool", "q_bool",
            "tail_tol_bool", "f_infinite", "mu1_infinite", "mu1_int_overflow",
            "mu1_mu2_product_overflow", "source_t_missing", "mu1_string",
            "scan_length_infinite", "search_axis_inverted",
            "search_axis_one_point", "search_intensity_negative",
            "search_t_beyond_one", "scan_length_nan", "scan_length_overflows",
            "scan_length_infinite_after_valid", "scan_length_negative_not_first",
            "theta_nodes_above_bound", "mu1_long_string", "search_deep_array",
            "n_max_4000_digits", "seed_4000_digits"])
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
        assert err.count("\n") == 1 and len(err) < 200

    def test_config_byte_not_utf8_is_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"source"\xc3: {}}')
        assert run_cli("distribution", "--config", str(cfg)) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: config {cfg} is not valid UTF-8: byte 0xc3 at offset 9\n")

    def test_unknown_section_rejected(self, tmp_path, capsys):
        doc = read_json(REPO_CONFIG)
        doc["sources"] = doc["source"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("distribution", "--config", str(cfg)) == EXIT_VALIDATION
        assert "sources" in capsys.readouterr().err


# A file each JSON input can fail to load as: contents (None: no file) and
# the start of the one error line, with the file named as {what} {path}.
# The UTF-8 case has a test per input above.
UNLOADABLE_JSON = {
    "missing": (None, "cannot read {what} {path}: "),
    "not_json": (b'{"a": 1,,}', "{what} {path} is not valid JSON (line 1, column 9): "
                 "Expecting property name enclosed in double quotes\n"),
    "too_deep": (b"[" * 100_000, "{what} {path} nests too deeply to parse\n"),
}


@pytest.mark.parametrize("case", sorted(UNLOADABLE_JSON))
@pytest.mark.parametrize("what", ["config", "stats file"])
def test_unloadable_json_file_is_parse_error(tmp_path, capsys, case, what):
    data, message = UNLOADABLE_JSON[case]
    bad = tmp_path / "bad.json"
    if data is not None:
        bad.write_bytes(data)
    argv = (["distribution", "--config", str(bad)] if what == "config"
            else ["keyrate", str(bad), "--config", REPO_CONFIG])
    assert run_cli(*argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(what=what, path=bad))
    assert err.count("\n") == 1


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


REFERENCE_BYTES = {"config": Path(REPO_CONFIG).read_bytes(),
                   "stats": Path(REPO_STATS).read_bytes()}


@st.composite
def edited(draw, data):
    """``data`` with one to three bytes replaced, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "replace":
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    return bytes(data)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(target=st.sampled_from(sorted(REFERENCE_BYTES)), draw=st.data())
def test_keyrate_on_edited_json_never_exits_unexpectedly(target, draw,
                                                         tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    paths = {name: base / f"fuzz_{name}.json" for name in REFERENCE_BYTES}
    for name, data in REFERENCE_BYTES.items():
        paths[name].write_bytes(draw.draw(edited(data)) if name == target
                                else data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli("keyrate", str(paths["stats"]), "--config",
                       str(paths["config"]), "--out", str(base / "fuzz_report.json"))
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PARSE, EXIT_NO_KEY), err
    if code in (EXIT_VALIDATION, EXIT_PARSE):
        assert re.fullmatch("error: [^\n]*\n", err), err
    else:
        assert err == ""


def small_search_config() -> bytes:
    """The reference config with a 2 x 2 x 2 search, so that an edit that
    adds digits to a grid size still runs in well under a second."""
    doc = read_json(REPO_CONFIG)
    doc["search"].update(mu1=[0.14, 1.14, 2], mu2=[0.02, 0.14, 2], t=[0.3, 0.7, 2])
    return json.dumps(doc, indent=1).encode()


SMALL_SEARCH_CONFIG = small_search_config()
CONFIG_COMMANDS = {"distribution": [], "scan": ["--lengths", "0,10,50"],
                   "optimize": []}


# About 2 s: most edits break the JSON, about one in ten reaches validation.
@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(command=st.sampled_from(sorted(CONFIG_COMMANDS)),
       data=edited(SMALL_SEARCH_CONFIG))
def test_other_commands_on_edited_config_never_exit_unexpectedly(
        command, data, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    config = base / "fuzz_search_config.json"
    config.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(command, "--config", str(config), *CONFIG_COMMANDS[command],
                       "--out", str(base / "fuzz_out"))
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PARSE, EXIT_NO_KEY), err
    if code in (EXIT_VALIDATION, EXIT_PARSE):
        assert re.fullmatch("error: [^\n]*\n", err), err
    else:
        assert err == ""


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=edited(REFERENCE_BYTES["config"]))
def test_simulate_on_edited_config_never_exits_unexpectedly(data,
                                                            tmp_path_factory):
    # Exit 0 with both outputs, or exit 2 or 3 with one error line and
    # neither output.
    base = tmp_path_factory.getbasetemp()
    config = base / "fuzz_simulate_config.json"
    config.write_bytes(data)
    outputs = base / "fuzz_records.csv", base / "fuzz_stats.json"
    for path in outputs:
        path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli("simulate", "--config", str(config), "--pulses", "2000",
                       "--out", str(outputs[0]), "--stats-out", str(outputs[1]))
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PARSE), err
    if code == EXIT_OK:
        assert err == ""
        assert all(path.exists() for path in outputs)
    else:
        assert re.fullmatch("error: [^\n]*\n", err), err
        assert not any(path.exists() for path in outputs)


# argv of a failing call, its exit code and its one error line.  In argv and
# the line, {tmp} is the test's directory and the other names are the input
# files that error_inputs writes there.
ERROR_CASES = {
    "simulate_without_channel": (
        ["simulate", "--config", "{no_channel}", "--pulses", "10",
         "--out", "{tmp}/records.csv"],
        EXIT_VALIDATION, "simulate requires a channel section in the config"),
    "optimize_without_channel": (
        ["optimize", "--config", "{no_channel}", "--out", "{tmp}/trace.csv"],
        EXIT_VALIDATION, "optimize requires a channel section in the config"),
    "scan_without_channel": (
        ["scan", "--config", "{no_channel}", "--lengths", "10",
         "--out", "{tmp}/scan.csv"],
        EXIT_VALIDATION, "scan requires a channel section in the config"),
    "simulate_without_seed": (
        ["simulate", "--config", "{no_seed}", "--pulses", "10",
         "--out", "{tmp}/records.csv"],
        EXIT_VALIDATION, "simulate requires a seed (flag --seed or config)"),
    "scan_length_not_a_number": (
        ["scan", "--config", "{config}", "--lengths", "1,x", "--out", "{tmp}/scan.csv"],
        EXIT_VALIDATION, "--lengths must be comma-separated numbers (got '1,x')"),
    "ingest_directory": (
        ["ingest", "{tmp}", "--out", "{tmp}/stats.json"],
        EXIT_PARSE, "cannot read records file: [Errno 21] Is a directory: '{tmp}'"),
    "stats_root_array": (
        ["keyrate", "{array_stats}", "--config", "{config}", "--out", "{tmp}/r.json"],
        EXIT_PARSE, "stats document must be a JSON object"),
    "stats_field_string": (
        ["keyrate", "{string_stats}", "--config", "{config}", "--out", "{tmp}/r.json"],
        EXIT_PARSE, "stats document: field 'q_c' must be a number"),
}


def error_inputs(tmp_path):
    """Writes the inputs of ERROR_CASES; returns their paths by name."""
    config, stats = read_json(REPO_CONFIG), read_json(REPO_STATS)
    docs = {"config": config,
            "no_channel": {k: v for k, v in config.items() if k != "channel"},
            "no_seed": {k: v for k, v in config.items() if k != "seed"},
            "array_stats": [stats],
            "string_stats": {**stats, "q_c": str(stats["q_c"])}}
    paths = {"tmp": str(tmp_path)}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_failure_prints_one_line_naming_the_input(tmp_path, capsys, case):
    argv, code, message = ERROR_CASES[case]
    paths = error_inputs(tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    assert run_cli(*(arg.format(**paths) for arg in argv)) == code
    assert capsys.readouterr() == ("", f"error: {message.format(**paths)}\n")
    assert sorted(os.listdir(tmp_path)) == inputs


def test_simulate_refuses_records_to_stdout(config_path, tmp_path, monkeypatch,
                                            capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)
    assert run_cli("simulate", "--config", config_path, "--pulses", "1000",
                   "--seed", "1", "--out", "-", "--stats-out", "-") == EXIT_VALIDATION
    assert capsys.readouterr() == (
        "", "error: --out must name a file: records are not written to stdout\n")
    assert os.listdir(empty) == []


# argv of each command that can write to stdout, and the flag naming its
# target; {config} and {records} are the stdout_inputs files, {tmp} the
# test's directory.
STDOUT_CALLS = {
    "distribution_json": (["distribution", "--config", "{config}"], "--out"),
    "distribution_csv": (["distribution", "--config", "{config}",
                          "--format", "csv"], "--out"),
    "keyrate": (["keyrate", REPO_STATS, "--config", "{config}"], "--out"),
    "ingest": (["ingest", "{records}"], "--out"),
    "optimize": (["optimize", "--config", "{config}"], "--out"),
    "scan": (["scan", "--config", "{config}", "--lengths", "0,10,50"], "--out"),
    "simulate": (["simulate", "--config", "{config}", "--pulses", "2000",
                  "--seed", "1", "--out", "{tmp}/records.csv"], "--stats-out"),
}


@pytest.fixture(scope="module")
def stdout_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("stdout")
    config, records = base / "config.json", base / "records.csv"
    config.write_bytes(SMALL_SEARCH_CONFIG)
    assert run_cli("simulate", "--config", str(config), "--pulses", "2000",
                   "--seed", "1", "--out", str(records),
                   "--stats-out", os.devnull) == EXIT_OK
    return {"config": str(config), "records": str(records)}


@pytest.mark.parametrize("target", ["omitted", "dash"])
@pytest.mark.parametrize("command", sorted(STDOUT_CALLS))
def test_stdout_gets_the_bytes_of_a_file_target(stdout_inputs, tmp_path, capsys,
                                                command, target):
    argv, flag = STDOUT_CALLS[command]
    argv = [arg.format(tmp=tmp_path, **stdout_inputs) for arg in argv]
    out = tmp_path / "out"
    code = run_cli(*argv, flag, str(out))
    assert code == EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert run_cli(*argv, *([flag, "-"] if target == "dash" else [])) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == out.read_bytes()
