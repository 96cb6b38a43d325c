import io

import numpy as np
import pytest

from passive_decoy import (IngestError, ThresholdDetector, ingest_records,
                           monte_carlo_run, records, simulate,
                           write_records_csv)
from passive_decoy.records import (CSV_HEADER, RecordBatch, TallyCounts,
                                   iter_batches_from_csv)
from test_simulate import make_channel


@pytest.fixture(scope="module")
def small_run(reference_params, reference_detector):
    batches = []
    tallies = monte_carlo_run(reference_params, reference_detector, make_channel(),
                              30_000, seed=11, record_sink=batches.append)
    return tallies, batches


class TestCsvRoundTrip:
    def test_ingest_reproduces_simulator_aggregation(self, small_run, tmp_path):
        tallies, batches = small_run
        path = tmp_path / "records.csv"
        count = write_records_csv(str(path), batches)
        assert count == tallies.pulses == 30_000
        ingested = ingest_records(str(path))
        # Bit-for-bit: same integer counts, same divisions.
        assert ingested.to_observed() == tallies.to_observed()
        assert ingested == tallies

    def test_csv_shape(self, small_run, tmp_path):
        _, batches = small_run
        path = tmp_path / "records.csv"
        write_records_csv(str(path), batches)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("pulse_index,alice_click,alice_basis,alice_bit,"
                            "bob_basis,detected,bob_bit")
        for line in lines[1:200]:
            fields = line.split(",")
            assert len(fields) == 7
            assert (fields[6] == "") == (fields[5] == "0")

    def test_provenance_counts(self, small_run, tmp_path):
        tallies, batches = small_run
        path = tmp_path / "records.csv"
        write_records_csv(str(path), batches)
        prov = ingest_records(str(path)).provenance(str(path))
        assert prov["records"] == 30_000
        assert prov["sifted"] == tallies.sifted
        assert prov["source_path"] == str(path)

    def test_round_trip_across_chunk_and_parse_batches(
            self, reference_params, reference_detector, tmp_path, monkeypatch):
        # Small chunks and parse batches so that 2500 pulses cross both
        # boundaries, at offsets that do not line up with each other.
        monkeypatch.setattr(simulate, "_CHUNK_PULSES", 1000)
        monkeypatch.setattr(records, "_PARSE_BATCH", 700)
        channel = make_channel(fiber_length_km=0.0, alice_internal_loss_db=0.0,
                               bob_detector=ThresholdDetector(1e-3, 0.9))
        files = []
        for run in range(2):
            batches = []
            tallies = monte_carlo_run(reference_params, reference_detector,
                                      channel, 2500, seed=17,
                                      record_sink=batches.append)
            path = tmp_path / f"run{run}.csv"
            write_records_csv(str(path), batches)
            files.append(path.read_bytes())
        assert [len(b) for b in batches] == [1000, 1000, 500]
        parsed = list(iter_batches_from_csv(str(path)))
        assert [len(b) for b in parsed] == [700, 700, 700, 400]
        for sizes in (batches, parsed):
            index = np.concatenate([b.pulse_index for b in sizes])
            assert np.array_equal(index, np.arange(2500))
        assert tallies.det_click > 0 and tallies.det_noclick > 0
        assert ingest_records(str(path)) == tallies
        assert files[0] == files[1]


def ingest_records_text(text):
    return ingest_records(io.StringIO(text))


class TestIngestValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="header"):
            ingest_records(str(path))

    def test_header_only_means_no_records(self):
        with pytest.raises(IngestError, match="no records"):
            ingest_records_text(CSV_HEADER + "\n")

    def test_bob_bit_without_detection_names_record(self):
        text = CSV_HEADER + "\n0,0,0,0,0,1,1\n1,0,0,0,0,0,1\n"
        with pytest.raises(IngestError, match="record 2"):
            ingest_records_text(text)

    def test_detected_without_bob_bit_names_record(self):
        text = CSV_HEADER + "\n0,0,0,0,0,1,\n"
        with pytest.raises(IngestError, match="record 1"):
            ingest_records_text(text)

    def test_non_integer_field(self):
        text = CSV_HEADER + "\n0,0,x,0,0,0,\n"
        with pytest.raises(IngestError, match="alice_basis"):
            ingest_records_text(text)

    @pytest.mark.parametrize("record,field", [
        ("0,0,0,3,0,0,", "alice_bit"),
        ("0,0,2,0,0,0,", "alice_basis"),
        ("0,0,0,0,0,1,5", "bob_bit"),
        ("99999999999999999999,0,0,0,0,0,", "pulse_index"),
    ], ids=["alice_bit", "alice_basis", "bob_bit", "pulse_index"])
    def test_out_of_domain_field(self, record, field):
        with pytest.raises(IngestError, match=f"record 1: field '{field}'"):
            ingest_records_text(CSV_HEADER + "\n" + record + "\n")

    def test_wrong_column_count(self):
        text = CSV_HEADER + "\n0,0,0,0,0,0\n"
        with pytest.raises(IngestError, match="expected 7 fields"):
            ingest_records_text(text)

    def test_bad_header(self):
        with pytest.raises(IngestError, match="bad header"):
            ingest_records_text("a,b,c\n0,0,0\n")


class TestTallies:
    def test_counting_definitions(self):
        # Hand-built four-pulse batch covering every combination used in the
        # gain and error definitions.
        batch = RecordBatch(
            pulse_index=np.arange(4),
            alice_click=np.array([1, 1, 0, 0], dtype=np.int8),
            alice_basis=np.array([0, 0, 1, 1], dtype=np.int8),
            alice_bit=np.array([0, 1, 1, 0], dtype=np.int8),
            bob_basis=np.array([0, 1, 1, 1], dtype=np.int8),
            detected=np.array([1, 1, 1, 0], dtype=np.int8),
            bob_bit=np.array([1, 1, 1, -1], dtype=np.int8))
        t = TallyCounts.from_batch(batch)
        assert t.pulses == 4
        assert t.sifted == 3            # pulses 0, 2, 3
        assert t.sifted_clicks == 1     # pulse 0
        assert t.det_click == 1         # pulse 0
        assert t.det_noclick == 1       # pulse 2
        assert t.err_click == 1         # pulse 0: bits 0 vs 1
        assert t.err_noclick == 0       # pulse 2: bits agree
        stats = t.to_observed()
        assert stats.q_c == pytest.approx(1 / 3)
        assert stats.q_nc == pytest.approx(1 / 3)
        assert stats.e_c == 1.0
        assert stats.e_nc == 0.0

    def test_no_sifted_pulses_rejected(self):
        with pytest.raises(IngestError, match="no sifted"):
            TallyCounts(pulses=5).to_observed()
