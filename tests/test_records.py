import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passive_decoy import (IngestError, ThresholdDetector, cli, ingest_records,
                           monte_carlo_run, records, simulate,
                           write_records_csv)
from passive_decoy.records import (CSV_COLUMNS, CSV_HEADER, RecordBatch,
                                   TallyCounts, format_batch_csv,
                                   iter_batches_from_csv)
from passive_decoy.reports import dump_json, stats_payload
from test_simulate import make_channel

INT64 = np.iinfo(np.int64)


def reference_format(batch):
    """The record formatter as one f-string per record: the oracle that
    ``format_batch_csv`` must match byte for byte."""
    det = batch.detected.astype(bool)
    out = []
    for i in range(len(batch)):
        bob = str(int(batch.bob_bit[i])) if det[i] else ""
        out.append(f"{int(batch.pulse_index[i])},{int(batch.alice_click[i])},"
                   f"{int(batch.alice_basis[i])},{int(batch.alice_bit[i])},"
                   f"{int(batch.bob_basis[i])},{int(det[i])},{bob}")
    return "\n".join(out) + ("\n" if out else "")


def assert_whole_line_blocks(path, parsed, read):
    """The records file ``path`` is read in more than one block, each ending
    at a line end, holding the lines of one parsed batch and at most
    ``read`` bytes plus the line carried into it."""
    with open(path, "rb") as fh:
        blocks = list(records._file_blocks(fh))
    assert len(blocks) > 1
    assert all(block.endswith(b"\n") for block in blocks)
    assert [block.count(b"\n") for block in blocks] == [len(b) for b in parsed]
    longest_line = max(len(line) for line in b"".join(blocks).split(b"\n"))
    assert max(len(block) for block in blocks) <= read + longest_line


def random_batch(rng, pulse_index):
    n = len(pulse_index)
    flags = [rng.integers(0, 2, n, dtype=np.int8) for _ in range(5)]
    bob = np.where(flags[4] == 1, rng.integers(0, 2, n), -1).astype(np.int8)
    return RecordBatch(np.asarray(pulse_index, dtype=np.int64), *flags, bob)


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

    def test_parsed_columns_are_owned_writable_arrays(self, small_run, tmp_path):
        _, batches = small_run
        path = tmp_path / "records.csv"
        write_records_csv(str(path), batches)
        for batch in iter_batches_from_csv(str(path)):
            for name in CSV_COLUMNS:
                column = getattr(batch, name)
                assert column.dtype == (np.int64 if name == "pulse_index"
                                        else np.int8)
                assert column.flags.writeable and column.flags.owndata

    def test_round_trip_across_chunk_and_parse_batches(
            self, reference_params, reference_detector, tmp_path, monkeypatch):
        # Small chunks and reads so that 2500 pulses cross both boundaries,
        # at offsets that do not line up with each other.
        monkeypatch.setattr(simulate, "_CHUNK_PULSES", 1000)
        monkeypatch.setattr(records, "_READ_BYTES", 10_000)
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
        assert_whole_line_blocks(path, parsed, 10_000)
        for sizes in (batches, parsed):
            index = np.concatenate([b.pulse_index for b in sizes])
            assert np.array_equal(index, np.arange(2500))
        assert tallies.det_click > 0 and tallies.det_noclick > 0
        assert ingest_records(str(path)) == tallies
        assert files[0] == files[1]


class TestFormatOracle:
    def test_random_batches(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 17, 3000):
            batch = random_batch(rng, rng.integers(0, 10 ** 7, n))
            assert format_batch_csv(batch) == reference_format(batch)
        batch = random_batch(rng, rng.integers(0, INT64.max, 3000,
                                               endpoint=True))
        assert format_batch_csv(batch) == reference_format(batch)

    def test_consecutive_indices(self):
        batch = random_batch(np.random.default_rng(5), np.arange(98, 100_012))
        assert format_batch_csv(batch) == reference_format(batch)

    @pytest.mark.parametrize("index", [
        0, 9, 10, 10 ** 18 - 1, 10 ** 18, INT64.max, -5, INT64.min])
    def test_edge_indices(self, index):
        rng = np.random.default_rng(index % 97)
        for pulse_index in ([index], [index, 0, 7], [3, index]):
            batch = random_batch(rng, pulse_index)
            if index < 0:
                # The parser reads no sign, so none is written.
                with pytest.raises(ValueError, match="^pulse_index must be >= 0$"):
                    format_batch_csv(batch)
            else:
                assert format_batch_csv(batch) == reference_format(batch)

    @pytest.mark.parametrize("detected", [0, 1], ids=["none", "all"])
    def test_slice_with_one_detection_state(self, detected):
        batch = random_batch(np.random.default_rng(detected), np.arange(5000))
        batch.detected[:] = detected
        batch.bob_bit[:] = np.where(detected, batch.alice_bit, -1)
        assert format_batch_csv(batch) == reference_format(batch)

    def test_index_widens_at_a_slice_boundary(self, tmp_path):
        # Row 16,384, the first of the second slice, is the first 7-digit
        # index.
        start = 10 ** 6 - records._FORMAT_ROWS
        batch = random_batch(np.random.default_rng(8), np.arange(start, start + 70_000))
        text = format_batch_csv(batch)
        assert text == reference_format(batch)
        assert text.split("\n")[records._FORMAT_ROWS].startswith("1000000,")
        path = tmp_path / "records.csv"
        assert write_records_csv(str(path), [batch]) == 70_000
        assert path.read_text() == CSV_HEADER + "\n" + text

    def test_empty_batch(self):
        batch = random_batch(np.random.default_rng(0), [])
        assert format_batch_csv(batch) == reference_format(batch) == ""

    @pytest.mark.parametrize("column,value", [
        ("alice_click", 2), ("detected", -1), ("bob_bit", 3)])
    def test_rejects_value_outside_domain(self, column, value):
        batch = random_batch(np.random.default_rng(1), [0, 1])
        batch.detected[:] = 1
        batch.bob_bit[:] = 0
        getattr(batch, column)[1] = value
        with pytest.raises(ValueError, match=column):
            format_batch_csv(batch)


class TestBulkIndexParse:
    @pytest.mark.parametrize("pulse_index", [
        np.arange(1100), [399, 999, 10 ** 9, 10 ** 18 - 1, 10 ** 18, INT64.max]],
        ids=["consecutive", "wide"])
    def test_reads_every_digit(self, pulse_index):
        batch = random_batch(np.random.default_rng(3), pulse_index)
        block = np.frombuffer(reference_format(batch).encode(), dtype=np.uint8)
        parsed = records._parse_block(block)
        assert parsed is not None
        assert np.array_equal(parsed.pulse_index, batch.pulse_index)

    @pytest.mark.parametrize("index", [INT64.max + 1, 10 ** 19 - 1])
    def test_leaves_index_beyond_int64_to_per_line_parser(self, index, tmp_path):
        # The bulk parser rejects the block; the per-line wording names the
        # record.
        line = "%d,0,0,0,0,0,\n" % index
        block = np.frombuffer(line.encode(), dtype=np.uint8)
        assert records._parse_block(block) is None
        path = tmp_path / "records.csv"
        path.write_text(CSV_HEADER + "\n" + line)
        with pytest.raises(IngestError, match=f"^record 1: .* range \\(got {index}\\)$"):
            ingest_records(path)


@pytest.mark.parametrize("body,problem", [
    (b"1\n", "expected 7 fields, got 1"),
    (b",\n", "expected 7 fields, got 2"),
    (b"0,0,0,0,0,\n", "expected 7 fields, got 6"),
    (b"0,0,0,0,0,1, \n", "field 'bob_bit' must be 0 or 1 (got ' ')"),
    (b"1,0,0,0,0,0,0,\n", "expected 7 fields, got 8"),
    # The second line lacks the comma the first has too many of, so the
    # block has seven separators a line.
    (b"1,0,0,0,0,0,0,\n123,0,0,0,00,\n", "expected 7 fields, got 8"),
    # Seven separators a line, in lines shorter than a record: the first
    # ends before its tail would start, the second is the whole block.
    (b"7,,,,,,\n0,0,0,0,0,0,\n", "field 'alice_click' must be 0 or 1 (got '')"),
    (b",,,,,,\n", "field 'pulse_index' must be 0 or ASCII digits without a "
     "sign, space or leading zero (got '')"),
], ids=["digit", "comma", "one_byte_short", "space_bob_bit", "comma_in_index",
        "comma_moved_between_lines", "first_line_shorter_than_a_tail",
        "commas_only"])
def test_misshapen_line_is_a_record_error(body, problem, tmp_path):
    assert records._parse_block(np.frombuffer(body, dtype=np.uint8)) is None
    path, out = tmp_path / "records.csv", tmp_path / "stats.json"
    path.write_bytes(CSV_HEADER.encode() + b"\n" + body)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["ingest", str(path), "--out", str(out)])
    assert (code, err.getvalue()) == (cli.EXIT_PARSE, f"error: record 1: {problem}\n")
    assert not out.exists()


class TestIngestValidation:
    """Each case reads its records from a file named by a ``Path``; the
    subclass below names the same file by a ``str``, as the CLI does."""

    path_type = Path

    @pytest.fixture()
    def ingest(self, tmp_path):
        def run(text):
            path = tmp_path / "records.csv"
            path.write_bytes(text.encode("utf-8"))
            return ingest_records(self.path_type(path))
        return run

    def test_empty_file(self, ingest):
        with pytest.raises(IngestError, match="header"):
            ingest("")

    def test_header_only_means_no_records(self, ingest):
        with pytest.raises(IngestError, match="no records"):
            ingest(CSV_HEADER + "\n")

    def test_bob_bit_without_detection_names_record(self, ingest):
        text = CSV_HEADER + "\n0,0,0,0,0,1,1\n1,0,0,0,0,0,1\n"
        with pytest.raises(IngestError, match="record 2"):
            ingest(text)

    def test_detected_without_bob_bit_names_record(self, ingest):
        text = CSV_HEADER + "\n0,0,0,0,0,1,\n"
        with pytest.raises(IngestError, match="record 1"):
            ingest(text)

    def test_non_integer_field(self, ingest):
        text = CSV_HEADER + "\n0,0,x,0,0,0,\n"
        with pytest.raises(IngestError, match="alice_basis"):
            ingest(text)

    @pytest.mark.parametrize("record,field", [
        ("0,0,0,3,0,0,", "alice_bit"),
        ("0,0,2,0,0,0,", "alice_basis"),
        ("0,0,0,0,0,1,5", "bob_bit"),
        ("99999999999999999999,0,0,0,0,0,", "pulse_index"),
    ], ids=["alice_bit", "alice_basis", "bob_bit", "pulse_index"])
    def test_out_of_domain_field(self, ingest, record, field):
        with pytest.raises(IngestError, match=f"record 1: field '{field}'"):
            ingest(CSV_HEADER + "\n" + record + "\n")

    def test_wrong_column_count(self, ingest):
        text = CSV_HEADER + "\n0,0,0,0,0,0\n"
        with pytest.raises(IngestError, match="expected 7 fields"):
            ingest(text)

    @pytest.mark.parametrize("record,message", [
        ("1" * 5000 + ",0,0,0,0,0,",
         "field 'pulse_index' is outside the 64-bit integer range "
         f"(got {'1' * 32}… (5000 chars))"),
        ("0" + "1" * 4999 + ",0,0,0,0,0,",
         "field 'pulse_index' must be 0 or ASCII digits without a sign, "
         f"space or leading zero (got '0{'1' * 31}…' (5000 chars))"),
        ("0," + "x" * 5000 + ",0,0,0,0,",
         f"field 'alice_click' must be 0 or 1 (got '{'x' * 32}…' (5000 chars))"),
        ("0,0,0,0,0,1," + "7" * 5000,
         f"field 'bob_bit' must be 0 or 1 (got '{'7' * 32}…' (5000 chars))"),
    ], ids=["index_digits", "index_leading_zero", "flag", "bob_bit"])
    def test_long_field_is_cut_in_the_message(self, ingest, record, message):
        with pytest.raises(IngestError) as info:
            ingest(CSV_HEADER + "\n" + record + "\n")
        assert str(info.value) == "record 1: " + message

    @pytest.mark.parametrize("record,message", [
        ("9" * 20 + ",0,0,0,0,0,",
         f"field 'pulse_index' is outside the 64-bit integer range (got {'9' * 20})"),
        ("0" + "1" * 31 + ",0,0,0,0,0,",
         "field 'pulse_index' must be 0 or ASCII digits without a sign, "
         f"space or leading zero (got '0{'1' * 31}')"),
        ("0," + "x" * 32 + ",0,0,0,0,",
         f"field 'alice_click' must be 0 or 1 (got '{'x' * 32}')"),
    ], ids=["index_range", "index_leading_zero", "flag"])
    def test_short_field_is_quoted_whole(self, ingest, record, message):
        with pytest.raises(IngestError) as info:
            ingest(CSV_HEADER + "\n" + record + "\n")
        assert str(info.value) == "record 1: " + message

    def test_bad_header(self, ingest):
        with pytest.raises(IngestError, match="bad header"):
            ingest("a,b,c\n0,0,0\n")


class TestIngestValidationFromPath(TestIngestValidation):
    path_type = str


# Header plus record 1, then record 2 with a byte that is not UTF-8.
NOT_UTF8 = (CSV_HEADER.encode() + b"\n0,0,0,0,0,0,\n1,0,0,\xff,0,0,\n")


class TestNotUtf8:
    @pytest.fixture(params=["path"])
    def ingest(self, tmp_path):
        def run(data):
            path = tmp_path / "records.csv"
            path.write_bytes(data)
            return ingest_records(str(path))
        return run

    def test_names_the_record(self, ingest):
        with pytest.raises(IngestError,
                           match="^record 2: byte 0xff is not valid UTF-8$"):
            ingest(NOT_UTF8)

    def test_in_header(self, ingest):
        with pytest.raises(IngestError, match="^bad header: .*xff"):
            ingest(b"pulse_index\xff" + NOT_UTF8[len("pulse_index"):])

    def test_past_the_first_block(self, ingest, monkeypatch):
        monkeypatch.setattr(records, "_READ_BYTES", 10_000)
        body = b"".join(b"%d,0,0,0,0,0,\n" % i for i in range(2000))
        with pytest.raises(IngestError, match="^record 2001: byte 0x80 "):
            ingest(CSV_HEADER.encode() + b"\n" + body + b"2000,0,0,\x80,0,0,\n")

    def test_earlier_malformed_record_wins(self, ingest):
        data = NOT_UTF8.replace(b"\n0,0,0,0,0,0,", b"\n0,0,0,0,0,1,")
        with pytest.raises(IngestError, match="^record 1: detected record"):
            ingest(data)


# Edits to a canonical record line.  "crlf", and "index_19" up to 2**63 - 1,
# keep the line in the record grammar; the others take it out.
MUTATIONS = ("space", "plus", "leading_zeros", "negative", "blank_line", "crlf",
             "flag_2", "flag_x", "wide_flag", "drop_comma", "extra_comma",
             "toggle_bob",
             "index_19", "index_20", "non_ascii", "non_utf8")


def mutate(line, kind, draw):
    body = line.rstrip(b"\r\n")
    ending = line[len(body):]
    fields = body.split(b",")
    field = draw(st.integers(0, len(fields) - 1))
    if kind == "space":
        fields[field] = b" " + fields[field]
    elif kind == "plus":
        fields[field] = b"+" + fields[field]
    elif kind == "leading_zeros":
        fields[0] = b"00" + fields[0]
    elif kind == "negative":
        fields[0] = b"-" + fields[0]
    elif kind in ("flag_2", "flag_x"):
        fields[max(field, 1)] = kind[-1:].encode()
    elif kind == "wide_flag":
        fields[max(field, 1)] = draw(st.sampled_from([b"00", b"01", b"10"]))
    elif kind == "toggle_bob":
        fields[-1] = b"" if fields[-1] else b"1"
    elif kind == "index_19":
        fields[0] = b"%d" % draw(st.integers(10 ** 18, 10 ** 19 - 1))
    elif kind == "index_20":
        fields[0] = draw(st.sampled_from([b"0", b"1"])) + b"%019d" % draw(
            st.integers(0, 10 ** 19 - 1))
    elif kind == "non_ascii":
        fields[field] = draw(st.sampled_from(["\u0661", "\uff10", "\u00e9"])).encode()
    elif kind == "non_utf8":
        fields[field] += draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"]))
    body = b",".join(fields)
    if kind in ("drop_comma", "extra_comma"):
        cut = draw(st.integers(0, len(body)))
        body = (body[:cut] + b"," + body[cut:] if kind == "extra_comma"
                else body[:cut] + body[cut:].replace(b",", b"", 1))
    if kind == "blank_line":
        ending += draw(st.sampled_from([b"\n", b"\r\n"]))
    elif kind == "crlf":
        ending = b"\r\n"
    return body + ending


@st.composite
def mutated_csv(draw):
    n = draw(st.integers(1, 25))
    start = draw(st.sampled_from([0, 5, 999_990]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    text = reference_format(random_batch(rng, np.arange(start, start + n)))
    lines = text.encode().splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        lines[i] = mutate(lines[i], draw(st.sampled_from(MUTATIONS)), draw)
    body = b"".join(lines)
    if draw(st.booleans()):
        body = body.rstrip(b"\r\n")
    return CSV_HEADER.encode() + b"\n" + body


def parse_outcome(parse):
    """The concatenated columns of a parse, or its error message."""
    try:
        batches = list(parse())
    except IngestError as exc:
        return str(exc)
    return {name: np.concatenate([getattr(b, name) for b in batches])
            for name in CSV_COLUMNS}


# One record line of the grammar, without its end: what format_batch_csv
# writes for an index up to 2**63 - 1.
RECORD_LINE = re.compile(rb"(0|[1-9][0-9]*),([01]),([01]),([01]),([01]),(0,|1,[01])")


def parse_per_line(data):
    """The record grammar, one line at a time: the columns of the records
    file ``data``, or ``"record N: "`` for its first line outside the
    grammar, or the message for a file without records."""
    header, *lines = re.split(rb"\r\n|\r|\n", data)
    assert header == CSV_HEADER.encode()
    if lines and not lines[-1]:
        lines.pop()  # the end of the last line
    rows = []
    for n, line in enumerate(lines, 1):
        match = RECORD_LINE.fullmatch(line)
        if not match or int(match[1]) > INT64.max:
            return f"record {n}: "
        detected, _, bob = match[6].partition(b",")
        rows.append([int(v) for v in match.groups()[:5]]
                    + [int(detected), int(bob or -1)])
    if not rows:
        return "no records in file"
    return {name: np.array(column, dtype=np.int64 if name == "pulse_index"
                           else np.int8)
            for name, column in zip(CSV_COLUMNS, zip(*rows))}


def assert_same_outcome(got, want):
    """``got``, a parse outcome, has ``want``'s columns, or is an error
    message that starts with ``want``."""
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want), got
        return
    assert not isinstance(got, str), got
    for name in CSV_COLUMNS:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=mutated_csv())
def test_bulk_parser_matches_per_line_parser(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        # Blocks of some 7 lines: most files mix bulk-parsed and rejected
        # blocks.
        mp.setattr(records, "_READ_BYTES", 100)
        got = parse_outcome(lambda: iter_batches_from_csv(str(path)))
    assert_same_outcome(got, parse_per_line(data))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=mutated_csv(),
       endings=st.lists(st.sampled_from([b"\n", b"\r", b"\r\n"]), min_size=1,
                        max_size=5),
       read=st.integers(1, 40))
def test_any_line_ends_parse_as_per_line(data, endings, read, tmp_path_factory):
    # Every line gets one of the three endings, and reads are so short that
    # cuts fall at, inside and just after every kind of ending.
    lines = re.split(rb"\r\n|\r|\n", data)
    data = b"".join(line + endings[i % len(endings)]
                    for i, line in enumerate(lines[:-1])) + lines[-1]
    path = tmp_path_factory.getbasetemp() / "line_ends.csv"
    path.write_bytes(data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "_READ_BYTES", read)
        got = parse_outcome(lambda: iter_batches_from_csv(str(path)))
    assert_same_outcome(got, parse_per_line(data))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(index=st.lists(st.one_of(st.sampled_from([0, 9, 10, INT64.max]),
                                st.integers(0, INT64.max)), min_size=1, max_size=40),
       ending=st.sampled_from([b"\n", b"\r\n", b"\r"]), last_end=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_formatted_batch_parses_back(index, ending, last_end, seed,
                                           tmp_path_factory):
    batch = random_batch(np.random.default_rng(seed), index)
    body = format_batch_csv(batch).encode().replace(b"\n", ending)
    if not last_end:
        body = body.removesuffix(ending)
    path = tmp_path_factory.getbasetemp() / "formatted.csv"
    path.write_bytes(CSV_HEADER.encode() + ending + body)
    parsed = parse_outcome(lambda: iter_batches_from_csv(str(path)))
    assert_same_outcome(parsed, {name: getattr(batch, name) for name in CSV_COLUMNS})


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=mutated_csv())
def test_ingest_of_mutated_records_succeeds_or_names_the_record(
        data, tmp_path_factory):
    # Exit 0 with the grammar's tallies, or exit 3 with one error line and
    # no output file.
    base = tmp_path_factory.getbasetemp()
    path, out = base / "fuzz_records.csv", base / "fuzz_stats.json"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["ingest", str(path), "--out", str(out)])
    err = err.getvalue()
    want = parse_per_line(data)
    if isinstance(want, dict):
        tallies = TallyCounts.from_batch(RecordBatch(**want))
        if tallies.sifted:
            assert (code, err) == (cli.EXIT_OK, "")
            assert out.read_text() == dump_json(stats_payload(
                tallies.to_observed(), tallies.provenance(str(path))))
            return
        want = "no sifted pulses"
    assert code == cli.EXIT_PARSE
    assert re.fullmatch(f"error: {re.escape(want)}[^\n]*\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"],
                         ids=["lf", "crlf", "cr"])
def test_blank_last_line_is_a_record_error(ending, tmp_path):
    # A file's last line needs no end, but a line end after it opens a
    # blank line, whichever end it is.
    path = tmp_path / "records.csv"
    path.write_bytes(CSV_HEADER.encode() + ending + b"0,0,0,0,0,0," + ending * 2)
    with pytest.raises(IngestError, match="^record 2: expected 7 fields, got 1$"):
        ingest_records(str(path))


@pytest.mark.parametrize("read", [1, 2, 3, 5, 8, 13, 21, 34])
def test_mixed_line_ends_are_cut_into_whole_blocks(read, tmp_path, monkeypatch):
    # A cut between a "\r" and its "\n" would start the next block with a
    # blank line, which the bulk parser rejects.
    batch = random_batch(np.random.default_rng(read), np.arange(100))
    lines = format_batch_csv(batch).encode().split(b"\n")[:-1]
    endings = (b"\r\n", b"\r", b"\n")
    path = tmp_path / "mixed.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\r" + b"".join(
        line + endings[i % 3] for i, line in enumerate(lines)))
    monkeypatch.setattr(records, "_READ_BYTES", read)
    parsed = list(iter_batches_from_csv(str(path)))
    assert_whole_line_blocks(path, parsed, read)
    for name in CSV_COLUMNS:
        column = np.concatenate([getattr(b, name) for b in parsed])
        assert np.array_equal(column, getattr(batch, name)), name


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
