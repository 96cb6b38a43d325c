"""Memory bounds of the click-record path.

A Monte Carlo run written through the records writer, a batch written
through ``simulate``'s record sink or ``write_records_csv``, and ingesting a
file each work through blocks of a fixed size, so their heap peaks do not
grow with the chunk, the run or the file.  The heap is measured with
``tracemalloc``, to which numpy reports its array buffers; the peak RSS of
whole ``simulate`` and ``ingest`` processes is measured too, on Linux.
"""

import contextlib
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from passive_decoy import (IngestError, PulsePairParams, ThresholdDetector,
                           cli, ingest_records, records, simulate,
                           write_records_csv)
from passive_decoy.records import (CSV_COLUMNS, CSV_HEADER, TallyCounts,
                                   format_batch_csv, open_records_csv)
from passive_decoy.simulate import _chunk_draws, _simulate_chunk

from conftest import REFERENCE_DETECTOR, REFERENCE_SOURCE
from test_bit_identity import bright_channel
from test_cli import REPO_CONFIG
from test_imports import run_fresh
from test_records import random_batch

MB = 2 ** 20
CHUNK = 2 ** 20
# Two chunks, the second of one block and 3 pulses.
RUN_PULSES = CHUNK + simulate._BLOCK_PULSES + 3
# Each heap bound is the peak measured with Python 3.11 and numpy 2.4 (2.6,
# 1.1 and 2.3 MB) plus a margin of about 1.5 MB, rounded up to a whole MB.
RUN_HEAP_MB = 5
SINK_HEAP_MB = 3
INGEST_HEAP_MB = 4
# What a run may hold at a record-sink call beyond the batch's columns
# (measured: 6 KB; three float rows kept across blocks would add 1.5 MB).
SINK_HELD_BYTES = 64 * 1024
# Runs the command in argv and prints its exit status and peak RSS.  Linux
# carries a parent's RSS high-water mark into a child it spawns, so the
# child comes from this small interpreter, not from the test process.
LAUNCHER = ("import json, os, subprocess, sys; "
            "_, status, usage = os.wait4(subprocess.Popen(sys.argv[1:]).pid, 0); "
            "print(json.dumps([status, usage.ru_maxrss]))")


@contextlib.contextmanager
def heap_peak():
    """Yields a dict whose ``"mb"`` is, after the block, the peak of the
    traced heap during the block, in MB above its size at the start."""
    peak = {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield peak
        peak["mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB
    finally:
        tracemalloc.stop()


def sample_chunk(size=CHUNK, seed=5):
    """One chunk sampled in one piece, with the draws of
    ``default_rng(seed)``."""
    return _simulate_chunk(PulsePairParams(**REFERENCE_SOURCE),
                           ThresholdDetector(**REFERENCE_DETECTOR),
                           bright_channel(), 0, size,
                           _chunk_draws(np.random.SeedSequence(seed), size))


def canonical_records(n, seed=3):
    """A records file body of ``n`` canonical lines with random flags."""
    batch = random_batch(np.random.default_rng(seed), np.arange(n))
    return (CSV_HEADER + "\n" + format_batch_csv(batch)).encode()


def test_a_run_samples_tallies_and_writes_in_blocks(tmp_path):
    # The writer opens inside the measurement, so its buffers count too.
    with heap_peak() as peak, open_records_csv(str(tmp_path / "r.csv")) as write:
        tallies = simulate.monte_carlo_run(PulsePairParams(**REFERENCE_SOURCE),
                                           ThresholdDetector(**REFERENCE_DETECTOR),
                                           bright_channel(), RUN_PULSES, 5,
                                           record_sink=write)
    assert tallies.pulses == RUN_PULSES
    assert peak["mb"] <= RUN_HEAP_MB


def test_a_run_holds_only_the_batch_at_each_sink_call():
    # Each block's arrays are made for it and dropped after its sink call,
    # so no sampler array outlives its block.
    held = []

    def sink(batch):
        columns = sum(getattr(batch, name).nbytes for name in CSV_COLUMNS)
        held.append(tracemalloc.get_traced_memory()[0] - base - columns)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate.monte_carlo_run(PulsePairParams(**REFERENCE_SOURCE),
                                 ThresholdDetector(**REFERENCE_DETECTOR),
                                 bright_channel(), RUN_PULSES, 5,
                                 record_sink=sink)
    finally:
        tracemalloc.stop()
    assert len(held) == CHUNK // simulate._BLOCK_PULSES + 2
    assert max(held) < SINK_HELD_BYTES, held


def test_simulate_sink_writes_a_chunk_in_slices(tmp_path, monkeypatch):
    # One chunk goes through the real record sink of the simulate command;
    # the heap it adds above the batch is measured inside the sink call.
    batch = sample_chunk()
    peaks = []

    def one_chunk(source, det, channel, pulses, seed, record_sink):
        with heap_peak() as peak:
            record_sink(batch)
        peaks.append(peak["mb"])
        return TallyCounts.from_batch(batch)

    # The simulate command looks the sampler up in its module when it runs.
    monkeypatch.setattr(simulate, "monte_carlo_run", one_chunk)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "source": REFERENCE_SOURCE, "alice_detector": REFERENCE_DETECTOR,
        "channel": {"fiber_length_km": 0.0,
                    "bob_detector": {"epsilon": 2e-6, "eta_d": 0.1}}}))
    out = tmp_path / "records.csv"
    code = cli.main(["simulate", "--config", str(config), "--pulses", str(CHUNK),
                     "--seed", "1", "--out", str(out),
                     "--stats-out", str(tmp_path / "stats.json")])
    assert code == 0
    assert peaks[0] <= SINK_HEAP_MB
    assert out.read_text() == CSV_HEADER + "\n" + format_batch_csv(batch)


class FirstChunk(Exception):
    pass


def test_chunk_seeds_are_made_as_chunks_start(monkeypatch):
    # The heap held when the first chunk starts is the same for a run of 2
    # chunks and one of 65,536: no seed is made ahead of its chunk.
    held = []

    def first_chunk(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        raise FirstChunk

    monkeypatch.setattr(simulate, "_simulate_chunk", first_chunk)
    for pulses in (2 ** 21, 2 ** 36):
        tracemalloc.start()
        try:
            with pytest.raises(FirstChunk):
                simulate.monte_carlo_run(PulsePairParams(**REFERENCE_SOURCE),
                                         ThresholdDetector(**REFERENCE_DETECTOR),
                                         bright_channel(), pulses, 1)
        finally:
            tracemalloc.stop()
    assert held[1] - held[0] <= 4096


def test_write_records_csv_writes_a_chunk_in_slices(tmp_path):
    batch = sample_chunk()
    out = tmp_path / "records.csv"
    with heap_peak() as peak:
        assert write_records_csv(str(out), [batch]) == CHUNK
    assert peak["mb"] <= SINK_HEAP_MB
    assert out.read_text() == CSV_HEADER + "\n" + format_batch_csv(batch)


def test_ingesting_canonical_records(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(canonical_records(300_000))
    with heap_peak() as peak:
        tallies = ingest_records(str(path))
    assert tallies.pulses == 300_000
    assert peak["mb"] <= INGEST_HEAP_MB


def cli_peak_mb(*argv):
    """The peak RSS, in MB, of a fresh ``passive-decoy ARGV`` process."""
    status, max_rss = run_fresh(LAUNCHER, sys.executable, "-m",
                                "passive_decoy.cli", *argv)
    assert status == 0, argv
    return max_rss / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB only on Linux")
def test_process_peaks_do_not_grow_with_the_run(tmp_path):
    peaks = {}
    for pulses in (1000, 3 * 2 ** 19):
        out = str(tmp_path / f"{pulses}.csv")
        peaks["simulate", pulses] = cli_peak_mb(
            "simulate", "--config", REPO_CONFIG, "--pulses", str(pulses),
            "--seed", "7", "--out", out, "--stats-out", os.devnull)
        peaks["ingest", pulses] = cli_peak_mb("ingest", out, "--out", os.devnull)
    # A longer run adds to the peak RSS the pages its per-block arrays touch,
    # which is the heap its blocks add, plus the allocator's slack: bound it
    # by the heap bounds above, whose margin covers the slack (measured with
    # Python 3.11 and numpy 2.4: 2.4 MB of RSS over 2.6 of heap for
    # simulate, 2.1 over 2.3 for ingest).
    for command, bound in (("simulate", RUN_HEAP_MB), ("ingest", INGEST_HEAP_MB)):
        growth = peaks[command, 3 * 2 ** 19] - peaks[command, 1000]
        assert growth <= bound, (command, peaks)


class TestLoneCarriageReturns:
    """A file whose lines end in a lone ``\\r`` is cut into blocks like its
    ``\\n`` twin, so it parses in the same bounded heap."""

    N = 200_000

    @pytest.fixture(scope="class")
    def twins(self, tmp_path_factory):
        data = canonical_records(self.N)
        base = tmp_path_factory.mktemp("twins")
        paths = base / "lf.csv", base / "cr.csv"
        paths[0].write_bytes(data)
        paths[1].write_bytes(data.replace(b"\n", b"\r"))
        return paths

    def test_same_tallies_in_the_ingest_bound(self, twins):
        lf, cr = twins
        assert b"\n" not in cr.read_bytes()
        with heap_peak() as peak:
            tallies = ingest_records(str(cr))
        assert tallies == ingest_records(str(lf))
        assert tallies.pulses == self.N
        assert peak["mb"] <= INGEST_HEAP_MB

    def test_error_in_the_second_block_names_its_record(self, twins, tmp_path):
        # The header and records 1 to n - 1 end in the first read, so
        # record n opens the second block.
        messages = []
        for path in twins:
            data = path.read_bytes()
            end = data[-1:]
            lines = data.split(end)
            n = data[:records._READ_BYTES].count(end)
            assert n < self.N
            lines[n] = lines[n].replace(b",", b",2,", 1)
            bad = tmp_path / path.name
            bad.write_bytes(end.join(lines))
            with pytest.raises(IngestError) as info:
                ingest_records(str(bad))
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"record {n}: expected 7 fields, got 8"
