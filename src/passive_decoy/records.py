"""Click-record streams: CSV serialization, parsing, and aggregation.

One record per emitted pulse.  Column order is fixed and booleans are 0/1;
``bob_bit`` is empty when the pulse was not detected:

    pulse_index,alice_click,alice_basis,alice_bit,bob_basis,detected,bob_bit

The file format is exactly what ``format_batch_csv`` writes, read back by
one strict parser.  ``pulse_index`` is ``0`` or 1 to 19 ASCII digits with no
leading zero, at most 2**63 - 1; each flag is one ``0`` or ``1``; ``bob_bit``
is one ``0`` or ``1`` where ``detected`` is 1 and empty elsewhere.  Lines
end in ``\\n``, ``\\r\\n`` or a lone ``\\r``, and the last line needs no end.
Anything else (a sign, a space, a leading zero, a blank line, a byte outside
ASCII) is an error naming its 1-based record.

Records are formatted and parsed a whole batch at a time with numpy.
``format_batch_csv`` formats the batch it is given in one byte matrix: each
record's index digits beside a 13-byte tail picked from a table by its flags
and ``bob_bit``, with a 0 byte for each leading digit position and absent
``bob_bit``, and drops those in one pass.  ``open_records_csv`` gives it
slices of ``_FORMAT_ROWS`` (16,384) records, a quarter of the Monte Carlo's
block, and writes each slice's text as it is made.  The parser reads blocks
of about ``_READ_BYTES`` (256 KiB) of text, cut at line ends.
It finds only the line ends, checks the fixed ``,f,f,f,f,f,`` tail before
each line's ``bob_bit`` and end, and counts the separators of the block to
rule out a stray one.  Only a block it rejects is read again line by line,
to word the error for its first bad record.

Aggregation into per-branch gains and error rates lives here: the simulator
and ``ingest_records`` both return ``TallyCounts``, so in-memory runs and
re-ingested files go through the exact same counting and division code,
making round trips bit-identical.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .bounds import ObservedStatistics
from .errors import IngestError, excerpt
from .reports import replace_on_success

CSV_COLUMNS = ("pulse_index", "alice_click", "alice_basis", "alice_bit",
               "bob_basis", "detected", "bob_bit")
CSV_HEADER = ",".join(CSV_COLUMNS)

# Bytes per read of a records file; each read ends a parse block at its
# last line end.  A read of 256 KiB parses as fast as one of 1 MiB.
_READ_BYTES = 1 << 18

_FLAG_COLUMNS = CSV_COLUMNS[1:6]
# Records the writer formats at a time: bounds the byte matrix and its text,
# the largest arrays of the record path.  2**14 formats as fast as 2**16
# with a quarter of them; 2**13 is slower.
_FORMAT_ROWS = 1 << 14
# The 13 bytes after the index of a record whose code is its five flags plus
# 32 where bob_bit is 1 and detected; 0 marks an absent bob_bit.
_TAILS = np.array([
    [*b",%d,%d,%d,%d,%d," % tuple(code >> k & 1 for k in range(5)),
     48 + (code >> 5) if code & 16 else 0, 10] for code in range(64)],
    dtype=np.uint8).view("V13")[:, 0]
_INT64_MAX = np.uint64(np.iinfo(np.int64).max)
_CANONICAL_INDEX = re.compile(r"0|[1-9][0-9]*")


@dataclass(frozen=True)
class RecordBatch:
    """Column arrays for a contiguous block of pulses.

    ``bob_bit`` uses -1 for "absent" (pulse not detected).
    """

    pulse_index: np.ndarray
    alice_click: np.ndarray
    alice_basis: np.ndarray
    alice_bit: np.ndarray
    bob_basis: np.ndarray
    detected: np.ndarray
    bob_bit: np.ndarray

    def __len__(self) -> int:
        return self.pulse_index.size

    def slices(self, rows: int) -> Iterator["RecordBatch"]:
        """Consecutive batches of ``rows`` records, as views of this one."""
        for lo in range(0, len(self), rows):
            yield RecordBatch(*(getattr(self, c)[lo:lo + rows] for c in CSV_COLUMNS))


@dataclass
class TallyCounts:
    """Integer event counts; the single source of truth for aggregation.

    Gains and error rates are defined on the sifted ensemble: gains count
    detections jointly with the monitor branch per sifted pulse (basis choice
    is independent of the physics, so this estimates the per-pulse joint
    probability), error rates count bit disagreements among sifted
    detections of the branch.
    """

    pulses: int = 0
    sifted: int = 0
    sifted_clicks: int = 0
    det_click: int = 0
    det_noclick: int = 0
    err_click: int = 0
    err_noclick: int = 0

    def merge(self, other: "TallyCounts") -> None:
        for name in ("pulses", "sifted", "sifted_clicks", "det_click",
                     "det_noclick", "err_click", "err_noclick"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @classmethod
    def from_batch(cls, batch: RecordBatch) -> "TallyCounts":
        sift = batch.alice_basis == batch.bob_basis
        det = batch.detected.astype(bool)
        click = batch.alice_click.astype(bool)
        err = det & (batch.bob_bit != batch.alice_bit)
        return cls(
            pulses=len(batch),
            sifted=int(np.count_nonzero(sift)),
            sifted_clicks=int(np.count_nonzero(sift & click)),
            det_click=int(np.count_nonzero(sift & det & click)),
            det_noclick=int(np.count_nonzero(sift & det & ~click)),
            err_click=int(np.count_nonzero(sift & click & err)),
            err_noclick=int(np.count_nonzero(sift & ~click & err)))

    def provenance(self, source_path: str) -> dict:
        """The counts behind a statistics payload, keyed as in its schema."""
        return {
            "source_path": source_path,
            "records": self.pulses,
            "sifted": self.sifted,
            "sifted_clicks": self.sifted_clicks,
            "detections_click": self.det_click,
            "detections_noclick": self.det_noclick,
            "errors_click": self.err_click,
            "errors_noclick": self.err_noclick,
        }

    def to_observed(self) -> ObservedStatistics:
        if self.sifted <= 0:
            raise IngestError("no sifted pulses; cannot form statistics")
        q_c = self.det_click / self.sifted
        q_nc = self.det_noclick / self.sifted
        e_c = self.err_click / self.det_click if self.det_click else 0.0
        e_nc = self.err_noclick / self.det_noclick if self.det_noclick else 0.0
        return ObservedStatistics(q_c=q_c, e_c=e_c, q_nc=q_nc, e_nc=e_nc)


def format_batch_csv(batch: RecordBatch) -> str:
    """Render a batch as CSV lines (no header), laid out as rows of one byte
    matrix.

    Each row holds the pulse index right-aligned in a field as wide as the
    widest index of the batch, then the record's tail.  Leading positions of
    the index and absent ``bob_bit`` cells hold 0, which one pass drops.

    Raises:
        ValueError: if ``pulse_index`` is negative, or a flag, or ``bob_bit``
            where detected, is not 0 or 1.
    """
    code = np.zeros(len(batch), dtype=np.uint8)
    for k, name in enumerate(_FLAG_COLUMNS):
        column = getattr(batch, name)
        if np.any((column != 0) & (column != 1)):
            raise ValueError(f"{name} must be 0 or 1")
        code |= column.astype(np.uint8) << k
    det, bob = batch.detected == 1, batch.bob_bit
    if np.any(det & (bob != 0) & (bob != 1)):
        raise ValueError("bob_bit must be 0 or 1 where detected")
    code |= (det & (bob == 1)).view(np.uint8) << 5
    index = np.ascontiguousarray(batch.pulse_index, dtype=np.int64)
    if np.any(index < 0):
        raise ValueError("pulse_index must be >= 0")
    index = index.view(np.uint64)
    digits = len(str(int(index.max(initial=0))))
    flat = np.empty(index.size * (digits + _TAILS.itemsize), np.uint8)
    rows = flat.view([("index", np.uint8, digits), ("tail", _TAILS.dtype)])
    rows["tail"] = _TAILS[code]
    for col in range(digits - 1, -1, -1):
        quotient = index // 10
        cell = (index - quotient * 10).astype(np.uint8)
        # The units digit is always written; higher ones while the index lasts.
        cell += 48 if col == digits - 1 else 48 * (index != 0).view(np.uint8)
        rows["index"][:, col] = cell
        index = quotient
    return str(flat[flat != 0].data, "ascii")


@contextlib.contextmanager
def open_records_csv(path: str) -> Iterator[Callable[[RecordBatch], None]]:
    """Write ``CSV_HEADER`` to file ``path`` and yield a function that
    appends the lines of a batch; the file is closed after the block."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        # A slice at a time: one write of a block's joined slices made
        # simulate peak 1.6 MB higher, and one matrix for the block 3.2 MB.
        yield lambda batch: fh.writelines(
            format_batch_csv(part) for part in batch.slices(_FORMAT_ROWS))


def write_records_csv(path: str, batches: Iterable[RecordBatch]) -> int:
    """Write header plus one line per record; returns the record count."""
    count = 0
    with replace_on_success(path) as (temp,), open_records_csv(temp) as write:
        for batch in batches:
            write(batch)
            count += len(batch)
    return count


def _parse_block(block: np.ndarray) -> RecordBatch | None:
    """Bulk parse of a block of whole lines; None if any line is not canonical.

    Canonical: the index is ``0`` or 1 to 19 ASCII digits with no leading
    zero and fits in int64, every flag is one ``0`` or ``1``, and ``bob_bit``
    is one such byte exactly where ``detected`` is 1.  The returned arrays
    are new, not views of ``block``.
    """
    if block[-1] != ord("\n"):
        block = np.append(block, np.uint8(ord("\n")))
    if block.max() > ord("9"):
        return None
    ends = np.flatnonzero(block == ord("\n"))
    starts = np.empty(ends.size, dtype=np.intp)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # Every byte below "0" separates fields.  The checks below find seven
    # in each line, six commas and its end, so the count rules out others.
    # A line shorter than the 13 bytes of "0,0,0,0,0,0,\n" is not gathered.
    if (np.count_nonzero(block < ord("0")) != 7 * ends.size
            or (ends - starts).min() < 12):
        return None
    # A line ends in ",f,f,f,f,f," then bob_bit, if present, and "\n".
    bob = block[ends - 1]
    present = bob != ord(",")
    first = ends - 11 - present  # the first comma
    # Those 11 bytes of every line in one gather, then one row per byte.
    windows = np.ndarray(block.size - 10, dtype="V11", buffer=block, strides=(1,))
    tail = windows[first].view(np.uint8).reshape(-1, 11).T.copy()
    flags = tail[1::2] - ord("0")
    digits = first - starts
    if (digits.min() < 1 or digits.max() > 19 or flags.max() > 1
            or np.any(tail[::2] != ord(","))
            or not np.array_equal(present, flags[4] == 1)
            or np.any(present & (bob - ord("0") > 1))
            or np.any((digits > 1) & (block[starts] == ord("0")))):
        return None

    # Up to 19 digits fit in uint64 without wrapping.
    index = np.zeros(ends.size, dtype=np.uint64)
    last = first - 1
    for k in range(int(digits.max())):
        value = (block[np.maximum(last - k, 0)] - ord("0")).astype(np.uint64)
        value[digits <= k] = 0
        index += value * np.uint64(10 ** k)
    if index.max() > _INT64_MAX:
        return None
    bob = bob.view(np.int8) - ord("0")
    bob[~present] = -1
    # Each flag column is its own array, so a column kept alone holds no
    # other; row views of ``flags`` measured the same (within 0.1 MB).
    return RecordBatch(index.astype(np.int64),
                       *(column.copy() for column in flags.view(np.int8)), bob)


def _file_blocks(fh) -> Iterator[bytes]:
    """Blocks of whole lines of a binary file, after its header line.

    Each read of ``_READ_BYTES`` has its ``\\r\\n`` and lone ``\\r`` line
    ends turned into ``\\n``, as in text mode (no UTF-8 sequence holds
    either), and ends a block at its last line end; the rest is carried into
    the next block.  The last block may lack the final newline.
    """
    parts, held, header = [], b"", None
    while True:
        data = fh.read(_READ_BYTES)
        # A final "\r" waits for the next read, which may start with its "\n".
        chunk, held = held + data, b"\r" if data.endswith(b"\r") else b""
        if b"\r" in chunk:
            chunk = (chunk[:len(chunk) - len(held)]
                     .replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        parts.append(chunk)
        if data and b"\n" not in chunk:
            continue
        block = b"".join(parts)
        cut = block.rfind(b"\n") + 1 if data else len(block)
        block, parts = block[:cut], [block[cut:]]
        if header is None:
            header, _, block = block.partition(b"\n")
            header = header.decode("utf-8", "backslashreplace")
            if header != CSV_HEADER:
                raise IngestError(f"bad header: expected {CSV_HEADER!r}, "
                                  f"got {excerpt(header)}")
        if block:
            yield block
        if not data:
            return


def _bad_record(data: bytes, record_no: int) -> IngestError:
    """The error for the first record of ``data``, a block that
    ``_parse_block`` rejected, that is outside the record grammar.

    ``record_no`` counts the records before the block.  The checks are the
    bulk parser's, one line at a time, in column order.
    """
    for record_no, line in enumerate(data.removesuffix(b"\n").split(b"\n"),
                                     record_no + 1):
        problem = _record_problem(line)
        if problem:
            return IngestError(f"record {record_no}: {problem}")
    raise AssertionError("the bulk parser rejected a block of canonical records")


def _record_problem(line: bytes) -> str | None:
    """What puts one record line outside the grammar, or None."""
    try:
        fields = line.decode("utf-8").split(",")
    except UnicodeDecodeError as exc:
        return f"byte 0x{line[exc.start]:02x} is not valid UTF-8"
    if len(fields) != len(CSV_COLUMNS):
        return f"expected {len(CSV_COLUMNS)} fields, got {len(fields)}"
    index = fields[0]
    if not _CANONICAL_INDEX.fullmatch(index):
        return ("field 'pulse_index' must be 0 or ASCII digits without a sign, "
                f"space or leading zero (got {excerpt(index)})")
    if len(index) > 19 or int(index) > int(_INT64_MAX):
        return ("field 'pulse_index' is outside the 64-bit integer range "
                f"(got {excerpt(index, str)})")
    for name, value in zip(_FLAG_COLUMNS, fields[1:6]):
        if value not in ("0", "1"):
            return f"field {name!r} must be 0 or 1 (got {excerpt(value)})"
    bob = fields[6]
    if fields[5] == "1" and not bob:
        return "detected record is missing bob_bit"
    if fields[5] == "0" and bob:
        return "bob_bit present but detected=0"
    if bob not in ("", "0", "1"):
        return f"field 'bob_bit' must be 0 or 1 (got {excerpt(bob)})"
    return None


def iter_batches_from_csv(path) -> Iterator[RecordBatch]:
    """Parse a record CSV file, validating per record.

    The file holds ``CSV_HEADER``, then one record per line in the form
    ``format_batch_csv`` writes.  Lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``, and the last line needs no end.  Records come out in batches,
    one per block of about ``_READ_BYTES`` of text cut at line ends.

    Raises:
        IngestError: on a bad header, on no records, or on the first record
            outside the grammar; messages carry its 1-based record index.
    """
    record_no = 0
    with open(path, "rb") as fh:
        for data in _file_blocks(fh):
            batch = _parse_block(np.frombuffer(data, dtype=np.uint8))
            if batch is None:
                raise _bad_record(data, record_no)
            record_no += len(batch)
            yield batch
    if record_no == 0:
        raise IngestError("no records in file")


def ingest_records(path) -> TallyCounts:
    """Count the events of a click-record CSV file.

    ``to_observed()`` on the result gives the observed statistics and
    ``provenance(path)`` the counts behind them.
    """
    tallies = TallyCounts()
    for batch in iter_batches_from_csv(path):
        tallies.merge(TallyCounts.from_batch(batch))
    return tallies
