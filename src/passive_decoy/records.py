"""Click-record streams: CSV serialization, parsing, and aggregation.

One record per emitted pulse.  Column order is fixed and booleans are 0/1;
``bob_bit`` is empty when the pulse was not detected:

    pulse_index,alice_click,alice_basis,alice_bit,bob_basis,detected,bob_bit

Records are formatted and parsed a whole batch at a time with numpy, never
one line at a time in Python.  ``format_batch_csv`` lays a batch out as a
fixed-width byte matrix and drops the padding with one mask.  The parser
reads blocks of ``_PARSE_BATCH`` lines, locates the six commas of every line
and checks every field of the block at once; ``\\r\\n`` and ``\\r`` end lines
as in text mode.  A block that fails those checks (a sign, a space, a
leading ``+``, a blank line, a byte outside UTF-8, an out-of-domain field)
goes through the per-line parser instead, which accepts whatever ``int()``
accepts and words every error with its 1-based record index.  Canonical
files therefore parse fast, and any other file gives the same records, or
the same message, as the per-line parser would over the whole file.

Aggregation into per-branch gains and error rates lives here: the simulator
and ``ingest_records`` both return ``TallyCounts``, so in-memory runs and
re-ingested files go through the exact same counting and division code,
making round trips bit-identical.

File outputs go through ``replace_on_success``: they are written to a
temporary sibling and renamed over the target only once complete, so a
failed run leaves no partial output.
"""

from __future__ import annotations

import contextlib
import errno
import os
import stat
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bounds import ObservedStatistics
from .errors import IngestError

CSV_COLUMNS = ("pulse_index", "alice_click", "alice_basis", "alice_bit",
               "bob_basis", "detected", "bob_bit")
CSV_HEADER = ",".join(CSV_COLUMNS)

_PARSE_BATCH = 65536
# Bytes per read of a records file; blocks of _PARSE_BATCH lines are cut
# from what has been read.
_READ_BYTES = 1 << 20

_FLAG_COLUMNS = CSV_COLUMNS[1:6]
# Records formatted at a time: bounds the byte matrix and its mask.
_FORMAT_ROWS = 1 << 16
# 10**k for k = 1..19: a magnitude has one digit more than the number of
# these it reaches.
_TENS = 10 ** np.arange(1, 20, dtype=np.uint64)
_INT64_MAX = np.uint64(np.iinfo(np.int64).max)


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


@contextlib.contextmanager
def replace_on_success(*paths: str | None) -> Iterator[list]:
    """Paths to write ``paths`` through, replacing them only after the block.

    Yields one path per target (``None`` stays ``None``).  A target that is
    a regular file or does not exist, after following symlinks, gets a
    temporary sibling: an empty file beside it, so that ``os.replace`` stays
    on one filesystem, with the target's permission bits if it exists.
    When the block returns, every temporary file replaces its target; when
    it raises, every temporary file is removed and no such target is
    touched.  A process killed midway can leave a temporary sibling behind,
    never a partial target.  Any other target (a device such as
    ``/dev/null``, a FIFO) is yielded as it is and written directly.
    """
    temps, renames = [], []
    try:
        for i, path in enumerate(paths):
            if path is None:
                temps.append(None)
                continue
            # Errors name the target, as opening it directly would.
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        path)
            target = os.path.realpath(path)
            if os.path.exists(target) and not os.path.isfile(target):
                temps.append(path)
                continue
            head, tail = os.path.split(target)
            temp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
            try:
                open(temp, "wb").close()
                renames.append((temp, target))
                if os.path.exists(target):
                    os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            temps.append(temp)
        yield temps
        for temp, target in renames:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in renames:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


def format_batch_csv(batch: RecordBatch) -> str:
    """Render a batch as CSV lines (no header).

    Raises:
        ValueError: if a flag, or ``bob_bit`` where detected, is not 0 or 1.
    """
    flags = np.empty((len(batch), 5), dtype=np.uint8)
    for k, name in enumerate(_FLAG_COLUMNS):
        column = getattr(batch, name)
        if np.any((column != 0) & (column != 1)):
            raise ValueError(f"{name} must be 0 or 1")
        flags[:, k] = column
    bob = batch.bob_bit
    if np.any((flags[:, 4] == 1) & (bob != 0) & (bob != 1)):
        raise ValueError("bob_bit must be 0 or 1 where detected")
    index = np.ascontiguousarray(batch.pulse_index, dtype=np.int64)
    return "".join(
        _format_rows(index[lo:lo + _FORMAT_ROWS], flags[lo:lo + _FORMAT_ROWS],
                     bob[lo:lo + _FORMAT_ROWS])
        for lo in range(0, len(batch), _FORMAT_ROWS))


def _format_rows(index: np.ndarray, flags: np.ndarray, bob: np.ndarray) -> str:
    """CSV lines of checked columns, laid out as rows of a byte matrix.

    Each row holds the pulse index right-aligned in a field as wide as the
    widest index here, then the fixed ``,f,f,f,f,f,b\\n`` tail.  A mask drops
    the padding and the ``bob_bit`` cells of undetected pulses.
    """
    n = index.size
    det = flags[:, 4].astype(bool)
    neg = index < 0
    # Magnitudes as uint64: negation wraps, so int64 min maps to 2**63.
    mag = np.where(neg, -index.view(np.uint64), index.view(np.uint64))
    width = np.searchsorted(_TENS, mag, side="right") + 1 + neg
    digits = int(width.max())

    rows = np.empty((n, digits + 13), dtype=np.uint8)
    for col in range(digits - 1, -1, -1):
        mag, rows[:, col] = np.divmod(mag, 10)
    rows[:, :digits] += ord("0")
    neg_rows = np.flatnonzero(neg)
    rows[neg_rows, digits - width[neg_rows]] = ord("-")
    rows[:, digits:digits + 11:2] = ord(",")
    rows[:, digits + 1:digits + 10:2] = flags + ord("0")
    rows[:, digits + 11] = bob.astype(np.uint8) + ord("0")
    rows[:, digits + 12] = ord("\n")

    keep = np.ones(rows.shape, dtype=bool)
    keep[:, :digits] = np.arange(digits) >= (digits - width)[:, None]
    keep[:, digits + 11] = det
    return str(rows[keep].data, "ascii")


def write_records_csv(path: str, batches: Iterable[RecordBatch]) -> int:
    """Write header plus one line per record; returns the record count."""
    count = 0
    with replace_on_success(path) as (temp,):
        with open(temp, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for batch in batches:
                fh.write(format_batch_csv(batch))
                count += len(batch)
    return count


def _parse_block(block: np.ndarray) -> RecordBatch | None:
    """Bulk parse of a block of whole lines; None if any line is not canonical.

    Canonical: the index is 1 to 19 ASCII digits and fits in int64, every
    flag is one ``0`` or ``1``, and ``bob_bit`` is one such byte exactly
    where ``detected`` is 1.  The returned arrays are new, not views of
    ``block``.
    """
    if block[-1] != ord("\n"):
        block = np.append(block, np.uint8(ord("\n")))
    if block.max() > ord("9"):
        return None
    # Every byte below "0" separates fields: six commas, then a newline.
    seps = np.flatnonzero(block < ord("0"))
    if seps.size % 7:
        return None
    seps = seps.reshape(-1, 7)
    kinds = block[seps]
    if np.any(kinds[:, :6] != ord(",")) or np.any(kinds[:, 6] != ord("\n")):
        return None
    commas, ends = seps[:, :6], seps[:, 6]
    n = ends.size
    starts = np.empty(n, dtype=np.intp)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    digits = commas[:, 0] - starts
    bob_len = ends - commas[:, 5] - 1
    if (digits.min() < 1 or digits.max() > 19 or bob_len.max() > 1
            or np.any(np.diff(commas, axis=1) != 2)):
        return None
    flags = block[commas[:, :5] + 1] - ord("0")
    present = bob_len == 1
    if flags.max() > 1 or not np.array_equal(present, flags[:, 4] == 1):
        return None
    bob = np.full(n, -1, dtype=np.int8)
    bob[present] = block[commas[present, 5] + 1] - ord("0")
    if bob.max() > 1:
        return None

    # Up to 19 digits fit in uint64 without wrapping.
    index = np.zeros(n, dtype=np.uint64)
    last = commas[:, 0] - 1
    for k in range(int(digits.max())):
        value = (block[np.maximum(last - k, 0)] - ord("0")).astype(np.uint64)
        value[digits <= k] = 0
        index += value * np.uint64(10 ** k)
    if index.max() > _INT64_MAX:
        return None
    flags = flags.astype(np.int8)
    return RecordBatch(
        pulse_index=index.astype(np.int64),
        alice_click=flags[:, 0].copy(),
        alice_basis=flags[:, 1].copy(),
        alice_bit=flags[:, 2].copy(),
        bob_basis=flags[:, 3].copy(),
        detected=flags[:, 4].copy(),
        bob_bit=bob)


def _parse_int_field(value: str, name: str, line_no: int, allowed: tuple) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise IngestError(f"record {line_no}: field {name!r} is not an integer "
                          f"(got {value!r})") from None
    if allowed and parsed not in allowed:
        raise IngestError(f"record {line_no}: field {name!r} must be one of "
                          f"{allowed} (got {parsed})")
    return parsed


def _rows_to_batch(rows: list[tuple], first_record: int) -> RecordBatch:
    """Column arrays for parsed rows; ``first_record`` is the 1-based index
    of ``rows[0]``, used to locate a ``pulse_index`` beyond int64."""
    cols = list(zip(*rows))
    try:
        pulse_index = np.asarray(cols[0], dtype=np.int64)
    except OverflowError:
        info = np.iinfo(np.int64)
        offset, value = next((i, v) for i, v in enumerate(cols[0])
                             if not info.min <= v <= info.max)
        raise IngestError(f"record {first_record + offset}: field 'pulse_index' "
                          f"is outside the 64-bit integer range (got {value})") from None
    return RecordBatch(
        pulse_index=pulse_index,
        alice_click=np.asarray(cols[1], dtype=np.int8),
        alice_basis=np.asarray(cols[2], dtype=np.int8),
        alice_bit=np.asarray(cols[3], dtype=np.int8),
        bob_basis=np.asarray(cols[4], dtype=np.int8),
        detected=np.asarray(cols[5], dtype=np.int8),
        bob_bit=np.asarray(cols[6], dtype=np.int8))


def _not_utf8(record_no: int, byte: int) -> IngestError:
    return IngestError(f"record {record_no}: byte 0x{byte:02x} is not valid UTF-8")


def _check_header(header: str) -> None:
    if header != CSV_HEADER:
        raise IngestError(f"bad header: expected {CSV_HEADER!r}, got {header!r}")


def _split_lines(data: bytes) -> list[str]:
    """The lines of a file's bytes as reading it in text mode gives them:
    universal newlines, and each byte that is not UTF-8 kept as a lone
    surrogate (``surrogateescape``) for the per-line parser to report."""
    text = data.decode("utf-8", "surrogateescape")
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_lines(lines: Iterable[str], record_no: int, escaped: bool):
    """The per-line parser: validates record by record, wording every error.

    ``record_no`` counts the records before ``lines``; the generator returns
    the count after them.  With ``escaped``, a lone surrogate marks a byte
    that was not UTF-8 (see ``_split_lines``).
    """
    rows: list[tuple] = []
    for line in lines:
        line = line.rstrip("\r\n")
        if not line:
            continue
        record_no += 1
        if escaped:
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise _not_utf8(record_no, ord(line[exc.start]) - 0xdc00) from None
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise IngestError(f"record {record_no}: expected "
                              f"{len(CSV_COLUMNS)} fields, got {len(parts)}")
        idx = _parse_int_field(parts[0], "pulse_index", record_no, ())
        click = _parse_int_field(parts[1], "alice_click", record_no, (0, 1))
        abasis = _parse_int_field(parts[2], "alice_basis", record_no, (0, 1))
        abit = _parse_int_field(parts[3], "alice_bit", record_no, (0, 1))
        bbasis = _parse_int_field(parts[4], "bob_basis", record_no, (0, 1))
        det = _parse_int_field(parts[5], "detected", record_no, (0, 1))
        if parts[6] == "":
            if det:
                raise IngestError(f"record {record_no}: detected record "
                                  "is missing bob_bit")
            bob = -1
        else:
            if not det:
                raise IngestError(f"record {record_no}: bob_bit present "
                                  "but detected=0")
            bob = _parse_int_field(parts[6], "bob_bit", record_no, (0, 1))
        rows.append((idx, click, abasis, abit, bbasis, det, bob))
        if len(rows) >= _PARSE_BATCH:
            yield _rows_to_batch(rows, record_no - len(rows) + 1)
            rows = []
    if rows:
        yield _rows_to_batch(rows, record_no - len(rows) + 1)
    return record_no


def _text_mode_reads(fh) -> Iterator[bytes]:
    """Reads of a binary file, none empty, with ``\\r\\n`` and lone ``\\r``
    line ends as ``\\n``, as in text mode (no UTF-8 sequence holds either).
    A ``\\r`` that ends the file is dropped: the last line needs no end."""
    held = b""
    while data := fh.read(_READ_BYTES):
        # A final "\r" waits for the next read, which may start with its "\n".
        chunk, held = held + data, b"\r" if data.endswith(b"\r") else b""
        if b"\r" in chunk:
            chunk = chunk[:len(chunk) - len(held)].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if chunk:
            yield chunk


def _file_blocks(fh) -> Iterator[tuple[bytes, None]]:
    """Blocks of ``_PARSE_BATCH`` lines from ``_text_mode_reads``, after the header.

    The last block may hold fewer lines and lack the final newline.
    """
    reads = _text_mode_reads(fh)
    parts = []
    for chunk in reads:
        parts.append(chunk)
        if b"\n" in chunk:
            break
    header, _, carry = b"".join(parts).partition(b"\n")
    _check_header(header.decode("utf-8", "backslashreplace"))
    # Reads are only counted until they hold a whole block, so that every
    # byte is searched for line ends once.
    parts, lines = [carry], carry.count(b"\n")
    while True:
        chunk = next(reads, b"")
        parts.append(chunk)
        lines += chunk.count(b"\n")
        if lines >= _PARSE_BATCH or not chunk:
            buf = b"".join(parts)
            ends = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == ord("\n"))
            start = 0
            for k in range(_PARSE_BATCH - 1, ends.size, _PARSE_BATCH):
                stop = int(ends[k]) + 1
                yield buf[start:stop], None
                start = stop
            parts, lines = [buf[start:]], ends.size % _PARSE_BATCH
        if not chunk:
            break
    if parts[0]:
        yield parts[0], None


def _text_blocks(fh) -> Iterator[tuple[bytes, list[str]]]:
    """Blocks of ``_PARSE_BATCH`` lines from a text file object, after its
    header, each as its encoded bytes and its lines.

    A ``UnicodeDecodeError`` raised by the object's own decoder after the
    header passes through, after the lines read before it.
    """
    try:
        header = fh.readline()
    except UnicodeDecodeError as exc:
        raise _decode_error(exc, 0, header_read=False) from None
    _check_header(header.rstrip("\r\n"))
    lines: list[str] = []
    failure = None
    try:
        for line in fh:
            lines.append(line)
            if len(lines) >= _PARSE_BATCH:
                yield "".join(lines).encode("utf-8", "surrogatepass"), lines
                lines = []
    except UnicodeDecodeError as exc:
        failure = exc
    if lines:
        yield "".join(lines).encode("utf-8", "surrogatepass"), lines
    if failure is not None:
        raise failure


def _decode_error(exc: UnicodeDecodeError, record_no: int,
                  header_read: bool) -> IngestError:
    """The error for a byte that a text source's own decoder rejected.

    ``exc.object`` holds the bytes from where that decoder stopped, and
    ``record_no`` counts the records read before them.  Their first line
    completes the line in progress: the header if it has not been read,
    otherwise a record, even when its part in ``exc.object`` is empty.  The
    whole lines after it are parsed first, so that a malformed record before
    the byte is the one reported, as it is for a path.

    The text of the line in progress is lost with the decoder's error, so a
    blank line that starts exactly where the decoder stopped is counted as
    that record's end, and the record number comes out one too high.
    """
    raw = exc.object if isinstance(exc.object, bytes) else b""
    byte = raw[exc.start] if exc.start < len(raw) else 0
    lines = _split_lines(raw[:exc.start])
    if len(lines) == 1 and not header_read:
        header = raw.replace(b"\r", b"\n").split(b"\n", 1)[0]
        return IngestError(
            f"bad header: expected {CSV_HEADER!r}, "
            f"got {header.decode('utf-8', 'backslashreplace')!r}")
    if len(lines) > 1:
        if header_read:
            record_no += 1
        else:
            _check_header(lines[0])
        whole = lines[1:-1]
        for _ in _parse_lines(whole, record_no, escaped=False):
            pass
        record_no += sum(1 for line in whole if line)
    return _not_utf8(record_no + 1, byte)


def _batches(blocks: Iterator[tuple[bytes, list[str] | None]]
             ) -> Iterator[RecordBatch]:
    record_no = 0
    while True:
        try:
            data, lines = next(blocks)
        except StopIteration:
            break
        except UnicodeDecodeError as exc:
            raise _decode_error(exc, record_no, header_read=True) from None
        batch = _parse_block(np.frombuffer(data, dtype=np.uint8))
        if batch is not None:
            record_no += len(batch)
            yield batch
        elif lines is None:
            record_no = yield from _parse_lines(_split_lines(data), record_no,
                                                escaped=True)
        else:
            record_no = yield from _parse_lines(lines, record_no, escaped=False)
    if record_no == 0:
        raise IngestError("no records in file")


def iter_batches_from_csv(source) -> Iterator[RecordBatch]:
    """Parse a record CSV (path or text file object), validating per record.

    A path is read as bytes: lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in
    text mode, and a byte that is not UTF-8 is an error naming its record.
    A text object is read through its own line iteration; when its decoder
    fails, the record number can be one too high (see ``_decode_error``).
    Canonical files come out in batches of 65,536 (``_PARSE_BATCH``) records.

    Raises:
        IngestError: on a bad header or any malformed record; messages carry
            the 1-based record index.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "rb") as fh:
            yield from _batches(_file_blocks(fh))
    else:
        yield from _batches(_text_blocks(source))


def ingest_records(source) -> TallyCounts:
    """Count the events of a click-record CSV (path or text file object).

    ``to_observed()`` on the result gives the observed statistics and
    ``provenance(path)`` the counts behind them.
    """
    tallies = TallyCounts()
    for batch in iter_batches_from_csv(source):
        tallies.merge(TallyCounts.from_batch(batch))
    return tallies
