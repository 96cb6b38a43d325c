"""Click-record streams: CSV serialization, parsing, and aggregation.

One record per emitted pulse.  Column order is fixed and booleans are 0/1;
``bob_bit`` is empty when the pulse was not detected:

    pulse_index,alice_click,alice_basis,alice_bit,bob_basis,detected,bob_bit

Aggregation into per-branch gains and error rates lives here: the simulator
and ``ingest_records`` both return ``TallyCounts``, so in-memory runs and
re-ingested files go through the exact same counting and division code,
making round trips bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bounds import ObservedStatistics
from .errors import IngestError

CSV_COLUMNS = ("pulse_index", "alice_click", "alice_basis", "alice_bit",
               "bob_basis", "detected", "bob_bit")
CSV_HEADER = ",".join(CSV_COLUMNS)

_PARSE_BATCH = 262144


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
    """Render a batch as CSV lines (no header)."""
    det = batch.detected.astype(bool)
    out = []
    for i in range(len(batch)):
        bob = str(int(batch.bob_bit[i])) if det[i] else ""
        out.append(f"{int(batch.pulse_index[i])},{int(batch.alice_click[i])},"
                   f"{int(batch.alice_basis[i])},{int(batch.alice_bit[i])},"
                   f"{int(batch.bob_basis[i])},{int(det[i])},{bob}")
    return "\n".join(out) + ("\n" if out else "")


def write_records_csv(path: str, batches: Iterable[RecordBatch]) -> int:
    """Write header plus one line per record; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for batch in batches:
            fh.write(format_batch_csv(batch))
            count += len(batch)
    return count


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


def iter_batches_from_csv(source) -> Iterator[RecordBatch]:
    """Parse a record CSV (path or text file object), validating per record.

    Raises:
        IngestError: on a bad header or any malformed record; messages carry
            the 1-based record index.
    """
    close = False
    if isinstance(source, (str, bytes)):
        fh = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        header = fh.readline().rstrip("\r\n")
        if header != CSV_HEADER:
            raise IngestError(
                f"bad header: expected {CSV_HEADER!r}, got {header!r}")
        rows: list[tuple] = []
        record_no = 0
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            record_no += 1
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
        if record_no == 0:
            raise IngestError("no records in file")
    finally:
        if close:
            fh.close()


def ingest_records(source) -> TallyCounts:
    """Count the events of a click-record CSV (path or text file object).

    ``to_observed()`` on the result gives the observed statistics and
    ``provenance(path)`` the counts behind them.
    """
    tallies = TallyCounts()
    for batch in iter_batches_from_csv(source):
        tallies.merge(TallyCounts.from_batch(batch))
    return tallies
