"""Durable append-only write-ahead log of rating events.

The batch pipeline materialises a full :class:`~repro.data.cuboid.RatingCuboid`
before fitting; the streaming pipeline instead makes every incoming
rating *durable first* and folds it into the model afterwards. The
:class:`EventLog` is that durability layer:

* **Segments** — the log is a directory of numbered segment files
  (``wal-00000000.log``, …), each opened with an 8-byte magic header and
  rotated after ``segment_events`` records, so replay and retention work
  on bounded files.
* **Records** — each event is a fixed-size payload (``user``,
  ``interval``, ``item`` as little-endian int64, ``score`` as float64)
  framed by a length prefix and a CRC-32 of the payload. A reader can
  always tell "complete record" from "torn tail".
* **Durability** — every :meth:`EventLog.append` writes through
  :func:`~repro.robustness.faults.faulty_write` (so the fault harness
  can tear it), flushes and ``fsync``\\ s before returning. An append
  either lands completely or — if the process dies mid-call — leaves a
  torn tail that recovery removes; the *previously* appended events are
  never harmed.
* **Recovery** — :class:`EventLog` scans its segments on open,
  validating every record. A torn or corrupt tail on the *last* segment
  is truncated (with a :class:`UserWarning`); damage anywhere earlier
  raises :class:`~repro.robustness.errors.EventLogCorruptError`, because
  then the durable history itself cannot be trusted.

Replay is bit-deterministic: a log recovered after any crash yields
exactly the prefix of events whose appends were acknowledged, in append
order, with identical bytes — which is what lets the
:class:`~repro.streaming.ingestor.StreamIngestor` rebuild bit-identical
model state from any checkpointed offset.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

from ..robustness.errors import EventLogCorruptError
from ..typing import bit_deterministic
from ..robustness.faults import faulty_write

_MAGIC = b"TCAMWAL1"
#: Record frame: payload length (u32), CRC-32 of the payload (u32).
_FRAME = struct.Struct("<II")
#: Event payload: user, interval, item (i64 each) and score (f64).
_EVENT = struct.Struct("<qqqd")
#: Bytes per record. The payload is fixed-size, so record ``i`` of a
#: segment starts at ``len(_MAGIC) + i * _RECORD_SIZE``.
_RECORD_SIZE = _FRAME.size + _EVENT.size

_SEGMENT_GLOB = "wal-*.log"


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One rating behavior in the dense id space of a fitted model.

    Unlike :class:`~repro.data.events.Rating` (labelled, offline), a
    stream event carries *dense* integer ids so it can be folded into a
    fitted model without consulting an indexer. Ids may exceed the
    current model dimensions — that is exactly how new users, items and
    intervals announce themselves to the ingestor.
    """

    user: int
    interval: int
    item: int
    score: float = 1.0

    def __post_init__(self) -> None:
        if self.user < 0 or self.interval < 0 or self.item < 0:
            raise ValueError(
                f"event ids must be non-negative, got "
                f"({self.user}, {self.interval}, {self.item})"
            )
        if not 0 < self.score < math.inf:  # NaN fails this too
            raise ValueError(f"score must be finite and positive, got {self.score}")

    def pack(self) -> bytes:
        """Encode this event as one framed, checksummed WAL record."""
        payload = _EVENT.pack(self.user, self.interval, self.item, self.score)
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    @classmethod
    def unpack(cls, payload: bytes) -> "StreamEvent":
        """Decode one record payload produced by :meth:`pack`."""
        user, interval, item, score = _EVENT.unpack(payload)
        return cls(user=user, interval=interval, item=item, score=score)


@dataclass
class _Segment:
    """One on-disk log segment: its sequence number and record count."""

    seq: int
    path: Path
    events: int


def _segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.log"


def _scan_segment(path: Path) -> tuple[int, int]:
    """Validate one segment; return ``(valid_records, valid_bytes)``.

    ``valid_bytes`` is the offset of the first byte that is not part of
    a complete, checksum-clean record — the truncation point for a torn
    tail. A file too short for even the magic header counts as zero
    records with ``valid_bytes`` of zero (recovery rewrites it).
    """
    data = path.read_bytes()
    if len(data) < len(_MAGIC) or data[: len(_MAGIC)] != _MAGIC:
        return 0, 0
    pos = len(_MAGIC)
    records = 0
    while True:
        if pos + _FRAME.size > len(data):
            break
        length, crc = _FRAME.unpack_from(data, pos)
        payload_start = pos + _FRAME.size
        if length != _EVENT.size or payload_start + length > len(data):
            break
        payload = data[payload_start : payload_start + length]
        if zlib.crc32(payload) != crc:
            break
        records += 1
        pos = payload_start + length
    return records, pos


class EventLog:
    """Append-only, crash-recoverable log of :class:`StreamEvent` records.

    Parameters
    ----------
    directory:
        Home of the segment files; created if missing. Opening a
        directory with existing segments runs recovery (see the module
        docstring for the torn-tail contract).
    segment_events:
        Records per segment before rotation.

    Every append is fsynced before it returns: an acknowledged append
    survives an immediate power cut, which is what the ingestor's replay
    guarantee rests on.

    A single :class:`EventLog` instance is a **single-writer** object:
    appends must come from one thread/process. Readers
    (:meth:`read`, :meth:`__iter__`) are safe against a concurrent
    writer only up to the last acknowledged append, which is all the
    ingestor ever consumes.
    """

    def __init__(self, directory: str | Path, segment_events: int = 4096) -> None:
        if segment_events <= 0:
            raise ValueError(f"segment_events must be positive, got {segment_events}")
        self.directory = Path(directory)
        self.segment_events = segment_events
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segments: list[_Segment] = []
        self._handle: IO[bytes] | None = None
        self._recover()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Scan segments, truncate a torn live tail, build the offset map."""
        paths = sorted(self.directory.glob(_SEGMENT_GLOB))
        segments: list[_Segment] = []
        for index, path in enumerate(paths):
            try:
                seq = int(path.stem.split("-")[1])
            except (IndexError, ValueError) as exc:
                raise EventLogCorruptError(
                    f"unrecognised segment file name {path.name!r}"
                ) from exc
            records, valid_bytes = _scan_segment(path)
            size = path.stat().st_size
            if valid_bytes != size:
                if index != len(paths) - 1:
                    raise EventLogCorruptError(
                        f"segment {path.name} is damaged mid-log "
                        f"({size - valid_bytes} trailing bytes fail validation "
                        "and it is not the live tail)"
                    )
                warnings.warn(
                    f"event log recovery truncated a torn tail: {path.name} "
                    f"kept {records} records ({valid_bytes} of {size} bytes)",
                    UserWarning,
                    stacklevel=3,
                )
                keep = valid_bytes if valid_bytes >= len(_MAGIC) else 0
                with path.open("rb+") as handle:
                    handle.truncate(keep)
                    handle.flush()
                    os.fsync(handle.fileno())
                if keep == 0:
                    # The crash tore even the header; rewrite it so the
                    # segment is appendable again.
                    self._write_header(path)
            segments.append(_Segment(seq=seq, path=path, events=records))
        self._segments = segments

    def _write_header(self, path: Path) -> None:
        """(Re)initialise a segment file with the magic header."""
        with path.open("wb") as handle:
            handle.write(_MAGIC)
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    @property
    def next_offset(self) -> int:
        """Offset one past the last durable event (== total event count)."""
        return sum(segment.events for segment in self._segments)

    def __len__(self) -> int:
        return self.next_offset

    def _open_tail(self) -> tuple[_Segment, IO[bytes]]:
        """The segment and handle the next append goes to."""
        if self._segments and self._segments[-1].events < self.segment_events:
            tail = self._segments[-1]
        else:
            seq = self._segments[-1].seq + 1 if self._segments else 0
            path = self.directory / _segment_name(seq)
            self._write_header(path)
            tail = _Segment(seq=seq, path=path, events=0)
            self._segments.append(tail)
        if self._handle is None or self._handle.name != str(tail.path):
            self._close_handle()
            self._handle = tail.path.open("ab")
        return tail, self._handle

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def append(self, events: "Iterable[StreamEvent] | StreamEvent") -> int:
        """Durably append events; returns the offset after the append.

        The append is **atomic at the batch level**: either every event
        becomes durable, or — on a write error such as a full disk — the
        segment is rolled back to its pre-append size and the error
        propagates, leaving the log exactly as before the call. A crash
        mid-append (torn write) leaves a tail that the next open
        truncates, so an unacknowledged append simply never happened.
        """
        if isinstance(events, StreamEvent):
            events = [events]
        batch = list(events)
        if not batch:
            return self.next_offset
        undo = {
            segment.seq: (segment.events, segment.path.stat().st_size)
            for segment in self._segments[-1:]
        }
        known = {segment.seq for segment in self._segments}
        try:
            for event in batch:
                tail, handle = self._open_tail()
                record = memoryview(event.pack())
                while record:
                    written = faulty_write(
                        "wal.write", handle, record, segment=tail.seq
                    )
                    record = record[written:]
                tail.events += 1
                if tail.events >= self.segment_events:
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError:
            # Roll the whole batch back — append is all-or-nothing. The
            # tail segment is truncated to its pre-append size and any
            # segment the batch created is deleted, so the log is byte
            # identical to the last acknowledged state.
            self._close_handle()
            self._rollback_batch(undo, known)
            raise
        handle = self._handle
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())
        return self.next_offset

    def _rollback_batch(
        self, undo: dict[int, tuple[int, int]], known: set[int]
    ) -> None:
        """Restore every segment touched by a failed append.

        ``undo`` maps the pre-append tail segment to its (record count,
        byte size); ``known`` holds the sequence numbers that existed
        before the append. Events appended by *earlier*, acknowledged
        calls all sit before those marks and survive untouched.
        """
        restored: list[_Segment] = []
        for segment in self._segments:
            if segment.seq in undo:
                events, size = undo[segment.seq]
                with segment.path.open("rb+") as handle:
                    handle.truncate(size)
                    handle.flush()
                    os.fsync(handle.fileno())
                segment.events = events
                restored.append(segment)
            elif segment.seq in known:
                restored.append(segment)
            else:
                segment.path.unlink(missing_ok=True)
        self._segments = restored

    def close(self) -> None:
        """Flush, fsync and release the write handle."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._close_handle()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _iter_segment(
        self, segment: _Segment, start: int = 0, count: int | None = None
    ) -> Iterator[StreamEvent]:
        """Yield up to ``count`` records of one segment from index ``start``.

        Records are fixed-size, so the read seeks straight to record
        ``start`` and touches only the bytes of the records it yields;
        each of those is length- and CRC-checked.
        """
        stop = segment.events if count is None else min(segment.events, start + count)
        with segment.path.open("rb") as handle:
            handle.seek(len(_MAGIC) + start * _RECORD_SIZE)
            data = handle.read((stop - start) * _RECORD_SIZE)
        for pos in range(0, (stop - start) * _RECORD_SIZE, _RECORD_SIZE):
            length, crc = _FRAME.unpack_from(data, pos)
            payload = data[pos + _FRAME.size : pos + _RECORD_SIZE]
            if length != _EVENT.size or zlib.crc32(payload) != crc:
                raise EventLogCorruptError(  # pragma: no cover - recovery missed it
                    f"segment {segment.path.name} record failed its length or checksum"
                )
            yield StreamEvent.unpack(payload)

    @bit_deterministic
    def read(self, start: int = 0, count: int | None = None) -> list[StreamEvent]:
        """Events ``[start, start + count)`` in append order.

        ``count=None`` reads to the durable end. Reading past the end
        returns what exists; a negative or out-of-range ``start`` raises.
        """
        end = self.next_offset
        if not 0 <= start <= end:
            raise ValueError(f"start must be in [0, {end}], got {start}")
        remaining = end - start if count is None else max(0, min(count, end - start))
        out: list[StreamEvent] = []
        skip = start
        for segment in self._segments:
            if remaining == 0:
                break
            if skip >= segment.events:
                skip -= segment.events
                continue
            events = list(self._iter_segment(segment, skip, remaining))
            out.extend(events)
            remaining -= len(events)
            skip = 0
        return out

    def __iter__(self) -> Iterator[StreamEvent]:
        for segment in self._segments:
            yield from self._iter_segment(segment)

    @property
    def segment_paths(self) -> list[Path]:
        """Paths of the current segment files, oldest first."""
        return [segment.path for segment in self._segments]
