"""The append-only ingest log: CRC-framed segments + atomic manifest.

A **store** is a directory::

    store/
      MANIFEST.json        # atomic (write-temp + os.replace) index
      seg-00000001.log     # sealed segment
      seg-00000002.log     # ... active (tail) segment
      sessions.log         # serve-session checkpoints (repro.store.sessions)

Each segment file is a sequence of frames in the serving protocol's wire
format (:mod:`repro.serve.framing`: 4B length, 1B type, 4B CRC32,
payload), so every record is individually integrity-checked and a torn
tail is detected by the same paranoid decoder that guards network input.
Record types:

* ``REC_SEGMENT`` — JSON segment header (sequence number, base event
  index); always the first frame of a segment, lets crash recovery
  rebuild positions from the file alone.
* ``REC_EVENTS`` — a block of modified-SAX events: a varint event count,
  then that many records binary-encoded by :mod:`repro.stream.codec`.
  The writer encodes events straight into the open block and writes it
  as one frame wherever it hands data to the OS — before a checkpoint,
  at a sync point, on rotation, :meth:`EventLogWriter.flush` and close,
  and before the payload would pass :data:`BLOCK_BYTES` — so the
  per-event cost is the encoding, not a CRC, a header and a ``write``.
* ``REC_EVENT`` — one event per frame: the layout of version-1 stores,
  still read so they replay.
* ``REC_CHECKPOINT`` — JSON: checkpoint id, the event index it covers,
  and (optionally) an embedded engine snapshot (the existing versioned
  :meth:`~repro.multiq.engine.MultiQueryEngine.snapshot` /
  :meth:`~repro.core.processor.XPathStream.snapshot` blobs), so replay
  can resume evaluation mid-stream instead of from document start.
* ``REC_SESSION`` / ``REC_SESSION_TOMB`` — serve-session checkpoint
  blobs and their deletions (:mod:`repro.store.sessions`).

The manifest lists **sealed** segments with their structural summary —
tag alphabet, has-text flag, level range, event count, checkpoint
positions — which is what lets replay skip whole segments that cannot
contain a query's alphabet (:mod:`repro.store.index`).  The active
segment is deliberately *not* trusted from the manifest: readers and a
restarted writer re-scan it frame by frame, truncating anything after
the last CRC-valid record, so a crash mid-write loses at most the torn
block and never corrupts earlier history.  A process crash also loses
the events of the block still open in memory.  A record type this
reader does not know raises in a sealed segment and ends the scan of
the active one; the manifest version (2) makes older code refuse a
block-framed store instead of replaying it as empty.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.serve.framing import (
    DEFAULT_MAX_FRAME,
    Frame,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.stream.codec import (
    CodecError,
    block_count,
    block_header,
    encode_chars_into,
    encode_end_into,
    encode_start_into,
    iter_block,
    text_field,
)
from repro.stream.events import Characters, EndElement, Event, EventHandler, StartElement
from repro.stream.recovery import ResourceLimits
from repro.store.sync import SyncPolicy

__all__ = [
    "StoreError",
    "EventLogWriter",
    "EventLogReader",
    "SegmentInfo",
    "CheckpointInfo",
    "ReplayStats",
    "compact",
    "MANIFEST_NAME",
    "STORE_MANIFEST_VERSION",
    "REC_SEGMENT",
    "REC_EVENT",
    "REC_EVENTS",
    "REC_CHECKPOINT",
    "REC_SESSION",
    "REC_SESSION_TOMB",
]

#: Log record type codes (disjoint from the serving protocol's 1-14 so a
#: frame fed to the wrong decoder is caught by type, not just by CRC).
REC_SEGMENT = 32
REC_EVENT = 33
REC_CHECKPOINT = 34
REC_SESSION = 35
REC_SESSION_TOMB = 36
REC_EVENTS = 37

MANIFEST_NAME = "MANIFEST.json"
#: Version 2 stores write ``REC_EVENTS`` blocks; version 1 stores (one
#: ``REC_EVENT`` frame per event) are still read, and a writer reopening
#: one rewrites its manifest as version 2.
STORE_MANIFEST_VERSION = 2
_READABLE_VERSIONS = (1, 2)

#: Default events per segment before rotation.
DEFAULT_SEGMENT_EVENTS = 4096

#: An event block is closed before its payload would pass this many bytes.
BLOCK_BYTES = 64 * 1024

#: Room left in a block payload for its event-count varint.
_COUNT_ROOM = 5


class StoreError(ReproError):
    """A store directory that cannot be trusted or an invalid operation."""


def _segment_name(sequence: int) -> str:
    return f"seg-{sequence:08d}.log"


@dataclass
class SegmentInfo:
    """One segment's structural summary (the unit of index-driven skip)."""

    file: str
    sequence: int
    base_event: int
    events: int = 0
    size: int = 0
    tags: set = field(default_factory=set)
    has_text: bool = False
    min_level: "int | None" = None
    max_level: "int | None" = None
    #: ``[{"id": int, "event": int}]`` in write order.
    checkpoints: list = field(default_factory=list)
    sealed: bool = False

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "sequence": self.sequence,
            "base_event": self.base_event,
            "events": self.events,
            "size": self.size,
            "tags": sorted(self.tags),
            "has_text": self.has_text,
            "min_level": self.min_level,
            "max_level": self.max_level,
            "checkpoints": list(self.checkpoints),
        }

    @classmethod
    def from_dict(cls, data: dict, sealed: bool = True) -> "SegmentInfo":
        return cls(
            file=data["file"],
            sequence=int(data["sequence"]),
            base_event=int(data["base_event"]),
            events=int(data["events"]),
            size=int(data["size"]),
            tags=set(data.get("tags", ())),
            has_text=bool(data.get("has_text", False)),
            min_level=data.get("min_level"),
            max_level=data.get("max_level"),
            checkpoints=[dict(c) for c in data.get("checkpoints", ())],
            sealed=sealed,
        )

    def note_event(self, event_payload_kind: int, tag: "str | None", level: int) -> None:
        """Fold one appended event into the structural summary."""
        self.events += 1
        if tag is not None:
            self.tags.add(tag)
        else:
            self.has_text = True
        if self.min_level is None or level < self.min_level:
            self.min_level = level
        if self.max_level is None or level > self.max_level:
            self.max_level = level


@dataclass(frozen=True)
class CheckpointInfo:
    """Where one checkpoint lives and whether it can resume an engine."""

    id: int
    event: int
    segment: str
    has_engine: bool
    engine_kind: "str | None"


@dataclass
class ReplayStats:
    """What a replay actually read versus provably skipped."""

    segments_total: int = 0
    segments_skipped: int = 0
    segments_read: int = 0
    events_emitted: int = 0
    events_positioned_past: int = 0
    bytes_read: int = 0
    bytes_skipped: int = 0
    recovered_tail_bytes: int = 0

    @property
    def skip_ratio(self) -> float:
        """Fraction of candidate segments the index let replay skip."""
        if not self.segments_total:
            return 0.0
        return self.segments_skipped / self.segments_total

    def to_dict(self) -> dict:
        return {
            "segments_total": self.segments_total,
            "segments_skipped": self.segments_skipped,
            "segments_read": self.segments_read,
            "events_emitted": self.events_emitted,
            "events_positioned_past": self.events_positioned_past,
            "bytes_read": self.bytes_read,
            "bytes_skipped": self.bytes_skipped,
            "recovered_tail_bytes": self.recovered_tail_bytes,
            "skip_ratio": self.skip_ratio,
        }


def _scan_frames(
    path: str, max_frame: int = DEFAULT_MAX_FRAME
) -> Iterator[tuple[Frame, int]]:
    """Yield ``(frame, end_offset)`` for every CRC-valid frame in ``path``.

    Raises :class:`~repro.serve.framing.FrameError` at the first corrupt
    frame; a partial (torn) trailing frame is *not* an error — iteration
    simply ends, and the last yielded ``end_offset`` is the byte count of
    the trustworthy prefix.
    """
    decoder = FrameDecoder(max_frame)
    offset = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 16)
            if not chunk:
                if decoder.failed:
                    # The error was parked behind good frames in the last
                    # chunk; surface it now (an empty feed re-raises).
                    decoder.feed(b"")
                return
            for frame in decoder.feed(chunk):
                offset += 9 + len(frame.payload)  # header is 4+1+4 bytes
                yield frame, offset


def _frame_json(frame: Frame, what: str) -> dict:
    try:
        return frame.json()
    except FrameError as exc:
        raise StoreError(f"corrupt {what} record: {exc}") from exc


class _Manifest:
    """The store's atomic segment index."""

    def __init__(self) -> None:
        #: The version the manifest was loaded with (saves always write
        #: :data:`STORE_MANIFEST_VERSION`).
        self.version = STORE_MANIFEST_VERSION
        self.next_segment = 1
        self.active: "str | None" = None
        self.compacted_before_event = 0
        self.compacted_before_checkpoint = 0
        self.next_checkpoint = 1
        self.segments: list[SegmentInfo] = []

    def to_dict(self) -> dict:
        return {
            "version": STORE_MANIFEST_VERSION,
            "next_segment": self.next_segment,
            "next_checkpoint": self.next_checkpoint,
            "active": self.active,
            "compacted_before_event": self.compacted_before_event,
            "compacted_before_checkpoint": self.compacted_before_checkpoint,
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @classmethod
    def load(cls, path: str) -> "_Manifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store manifest {path!r}: {exc}") from exc
        version = data.get("version")
        if version not in _READABLE_VERSIONS:
            raise StoreError(
                f"unsupported store manifest version {version!r} "
                f"(expected one of {_READABLE_VERSIONS})"
            )
        manifest = cls()
        manifest.version = version
        try:
            manifest.next_segment = int(data["next_segment"])
            manifest.next_checkpoint = int(data.get("next_checkpoint", 1))
            manifest.active = data.get("active")
            manifest.compacted_before_event = int(data.get("compacted_before_event", 0))
            manifest.compacted_before_checkpoint = int(
                data.get("compacted_before_checkpoint", 0)
            )
            manifest.segments = [
                SegmentInfo.from_dict(entry) for entry in data["segments"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed store manifest {path!r}: {exc}") from exc
        return manifest

    def save(self, directory: str, sync: SyncPolicy) -> None:
        """Atomically swap the manifest in (write-temp + ``os.replace``)."""
        path = os.path.join(directory, MANIFEST_NAME)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))
            if sync.kind != "none":
                sync.sync_file(handle)
        os.replace(tmp, path)
        sync.sync_dir(directory)
        self.version = STORE_MANIFEST_VERSION


class EventLogWriter(EventHandler):
    """Append the modified-SAX event stream durably, with checkpoints.

    The writer is an :class:`~repro.stream.events.EventHandler`, so it
    tees straight off the push pipeline (no event objects), and it also
    accepts pull-mode :class:`~repro.stream.events.Event` objects via
    :meth:`append`.  Structure:

    * events are encoded into an in-memory **block**, written as one
      ``REC_EVENTS`` frame wherever the writer hands data to the OS: before
      a checkpoint, at a sync point, on rotation, :meth:`flush` and
      :meth:`close`, and before the block's payload would pass
      :data:`BLOCK_BYTES` (or ``max_frame``);
    * events land in the **active segment**; after ``segment_events``
      events the segment is sealed — its structural summary enters the
      manifest atomically — and a fresh segment opens;
    * every ``checkpoint_interval`` events (0 = manual only) a
      checkpoint record is written; if an engine is attached
      (:meth:`attach`), its versioned snapshot is embedded so replay can
      resume evaluation there instead of from document start;
    * durability follows ``sync`` (a :class:`~repro.store.sync.SyncPolicy`
      or its string form), shared with the serving layer's spool.  Its
      cadence counts events: ``always`` writes and syncs every event as
      its own block, ``interval:N`` closes a block and syncs every N.

    Reopening a writer on an existing store recovers first: the active
    segment is scanned, any torn tail is truncated, and appending
    continues exactly after the last durable record.
    """

    def __init__(
        self,
        path: str,
        *,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
        checkpoint_interval: int = 0,
        sync: "str | SyncPolicy | None" = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        metrics=None,
    ):
        if segment_events < 1:
            raise StoreError(f"segment_events must be >= 1, got {segment_events}")
        if checkpoint_interval < 0:
            raise StoreError(
                f"checkpoint_interval must be >= 0, got {checkpoint_interval}"
            )
        self.path = path
        self.segment_events = segment_events
        self.checkpoint_interval = checkpoint_interval
        self.sync = SyncPolicy.coerce(sync)
        self.max_frame = max_frame
        self._metrics = metrics
        self._engine = None
        self._engine_kind: "str | None" = None
        self._file = None
        self._segment: "SegmentInfo | None" = None
        self._closed = False
        #: Total events appended, buffered block included (the replay
        #: coordinate system; a checkpoint covers exactly this many).
        self.position = 0
        #: Bytes truncated from a torn tail during recovery (0 = clean).
        self.recovered_tail_bytes = 0
        self._block_limit = min(BLOCK_BYTES, max_frame) - _COUNT_ROOM
        # The open block: its encoded records and the position it starts at.
        self._block = bytearray()
        self._block_start = 0
        self._synced_at = 0
        # The position at which the next block must close (checkpoint,
        # sync point or rotation); -1 once closed.
        self._next_boundary = 0
        # Per-segment: tag -> its encoded field, and the level range and
        # text flag not yet folded into the SegmentInfo.
        self._tag_fields: dict[str, bytes] = {}
        self._lo = sys.maxsize
        self._hi = -sys.maxsize
        self._has_text = False
        os.makedirs(path, exist_ok=True)
        if metrics is not None:
            self._bind_metrics(metrics)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            self._manifest = _Manifest.load(manifest_path)
            self._recover()
            if self._manifest.version != STORE_MANIFEST_VERSION:
                self._manifest.save(self.path, self.sync)
        else:
            self._manifest = _Manifest()
            self._open_segment()

    # -- metrics --------------------------------------------------------

    def _bind_metrics(self, metrics) -> None:
        self._m_events = metrics.counter(
            "repro_store_events_total", "Events appended to the ingest log."
        )
        self._m_bytes = metrics.counter(
            "repro_store_bytes_total", "Bytes written to ingest log segments."
        )
        self._m_checkpoints = metrics.counter(
            "repro_store_checkpoints_total", "Checkpoint records written."
        )
        self._m_syncs = metrics.counter(
            "repro_store_syncs_total", "fsync calls issued by the log writer."
        )
        self._m_segments = metrics.gauge(
            "repro_store_segments", "Segments in the store (sealed + active)."
        )

    # -- lifecycle ------------------------------------------------------

    def attach(self, engine) -> None:
        """Embed ``engine``'s snapshots in future checkpoints.

        ``engine`` is a :class:`~repro.multiq.engine.MultiQueryEngine`, an
        :class:`~repro.core.processor.XPathStream`, or a
        :class:`~repro.perf.pipeline.PushPipeline` — anything whose
        versioned ``snapshot()`` the matching ``restore()`` accepts.
        """
        from repro.multiq.engine import MultiQueryEngine

        self._engine = engine
        self._engine_kind = "multi" if isinstance(engine, MultiQueryEngine) else "xpath"

    def _recover(self) -> None:
        """Resume on an existing store: scan the active tail, truncate torn bytes."""
        manifest = self._manifest
        if manifest.segments:
            last = manifest.segments[-1]
            self.position = last.base_event + last.events
        else:
            self.position = manifest.compacted_before_event
        if manifest.active is None:
            # Cleanly closed store: continue with a fresh segment.
            self._open_segment()
            return
        active_path = os.path.join(self.path, manifest.active)
        if not os.path.exists(active_path):
            # Crash between manifest swap and segment creation.
            self._open_segment(reuse_name=manifest.active)
            return
        segment, good_bytes, torn = _scan_segment(
            active_path, manifest.active, self.max_frame
        )
        if segment is None:
            # Not even a valid header frame: the file is garbage; replace it.
            self.recovered_tail_bytes = os.path.getsize(active_path)
            self._open_segment(reuse_name=manifest.active, truncate=True)
            return
        if torn:
            self.recovered_tail_bytes = os.path.getsize(active_path) - good_bytes
            with open(active_path, "r+b") as handle:
                handle.truncate(good_bytes)
        self.position = segment.base_event + segment.events
        for checkpoint in segment.checkpoints:
            manifest.next_checkpoint = max(
                manifest.next_checkpoint, int(checkpoint["id"]) + 1
            )
        self._file = open(active_path, "ab")
        self._begin_segment(segment)

    def _open_segment(self, reuse_name: "str | None" = None, truncate: bool = False) -> None:
        manifest = self._manifest
        if reuse_name is None:
            name = _segment_name(manifest.next_segment)
            sequence = manifest.next_segment
            manifest.next_segment += 1
        else:
            name = reuse_name
            sequence = manifest.next_segment - 1
        manifest.active = name
        manifest.save(self.path, self.sync)
        mode = "wb" if truncate else "xb"
        try:
            self._file = open(os.path.join(self.path, name), mode)
        except FileExistsError:
            raise StoreError(
                f"segment {name!r} already exists; is another writer live?"
            ) from None
        self._begin_segment(
            SegmentInfo(file=name, sequence=sequence, base_event=self.position)
        )
        header = {
            "version": STORE_MANIFEST_VERSION,
            "segment": sequence,
            "base_event": self.position,
        }
        self._write_frame(REC_SEGMENT, json.dumps(header, separators=(",", ":")).encode("utf-8"))
        if self._metrics is not None:
            self._m_segments.set(len(manifest.segments) + 1)

    def _begin_segment(self, segment: SegmentInfo) -> None:
        """Make ``segment`` the active one and reset the per-segment state."""
        self._segment = segment
        self._tag_fields = {}
        self._lo = sys.maxsize if segment.min_level is None else segment.min_level
        self._hi = -sys.maxsize if segment.max_level is None else segment.max_level
        self._has_text = segment.has_text
        self._block_start = self.position
        self._synced_at = self.position
        self._next_boundary = self._compute_boundary()

    def _rotate(self) -> None:
        """Seal the active segment into the manifest; open the next one."""
        self._seal()
        self._open_segment()

    def _seal(self) -> None:
        self._write_block()
        segment = self._segment
        self._file.flush()
        if self.sync.kind != "none":
            self._fsync()
        self._file.close()
        self._file = None
        segment.size = os.path.getsize(os.path.join(self.path, segment.file))
        segment.sealed = True
        self._manifest.segments.append(segment)
        self._segment = None

    def close(self) -> None:
        """Seal the active segment and mark the store cleanly closed."""
        if self._closed:
            return
        if self._segment is not None:
            self._seal()
        self._closed = True
        self._next_boundary = -1
        self._manifest.active = None
        self._manifest.save(self.path, self.sync)

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending ------------------------------------------------------

    def _write_frame(self, type_code: int, payload: bytes) -> None:
        if self._closed:
            raise StoreError("append to a closed EventLogWriter")
        data = encode_frame(type_code, payload)
        self._file.write(data)
        self._segment.size += len(data)
        if self._metrics is not None:
            self._m_bytes.inc(len(data))

    def _emit_block(self, records, count: int) -> None:
        """Write ``count`` encoded records as one ``REC_EVENTS`` frame."""
        self._write_frame(REC_EVENTS, block_header(count) + records)
        if self._metrics is not None:
            self._m_events.inc(count)

    def _write_block(self) -> None:
        """Write the open block (if any events) and fold the segment summary."""
        count = self.position - self._block_start
        if count:
            self._emit_block(self._block, count)
            self._block = bytearray()
            self._block_start = self.position
        segment = self._segment
        segment.events = self.position - segment.base_event
        segment.has_text = self._has_text
        if self._hi >= self._lo:
            segment.min_level = self._lo
            segment.max_level = self._hi

    def _compute_boundary(self) -> int:
        position = self.position
        boundary = self._segment.base_event + self.segment_events
        interval = self.checkpoint_interval
        if interval:
            boundary = min(boundary, (position // interval + 1) * interval)
        if self.sync.every:
            boundary = min(boundary, self._synced_at + self.sync.every)
        return boundary

    def _fsync(self) -> None:
        self.sync.sync_file(self._file)
        self._synced_at = self.position
        if self._metrics is not None:
            self._m_syncs.inc()

    def _boundary(self, mark: int) -> None:
        """Slow path after an append: the event at ``_block[mark:]`` reached
        the next boundary position or took the block past its byte limit."""
        if self._closed:
            del self._block[mark:]
            self.position -= 1
            raise StoreError("append to a closed EventLogWriter")
        block = self._block
        if len(block) > self._block_limit:
            if mark:
                # Close the block before this event would take it past the
                # limit; the event starts the next block.
                self._emit_block(block[:mark], self.position - 1 - self._block_start)
                self._block = block = block[mark:]
                self._block_start = self.position - 1
            if len(block) > self.max_frame - _COUNT_ROOM:
                self._block = bytearray()
                self.position -= 1
                raise StoreError(
                    f"event record of {len(block)} bytes exceeds the "
                    f"{self.max_frame}-byte frame limit"
                )
        position = self.position
        if position < self._next_boundary:
            return
        self._write_block()
        if self.sync.every and position >= self._synced_at + self.sync.every:
            self._fsync()
        if self.checkpoint_interval and position % self.checkpoint_interval == 0:
            self.checkpoint()
        if position - self._segment.base_event >= self.segment_events:
            self._rotate()
        else:
            self._next_boundary = self._compute_boundary()

    def _new_tag(self, tag: str) -> bytes:
        """Cache miss: encode ``tag`` and add it to the segment's alphabet."""
        if self._segment is None:
            raise StoreError("append to a closed EventLogWriter")
        field = self._tag_fields[tag] = text_field(tag)
        self._segment.tags.add(tag)
        return field

    # Push-mode tee: the writer sits directly behind the fused scanner.
    # Each callback encodes into the open block and, in the common case,
    # is done after one comparison with the next boundary position.

    def start_element(self, tag, level, node_id, attributes) -> None:
        block = self._block
        mark = len(block)
        field = self._tag_fields.get(tag)
        if field is None:
            field = self._new_tag(tag)
        try:
            encode_start_into(block, field, level, node_id, attributes)
        except BaseException:
            del block[mark:]
            raise
        if level > self._hi:
            self._hi = level
        if level < self._lo:
            self._lo = level
        position = self.position = self.position + 1
        if position >= self._next_boundary or len(block) > self._block_limit:
            self._boundary(mark)

    def characters(self, text, level) -> None:
        block = self._block
        mark = len(block)
        try:
            encode_chars_into(block, text, level)
        except BaseException:
            del block[mark:]
            raise
        self._has_text = True
        if level > self._hi:
            self._hi = level
        if level < self._lo:
            self._lo = level
        position = self.position = self.position + 1
        if position >= self._next_boundary or len(block) > self._block_limit:
            self._boundary(mark)

    def end_element(self, tag, level) -> None:
        block = self._block
        mark = len(block)
        field = self._tag_fields.get(tag)
        if field is None:
            field = self._new_tag(tag)
        try:
            encode_end_into(block, field, level)
        except BaseException:
            del block[mark:]
            raise
        if level > self._hi:
            self._hi = level
        if level < self._lo:
            self._lo = level
        position = self.position = self.position + 1
        if position >= self._next_boundary or len(block) > self._block_limit:
            self._boundary(mark)

    def append(self, event: Event) -> None:
        """Append one pull-mode event object."""
        if isinstance(event, StartElement):
            self.start_element(event.tag, event.level, event.node_id, event.attributes)
        elif isinstance(event, Characters):
            self.characters(event.text, event.level)
        elif isinstance(event, EndElement):
            self.end_element(event.tag, event.level)
        else:
            raise CodecError(f"cannot encode {event!r}")

    def extend(self, events: Iterable[Event]) -> None:
        append = self.append
        for event in events:
            append(event)

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self) -> int:
        """Write a checkpoint record now; returns its id.

        The record covers exactly :attr:`position` events: replay from it
        resumes at event index ``position``.  The open block is written
        first, so the record follows the last event it covers.  With an
        attached engine the snapshot is taken *here*, so it must have
        consumed exactly the events written so far (the tee arrangement
        in :func:`repro.store.replay.ingest` guarantees this).
        """
        if self._closed:
            raise StoreError("append to a closed EventLogWriter")
        self._write_block()
        manifest = self._manifest
        checkpoint_id = manifest.next_checkpoint
        manifest.next_checkpoint += 1
        payload = {
            "id": checkpoint_id,
            "event": self.position,
            "engine_kind": self._engine_kind if self._engine is not None else None,
            "engine": self._engine.snapshot() if self._engine is not None else None,
        }
        self._write_frame(
            REC_CHECKPOINT, json.dumps(payload, separators=(",", ":")).encode("utf-8")
        )
        self._segment.checkpoints.append({"id": checkpoint_id, "event": self.position})
        # A checkpoint is a durability point: honour the policy but never
        # leave it buffered in-process.
        self._file.flush()
        if self.sync.kind != "none":
            self._fsync()
        self._next_boundary = self._compute_boundary()
        if self._metrics is not None:
            self._m_checkpoints.inc()
        return checkpoint_id

    def flush(self) -> None:
        """Write the open block and push buffered records to the OS (no fsync)."""
        if self._file is not None:
            self._write_block()
            self._file.flush()


_EVENT_RECORDS = (REC_EVENTS, REC_EVENT)


def _block_payload(frame: Frame) -> bytes:
    """An event frame's payload as a block (a version-1 frame is a block of one)."""
    if frame.type == REC_EVENT:
        return block_header(1) + frame.payload
    return frame.payload


def _note(segment: SegmentInfo, event: Event) -> None:
    if isinstance(event, Characters):
        segment.note_event(0, None, event.level)
    else:
        segment.note_event(0, event.tag, event.level)


def _scan_segment(
    path: str, name: str, max_frame: int
) -> "tuple[SegmentInfo | None, int, bool]":
    """Scan one segment file; returns ``(info, good_bytes, torn)``.

    ``info`` is ``None`` when the file has no valid header frame.  A torn
    or corrupt tail, or a record of unknown type, stops the scan;
    everything before it is summarised.
    """
    segment: "SegmentInfo | None" = None
    good = 0
    torn = False
    try:
        for frame, offset in _scan_frames(path, max_frame):
            if segment is None:
                if frame.type != REC_SEGMENT:
                    return None, 0, True
                header = _frame_json(frame, "segment header")
                segment = SegmentInfo(
                    file=name,
                    sequence=int(header["segment"]),
                    base_event=int(header["base_event"]),
                )
            elif frame.type in _EVENT_RECORDS:
                for event in iter_block(_block_payload(frame)):
                    _note(segment, event)
            elif frame.type == REC_CHECKPOINT:
                info = _frame_json(frame, "checkpoint")
                segment.checkpoints.append(
                    {"id": int(info["id"]), "event": int(info["event"])}
                )
            else:
                # A record this reader does not know: trust nothing after it.
                torn = True
                break
            good = offset
    except FrameError:
        torn = True
    if segment is not None:
        if good < os.path.getsize(path):
            torn = True
        segment.size = good
    return segment, good, torn


class EventLogReader:
    """Read a store: manifest, segments, checkpoints, and replayable events.

    ``limits`` (a :class:`~repro.stream.recovery.ResourceLimits`) is
    enforced on every event *decoded* — depth, attribute count/length,
    text length per record, and ``max_total_events`` across the whole
    replay — so a hostile log is bounded exactly like hostile XML text.
    Records that replay provably skips (index-skipped segments,
    pre-checkpoint positioning) are never decoded at all.

    The reader is snapshot-consistent: it loads the manifest once at
    construction and re-scans the active segment on each :meth:`events`
    call, so a live writer can keep appending while readers replay
    (catch-up readers see everything flushed before they scan).
    """

    def __init__(
        self,
        path: str,
        *,
        limits: ResourceLimits | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        metrics=None,
    ):
        self.path = path
        self.limits = limits
        self.max_frame = max_frame
        self._metrics = metrics
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise StoreError(f"{path!r} is not a store (no {MANIFEST_NAME})")
        self._manifest = _Manifest.load(manifest_path)
        if metrics is not None:
            self._m_replayed = metrics.counter(
                "repro_store_replay_events_total",
                "Events decoded and delivered by log replay.",
            )
            self._m_skipped = metrics.counter(
                "repro_store_segments_skipped_total",
                "Segments the structural index let replay skip.",
            )

    # -- introspection --------------------------------------------------

    def manifest(self) -> dict:
        """The manifest as a plain dict (diagnostics, CLI)."""
        return self._manifest.to_dict()

    @property
    def compacted_before_event(self) -> int:
        """Events dropped from the head of the log by compaction."""
        return self._manifest.compacted_before_event

    def segments(self) -> list[SegmentInfo]:
        """Sealed segments (from the manifest) plus the scanned active tail."""
        result = list(self._manifest.segments)
        active = self._active_segment()
        if active is not None:
            result.append(active)
        return result

    def _active_segment(self) -> "SegmentInfo | None":
        name = self._manifest.active
        if name is None:
            return None
        path = os.path.join(self.path, name)
        if not os.path.exists(path):
            return None
        segment, _good, _torn = _scan_segment(path, name, self.max_frame)
        return segment

    @property
    def position(self) -> int:
        """Total durable events currently in the log."""
        segments = self.segments()
        if not segments:
            return self._manifest.compacted_before_event
        last = segments[-1]
        return last.base_event + last.events

    def checkpoints(self) -> list[CheckpointInfo]:
        """Every checkpoint in the log, in id order."""
        found: list[CheckpointInfo] = []
        for segment in self.segments():
            for entry in segment.checkpoints:
                found.append(
                    CheckpointInfo(
                        id=int(entry["id"]),
                        event=int(entry["event"]),
                        segment=segment.file,
                        # Engine presence requires reading the record;
                        # resolved lazily by load_checkpoint.
                        has_engine=bool(entry.get("has_engine", True)),
                        engine_kind=entry.get("engine_kind"),
                    )
                )
        found.sort(key=lambda info: info.id)
        return found

    def load_checkpoint(self, checkpoint_id: int) -> dict:
        """The full checkpoint record (embedded engine snapshot included)."""
        for segment in self.segments():
            for entry in segment.checkpoints:
                if int(entry["id"]) == checkpoint_id:
                    return self._read_checkpoint(segment, checkpoint_id)
        raise StoreError(f"no checkpoint {checkpoint_id} in store {self.path!r}")

    def _read_checkpoint(self, segment: SegmentInfo, checkpoint_id: int) -> dict:
        path = os.path.join(self.path, segment.file)
        for frame, _offset in self._segment_frames(path, segment):
            if frame.type == REC_CHECKPOINT:
                payload = _frame_json(frame, "checkpoint")
                if int(payload.get("id", -1)) == checkpoint_id:
                    return payload
        raise StoreError(
            f"checkpoint {checkpoint_id} indexed in {segment.file!r} but "
            "not present (corrupt store?)"
        )

    def _segment_frames(
        self, path: str, segment: SegmentInfo
    ) -> Iterator[tuple[Frame, int]]:
        """Frames of one segment; sealed corruption raises, torn tails stop."""
        try:
            yield from _scan_frames(path, self.max_frame)
        except FrameError as exc:
            if segment.sealed:
                raise StoreError(
                    f"corrupt sealed segment {segment.file!r}: {exc}"
                ) from exc
            # Active tail: stop at the torn frame (recovery semantics).
            return

    # -- replay ---------------------------------------------------------

    def events(
        self,
        start_event: int = 0,
        *,
        interest: "tuple | None" = None,
        stats: "ReplayStats | None" = None,
        on_checkpoint: "Callable[[dict], None] | None" = None,
    ) -> Iterator[Event]:
        """Yield events from ``start_event`` on, skipping what it can.

        ``interest`` is ``(tags, wants_all, wants_text)`` — the alphabet
        analysis of :mod:`repro.store.index`.  A segment is skipped when
        *every one of its events* would individually be dropped by the
        multi-query alphabet router for this interest: no tag overlap,
        no wildcard machines, and (for value-testing queries) no
        character data in the segment.  That per-event argument is what
        makes segment skipping exact rather than approximate.

        ``on_checkpoint`` (optional) receives each checkpoint record
        encountered at or after ``start_event`` — late-query catch-up
        uses it to observe splice positions.
        """
        if start_event < self._manifest.compacted_before_event:
            raise StoreError(
                f"events before {self._manifest.compacted_before_event} were "
                f"compacted away; replay from a checkpoint at or after it "
                f"(requested start {start_event})"
            )
        limits = self.limits
        emitted = 0
        for segment in self.segments():
            segment_end = segment.base_event + segment.events
            if stats is not None:
                stats.segments_total += 1
            if segment_end <= start_event:
                if stats is not None:
                    stats.segments_skipped += 1
                    stats.bytes_skipped += segment.size
                continue
            if interest is not None and _segment_skippable(segment, interest):
                if stats is not None:
                    stats.segments_skipped += 1
                    stats.bytes_skipped += segment.size
                if self._metrics is not None:
                    self._m_skipped.inc()
                continue
            path = os.path.join(self.path, segment.file)
            if stats is not None:
                stats.segments_read += 1
            index = segment.base_event
            for frame, _offset in self._segment_frames(path, segment):
                kind = frame.type
                if kind in _EVENT_RECORDS:
                    payload = _block_payload(frame)
                    count, _first = block_count(payload)
                    if index + count <= start_event:
                        # Wholly before the start: step over it undecoded.
                        if stats is not None:
                            stats.events_positioned_past += count
                        index += count
                        continue
                    skip = max(0, start_event - index)
                    for event in iter_block(
                        payload, limits, skip=skip, emitted=emitted
                    ):
                        emitted += 1
                        if stats is not None:
                            stats.events_emitted += 1
                        yield event
                    if stats is not None:
                        stats.events_positioned_past += skip
                    index += count
                elif kind == REC_CHECKPOINT:
                    if on_checkpoint is not None and index >= start_event:
                        on_checkpoint(_frame_json(frame, "checkpoint"))
                elif kind != REC_SEGMENT:
                    if segment.sealed:
                        raise StoreError(
                            f"unknown record type {kind} in sealed segment "
                            f"{segment.file!r} (written by a newer version?)"
                        )
                    break  # active tail: stop where the scan stopped
            if stats is not None:
                stats.bytes_read += segment.size
        if self._metrics is not None and emitted:
            self._m_replayed.inc(emitted)


def _segment_skippable(segment: SegmentInfo, interest: tuple) -> bool:
    """True when no event in ``segment`` can touch a machine with ``interest``."""
    tags, wants_all, wants_text = interest
    if wants_all:
        return False
    if wants_text and segment.has_text:
        return False
    return not (segment.tags & tags)


def compact(
    path: str,
    before_checkpoint: int,
    *,
    sync: "str | SyncPolicy | None" = None,
) -> dict:
    """Drop whole sealed segments wholly before ``before_checkpoint``.

    The space/history trade: segments whose every event precedes the
    named checkpoint's position are deleted, after an atomic manifest
    swap records the new floor.  Replay from that checkpoint (or any
    later one) is unaffected; replay from document start — and late-query
    catch-up over the dropped range — becomes impossible and raises
    :class:`StoreError` with the floor in the message.

    The store must be cleanly closed (no active writer).  Returns a
    summary dict: segments and bytes dropped, the new floor.
    """
    sync_policy = SyncPolicy.coerce(sync)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise StoreError(f"{path!r} is not a store (no {MANIFEST_NAME})")
    manifest = _Manifest.load(manifest_path)
    if manifest.active is not None:
        raise StoreError("cannot compact a store with an active writer (close it first)")
    target: "dict | None" = None
    for segment in manifest.segments:
        for entry in segment.checkpoints:
            if int(entry["id"]) == before_checkpoint:
                target = entry
    if target is None:
        raise StoreError(f"no checkpoint {before_checkpoint} in store {path!r}")
    floor = int(target["event"])
    keep: list[SegmentInfo] = []
    dropped: list[SegmentInfo] = []
    for segment in manifest.segments:
        if segment.base_event + segment.events <= floor:
            dropped.append(segment)
        else:
            keep.append(segment)
    manifest.segments = keep
    if dropped:
        manifest.compacted_before_event = dropped[-1].base_event + dropped[-1].events
        manifest.compacted_before_checkpoint = max(
            manifest.compacted_before_checkpoint, before_checkpoint
        )
    manifest.save(path, sync_policy)
    bytes_dropped = 0
    for segment in dropped:
        segment_path = os.path.join(path, segment.file)
        try:
            bytes_dropped += os.path.getsize(segment_path)
            os.unlink(segment_path)
        except OSError:
            pass
    return {
        "segments_dropped": len(dropped),
        "bytes_dropped": bytes_dropped,
        "compacted_before_event": manifest.compacted_before_event,
        "segments_kept": len(keep),
    }
