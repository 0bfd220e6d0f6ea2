"""The framed segment log: rotation, recovery, manifest, compaction, sync."""

from __future__ import annotations

import json
import os

import pytest

from repro.serve.framing import encode_frame
from repro.store.log import (
    BLOCK_BYTES,
    MANIFEST_NAME,
    REC_EVENT,
    REC_EVENTS,
    STORE_MANIFEST_VERSION,
    EventLogReader,
    EventLogWriter,
    ReplayStats,
    StoreError,
    compact,
)
from repro.store.sync import SyncPolicy
from repro.stream.codec import (
    EVENT_KIND_CHARS,
    CodecError,
    block_count,
    block_header,
    encode_event,
    iter_block,
)
from repro.stream.events import Characters, EndElement, StartElement
from repro.stream.recovery import ResourceLimitError, ResourceLimits
from repro.stream.tokenizer import parse_string

from tests.test_push_equivalence import random_document


def write_document(path, text, *, segment_events=64, checkpoint_interval=0,
                   sync="none", close=True):
    writer = EventLogWriter(
        path, segment_events=segment_events,
        checkpoint_interval=checkpoint_interval, sync=sync,
    )
    events = list(parse_string(text))
    writer.extend(events)
    if close:
        writer.close()
    return writer, events


class TestWriterReader:
    def test_round_trip_single_segment(self, tmp_path):
        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(3), segment_events=10_000)
        reader = EventLogReader(store)
        assert list(reader.events()) == events
        assert reader.position == len(events)

    def test_rotation_preserves_order(self, tmp_path):
        store = str(tmp_path / "s")
        text = "<r>" + "".join(f"<a><b>{i}</b></a>" for i in range(40)) + "</r>"
        writer, events = write_document(store, text, segment_events=16)
        reader = EventLogReader(store)
        segments = reader.segments()
        assert len(segments) > 1
        assert all(segment.sealed for segment in segments)
        assert [segment.base_event for segment in segments] == sorted(
            segment.base_event for segment in segments
        )
        assert list(reader.events()) == events

    def test_push_handler_tee_equals_append(self, tmp_path):
        text = random_document(7)
        a, events = write_document(str(tmp_path / "a"), text, segment_events=32)
        writer = EventLogWriter(str(tmp_path / "b"), segment_events=32, sync="none")
        for event in events:
            if isinstance(event, StartElement):
                writer.start_element(event.tag, event.level, event.node_id,
                                     event.attributes)
            elif isinstance(event, Characters):
                writer.characters(event.text, event.level)
            else:
                writer.end_element(event.tag, event.level)
        writer.close()
        assert list(EventLogReader(str(tmp_path / "b")).events()) == events

    def test_segment_summary_matches_content(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r><a x='1'>text</a><b/></r>", segment_events=100)
        (segment,) = EventLogReader(store).segments()
        assert segment.tags == {"r", "a", "b"}
        assert segment.has_text
        assert segment.min_level == 1 and segment.max_level == 2
        assert segment.events == 7  # 3 starts + 1 text + 3 ends

    def test_start_event_positioning(self, tmp_path):
        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(11), segment_events=8)
        reader = EventLogReader(store)
        for start in (0, 1, len(events) // 2, len(events) - 1, len(events)):
            assert list(reader.events(start)) == events[start:]

    def test_reader_requires_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="not a store"):
            EventLogReader(str(tmp_path / "missing"))

    def test_closed_writer_refuses_appends(self, tmp_path):
        store = str(tmp_path / "s")
        writer, _ = write_document(store, "<r><a/></r>")
        with pytest.raises(StoreError, match="closed"):
            writer.append(EndElement("r", 1))

    def test_reader_sees_live_unsealed_tail(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=4, sync="none")
        events = list(parse_string("<r><a/><b/><c/><d/><e/></r>"))
        writer.extend(events)
        writer.flush()
        reader = EventLogReader(store)
        assert list(reader.events()) == events
        assert not reader.segments()[-1].sealed
        writer.close()


class TestRecovery:
    def _torn_store(self, tmp_path, cut: int, sync: str = "none"):
        """A store whose active segment lost ``cut`` trailing bytes."""
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=32, sync=sync)
        events = list(parse_string(random_document(9)))
        writer.extend(events)
        writer.flush()
        active = os.path.join(store, writer._manifest.active)
        # Abandon the writer (simulated crash), then tear the tail.
        size = os.path.getsize(active)
        with open(active, "r+b") as handle:
            handle.truncate(size - cut)
        return store, events

    @pytest.mark.parametrize("cut", [1, 3, 5])
    def test_torn_tail_truncated_to_good_prefix(self, tmp_path, cut):
        store, events = self._torn_store(tmp_path, cut)
        recovered = EventLogWriter(store, segment_events=32, sync="none")
        assert recovered.recovered_tail_bytes > 0
        assert recovered.position < len(events)
        survivors = events[: recovered.position]
        recovered.extend(events[recovered.position:])
        recovered.close()
        assert list(EventLogReader(store).events()) == events

    def test_corrupt_middle_of_active_truncates_there(self, tmp_path):
        # A sync point every 2 events closes a block every 2 events, so
        # intact blocks precede the flipped bit.
        store, events = self._torn_store(tmp_path, 0, sync="interval:2")
        active = os.path.join(
            store, json.load(open(os.path.join(store, MANIFEST_NAME)))["active"]
        )
        data = bytearray(open(active, "rb").read())
        data[len(data) // 2] ^= 0xFF  # flip a bit mid-file
        open(active, "wb").write(bytes(data))
        recovered = EventLogWriter(store, segment_events=32, sync="none")
        assert 0 < recovered.position < len(events)
        assert recovered.recovered_tail_bytes > 0

    def test_garbage_active_file_is_replaced(self, tmp_path):
        store, events = self._torn_store(tmp_path, 0)
        active = os.path.join(
            store, json.load(open(os.path.join(store, MANIFEST_NAME)))["active"]
        )
        open(active, "wb").write(b"not frames at all")
        recovered = EventLogWriter(store, segment_events=32, sync="none")
        # Sealed history intact; active segment restarted at its base.
        assert recovered.position == recovered._segment.base_event
        recovered.close()
        survivors = list(EventLogReader(store).events())
        assert survivors == events[: len(survivors)]

    def test_reopen_cleanly_closed_store_continues_positions(self, tmp_path):
        store = str(tmp_path / "s")
        _, first = write_document(store, "<r><a/><b/></r>", segment_events=3)
        writer = EventLogWriter(store, segment_events=3, sync="none")
        assert writer.position == len(first)
        more = list(parse_string("<r2><c/></r2>"))
        writer.extend(more)
        writer.close()
        assert list(EventLogReader(store).events()) == first + more

    def test_sealed_segment_corruption_raises(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, random_document(4), segment_events=8)
        reader = EventLogReader(store)
        sealed = reader.segments()[0]
        path = os.path.join(store, sealed.file)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(StoreError, match="corrupt sealed segment"):
            list(EventLogReader(store).events())

    def test_corrupt_manifest_raises(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r/>")
        open(os.path.join(store, MANIFEST_NAME), "w").write("{broken")
        with pytest.raises(StoreError, match="corrupt store manifest"):
            EventLogReader(store)


class TestCheckpointsAndCompaction:
    def test_checkpoint_positions(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=16,
                                checkpoint_interval=10, sync="none")
        events = list(parse_string(random_document(6)))
        writer.extend(events)
        final = writer.checkpoint()
        writer.close()
        reader = EventLogReader(store)
        checkpoints = reader.checkpoints()
        assert [c.id for c in checkpoints] == list(range(1, final + 1))
        for info in checkpoints[:-1]:
            assert info.event % 10 == 0
        assert checkpoints[-1].event == len(events)

    def test_compact_drops_prefix_only(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=8,
                                checkpoint_interval=20, sync="none")
        text = "<r>" + "".join(f"<a><b>{i}</b></a>" for i in range(30)) + "</r>"
        events = list(parse_string(text))
        writer.extend(events)
        writer.close()
        reader = EventLogReader(store)
        target = reader.checkpoints()[1]
        summary = compact(store, target.id, sync="none")
        assert summary["segments_dropped"] >= 1
        after = EventLogReader(store)
        floor = after.compacted_before_event
        assert 0 < floor <= target.event
        assert list(after.events(floor)) == events[floor:]
        with pytest.raises(StoreError, match="compacted"):
            list(after.events(0))

    def test_compact_requires_closed_store(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        writer.checkpoint()
        writer.flush()
        with pytest.raises(StoreError, match="active writer"):
            compact(store, 1)
        writer.close()

    def test_compact_unknown_checkpoint(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r/>")
        with pytest.raises(StoreError, match="no checkpoint 99"):
            compact(store, 99)


class TestLimitsOnLogBytes:
    def test_decode_limits_enforced_during_read(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r>" + "<a>" * 30 + "</a>" * 30 + "</r>")
        reader = EventLogReader(store, limits=ResourceLimits(max_depth=10))
        with pytest.raises(Exception, match="max_depth"):
            list(reader.events())

    def test_max_total_events_bounds_replay(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, random_document(2))
        reader = EventLogReader(store, limits=ResourceLimits(max_total_events=5))
        with pytest.raises(Exception, match="max_total_events"):
            list(reader.events())

    def test_hostile_record_injected_into_segment(self, tmp_path):
        """A CRC-valid frame containing a depth bomb must be caught."""
        from repro.stream.codec import encode_event

        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        active = os.path.join(store, writer._manifest.active)
        writer.flush()
        bomb = encode_frame(REC_EVENT, encode_event(StartElement("x", 10**6, 2, {})))
        with open(active, "ab") as handle:
            handle.write(bomb)
        reader = EventLogReader(store, limits=ResourceLimits(max_depth=64))
        with pytest.raises(Exception, match="max_depth"):
            list(reader.events())
        # Without limits the bomb decodes (it is structurally valid).
        assert len(list(EventLogReader(store).events())) == 2
        writer.close()


class TestSyncPolicy:
    def test_coerce_spellings(self):
        assert SyncPolicy.coerce(None).kind == "always"
        assert SyncPolicy.coerce("none").kind == "none"
        policy = SyncPolicy.coerce("interval:7")
        assert (policy.kind, policy.interval) == ("interval", 7)
        assert SyncPolicy.coerce(policy) is policy
        assert policy.to_str() == "interval:7"

    def test_invalid_spellings(self):
        with pytest.raises(ValueError):
            SyncPolicy.coerce("sometimes")
        with pytest.raises(ValueError):
            SyncPolicy("interval", 0)
        with pytest.raises(TypeError):
            SyncPolicy.coerce(42)

    def test_should_sync_cadence(self):
        always, never = SyncPolicy("always"), SyncPolicy("none")
        every3 = SyncPolicy("interval", 3)
        assert always.should_sync(1) and not never.should_sync(10**6)
        assert [every3.should_sync(n) for n in (1, 2, 3, 4)] == [
            False, False, True, True,
        ]

    @pytest.mark.parametrize("sync", ["always", "interval:4", "none"])
    def test_log_contents_identical_across_policies(self, tmp_path, sync):
        store = str(tmp_path / sync.replace(":", "_"))
        _, events = write_document(store, random_document(8), sync=sync)
        assert list(EventLogReader(store).events()) == events

    def test_writer_sync_counts(self, tmp_path, monkeypatch):
        import repro.store.sync as sync_mod

        calls = []
        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: calls.append(fd))
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="interval:5", segment_events=10_000)
        for event in parse_string(random_document(10)):
            writer.append(event)
        appended = writer.position
        mid_count = len(calls)
        assert mid_count >= appended // 5 - 1
        writer.close()
        assert len(calls) > mid_count  # seal forces a final sync

    def test_none_never_fsyncs(self, tmp_path, monkeypatch):
        import repro.store.sync as sync_mod
        from repro.obs.metrics import MetricsRegistry
        from repro.store import ingest

        calls = []
        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: calls.append(fd))
        metrics = MetricsRegistry()
        store = str(tmp_path / "s")
        result = ingest(random_document(10), store, queries={"t": "//title"},
                        segment_events=4, checkpoint_interval=3, sync="none",
                        metrics=metrics)
        assert result.segments > 2
        assert calls == []
        assert metrics.counter("repro_store_syncs_total").get() == 0


def _frames(store):
    """``(segment file, frame)`` for every frame of every segment, in order."""
    from repro.store.log import _scan_frames

    reader = EventLogReader(store)
    for segment in reader.segments():
        for frame, _offset in _scan_frames(os.path.join(store, segment.file)):
            yield segment.file, frame


def encode_block(events):
    """A block payload: the event count, then each record back to back."""
    return block_header(len(events)) + b"".join(encode_event(e) for e in events)


def _append_raw(store, writer, type_code, payload):
    """Append a hand-made (CRC-valid) frame to the live writer's segment."""
    writer.flush()
    with open(os.path.join(store, writer._manifest.active), "ab") as handle:
        handle.write(encode_frame(type_code, payload))


class TestEventBlocks:
    def test_sync_always_writes_one_event_per_frame(self, tmp_path, monkeypatch):
        import repro.store.sync as sync_mod

        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: None)
        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(12), sync="always")
        counts = [
            block_count(frame.payload)[0]
            for _file, frame in _frames(store) if frame.type == REC_EVENTS
        ]
        assert counts == [1] * len(events)

    def test_interval_sync_closes_a_block_every_n_events(self, tmp_path, monkeypatch):
        import repro.store.sync as sync_mod

        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: None)
        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(13), sync="interval:4",
                                   segment_events=10_000)
        counts = [
            block_count(frame.payload)[0]
            for _file, frame in _frames(store) if frame.type == REC_EVENTS
        ]
        assert sum(counts) == len(events)
        assert all(count == 4 for count in counts[:-1]) and counts[-1] <= 4

    def test_none_frames_bounded_by_boundaries(self, tmp_path):
        from repro.store import ingest

        store = str(tmp_path / "s")
        text = "<r>" + "".join(f"<a><b>{i}</b></a>" for i in range(3000)) + "</r>"
        result = ingest(text, store, sync="none", checkpoint_interval=1000,
                        segment_events=4096)
        frames = [frame for _file, frame in _frames(store)
                  if frame.type == REC_EVENTS]
        size = sum(len(frame.payload) for frame in frames)
        bound = len(result.checkpoints) + result.segments + -(-size // BLOCK_BYTES)
        assert len(frames) <= bound
        assert all(len(frame.payload) <= BLOCK_BYTES for frame in frames)

    def test_block_closes_before_passing_the_byte_limit(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        events = [StartElement("r", 1, 1, {})]
        events += [Characters("x" * 5000, 1) for _ in range(40)]
        events += [Characters("y" * (BLOCK_BYTES + 10), 1), EndElement("r", 1)]
        writer.extend(events)
        writer.close()
        payloads = [frame.payload for _file, frame in _frames(store)
                    if frame.type == REC_EVENTS]
        assert len(payloads) > 2
        # Only a lone event larger than the limit may make a bigger block.
        for payload in payloads:
            assert len(payload) <= BLOCK_BYTES or block_count(payload)[0] == 1
        assert list(EventLogReader(store).events()) == events

    def test_event_larger_than_max_frame_is_refused(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none", max_frame=1024)
        writer.append(StartElement("r", 1, 1, {}))
        with pytest.raises(StoreError, match="frame limit"):
            writer.append(Characters("z" * 2000, 1))
        assert writer.position == 1
        writer.append(EndElement("r", 1))
        writer.close()
        events = list(EventLogReader(store, max_frame=1024).events())
        assert events == [StartElement("r", 1, 1, {}), EndElement("r", 1)]

    def test_counters_stay_exact(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none", segment_events=7,
                                checkpoint_interval=5, metrics=metrics)
        events = list(parse_string(random_document(14)))
        writer.extend(events)
        writer.close()
        written = sum(
            os.path.getsize(os.path.join(store, segment.file))
            for segment in EventLogReader(store).segments()
        )
        assert metrics.counter("repro_store_events_total").get() == len(events)
        assert metrics.counter("repro_store_bytes_total").get() == written
        assert metrics.counter("repro_store_syncs_total").get() == 0

    def test_segment_summary_exact_across_blocks(self, tmp_path):
        text = random_document(15)
        store = str(tmp_path / "s")
        _, events = write_document(store, text, segment_events=6, sync="none")
        for segment in EventLogReader(store).segments():
            chunk = events[segment.base_event:segment.base_event + segment.events]
            assert segment.tags == {e.tag for e in chunk if not isinstance(e, Characters)}
            assert segment.has_text == any(isinstance(e, Characters) for e in chunk)
            assert segment.min_level == min(e.level for e in chunk)
            assert segment.max_level == max(e.level for e in chunk)

    def test_blocks_before_start_are_stepped_over(self, tmp_path, monkeypatch):
        import repro.store.log as log_mod

        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(16), segment_events=10_000,
                                   checkpoint_interval=4)
        decoded = []
        real = log_mod.iter_block

        def counting(payload, *args, **kwargs):
            decoded.append(block_count(payload)[0])
            return real(payload, *args, **kwargs)

        monkeypatch.setattr(log_mod, "iter_block", counting)
        stats = ReplayStats()
        start = len(events) - 2
        assert list(EventLogReader(store).events(start, stats=stats)) == events[start:]
        assert sum(decoded) < len(events) // 2
        assert stats.events_positioned_past == start

    @pytest.mark.parametrize("cut", [1, 4, 9])
    def test_tear_inside_a_block_recovers_to_its_start(self, tmp_path, monkeypatch, cut):
        import repro.store.sync as sync_mod

        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: None)
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=10_000, sync="interval:5")
        events = list(parse_string(random_document(17)))
        events = events[: len(events) - len(events) % 5] or events
        writer.extend(events)
        writer.flush()
        active = os.path.join(store, writer._manifest.active)
        with open(active, "r+b") as handle:
            handle.truncate(os.path.getsize(active) - cut)
        recovered = EventLogWriter(store, segment_events=10_000, sync="none")
        assert recovered.recovered_tail_bytes > 0
        # The torn block is the last one: recovery lands on its start.
        assert recovered.position == len(events) - 5
        recovered.extend(events[recovered.position:])
        recovered.close()
        assert list(EventLogReader(store).events()) == events
        again = EventLogWriter(store, segment_events=10_000, sync="none")
        assert again.position == len(events) and again.recovered_tail_bytes == 0
        again.close()


class TestHostileBlocks:
    """CRC-valid but hostile blocks must raise before they allocate."""

    def _store_with(self, tmp_path, payload):
        """A store whose one sealed segment ends with ``payload`` as a block."""
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        _append_raw(store, writer, REC_EVENTS, payload)
        writer.close()
        return store

    def test_count_larger_than_contents(self, tmp_path):
        records = encode_block([StartElement("a", 2, 2, {})])[1:]
        store = self._store_with(tmp_path, block_header(1000) + records)
        with pytest.raises(CodecError):
            list(EventLogReader(store).events())

    def test_trailing_bytes(self, tmp_path):
        payload = encode_block([EndElement("r", 1)]) + b"\x00\x01"
        store = self._store_with(tmp_path, payload)
        with pytest.raises(CodecError, match="trailing"):
            list(EventLogReader(store).events())

    def test_declared_huge_text(self, tmp_path):
        # One characters record declaring 2**30 bytes but carrying three.
        record = bytes([EVENT_KIND_CHARS, 1]) + b"\x80\x80\x80\x80\x04" + b"abc"
        store = self._store_with(tmp_path, block_header(1) + record)
        limits = ResourceLimits(max_text_length=1 << 20)
        with pytest.raises(ResourceLimitError, match="max_text_length"):
            list(EventLogReader(store, limits=limits).events())
        with pytest.raises(CodecError, match="truncated"):
            list(EventLogReader(store).events())

    def test_depth_bomb_mid_block(self, tmp_path):
        good = [StartElement("a", 2, 2, {}), EndElement("a", 2)]
        payload = encode_block(good + [StartElement("x", 10**6, 3, {})])
        store = self._store_with(tmp_path, payload)
        delivered = []
        with pytest.raises(ResourceLimitError, match="max_depth"):
            for event in EventLogReader(store, limits=ResourceLimits(max_depth=64)).events():
                delivered.append(event)
        assert delivered == [StartElement("r", 1, 1, {})] + good

    def test_total_events_checked_inside_a_block(self, tmp_path):
        payload = encode_block([Characters(str(i), 1) for i in range(50)])
        store = self._store_with(tmp_path, payload)
        reader = EventLogReader(store, limits=ResourceLimits(max_total_events=10))
        delivered = []
        with pytest.raises(ResourceLimitError, match="max_total_events"):
            for event in reader.events():
                delivered.append(event)
        assert len(delivered) == 10


class TestFormatVersions:
    def test_unknown_record_in_active_tail_stops_the_read(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        _append_raw(store, writer, 99, b"from the future")
        _append_raw(store, writer, REC_EVENTS, encode_block([EndElement("r", 1)]))
        assert list(EventLogReader(store).events()) == [StartElement("r", 1, 1, {})]

    def test_unknown_record_in_sealed_segment_raises(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        _append_raw(store, writer, 99, b"from the future")
        writer.close()
        with pytest.raises(StoreError, match="unknown record type 99"):
            list(EventLogReader(store).events())

    def test_newer_manifest_refused(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r/>")
        path = os.path.join(store, MANIFEST_NAME)
        manifest = json.load(open(path))
        manifest["version"] = STORE_MANIFEST_VERSION + 1
        json.dump(manifest, open(path, "w"))
        with pytest.raises(StoreError, match="unsupported store manifest version"):
            EventLogReader(store)

    def test_version_1_store_replays_and_is_upgraded(self, tmp_path):
        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(18), segment_events=8,
                                   checkpoint_interval=5)
        _downgrade_to_version_1(store)
        reader = EventLogReader(store)
        assert reader.manifest()["version"] == 2  # re-serialised, not on disk
        assert list(reader.events()) == events
        for start in (0, 3, len(events) - 1):
            assert list(reader.events(start)) == events[start:]
        assert [c.event for c in reader.checkpoints()] == [
            c.event for c in EventLogReader(store).checkpoints()
        ]
        writer = EventLogWriter(store, segment_events=8, sync="none")
        assert writer.position == len(events)
        on_disk = json.load(open(os.path.join(store, MANIFEST_NAME)))
        assert on_disk["version"] == STORE_MANIFEST_VERSION
        more = list(parse_string("<s><t>1</t></s>"))
        writer.extend(more)
        writer.close()
        assert list(EventLogReader(store).events()) == events + more


def _downgrade_to_version_1(store):
    """Rewrite a closed store in the version-1 layout: one frame per event."""
    from repro.store.log import REC_EVENT, _scan_frames

    manifest_path = os.path.join(store, MANIFEST_NAME)
    manifest = json.load(open(manifest_path))
    for entry in manifest["segments"]:
        path = os.path.join(store, entry["file"])
        out = bytearray()
        for frame, _offset in _scan_frames(path):
            if frame.type == REC_EVENTS:
                for event in iter_block(frame.payload):
                    out += encode_frame(REC_EVENT, encode_event(event))
            else:
                out += encode_frame(frame.type, frame.payload)
        open(path, "wb").write(bytes(out))
        entry["size"] = len(out)
    manifest["version"] = 1
    json.dump(manifest, open(manifest_path, "w"))
