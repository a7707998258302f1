"""The durable event log: framing, rotation, recovery, batch atomicity."""

from __future__ import annotations

import pytest

from repro.robustness import EventLogCorruptError, FaultInjector, InjectedFault
from repro.streaming import EventLog, StreamEvent

pytestmark = pytest.mark.faults


def make_events(count, start=0):
    return [
        StreamEvent(user=i % 5, interval=i % 3, item=start + i, score=1.0 + i % 4)
        for i in range(count)
    ]


class TestEvents:
    def test_pack_unpack_roundtrip(self):
        event = StreamEvent(user=3, interval=7, item=11, score=2.5)
        record = event.pack()
        assert StreamEvent.unpack(record[8:]) == event

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            StreamEvent(user=-1, interval=0, item=0)

    def test_rejects_non_positive_score(self):
        with pytest.raises(ValueError, match="score"):
            StreamEvent(user=0, interval=0, item=0, score=0.0)

    @pytest.mark.parametrize("score", [float("inf"), float("nan")])
    def test_rejects_non_finite_score(self, score):
        with pytest.raises(ValueError, match="finite and positive"):
            StreamEvent(user=0, interval=0, item=0, score=score)


class TestAppendRead:
    def test_roundtrip_in_order(self, tmp_path):
        events = make_events(10)
        with EventLog(tmp_path / "wal") as log:
            assert log.append(events) == 10
        reopened = EventLog(tmp_path / "wal")
        assert list(reopened) == events
        assert reopened.read(3, 4) == events[3:7]

    def test_empty_append_is_a_noop(self, tmp_path):
        with EventLog(tmp_path / "wal") as log:
            assert log.append([]) == 0
            assert len(log) == 0

    def test_rotation_bounds_segments(self, tmp_path):
        with EventLog(tmp_path / "wal", segment_events=4) as log:
            log.append(make_events(10))
            assert len(log.segment_paths) == 3
        assert list(EventLog(tmp_path / "wal", segment_events=4)) == make_events(10)

    def test_read_validates_start(self, tmp_path):
        with EventLog(tmp_path / "wal") as log:
            log.append(make_events(2))
            with pytest.raises(ValueError, match="start"):
                log.read(5)

    def test_append_across_reopen_continues_offsets(self, tmp_path):
        with EventLog(tmp_path / "wal", segment_events=3) as log:
            log.append(make_events(4))
        with EventLog(tmp_path / "wal", segment_events=3) as log:
            assert log.next_offset == 4
            assert log.append(make_events(2, start=100)) == 6


class _CountingFrame:
    """``wal._FRAME`` that counts the record frames a reader parses."""

    def __init__(self, frame):
        self._frame = frame
        self.parsed = 0

    def __getattr__(self, name):
        return getattr(self._frame, name)

    def unpack_from(self, *args):
        self.parsed += 1
        return self._frame.unpack_from(*args)


class TestPositionedRead:
    def test_reads_parse_only_the_records_they_return(self, tmp_path, monkeypatch):
        from repro.streaming import wal

        frames = _CountingFrame(wal._FRAME)
        monkeypatch.setattr(wal, "_FRAME", frames)
        events = make_events(40)
        offset = 0
        # A consumer keeping up with its producer, across two rotations.
        with EventLog(tmp_path / "wal", segment_events=16) as log:
            for chunk in range(0, 40, 8):
                log.append(events[chunk : chunk + 8])
                for count in (5, 3):
                    frames.parsed = 0
                    got = log.read(offset, count)
                    assert frames.parsed == count
                    fresh = EventLog(tmp_path / "wal", segment_events=16)
                    assert got == events[offset : offset + count]
                    assert [e.pack() for e in got] == [
                        e.pack() for e in fresh.read(offset, count)
                    ]
                    offset += count
            # Any start costs the same: backwards, mid-segment, across a rotation.
            for start, count in ((20, 4), (3, 2), (14, 20), (39, 5)):
                frames.parsed = 0
                assert log.read(start, count) == events[start : start + count]
                assert frames.parsed == len(events[start : start + count])

    def test_reads_follow_recovery_and_rollback(self, tmp_path):
        with EventLog(tmp_path / "wal") as log:
            log.append(make_events(6))
            assert log.read(0, 4) == make_events(6)[:4]
        tail = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
        tail.write_bytes(tail.read_bytes()[:-7])  # tear record 5
        with pytest.warns(UserWarning, match="torn tail"):
            recovered = EventLog(tmp_path / "wal")
        assert recovered.read(4, 4) == make_events(6)[4:5]
        with FaultInjector() as chaos:
            chaos.disk_full("wal.write", times=1, segment=0)
            with pytest.raises(OSError):
                recovered.append(make_events(3, start=90))
        assert recovered.read(4, 4) == make_events(6)[4:5]
        assert recovered.append(make_events(2, start=50)) == 7
        assert recovered.read(5, 4) == make_events(2, start=50)


class TestRecovery:
    def test_torn_tail_is_truncated_with_warning(self, tmp_path):
        with EventLog(tmp_path / "wal") as log:
            log.append(make_events(5))
        tail = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
        data = tail.read_bytes()
        tail.write_bytes(data[:-7])  # tear the last record mid-payload
        with pytest.warns(UserWarning, match="torn tail"):
            recovered = EventLog(tmp_path / "wal")
        assert list(recovered) == make_events(5)[:4]

    def test_recovered_log_accepts_new_appends(self, tmp_path):
        with EventLog(tmp_path / "wal") as log:
            log.append(make_events(3))
        tail = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
        tail.write_bytes(tail.read_bytes()[:-2])
        with pytest.warns(UserWarning, match="torn tail"):
            log = EventLog(tmp_path / "wal")
        log.append(make_events(1, start=50))
        log.close()
        assert len(EventLog(tmp_path / "wal")) == 3

    def test_corrupt_payload_in_tail_truncates_from_damage(self, tmp_path):
        with EventLog(tmp_path / "wal") as log:
            log.append(make_events(4))
        tail = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
        data = bytearray(tail.read_bytes())
        data[-5] ^= 0xFF  # flip a bit inside the last payload
        tail.write_bytes(bytes(data))
        with pytest.warns(UserWarning, match="torn tail"):
            recovered = EventLog(tmp_path / "wal")
        assert list(recovered) == make_events(4)[:3]

    def test_mid_log_damage_raises(self, tmp_path):
        with EventLog(tmp_path / "wal", segment_events=3) as log:
            log.append(make_events(7))
        first = sorted((tmp_path / "wal").glob("wal-*.log"))[0]
        first.write_bytes(first.read_bytes()[:-4])
        with pytest.raises(EventLogCorruptError, match="mid-log"):
            EventLog(tmp_path / "wal", segment_events=3)

    def test_unrecognised_file_name_raises(self, tmp_path):
        (tmp_path / "wal").mkdir()
        (tmp_path / "wal" / "wal-junk.log").write_bytes(b"TCAMWAL1")
        with pytest.raises(EventLogCorruptError, match="unrecognised"):
            EventLog(tmp_path / "wal")


class TestWriteFaults:
    def test_torn_write_recovers_to_pre_crash_state(self, tmp_path):
        events = make_events(6)
        with EventLog(tmp_path / "wal") as log:
            log.append(events[:3])
            with FaultInjector() as chaos:
                chaos.torn_write("wal.write", keep_fraction=0.4)
                with pytest.raises(InjectedFault):
                    log.append(events[3:])
        # The "process" died mid-write; a fresh open truncates the tear.
        with pytest.warns(UserWarning, match="torn tail"):
            recovered = EventLog(tmp_path / "wal")
        assert list(recovered) == events[:3]

    def test_disk_full_rolls_the_whole_batch_back(self, tmp_path):
        events = make_events(8)
        log = EventLog(tmp_path / "wal")
        log.append(events[:3])
        with FaultInjector() as chaos:
            chaos.disk_full("wal.write")
            with pytest.raises(OSError, match="disk-full"):
                log.append(events[3:])
        # Batch atomicity: none of the failed batch landed, log still usable.
        assert log.next_offset == 3
        log.append(events[3:])
        log.close()
        assert list(EventLog(tmp_path / "wal")) == events

    def test_disk_full_mid_batch_unwinds_partial_records(self, tmp_path):
        events = make_events(6)
        log = EventLog(tmp_path / "wal", segment_events=2)
        log.append(events[:2])
        with FaultInjector() as chaos:
            chaos.disk_full("wal.write", times=1, segment=2)
            with pytest.raises(OSError):
                log.append(events[2:])
        assert log.next_offset == 2
        assert len(log.segment_paths) == 1
        assert list(EventLog(tmp_path / "wal", segment_events=2)) == events[:2]

    def test_short_writes_are_retried_transparently(self, tmp_path):
        events = make_events(4)
        with EventLog(tmp_path / "wal") as log:
            with FaultInjector() as chaos:
                chaos.short_write("wal.write", keep_fraction=0.3, times=3)
                log.append(events)
            assert log.next_offset == 4
        assert list(EventLog(tmp_path / "wal")) == events


class TestValidation:
    def test_rejects_bad_segment_events(self, tmp_path):
        with pytest.raises(ValueError, match="segment_events"):
            EventLog(tmp_path / "wal", segment_events=0)

