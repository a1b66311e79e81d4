"""The event log's timestamps, made from time.time_ns with a cached prefix."""

from __future__ import annotations

import csv
import io
import time
from datetime import datetime, timedelta, timezone

from mqttg.codec import GeoLocation
from mqttg.eventlog import COLUMNS, EventLog

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
SECOND = 1_000_000_000
NEW_YEAR = int(datetime(2026, 1, 1, tzinfo=timezone.utc).timestamp()) * SECOND

READINGS = [
    0,
    1_715_000_000 * SECOND - 1,  # just before a second boundary
    1_715_000_000 * SECOND,  # on it
    1_715_000_000 * SECOND + 1,  # just after it
    1_715_000_000 * SECOND + 999_999_999,  # at .999999999
    1_715_000_001 * SECOND + 999_000,  # under a millisecond into a second
    1_715_000_001 * SECOND + 1_000_000,  # one millisecond into it
    1_715_000_001 * SECOND + 500_999_999,
    NEW_YEAR - 1,  # 23:59:59.999999999 on 31 December
    NEW_YEAR - 86_400 * SECOND,  # midnight on 31 December
    NEW_YEAR,
    1_715_000_000 * SECOND + 2,  # back to a second seen earlier
]


def expected(ns: int) -> str:
    stamp = EPOCH + timedelta(microseconds=ns // 1000)
    return stamp.isoformat(timespec="milliseconds")


def test_timestamps_match_isoformat_of_the_same_reading(monkeypatch):
    streams = [io.StringIO(), io.StringIO()]
    log = EventLog(streams)
    clock = iter(READINGS)
    monkeypatch.setattr(time, "time_ns", lambda: next(clock))
    for i in range(len(READINGS)):
        if i % 2:
            log.emit("truck-7", "LOCATION", GeoLocation(1, 49.0, -99.0, 400.0), 12.5, None)
        else:
            log.emit("c,1", "PUBLISH")
    rows = [list(csv.reader(s.getvalue().splitlines())) for s in streams]
    assert rows[0] == rows[1]
    assert [row[0] for row in rows[0][1:]] == [expected(ns) for ns in READINGS]
    assert rows[0][1][1:] == ["c,1", "PUBLISH", "", "", "", "", ""]
    assert rows[0][2][1:] == [
        "truck-7", "LOCATION", "49.000000", "-99.000000", "400.000000", "12.500000", "",
    ]
    assert streams[0].getvalue() == streams[1].getvalue()


def test_timestamp_is_utc_milliseconds_with_an_offset():
    log = io.StringIO()
    EventLog([log]).emit("c", "CONNECT")
    stamp = list(csv.reader(log.getvalue().splitlines()))[1][0]
    parsed = datetime.fromisoformat(stamp)
    assert parsed.utcoffset() == timedelta(0) and stamp.endswith("+00:00")
    assert len(stamp) == len("2024-05-01T12:00:00.123+00:00")
    assert abs(parsed - datetime.now(timezone.utc)) < timedelta(seconds=5)


class FlushedText:
    """A text stream that shows only what has been flushed to it."""

    def __init__(self) -> None:
        self._pending: list[str] = []
        self.flushed = ""

    def write(self, text: str) -> int:
        self._pending.append(text)
        return len(text)

    def flush(self) -> None:
        self.flushed += "".join(self._pending)
        self._pending.clear()


def test_rows_reach_the_stream_only_on_flush():
    streams = [FlushedText(), FlushedText()]
    log = EventLog(streams)
    header = ",".join(COLUMNS)
    assert [s.flushed for s in streams] == [header + "\r\n"] * 2  # flushed at construction
    log.emit("c", "CONNECT")
    log.emit("c", "PUBLISH")
    assert [s.flushed for s in streams] == [header + "\r\n"] * 2
    log.flush()
    for stream in streams:
        rows = list(csv.reader(stream.flushed.splitlines()))
        assert [row[1:3] for row in rows[1:]] == [["c", "CONNECT"], ["c", "PUBLISH"]]
    log.flush()  # nothing new: nothing changes
    assert streams[0].flushed == streams[1].flushed and streams[0].flushed.count("\r\n") == 3
