"""CSV event log mirroring the broker console.

One row per connect/disconnect/publish/location event:
timestamp, client_id, event, lat, lon, elev, distance_m, speed_kmh.
The timestamp is UTC with milliseconds, as
``datetime.isoformat(timespec="milliseconds")`` writes it
(``2024-05-01T12:00:00.123+00:00``). Geolocation columns stay empty when
the packet carried none. Rows are the bytes ``csv.writer`` would write:
comma-separated, CRLF-terminated, and a client id quoted (its quotes
doubled) only when it holds a comma, a quote, CR or LF; no other field
can hold one.
"""

from __future__ import annotations

import re
import time
from typing import IO, Iterable

from .codec import GeoLocation

COLUMNS = ("timestamp", "client_id", "event", "lat", "lon", "elev", "distance_m", "speed_kmh")

_needs_quotes = re.compile('[,"\r\n]').search


class EventLog:
    """Rows are written to each stream as they are emitted and flushed
    only by ``flush()``; the header is flushed at construction. Callers
    serialize access: the broker emits and flushes only on its loop's one
    thread, and flushes before it sends anything a packet caused, so each
    row a packet caused reaches the streams first."""

    def __init__(self, streams: Iterable[IO[str]] = ()):
        streams = list(streams)
        self._writes = [stream.write for stream in streams]
        self._flushes = [stream.flush for stream in streams]
        # (a whole second since the epoch, its "YYYY-MM-DDTHH:MM:SS")
        self._second = (None, "")
        self._write(",".join(COLUMNS) + "\r\n")
        self.flush()

    def _write(self, line: str) -> None:
        for write in self._writes:
            write(line)

    def flush(self) -> None:
        """Push every row emitted so far to the streams."""
        for flush in self._flushes:
            flush()

    def _timestamp(self) -> str:
        """The wall clock, floored to the millisecond, as datetime.now(timezone.utc)
        .isoformat(timespec="milliseconds") writes it."""
        second, ns = divmod(time.time_ns(), 1_000_000_000)
        cached, prefix = self._second
        if cached != second:
            prefix = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(second))
            self._second = (second, prefix)
        return f"{prefix}.{ns // 1_000_000:03d}+00:00"

    def emit(
        self,
        client_id: str,
        event: str,
        geo: GeoLocation | None = None,
        distance_m: float | None = None,
        speed_kmh: float | None = None,
    ) -> None:
        if _needs_quotes(client_id):
            client_id = '"' + client_id.replace('"', '""') + '"'
        where = ",," if geo is None else f"{geo.latitude:.6f},{geo.longitude:.6f},{geo.elevation:.6f}"
        distance = "" if distance_m is None else f"{distance_m:.6f}"
        speed = "" if speed_kmh is None else f"{speed_kmh:.6f}"
        self._write(f"{self._timestamp()},{client_id},{event},{where},{distance},{speed}\r\n")
