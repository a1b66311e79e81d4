"""EventLog.emit formats each row itself; its bytes are csv.writer's."""

from __future__ import annotations

import csv
import io
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from mqttg.codec import GeoLocation
from mqttg.eventlog import COLUMNS, EventLog

from test_eventlog import READINGS, expected

CLIENT_IDS = [
    "truck-7", "a,b", 'say "hi"', '"', '""', ",", "cr\rhere", "lf\nhere", "crlf\r\n", "\r", "\n",
    "Zürich-Bahnhof", "東京", "🚚", " lead", "trail ", " both ", "\t", "semi;colon", "a'b", "x" * 300,
]
LOCATIONS = [
    None,
    GeoLocation(1, 49.0, -99.0, 400.0),
    GeoLocation(1, -89.999999999, 179.999999, -427.5),
    GeoLocation(1, 0.0, -180.0, 8848.86),
    GeoLocation(7, 12.5, 3.25, 0.0, raw=bytes(21)),
]
AMOUNTS = [None, 0.0, -0.0, 12.5, -12.5, 1e-7, -3.4e-7, 123456789.123456789, 4.0e15, -2.5e12]


def csv_row(ns, client_id, event, geo, distance_m, speed_kmh) -> str:
    out = io.StringIO()
    lat = lon = elev = ""
    if geo is not None:
        lat, lon, elev = (format(v, ".6f") for v in (geo.latitude, geo.longitude, geo.elevation))
    csv.writer(out).writerow([
        expected(ns), client_id, event, lat, lon, elev,
        "" if distance_m is None else format(distance_m, ".6f"),
        "" if speed_kmh is None else format(speed_kmh, ".6f"),
    ])
    return out.getvalue()


def emitted(monkeypatch, rows) -> str:
    clock = iter(READINGS * (len(rows) // len(READINGS) + 1))
    monkeypatch.setattr(time, "time_ns", lambda: next(clock))
    stream = io.StringIO()
    log = EventLog([stream])
    for row in rows:
        log.emit(*row)
    return stream.getvalue()


def test_the_header_is_csv_writers():
    out = io.StringIO()
    csv.writer(out).writerow(COLUMNS)
    stream = io.StringIO()
    EventLog([stream])
    assert stream.getvalue() == out.getvalue()


def test_rows_are_byte_identical_to_csv_writer(monkeypatch):
    rows = []
    for i, client_id in enumerate(CLIENT_IDS):
        for j, geo in enumerate(LOCATIONS):
            event = ("CONNECT", "PUBLISH", "LOCATION", "DISCONNECT")[(i + j) % 4]
            distance = AMOUNTS[(i + j) % len(AMOUNTS)]
            speed = AMOUNTS[(i * 3 + j) % len(AMOUNTS)]
            rows.append((client_id, event, geo, distance, speed))
    text = emitted(monkeypatch, rows)
    readings = READINGS * (len(rows) // len(READINGS) + 1)
    header = ",".join(COLUMNS) + "\r\n"
    assert text == header + "".join(csv_row(ns, *row) for ns, row in zip(readings, rows))


@settings(max_examples=300, deadline=None)
@given(
    st.text(st.characters(blacklist_characters="\x00"), min_size=1),
    st.sampled_from(LOCATIONS),
    st.sampled_from(AMOUNTS) | st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(AMOUNTS) | st.floats(allow_nan=False, allow_infinity=False),
)
def test_any_client_id_is_quoted_as_csv_writer_quotes_it(client_id, geo, distance, speed):
    ns = READINGS[5]
    stream = io.StringIO()
    with mock.patch.object(time, "time_ns", return_value=ns):
        EventLog([stream]).emit(client_id, "PUBLISH", geo, distance, speed)
    header = ",".join(COLUMNS) + "\r\n"
    assert stream.getvalue() == header + csv_row(ns, client_id, "PUBLISH", geo, distance, speed)
