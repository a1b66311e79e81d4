"""A repeated fix is decoded, stored and logged once, and decides as before.

Three layers share the work of a fix that repeats the sender's last one:
the codec gives equal 21-byte blocks as one GeoLocation, the location
table updates the client's LocationRecord in place when the fix keeps its
latitude and longitude, and the event log formats a GeoLocation's columns
once. The oracle is the location table of the earlier design, copied
below: a new LocationRecord and a haversine for every fix. Seeded fix
sequences must give the same record fields, LOCATION rows and
DUMP-LOCATIONS lines under both.
"""

from __future__ import annotations

import io
import math
import random
import struct
from unittest import mock

import pytest

import mqttg.broker as broker
import mqttg.codec as codec
from mqttg.broker import BrokerState, LocationRecord
from mqttg.codec import (
    Connect,
    ControlPacket,
    Disconnect,
    GeoLocation,
    Pingreq,
    PubRec,
    PubRel,
    TopicFilter,
    decode_geolocation,
    decode_packet,
    encode_geolocation,
    encode_packet,
)
from mqttg.errors import InvalidCoordinates, MalformedPacket
from mqttg.eventlog import FORMATTED_PLACES, EventLog
from mqttg.geo import FenceMode, GeofencePolygon, haversine_distance, resolve_polygon


def oracle_update_last_location(self, client_id, geo, now):
    """BrokerState.update_last_location as it was: a new record and a
    haversine on every fix."""
    record = LocationRecord(client_id, geo, now)
    prior = self.locations.get(client_id)
    if prior is not None:
        segment = haversine_distance(prior.location, geo)
        dt = now - prior.received_at
        record.segment_m = segment
        record.cumulative_distance_m = prior.cumulative_distance_m + segment
        record.last_speed_kmh = (segment / dt) * 3.6 if dt > 0 else None
        record.updates = prior.updates + 1
    self.locations[client_id] = record
    return record


class OracleState(BrokerState):
    update_last_location = oracle_update_last_location


def masked_rows(log: io.StringIO) -> list[str]:
    """The event rows with the timestamp column cut off."""
    return [line.split(",", 1)[1] for line in log.getvalue().splitlines()[1:]]


CLIENTS = ("a", "b", "c")


def fix_sequence(rng: random.Random, steps: int):
    """(client, what, lat, lon, elev, dt) for each step, where what is
    "fix" or "reconnect"; every kind of step a device can take."""
    at = {c: (rng.uniform(-60, 60), rng.uniform(-179, 179), 100.0) for c in CLIENTS}
    for _ in range(steps):
        client = rng.choice(CLIENTS)
        lat, lon, elev = at[client]
        kind = rng.choice(("repeat", "repeat", "repeat", "move", "jump", "elevation", "zero", "flip", "reconnect"))
        if kind == "move":
            lat, lon = max(-90.0, min(90.0, lat + rng.uniform(-1e-3, 1e-3))), lon + rng.uniform(-1e-3, 1e-3)
            lon = max(-180.0, min(180.0, lon))
        elif kind == "jump":
            lat, lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        elif kind == "elevation":
            elev = rng.choice((elev + 1.0, -elev, 0.0, -0.0))
        elif kind == "zero":
            lat, lon = rng.choice(((0.0, 0.0), (-0.0, lon), (lat, 0.0), (0.0, -0.0)))
        elif kind == "flip":  # the same point with a zero's sign changed
            lat = -lat if lat == 0.0 else lat
            lon = -lon if lon == 0.0 else lon
        at[client] = lat, lon, elev
        dt = rng.choice((0.0, 0.0, 0.25, 1.0, rng.uniform(0.001, 30.0)))
        yield client, "reconnect" if kind == "reconnect" else "fix", lat, lon, elev, dt


def drive(state: BrokerState, sequence, fresh_objects: bool) -> tuple[list, int]:
    """Send each step to ``state``: a located PINGREQ decoded from its frame
    (or, with ``fresh_objects``, a new equal GeoLocation each time), or a
    DISCONNECT and a new CONNECT. Returns the writes and the client's
    record after each step, and how many fixes kept the record they found."""
    conns = {c: f"{c}#0" for c in CLIENTS}
    for c in CLIENTS:
        state.receive(conns[c], ControlPacket(Connect(c)), 0.0)
    seen = []
    kept = 0
    now = 0.0
    for i, (client, what, lat, lon, elev, dt) in enumerate(sequence):
        now += dt
        conn = conns[client]
        if what == "reconnect":
            state.receive(conn, ControlPacket(Disconnect()), now)
            state.release(conn)
            conns[client] = conn = f"{client}#{i}"
            writes, _ = state.receive(conn, ControlPacket(Connect(client)), now)
        else:
            geo = GeoLocation(1, lat, lon, elev)
            if fresh_objects:
                packet = ControlPacket(Pingreq(), geo)
            else:
                packet = decode_packet(encode_packet(ControlPacket(Pingreq(), geo)))
            before = state.locations.get(client)
            writes, _ = state.receive(conn, packet, now)
            kept += state.locations[client] is before
        record = state.locations.get(client)
        seen.append((writes, repr(record)))  # every field, -0.0 told from 0.0
    return seen, kept


@pytest.mark.parametrize("seed", range(30))
def test_a_fix_sequence_gives_what_a_new_record_per_fix_gave(seed):
    sequence = list(fix_sequence(random.Random(seed), 120))
    for fresh_objects in (False, True):
        log, oracle_log = io.StringIO(), io.StringIO()
        state, oracle = BrokerState(EventLog([log])), OracleState(EventLog([oracle_log]))
        got, kept = drive(state, sequence, fresh_objects)
        want, oracle_kept = drive(oracle, sequence, fresh_objects)
        assert got == want
        assert kept > 0 and oracle_kept == 0  # the repeats took the in-place path
        assert masked_rows(log) == masked_rows(oracle_log)
        assert state.admin_command("DUMP-LOCATIONS") == oracle.admin_command("DUMP-LOCATIONS")


def test_a_fix_at_the_same_point_updates_the_record_in_place():
    state = BrokerState()
    first = state.update_last_location("a", GeoLocation(1, 0.0, 10.0, 5.0), 1.0)
    first.cumulative_distance_m = 42.0  # as if it had travelled before
    again = state.update_last_location("a", GeoLocation(1, -0.0, 10.0, 7.0), 3.0)
    assert again is first
    assert (again.location.latitude, again.location.elevation) == (-0.0, 7.0)
    assert math.copysign(1.0, again.location.latitude) == -1.0
    assert (again.received_at, again.updates, again.segment_m, again.last_speed_kmh) == (3.0, 2, 0.0, 0.0)
    assert again.cumulative_distance_m == 42.0
    assert state.update_last_location("a", GeoLocation(1, 0.0, 10.0), 3.0).last_speed_kmh is None  # dt = 0
    moved = state.update_last_location("a", GeoLocation(1, 0.0, 10.001), 4.0)
    assert moved is not first and moved.segment_m > 0 and moved.updates == 4
    # Another block version at the same point is a new record, as a fence must re-resolve.
    other = state.update_last_location("a", GeoLocation(2, 0.0, 10.001, raw=bytes(21)), 5.0)
    assert other is not moved and other.updates == 5


ANCHORED = GeofencePolygon(
    FenceMode.DYNAMIC, vertex_offsets=((0.01, -0.01), (0.01, 0.01), (-0.01, 0.01), (-0.01, -0.01)),
    anchor_client="anchor",
)


def located(state: BrokerState, conn: str, lat: float, lon: float, elev: float = 0.0, now: float = 0.0):
    frame = encode_packet(ControlPacket(Pingreq(), GeoLocation(1, lat, lon, elev)))
    state.receive(conn, decode_packet(frame), now)


def test_a_dynamic_fence_keeps_its_ring_while_its_anchor_stands_still():
    state = BrokerState()
    for client in ("pub", "sub", "anchor"):
        state.receive(client, ControlPacket(Connect(client)), 0.0)
    state.subscribe("sub", (TopicFilter("t", 0),))
    state.add_fence("sub", "t", ANCHORED)
    stored = state.fences["sub"]["t"][0]
    located(state, "sub", 45.0, 7.0)
    with mock.patch.object(broker, "resolve_polygon", wraps=resolve_polygon) as resolve:
        assert not state.route("pub", "t", 0, None)  # no anchor fix yet: closed
        located(state, "anchor", 45.005, 7.005)
        assert state.route("pub", "t", 0, None)
        ring = stored.ring
        assert ring is not None and resolve.call_count == 1
        for t in range(1, 6):  # the same fix again, and at another elevation
            located(state, "anchor", 45.005, 7.005, elev=float(t % 2), now=float(t))
            assert state.route("pub", "t", 0, None)
        assert stored.ring is ring and resolve.call_count == 1
        located(state, "anchor", 45.02, 7.005, now=6.0)  # moves: the sub is now outside
        assert not state.route("pub", "t", 0, None)
        assert stored.ring is not ring and resolve.call_count == 2
        state.receive("anchor", ControlPacket(Disconnect()), 7.0)
        state.release("anchor")
        state.receive("anchor2", ControlPacket(Connect("anchor")), 7.0)
        assert not state.route("pub", "t", 0, None)  # reconnected with no fix: closed
        assert stored.ring is None and resolve.call_count == 3
        located(state, "anchor2", 45.005, 7.005, now=8.0)  # its old fix, after the reconnect
        assert state.route("pub", "t", 0, None)
        assert resolve.call_count == 4


def block(version: int, lat: float, lon: float, elev: float = 0.0) -> bytes:
    return struct.pack("<Bddf", version, lat, lon, elev)


def test_equal_blocks_decode_to_one_object():
    raw = block(1, 48.2, 16.37, 212.5)
    first = decode_geolocation(raw)
    assert decode_geolocation(bytes(bytearray(raw))) is first
    assert decode_geolocation(bytearray(b"xx" + raw), 2) is first
    assert decode_geolocation(memoryview(raw + b"tail")) is first
    rec = encode_packet(ControlPacket(PubRec(3), first))
    rel = encode_packet(ControlPacket(PubRel(3), first))
    assert decode_packet(rec).geolocation is decode_packet(bytearray(rel)).geolocation is first
    assert decode_geolocation(block(1, -0.0, 16.37, 212.5)) is not first  # other bytes, other value
    with pytest.raises(AttributeError):
        first.latitude = 0.0


def test_the_table_stays_within_its_bound():
    for i in range(10_000):
        geo = decode_geolocation(block(1, i * 1e-4, -i * 1e-4, float(i)))
        assert geo.latitude == i * 1e-4 and geo.elevation == float(i)
        assert len(codec._DECODED) <= codec.DECODED_BLOCKS <= 256


def test_a_block_that_does_not_decode_raises_each_time_and_is_not_kept():
    off_the_map = block(1, 91.0, 0.0)
    for _ in range(2):
        with pytest.raises(InvalidCoordinates):
            decode_geolocation(off_the_map)
        with pytest.raises(MalformedPacket):
            decode_geolocation(off_the_map[:20])
    assert off_the_map not in codec._DECODED and off_the_map[:20] not in codec._DECODED


def test_an_unknown_version_keeps_its_raw_block():
    raw = block(7, 123.0, -700.0, 1.5)
    first = decode_geolocation(bytearray(raw))
    again = decode_geolocation(raw)
    assert again is first and type(first.raw) is bytes and first.raw == raw
    assert not first.is_evaluable and encode_geolocation(again) == raw


def test_the_event_log_formats_each_location_as_it_is():
    """Each row shows its own GeoLocation's columns, while the memo keeps
    at most FORMATTED_PLACES, even as objects are dropped and their ids
    are reused by new ones."""
    stream = io.StringIO()
    log = EventLog([stream])
    kept = [GeoLocation(1, 1.5, 2.5, 3.5), GeoLocation(1, -0.0, 0.0, -0.0)]
    expected = []
    for i in range(3 * FORMATTED_PLACES):
        geo = kept[i % 2] if i % 3 == 0 else GeoLocation(1, i * 1e-3, -i * 1e-3, float(i))
        log.emit("c", "LOCATION", geo)
        expected.append(f"c,LOCATION,{geo.latitude:.6f},{geo.longitude:.6f},{geo.elevation:.6f},,")
        assert len(log._places) <= FORMATTED_PLACES
        del geo
    assert masked_rows(stream) == expected
