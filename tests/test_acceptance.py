"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.
Reference values are computed independently of the code under test:
byte captures are hand-assembled per the MQTT 3.1.1 layout, geometry uses
the 3-D vector oracle, routing uses the brute-force oracle.
"""

import struct
import time
from random import Random

import pytest

from mqttg.broker import admin_request
from mqttg.client import ClientConfig, MqttgClient
from mqttg.codec import (
    GEO_BLOCK_SIZE,
    ControlPacket,
    PacketType,
    decode_fixed_header,
    decode_remaining_length,
    decode_packet,
    encode_packet,
)
from mqttg.cli import main as cli_main
from mqttg.geo import GeoPoint, haversine_distance, point_in_polygon
from mqttg.codec import GeoLocation

from gen import random_packet
from nettap import Tap
from oracles import distance_oracle, winding_inside
from scenario import run_scenario
from test_geo import convex_polygon


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


CORPUS_SIZE = 100_000


def build_corpus():
    rng = Random(0xC0FFEE)
    return [random_packet(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def test_criterion_1_codec_round_trip(corpus):
    """100k randomized packets: decode(encode(p)) == p, under 60 s."""
    start = time.perf_counter()
    failures = 0
    for packet in corpus:
        if decode_packet(encode_packet(packet)) != packet:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        failures == 0 and elapsed < 60.0,
        f"{CORPUS_SIZE} round-trips, {failures} mismatches, {elapsed:.1f}s",
    )


def _golden_session_bytes():
    """Hand-assembled MQTT 3.1.1 capture for the scripted session."""

    def s(text):  # length-prefixed string
        raw = text.encode()
        return struct.pack(">H", len(raw)) + raw

    client_stream = b"".join(
        [
            b"\x10\x16" + s("MQTT") + b"\x04\x02\x00\x3c" + s("cap-client"),  # CONNECT
            b"\x82\x0e\x00\x01" + s("bench/sub") + b"\x01",  # SUBSCRIBE pid 1, qos 1
            b"\x30\x0b" + s("bench/t") + b"m0",  # PUBLISH qos 0
            b"\x32\x0d" + s("bench/t") + b"\x00\x02m1",  # PUBLISH qos 1, pid 2
            b"\x34\x0d" + s("bench/t") + b"\x00\x03m2",  # PUBLISH qos 2, pid 3
            b"\x62\x02\x00\x03",  # PUBREL pid 3
            b"\xc0\x00",  # PINGREQ
            b"\xe0\x00",  # DISCONNECT
        ]
    )
    server_stream = b"".join(
        [
            b"\x20\x02\x00\x00",  # CONNACK accepted
            b"\x90\x03\x00\x01\x01",  # SUBACK pid 1, granted 1
            b"\x40\x02\x00\x02",  # PUBACK pid 2
            b"\x50\x02\x00\x03",  # PUBREC pid 3
            b"\x70\x02\x00\x03",  # PUBCOMP pid 3
            b"\xd0\x00",  # PINGRESP
        ]
    )
    return client_stream, server_stream


def test_criterion_2_backward_compat_differential(broker):
    """Geo-disabled scripted session emits byte-identical MQTT 3.1.1."""
    tap = Tap("127.0.0.1", broker.port)
    client = MqttgClient(
        ClientConfig(client_id="cap-client", port=tap.port, keep_alive=60)
    ).connect()
    client.subscribe("bench/sub", qos=1)
    client.publish("bench/t", b"m0", qos=0)
    client.publish("bench/t", b"m1", qos=1)
    client.publish("bench/t", b"m2", qos=2)
    client.ping()
    client.disconnect()

    want_client, want_server = _golden_session_bytes()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and (
        len(tap.client_to_server) < len(want_client)
        or len(tap.server_to_client) < len(want_server)
    ):
        time.sleep(0.05)
    tap.close()

    got_client = bytes(tap.client_to_server)
    got_server = bytes(tap.server_to_client)
    client_diff = sum(a != b for a, b in zip(got_client, want_client)) + abs(
        len(got_client) - len(want_client)
    )
    server_diff = sum(a != b for a, b in zip(got_server, want_server)) + abs(
        len(got_server) - len(want_server)
    )
    report(
        2,
        client_diff == 0 and server_diff == 0,
        f"client bytes diff={client_diff}, broker bytes diff={server_diff} "
        f"({len(got_client)}+{len(got_server)} bytes captured)",
    )


def _geo_block_offset(packet, body: bytes) -> int:
    """Independent geolocation block offset per the documented layout."""
    ptype = packet.packet_type
    if ptype is PacketType.PUBLISHG:
        topic_len = len(packet.body.topic.encode())
        return 2 + topic_len + (2 if packet.body.qos > 0 else 0)
    if ptype in (PacketType.PUBACK, PacketType.PUBREC, PacketType.PUBREL,
                 PacketType.PUBCOMP, PacketType.SUBSCRIBE, PacketType.UNSUBSCRIBE):
        return 2  # after the packet identifier
    return 0  # PINGREQ / DISCONNECT


def test_criterion_3_geo_block_conformance(corpus):
    """Every geo-flagged packet grows by exactly 21 bytes, little-endian."""
    checked = 0
    for packet in corpus:
        if packet.geolocation is None:
            continue
        data = encode_packet(packet)
        header, body_at = decode_fixed_header(data)
        stripped = encode_packet(ControlPacket(packet.body))
        base_header, _ = decode_fixed_header(stripped)
        if header.remaining_length - base_header.remaining_length != GEO_BLOCK_SIZE:
            report(3, False, f"body growth != 21 for {packet.packet_type.name}")
        body = data[body_at:]
        offset = _geo_block_offset(packet, body)
        geo = packet.geolocation
        block = body[offset : offset + GEO_BLOCK_SIZE]
        ok = (
            block[0] == geo.version
            and block[1:9] == struct.pack("<d", geo.latitude)
            and block[9:17] == struct.pack("<d", geo.longitude)
            and block[17:21] == struct.pack("<f", geo.elevation)
        )
        if not ok:
            report(3, False, f"little-endian field mismatch in {packet.packet_type.name}")
        checked += 1
    report(3, checked > 0, f"{checked} geo-flagged packets conform (21-byte LE block)")


def test_criterion_4_routing_oracle_equivalence():
    """1000 randomized scenarios agree with the brute-force oracle."""
    rng = Random(0x5EED)
    publishes = 0
    try:
        for _ in range(1000):
            publishes += run_scenario(rng)
    except AssertionError as exc:
        report(4, False, f"oracle disagreement after {publishes} publishes: {exc}")
    report(4, True, f"1000 scenarios, {publishes} publishes, 100% agreement")


def test_criterion_5_route_distance_experiment(broker, tmp_path, capsys):
    """Synthetic 4.9 km equatorial route, 30 s cadence, speedup 100."""
    route = tmp_path / "route49.csv"
    start = time.perf_counter()
    assert cli_main([
        "route-gen", "--line-equator", "--length", "4900", "--fixes", "20",
        "--interval", "30", "-o", str(route),
    ]) == 0
    code = cli_main([
        "replay", str(route), "--port", str(broker.port),
        "--admin-port", str(broker.admin_port),
        "--speedup", "100", "--client-id", "trial-1",
    ])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    broker_distance = float(values["broker_distance_m"])
    rel_error = abs(broker_distance - 4900.0) / 4900.0
    with capsys.disabled():
        report(
            5,
            code == 0 and rel_error <= 0.001 and elapsed < 30.0,
            f"broker distance {broker_distance:.3f} m vs analytic 4900 m, "
            f"relative error {rel_error:.2e} (<= 0.1%), {elapsed:.1f}s",
        )


def test_criterion_6_geometry_properties():
    """Haversine symmetry/triangle on 10k triples; polygon oracle on 10k pairs."""
    rng = Random(0x6E0)
    triples_ok = 0
    for _ in range(10_000):
        pts = [GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
        a, b, c = pts
        ab, ba = haversine_distance(a, b), haversine_distance(b, a)
        bc, ac = haversine_distance(b, c), haversine_distance(a, c)
        sym = ab == ba
        tri = ac <= ab + bc + 1e-6 * max(1.0, ac)
        oracle = abs(ab - distance_oracle(a.latitude, a.longitude, b.latitude, b.longitude))
        near = oracle <= 1e-6 * max(1.0, ab)
        if sym and tri and near:
            triples_ok += 1
    polygons_ok = 0
    for _ in range(10_000):
        poly = convex_polygon(rng)
        lat0 = sum(v.latitude for v in poly) / len(poly)
        lon0 = sum(v.longitude for v in poly) / len(poly)
        p = GeoPoint(lat0 + rng.uniform(-8, 8), lon0 + rng.uniform(-8, 8))
        want = winding_inside(p.latitude, p.longitude, [(v.latitude, v.longitude) for v in poly])
        if point_in_polygon(p, poly) == want:
            polygons_ok += 1
    report(
        6,
        triples_ok == 10_000 and polygons_ok == 10_000,
        f"{triples_ok}/10000 triples, {polygons_ok}/10000 polygon agreements",
    )


def test_criterion_7_qos2_flow_with_geolocation(broker):
    """QoS-2 exchange with a location source on both clients: geo on every
    client flow packet, >= 4 location-table updates."""
    pub_fix = GeoLocation(1, 49.8, -99.9, 400.0)
    sub_fix = GeoLocation(1, 49.9, -100.0, 395.0)
    pub_tap = Tap("127.0.0.1", broker.port)
    sub_tap = Tap("127.0.0.1", broker.port)
    sub = MqttgClient(ClientConfig(
        client_id="geo-sub", port=sub_tap.port,
        location_source=lambda: sub_fix,
    )).connect()
    pub = MqttgClient(ClientConfig(
        client_id="geo-pub", port=pub_tap.port,
        location_source=lambda: pub_fix,
    )).connect()
    try:
        sub.subscribe("fleet/q2", qos=2)
        before = _total_updates(broker)
        pub.publish("fleet/q2", b"exactly-once", qos=2)
        message = sub.receive(timeout=5.0)
        sub.publish("fleet/barrier", b"", qos=1)  # PUBCOMP ordered before this
        after = _total_updates(broker)
    finally:
        pub.disconnect()
        sub.disconnect()
        time.sleep(0.2)
        pub_tap.close()
        sub_tap.close()

    frames = []
    for tap in (pub_tap, sub_tap):
        data = bytes(tap.client_to_server)
        offset = 0
        while offset < len(data):
            remaining, body_at = decode_remaining_length(data, offset + 1)
            frames.append(decode_packet(data[offset : body_at + remaining]))
            offset = body_at + remaining
    flow_types = {PacketType.PUBLISHG, PacketType.PUBREC, PacketType.PUBREL, PacketType.PUBCOMP}
    flow_frames = [f for f in frames if f.packet_type in flow_types]
    seen_types = {f.packet_type for f in flow_frames}
    all_geo = all(f.geolocation is not None for f in flow_frames)
    report(
        7,
        message is not None
        and message.payload == b"exactly-once"
        and flow_types <= seen_types
        and all_geo
        and after - before >= 4,
        f"flow packets {sorted(t.name for t in seen_types)} all geo-flagged={all_geo}, "
        f"location updates +{after - before} (>= 4)",
    )


def _total_updates(broker) -> int:
    rows = admin_request("127.0.0.1", broker.admin_port, "DUMP-LOCATIONS")
    return sum(int(r.split()[6]) for r in rows[:-1])


def test_criterion_8_fail_closed_filtering():
    """100 scenarios of geo-less publishes: plain subscribers only."""
    rng = Random(0xFA11)
    publishes = 0
    try:
        for _ in range(100):
            publishes += run_scenario(rng, force_no_geo_publishes=True)
    except AssertionError as exc:
        report(8, False, f"fail-closed breach after {publishes} publishes: {exc}")
    report(8, True, f"100 scenarios, {publishes} geo-less publishes, zero geo-filtered deliveries")
