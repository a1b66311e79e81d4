"""The sans-IO broker core without sockets.

BrokerState.receive and BrokerState.release are driven with plain string
handles; the writes they return are decoded back to packet bodies, and
the event rows are read from a StringIO log.
"""

import csv
import io
import struct
import subprocess
import sys
import tracemalloc

import mqttg.broker
from mqttg.broker import BrokerState
from mqttg.codec import (
    Connack,
    Connect,
    ConstraintKind,
    ControlPacket,
    Disconnect,
    GeoConstraint,
    GeoLocation,
    Pingreq,
    PubComp,
    PubRec,
    PubRel,
    Publish,
    Subscribe,
    TopicFilter,
    Will,
    decode_packet,
    encode_packet,
)
from mqttg.eventlog import EventLog


def make_core() -> tuple[BrokerState, io.StringIO]:
    log = io.StringIO()
    return BrokerState(EventLog([log])), log


def rows(log: io.StringIO) -> list[tuple[str, str]]:
    """(client id, event) of each row after the header."""
    return [(r[1], r[2]) for r in list(csv.reader(log.getvalue().splitlines()))[1:]]


def bodies(writes):
    return [(conn, None if data is None else decode_packet(data).body) for conn, data in writes]


def send(state, conn, body, now=0.0):
    writes, keep_open = state.receive(conn, ControlPacket(body), now)
    return bodies(writes), keep_open


def connect(state, conn, client_id, will=None):
    writes, keep_open = send(state, conn, Connect(client_id=client_id, will=will))
    assert keep_open and writes[-1] == (conn, Connack(False, 0))
    return writes


def test_first_packet_must_be_connect():
    state, log = make_core()
    assert send(state, "a", Pingreq()) == ([], False)
    assert state.sessions == {} and state.clients == {}
    assert rows(log) == []


def test_refused_connects_open_no_session():
    state, log = make_core()
    assert send(state, "a", Connect(client_id="x", protocol_level=3)) == (
        [("a", Connack(False, 0x01))],
        False,
    )
    assert send(state, "b", Connect(client_id="")) == ([("b", Connack(False, 0x02))], False)
    assert state.sessions == {} and state.clients == {}
    assert rows(log) == []


def test_takeover_writes_in_order_and_ignores_the_old_handle():
    state, log = make_core()
    connect(state, "w", "watcher")
    send(state, "w", Subscribe(1, (TopicFilter("gone/x", 0),)))
    connect(state, "old", "x", will=Will("gone/x", b"bye"))
    before = len(rows(log))

    # The old session's DISCONNECT row and its will's deliveries, then the
    # old connection's close, the new CONNACK and the new CONNECT row.
    writes = connect(state, "new", "x")
    assert writes == [
        ("w", Publish("gone/x", b"bye")),
        ("old", None),
        ("new", Connack(False, 0)),
    ]
    assert rows(log)[before:] == [("x", "DISCONNECT"), ("x", "CONNECT")]

    session = state.sessions["x"]
    assert send(state, "old", Subscribe(2, (TopicFilter("t", 0),))) == ([], False)
    assert session.subscriptions == {} and state.sessions["x"] is session
    assert state.release("old") == []
    assert state.sessions["x"] is session and state.clients == {"w": "watcher", "new": "x"}


def test_disconnect_discards_the_will_and_eof_publishes_it():
    state, log = make_core()
    connect(state, "w", "watcher")
    send(state, "w", Subscribe(1, (TopicFilter("gone/+", 0),)))
    connect(state, "p", "polite", will=Will("gone/polite", b"bye"))
    connect(state, "c", "crashed", will=Will("gone/crashed", b"bye"))

    assert send(state, "p", Disconnect()) == ([], False)
    assert state.release("p") == []
    assert bodies(state.release("c")) == [("w", Publish("gone/crashed", b"bye"))]
    assert "polite" not in state.sessions and "crashed" not in state.sessions
    assert rows(log)[-2:] == [("polite", "DISCONNECT"), ("crashed", "DISCONNECT")]


def test_qos2_publish_then_release():
    state, log = make_core()
    connect(state, "a", "a")
    assert send(state, "a", Publish("t", b"m", 2, packet_id=7)) == ([("a", PubRec(7))], True)
    assert state.sessions["a"].incoming_qos2 == {7}
    assert send(state, "a", PubRel(7)) == ([("a", PubComp(7))], True)
    assert state.sessions["a"].incoming_qos2 == set()
    assert rows(log) == [("a", "CONNECT"), ("a", "PUBLISH")]


def test_resent_qos2_publishg_logs_its_fix_but_not_the_publish():
    state, log = make_core()
    connect(state, "w", "watcher")
    send(state, "w", Subscribe(1, (TopicFilter("t", 0),)))
    connect(state, "a", "a")
    for lon, now in ((0.0, 1.0), (0.01, 2.0)):
        writes, keep_open = state.receive(
            "a", ControlPacket(Publish("t", b"m", 2, packet_id=7), GeoLocation(1, 0.0, lon, 0.0)), now
        )
        assert keep_open and bodies(writes)[-1] == ("a", PubRec(7))
    assert [conn for conn, _ in writes] == ["a"]  # the resend is not routed again
    send(state, "a", PubRel(7), 3.0)
    assert state.release("a") == []
    table = list(csv.reader(log.getvalue().splitlines()))[1:]
    assert [(r[1], r[2], r[4]) for r in table[-3:]] == [
        ("a", "PUBLISH", "0.000000"),
        ("a", "LOCATION", "0.010000"),
        ("a", "DISCONNECT", "0.010000"),
    ]
    assert table[-2][6] == "1111.949266"  # the segment from the first fix


def test_fan_out_gives_each_subscriber_its_own_encode(monkeypatch):
    state, _ = make_core()
    here = GeoLocation(1, 45.0, 7.0, 250.0)
    connect(state, "p", "pub")
    subscriptions = {
        "q0": TopicFilter("fleet/#", 0),  # plain, QoS 0
        "geo1": TopicFilter("fleet/+", 1),  # geo-capable, QoS 1
        "radius1": TopicFilter(
            "fleet/truck", 1, GeoConstraint(ConstraintKind.INSIDE_RADIUS, 5000.0, 45.01, 7.0)
        ),  # matched through its radius, QoS 1
        "q2": TopicFilter("fleet/truck", 2),  # plain, QoS 2
    }
    for conn, f in subscriptions.items():
        connect(state, conn, conn)
        send(state, conn, Subscribe(1, (f,)))
    state.receive("geo1", ControlPacket(Pingreq(), here), 0.0)
    state.sessions["radius1"].next_pid = 400  # packet ids that differ per subscriber
    state.sessions["q2"].next_pid = 65535

    encodes = []

    def counted(packet):
        encodes.append(packet)
        return encode_packet(packet)

    monkeypatch.setattr(mqttg.broker, "encode_packet", counted)
    publish = Publish("fleet/truck", b"cargo", 2, retain=True, packet_id=9)
    writes, _ = state.receive("p", ControlPacket(publish, here), 0.0)

    def expected(conn, qos, geo, payload=b"cargo", retain=False):
        """encode_packet's bytes of the copy ``conn`` got, with the packet
        id it was given: the one it gained in ``outbound``."""
        (pid,) = set(state.sessions[conn].outbound or ()) - seen.get(conn, set()) or (None,)
        packet = Publish("fleet/truck", payload, qos, retain, packet_id=pid)
        return encode_packet(ControlPacket(packet, geo))

    seen = {}
    assert dict(writes[:-1]) == {
        "q0": expected("q0", 0, None),
        "geo1": expected("geo1", 1, here),
        "radius1": expected("radius1", 1, here),
        "q2": expected("q2", 2, None),
    }
    assert writes[-1] == ("p", encode_packet(ControlPacket(PubRec(9))))
    assert {conn: sorted(state.sessions[conn].outbound or ()) for conn in subscriptions} == {
        "q0": [], "geo1": [1], "radius1": [400], "q2": [65535],
    }
    assert len(encodes) == 5  # one per copy and the PUBREC

    # A will takes the same path; a radius filter gets no copy without a
    # geolocation, and q2's packet ids wrap to 1.
    seen = {conn: set(state.sessions[conn].outbound or ()) for conn in subscriptions}
    connect(state, "w", "will", will=Will("fleet/truck", b"gone", 1))
    encodes.clear()
    writes = state.release("w")
    assert dict(writes) == {
        "q0": expected("q0", 0, None, b"gone"),
        "geo1": expected("geo1", 1, None, b"gone"),
        "q2": expected("q2", 1, None, b"gone"),
    }
    assert len(writes) == 3 and len(encodes) == 3
    assert state.sessions["q2"].outbound == {65535, 1}

    # So does a retained copy, which keeps the RETAIN bit.
    seen = {conn: set(state.sessions[conn].outbound or ()) for conn in subscriptions}
    writes, _ = state.receive("geo1", ControlPacket(Subscribe(2, (TopicFilter("fleet/truck", 2),))), 0.0)
    assert writes[-1] == ("geo1", expected("geo1", 2, None, retain=True))


def test_a_qos0_copy_of_a_qos0_publish_is_the_frame_it_came_in():
    """A QoS 0 publish that is not retained goes to a QoS 0 subscriber that
    keeps its block choice as the very bytes it was decoded from. Every
    other copy is encode_packet's bytes of its own packet."""
    state, _ = make_core()
    here = GeoLocation(1, 45.0, 7.0, 250.0)
    connect(state, "p", "pub")
    for conn, qos in (("plain", 0), ("geo", 0), ("plain1", 1)):
        connect(state, conn, conn)
        send(state, conn, Subscribe(1, (TopicFilter("fleet/#", qos),)))
    state.receive("geo", ControlPacket(Pingreq(), here), 0.0)  # geo-capable

    def relay(publish, geo=None):
        frame = encode_packet(ControlPacket(publish, geo))
        packet = decode_packet(frame)
        writes, _ = state.receive("p", packet, 0.0)
        return frame, dict(writes)

    def fresh(conn, payload, geo=None, qos=0):
        pid = max(state.sessions[conn].outbound) if qos else None
        return encode_packet(ControlPacket(Publish("fleet/truck", payload, qos, packet_id=pid), geo))

    frame, writes = relay(Publish("fleet/truck", b"cargo"))
    assert writes["plain"] is frame and writes["geo"] is frame
    assert writes["plain1"] == fresh("plain1", b"cargo")

    frame, writes = relay(Publish("fleet/truck", b"located"), here)
    assert writes["geo"] is frame
    assert writes["plain"] == fresh("plain", b"located")  # the block stripped
    assert writes["plain1"] == fresh("plain1", b"located")

    frame, writes = relay(Publish("fleet/truck", b"kept", retain=True))
    assert writes["plain"] == writes["geo"] == fresh("plain", b"kept") != frame

    frame, writes = relay(Publish("fleet/truck", b"acked", 1, packet_id=7))
    assert writes["plain"] == writes["geo"] == fresh("plain", b"acked")
    assert writes["plain1"] == fresh("plain1", b"acked", qos=1)

    # struct writes a signalling NaN elevation back as a quiet NaN, so this
    # frame is not what its packet encodes to.
    block = struct.pack("<Bdd", 1, 45.0, 7.0) + b"\x01\x00\x80\x7f"
    body = b"\x00\x0bfleet/truck" + block + b"nan"
    frame = bytes((0xF0, len(body))) + body
    packet = decode_packet(frame)
    writes, _ = state.receive("p", packet, 0.0)
    assert dict(writes)["geo"] == fresh("geo", b"nan", packet.geolocation) != frame


def test_deciding_a_large_qos0_publish_copies_its_body_once():
    """Deciding a 32 MiB QoS 0 PUBLISH for one QoS 0 subscriber allocates
    at most one body above the frame: the payload's slice. The copy sent is
    the frame itself, not a second encode."""
    state, _ = make_core()
    connect(state, "p", "pub")
    connect(state, "s", "sub")
    send(state, "s", Subscribe(1, (TopicFilter("big", 0),)))
    size = 32 << 20
    frame = encode_packet(ControlPacket(Publish("big", bytes(size))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        writes, _ = state.receive("p", decode_packet(frame), 0.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(writes) == 1 and writes[0][1] is frame
    assert peak < size + (1 << 20)


def test_importing_the_broker_does_not_load_the_client():
    """The broker starts without the client library, ``dataclasses``,
    ``csv`` or ``datetime``: the package root re-exports nothing, the
    broker's value classes are written out and the event log formats its
    rows and timestamps itself, so ``import mqttg.broker`` loads only what
    it uses. A module that was loaded before the import (by a site hook,
    say) does not count."""
    probe = (
        "import sys; before = set(sys.modules); import mqttg.broker; "
        "print(sorted({'mqttg.client', 'dataclasses', 'csv', 'datetime'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
