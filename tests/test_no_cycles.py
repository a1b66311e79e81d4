"""Deciding packets makes no reference cycles.

A value that refers to itself, however indirectly, is freed only by the
cyclic garbage collector, not when its last reference goes. The broker
decodes and decides every packet a client sends, so such a value would
leave garbage behind at every one. This test turns the collector off,
decodes and decides one packet of each type (a geo SUBSCRIBE, a takeover
and a will among them), drops them, and asserts that a collection then
finds nothing to free.
"""

from __future__ import annotations

import gc
import io

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
    Pingresp,
    PubAck,
    PubComp,
    PubRec,
    PubRel,
    Publish,
    Suback,
    Subscribe,
    TopicFilter,
    Unsuback,
    Unsubscribe,
    Will,
    decode_packet,
    encode_packet,
)
from mqttg.eventlog import EventLog

HERE = GeoLocation(1, 48.2, 16.37, 200.0)
NEAR = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 5_000.0, 48.21, 16.36)
FAR = GeoConstraint(ConstraintKind.OUTSIDE_RADIUS, 1_000.0, 10.0, 10.0)

# (connection, packet) in the order they are sent. "sub" and "pub" connect;
# "pub2" takes "pub"'s id over, which publishes "pub"'s will.
SCRIPT = [
    ("sub", ControlPacket(Connect("sub"))),
    ("pub", ControlPacket(Connect("pub", will=Will("w/pub", b"gone", 1)))),
    ("sub", ControlPacket(Subscribe(1, (
        TopicFilter("t/#", 2, NEAR), TopicFilter("t/+", 1, FAR), TopicFilter("w/#", 1),
    )), HERE)),
    ("pub", ControlPacket(Publish("t/a", b"zero"))),
    ("pub", ControlPacket(Publish("t/a", b"one", 1, packet_id=1), HERE)),
    ("pub", ControlPacket(Publish("t/a", b"two", 2, packet_id=2), HERE)),
    ("pub", ControlPacket(PubRel(2), HERE)),
    ("pub", ControlPacket(Publish("t/r", b"kept", 1, retain=True, packet_id=3))),
    ("sub", ControlPacket(PubAck(1), HERE)),
    ("sub", ControlPacket(PubRec(2), HERE)),
    ("sub", ControlPacket(PubComp(2), HERE)),
    ("sub", ControlPacket(Pingreq(), HERE)),
    ("sub", ControlPacket(Unsubscribe(2, ("t/+",)), HERE)),
    ("pub2", ControlPacket(Connect("pub"))),
    ("pub2", ControlPacket(Disconnect())),
]
# Packets only a broker sends: decoded, never decided.
CLIENT_BOUND = [
    ControlPacket(Connack(False, 0)),
    ControlPacket(Suback(1, (2, 1, 0x80))),
    ControlPacket(Unsuback(2)),
    ControlPacket(Pingresp()),
]


def decide(state: BrokerState) -> list:
    """Run the script on ``state``; the writes it made."""
    made = []
    for conn, packet in SCRIPT:
        writes, keep_open = state.receive(conn, decode_packet(encode_packet(packet)), 0.0)
        made += writes
        if not keep_open:
            made += state.release(conn)
    for conn in ("pub", "sub"):  # the taken-over handle, then an abrupt end
        made += state.release(conn)
    for packet in CLIENT_BOUND:
        decode_packet(encode_packet(packet))
    return made


def test_deciding_every_packet_type_leaves_no_cyclic_garbage():
    state = BrokerState(EventLog([io.StringIO()]))
    decide(state)  # the first run fills the caches and tables the process keeps
    state = BrokerState(EventLog([io.StringIO()]))
    gc.collect()
    gc.disable()
    try:
        writes = decide(state)
        state.admin_command("ADD-FENCE sub t/# dynamic pub 0.1,0.1 0.1,-0.1 -0.1,0.0")
        state.route("pub", "t/a", 1, HERE)
        del state
        found = gc.collect()
    finally:
        gc.enable()
    sent = [(conn, decode_packet(data).body) for conn, data in writes if data is not None]
    assert ("pub", None) in writes  # the takeover closed the first connection
    assert any(conn == "sub" and getattr(body, "topic", None) == "w/pub" for conn, body in sent)  # its will
    assert any(conn == "sub" and getattr(body, "topic", None) == "t/a" for conn, body in sent)  # via NEAR
    assert found == 0
