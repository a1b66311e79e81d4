"""Broker decisions that the other suites never reach: a second CONNECT,
a stray PUBACK, retained messages and geo-constrained or unmatched
filters, and the admin commands' refusals."""

from __future__ import annotations

import socket

import pytest

from mqttg.broker import BrokerState
from mqttg.client import ClientConfig, MqttgClient
from mqttg.codec import (
    Connect,
    ConstraintKind,
    ControlPacket,
    GeoConstraint,
    GeoLocation,
    Pingreq,
    Pingresp,
    PubAck,
    TopicFilter,
    Will,
    decode_packet,
    encode_packet,
)
from mqttg.errors import InvalidPolygon
from mqttg.geo import FenceMode, GeofencePolygon, GeoPoint

from rawsock import read_frame

EVERYWHERE = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1e7, 0.0, 0.0)


def raw_connect(port: int, connect: Connect) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=3.0)
    sock.sendall(encode_packet(ControlPacket(connect)))
    assert decode_packet(read_frame(sock)).body.return_code == 0
    return sock


def client(broker, client_id: str, location: GeoLocation | None = None) -> MqttgClient:
    source = None if location is None else (lambda: location)
    config = ClientConfig(client_id=client_id, port=broker.port, location_source=source)
    return MqttgClient(config).connect()


def test_a_second_connect_closes_the_connection_and_publishes_its_will(broker):
    """MQTT-3.1.0-2: a second CONNECT is a protocol violation, and the
    connection ends as any other that did not send DISCONNECT."""
    watcher = client(broker, "watcher")
    try:
        watcher.subscribe("will/#", qos=1)
        first = Connect("twice", keep_alive=5, will=Will("will/twice", b"gone"))
        with raw_connect(broker.port, first) as raw:
            raw.sendall(encode_packet(ControlPacket(Connect("twice", keep_alive=5))))
            assert read_frame(raw) is None  # EOF
        message = watcher.receive(timeout=3.0)
        assert (message.topic, message.payload) == ("will/twice", b"gone")
        assert "twice" not in broker.state.sessions
    finally:
        watcher.disconnect()


def test_a_puback_for_an_unknown_id_is_ignored_and_the_connection_stays_open(broker):
    with raw_connect(broker.port, Connect("acker", keep_alive=5)) as raw:
        stray = encode_packet(ControlPacket(PubAck(9)))  # no delivery holds id 9
        raw.sendall(stray + encode_packet(ControlPacket(Pingreq())))
        assert decode_packet(read_frame(raw)).body == Pingresp()


def test_a_retained_message_is_not_sent_to_a_geo_constrained_filter(broker):
    """Retained messages keep no geolocation, so a radius filter never
    passes them, not even one from a located subscriber that covers the
    whole Earth. A plain filter on the same topic gets the message."""
    publisher = client(broker, "keeper")
    subscriber = client(broker, "located", GeoLocation(1, 0.0, 0.0))
    try:
        publisher.publish("kept/one", b"old", qos=1, retain=True)
        subscriber.subscribe("kept/#", qos=1, constraint=EVERYWHERE)
        assert subscriber.receive(timeout=0.4) is None
        subscriber.subscribe("kept/#", qos=1)
        message = subscriber.receive(timeout=3.0)
        assert (message.topic, message.payload, message.retain) == ("kept/one", b"old", True)
    finally:
        publisher.disconnect()
        subscriber.disconnect()


def test_retained_messages_go_only_to_the_plain_filters_they_match():
    state = BrokerState()
    state.open_session("sub")
    state.set_retained("t/a", b"A", 2)
    state.set_retained("u/b", b"B", 0)
    granted = (TopicFilter("t/#", 1, EVERYWHERE), TopicFilter("t/#", 1), TopicFilter("v/#", 2))
    assert state.retained_for(granted, "sub") == [("t/a", b"A", 1)]


SQUARE = "0,0 0,1 1,1 1,0"


@pytest.mark.parametrize(
    "line, reply",
    [
        ("CLEAR-FENCE owner", "ERR expected: CLEAR-FENCE client_id topic"),
        ("CLEAR-FENCE owner t extra", "ERR expected: CLEAR-FENCE client_id topic"),
        ("ADD-FENCE o t static 0,0 0,1,2 1,1", "ERR vertex '0,1,2' is not lat,lon"),
        ("ADD-FENCE o t dynamic anchor", "ERR dynamic fence needs an anchor client and offsets"),
        ("ADD-FENCE o t dynamic anchor 0,0 1 1,1", "ERR offset '1' is not lat,lon"),
        ("ADD-FENCE o t circle 0,0", "ERR unknown fence mode 'circle'"),
        (f"ADD-FENCE o a/#/b static {SQUARE}", "ERR invalid fence topic filter 'a/#/b'"),
        ("ADD-FENCE o t dynamic anchor nan,0 0,1 1,1", "ERR non-finite vertex offset"),
        ("ADD-FENCE o t dynamic anchor 0,0 0,inf 1,1", "ERR non-finite vertex offset"),
    ],
    ids=["clear-two-words", "clear-four-words", "vertex-of-three", "dynamic-without-offsets",
         "offset-of-one", "unknown-mode", "invalid-filter", "nan-offset", "infinite-offset"],
)
def test_an_admin_command_that_cannot_be_run_gets_err_and_stores_nothing(line, reply):
    state = BrokerState()
    assert state.admin_command(line) == [reply]
    assert state.fences == {} and state.plans == {}


def test_a_filter_holding_whitespace_routes_but_cannot_be_fenced():
    """An admin command names a fence's filter as one token, so a filter
    that holds whitespace, which MQTT allows, cannot be fenced or cleared;
    a subscription to it still routes."""
    state = BrokerState()
    for client in ("pub", "sub"):
        state.open_session(client)
    assert state.subscribe("sub", (TopicFilter("a b/#", 1),)) == [1]
    assert state.admin_command(f"ADD-FENCE sub a b/# static {SQUARE}") == ["ERR unknown fence mode 'b/#'"]
    assert state.admin_command("CLEAR-FENCE sub a b/#") == ["ERR expected: CLEAR-FENCE client_id topic"]
    assert state.fences == {}
    assert [(d.client_id, d.qos) for d in state.route("pub", "a b/x", 2, None)] == [("sub", 1)]


def test_add_fence_refuses_an_invalid_filter():
    state = BrokerState()
    triangle = (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1))
    fence = GeofencePolygon(FenceMode.STATIC, vertices=triangle)
    with pytest.raises(InvalidPolygon, match="invalid fence topic filter"):
        state.add_fence("owner", "a/#/b", fence)
    assert state.fences == {}
    state.add_fence("owner", "a/#", fence)
    assert list(state.fences["owner"]) == ["a/#"]
