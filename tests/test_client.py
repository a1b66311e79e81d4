"""Client library behaviors observed on the wire via a recording proxy."""

import socket
import threading
import time

import pytest

from mqttg.client import ClientConfig, GeoMode, MqttgClient
from mqttg.codec import (
    Connack,
    ControlPacket,
    GeoLocation,
    PacketType,
    PubAck,
    Publish,
    decode_packet,
    decode_remaining_length,
    encode_packet,
)
from mqttg.errors import DeliveryTimeout, MalformedPacket

from nettap import Tap

GEO_CAPABLE = {
    PacketType.PUBLISHG,
    PacketType.PUBACK,
    PacketType.PUBREC,
    PacketType.PUBREL,
    PacketType.PUBCOMP,
    PacketType.SUBSCRIBE,
    PacketType.UNSUBSCRIBE,
    PacketType.PINGREQ,
    PacketType.DISCONNECT,
}


def split_frames(data: bytes):
    frames = []
    offset = 0
    while offset < len(data):
        remaining, body_at = decode_remaining_length(data, offset + 1)
        frames.append(bytes(data[offset : body_at + remaining]))
        offset = body_at + remaining
    return frames


def test_attach_all_puts_geo_on_every_capable_packet(broker):
    tap = Tap("127.0.0.1", broker.port)
    fix = GeoLocation(1, 42.0, -3.0, 99.0)
    config = ClientConfig(
        client_id="geo-everywhere",
        port=tap.port,
        geo_mode=GeoMode.ATTACH_ALL,
        location_source=lambda: fix,
        retry_interval=0.5,
    )
    client = MqttgClient(config).connect()
    helper = MqttgClient(ClientConfig(client_id="helper", port=broker.port)).connect()
    try:
        client.subscribe("inbound/topic", qos=2)
        client.publish("outbound/topic", b"q2", qos=2)  # PUBLISHG + PUBREL
        helper.publish("inbound/topic", b"for-you-1", qos=1)  # client answers PUBACK
        helper.publish("inbound/topic", b"for-you-2", qos=2)  # client answers PUBREC+PUBCOMP
        assert client.receive(timeout=3.0) is not None
        assert client.receive(timeout=3.0) is not None
        client.ping()
        client.unsubscribe("inbound/topic")
        time.sleep(0.3)
    finally:
        client.disconnect()
        helper.disconnect()
        time.sleep(0.2)
        tap.close()

    frames = [decode_packet(f) for f in split_frames(bytes(tap.client_to_server))]
    seen = {f.packet_type for f in frames}
    assert {
        PacketType.CONNECT,
        PacketType.SUBSCRIBE,
        PacketType.PUBLISHG,
        PacketType.PUBREL,
        PacketType.PUBACK,
        PacketType.PUBREC,
        PacketType.PUBCOMP,
        PacketType.PINGREQ,
        PacketType.UNSUBSCRIBE,
        PacketType.DISCONNECT,
    } <= seen
    for frame in frames:
        if frame.packet_type in GEO_CAPABLE:
            assert frame.geolocation == fix, frame.packet_type
        else:
            assert frame.geolocation is None, frame.packet_type


def test_attach_all_degrades_gracefully_without_fix(broker):
    tap = Tap("127.0.0.1", broker.port)
    config = ClientConfig(
        client_id="no-fix",
        port=tap.port,
        geo_mode=GeoMode.ATTACH_ALL,
        location_source=lambda: None,
    )
    client = MqttgClient(config).connect()
    try:
        client.publish("t", b"plain")
        client.ping()
    finally:
        client.disconnect()
        time.sleep(0.2)
        tap.close()
    frames = [decode_packet(f) for f in split_frames(bytes(tap.client_to_server))]
    assert all(f.geolocation is None for f in frames)
    publish = next(f for f in frames if isinstance(f.body, Publish))
    assert publish.packet_type is PacketType.PUBLISH


def test_location_sampled_at_send_time(broker):
    fixes = [GeoLocation(1, 1.0, 1.0, 0.0)]
    config = ClientConfig(
        client_id="fresh",
        port=broker.port,
        geo_mode=GeoMode.ATTACH_ALL,
        location_source=lambda: fixes[0],
    )
    tap = Tap("127.0.0.1", broker.port)
    config.port = tap.port
    client = MqttgClient(config).connect()
    try:
        client.publish("t", b"first", qos=1)
        fixes[0] = GeoLocation(1, 2.0, 2.0, 0.0)
        client.publish("t", b"second", qos=1)
    finally:
        client.disconnect()
        time.sleep(0.2)
        tap.close()
    frames = [decode_packet(f) for f in split_frames(bytes(tap.client_to_server))]
    publishes = [f for f in frames if isinstance(f.body, Publish)]
    assert publishes[0].geolocation.latitude == 1.0
    assert publishes[1].geolocation.latitude == 2.0


def test_pid_allocation_unique_among_inflight():
    client = MqttgClient(ClientConfig(client_id="x"))
    pids = set()
    for _ in range(200):
        pid = client._alloc_pid()
        client._flows[pid] = object()  # hold it in flight
        assert pid not in pids
        pids.add(pid)
    assert len(pids) == 200


class _SilentBroker:
    """Accepts a connection, answers CONNACK, then swallows everything."""

    def __init__(self):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.frames = []
        self.done = threading.Event()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        from mqttg.netio import read_frame

        sock, _ = self.listener.accept()
        read_frame(sock)  # CONNECT
        sock.sendall(encode_packet(ControlPacket(Connack(False, 0))))
        try:
            while True:
                frame = read_frame(sock)
                if frame is None:
                    break
                self.frames.append(frame)
        except OSError:
            pass
        self.done.set()


def test_failed_handshake_closes_the_socket():
    """A CONNACK that fails to decode must not leave the connection open."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = []

        def serve():
            sock, _ = listener.accept()
            peer.append(sock)
            sock.recv(1024)  # CONNECT
            sock.sendall(b"\x20\x02\x02\x00")  # reserved acknowledge-flag bit set

        server = threading.Thread(target=serve)
        server.start()
        client = MqttgClient(ClientConfig(client_id="leak", port=listener.getsockname()[1]))
        with pytest.raises(MalformedPacket):
            client.connect()
        server.join(5.0)
        with peer[0] as sock:
            sock.settimeout(2.0)
            assert sock.recv(1) == b""  # EOF: the client closed its end


def test_qos1_retransmits_with_dup_then_times_out():
    silent = _SilentBroker()
    config = ClientConfig(
        client_id="retry",
        port=silent.port,
        retry_interval=0.05,
        max_retries=2,
    )
    client = MqttgClient(config).connect()
    try:
        with pytest.raises(DeliveryTimeout):
            client.publish("t", b"x", qos=1)
    finally:
        client.disconnect()
    silent.done.wait(2.0)
    publishes = [decode_packet(f) for f in silent.frames if f[0] >> 4 == PacketType.PUBLISH]
    assert len(publishes) == 3  # original + 2 retries
    assert publishes[0].body.dup is False
    assert all(p.body.dup for p in publishes[1:])
    assert len({p.body.packet_id for p in publishes}) == 1


def test_inbound_qos2_delivers_exactly_once(broker):
    sub = MqttgClient(ClientConfig(client_id="sub", port=broker.port)).connect()
    pub = MqttgClient(ClientConfig(client_id="pub", port=broker.port)).connect()
    try:
        sub.subscribe("t", qos=2)
        for i in range(5):
            pub.publish("t", f"m{i}", qos=2)
        got = [sub.receive(timeout=3.0) for _ in range(5)]
        assert [m.payload for m in got] == [b"m0", b"m1", b"m2", b"m3", b"m4"]
        assert sub.receive(timeout=0.3) is None
    finally:
        pub.disconnect()
        sub.disconnect()


def test_keepalive_gap_never_exceeds_limit(broker):
    tap = Tap("127.0.0.1", broker.port)
    config = ClientConfig(client_id="quiet", port=tap.port, keep_alive=1)
    client = MqttgClient(config).connect()
    try:
        time.sleep(3.0)
        assert client.connected
    finally:
        client.disconnect()
        time.sleep(0.2)
        tap.close()
    frames = [decode_packet(f) for f in split_frames(bytes(tap.client_to_server))]
    assert sum(1 for f in frames if f.packet_type is PacketType.PINGREQ) >= 2
