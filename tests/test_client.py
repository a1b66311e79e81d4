"""Client library behaviors observed on the wire via a recording proxy."""

import socket
import threading
import time

import pytest

from mqttg.client import ClientConfig, MqttgClient
from mqttg.codec import (
    Connack,
    ControlPacket,
    Pingreq,
    GeoLocation,
    PacketType,
    PubAck,
    PubComp,
    PubRec,
    PubRel,
    Publish,
    Suback,
    decode_packet,
    decode_remaining_length,
    encode_packet,
)
from mqttg.errors import (
    ConnectRefused,
    ConnectTimeout,
    DeliveryTimeout,
    MalformedPacket,
    NotConnected,
    SubscriptionRefused,
)
from mqttg.netio import CHUNK

from nettap import Tap
from rawsock import read_frame

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
        location_source=lambda: fix,
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
        with self.listener:
            sock, _ = self.listener.accept()
        with sock:
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


def test_a_refused_connect_raises_and_closes_the_socket():
    """CONNACK return code 5 (not authorized) is ConnectRefused."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = []

        def serve():
            sock, _ = listener.accept()
            peer.append(sock)
            read_frame(sock)  # CONNECT
            sock.sendall(encode_packet(ControlPacket(Connack(False, 5))))

        server = threading.Thread(target=serve)
        server.start()
        client = MqttgClient(ClientConfig(client_id="refused", port=listener.getsockname()[1]))
        with pytest.raises(ConnectRefused) as refused:
            client.connect()
        assert refused.value.return_code == 5
        assert not client.connected
        server.join(5.0)
        with peer[0] as sock:
            sock.settimeout(2.0)
            assert sock.recv(1) == b""  # EOF: the client closed its end


def test_a_suback_failure_code_raises_subscription_refused():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = []

        def serve():
            sock, _ = listener.accept()
            peer.append(sock)
            read_frame(sock)  # CONNECT
            sock.sendall(encode_packet(ControlPacket(Connack(False, 0))))
            pid = decode_packet(read_frame(sock)).body.packet_id  # SUBSCRIBE
            sock.sendall(encode_packet(ControlPacket(Suback(pid, (0x80,)))))

        server = threading.Thread(target=serve)
        server.start()
        client = MqttgClient(ClientConfig(client_id="denied", port=listener.getsockname()[1]))
        client.connect()
        try:
            with pytest.raises(SubscriptionRefused, match="broker refused filter 'no/entry'"):
                client.subscribe("no/entry", qos=1)
            assert client.connected
        finally:
            client.disconnect()
            server.join(5.0)
            peer[0].close()


def test_a_publish_that_arrives_with_the_connack_is_dispatched():
    """The CONNACK read and the reader loop share one reader, so a frame
    that comes in the CONNACK's segment is not lost."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = []

        def serve():
            sock, _ = listener.accept()
            peer.append(sock)
            sock.recv(1024)  # CONNECT
            sock.sendall(
                encode_packet(ControlPacket(Connack(False, 0)))
                + encode_packet(ControlPacket(Publish("early/bird", b"worm")))
            )

        server = threading.Thread(target=serve)
        server.start()
        client = MqttgClient(ClientConfig(client_id="early", port=listener.getsockname()[1]))
        client.connect()
        try:
            server.join(5.0)
            assert not server.is_alive()
            message = client.receive(timeout=3.0)
            assert message is not None
            assert (message.topic, message.payload) == ("early/bird", b"worm")
        finally:
            client.disconnect()
            peer[0].close()


def test_a_connect_answered_by_a_long_packet_fails_and_closes():
    """A first packet whose body spans recvs is no CONNACK: connect()
    raises ConnectTimeout, not the reader's wait-for-more signal."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = []

        def serve():
            sock, _ = listener.accept()
            peer.append(sock)
            read_frame(sock)  # CONNECT
            frame = encode_packet(ControlPacket(Publish("big", bytes(4 * CHUNK))))
            sock.sendall(frame[: 2 * CHUNK])  # the rest never comes

        server = threading.Thread(target=serve)
        server.start()
        client = MqttgClient(ClientConfig(client_id="long", port=listener.getsockname()[1]))
        with pytest.raises(ConnectTimeout):
            client.connect()
        server.join(5.0)
        assert not server.is_alive()
        with peer[0] as sock:
            sock.settimeout(2.0)
            assert sock.recv(1) == b""  # EOF: the client closed its end


NO_CONNACK = {
    "silent": (lambda sock: None, "no CONNACK within the connect timeout"),
    "closed": (lambda sock: sock.shutdown(socket.SHUT_WR), "connection closed before CONNACK"),
    "pingresp": (lambda sock: sock.sendall(b"\xd0\x00"), "expected CONNACK, got PINGRESP"),
}


@pytest.mark.parametrize("answer, error", NO_CONNACK.values(), ids=NO_CONNACK)
def test_a_connect_without_a_connack_times_out_and_closes(answer, error):
    """A peer that never answers, ends its side, or answers with another
    packet: connect() raises ConnectTimeout and closes its socket."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = []

        def serve():
            sock, _ = listener.accept()
            peer.append(sock)
            read_frame(sock)  # CONNECT
            answer(sock)

        server = threading.Thread(target=serve)
        server.start()
        client = MqttgClient(
            ClientConfig(client_id="waits", port=listener.getsockname()[1], connect_timeout=0.3)
        )
        with pytest.raises(ConnectTimeout, match=error):
            client.connect()
        assert not client.connected
        server.join(5.0)
        assert not server.is_alive()
        with peer[0] as sock:
            sock.settimeout(2.0)
            assert sock.recv(1) == b""  # EOF: the client closed its end


def test_each_exchange_waits_for_its_own_reply_class():
    """Acks that carry an exchange's packet id but are of another class are
    ignored: a QoS 1 publish ends at its PUBACK, a QoS 2 one at its PUBREC
    (then its PUBCOMP). After each stray ack the peer sends a QoS 1
    PUBLISH; its PUBACK shows the client has dispatched the stray ones."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = []

        def serve():
            sock, _ = listener.accept()
            peer.append(sock)
            read_frame(sock)  # CONNECT
            sock.sendall(encode_packet(ControlPacket(Connack(False, 0))))

        server = threading.Thread(target=serve)
        server.start()
        client = MqttgClient(ClientConfig(client_id="strict", port=listener.getsockname()[1]))
        client.connect()
        server.join(5.0)
        assert not server.is_alive()
        sock = peer[0]
        sock.settimeout(3.0)

        def publish(qos):
            publisher = threading.Thread(target=client.publish, args=("t", b"x", qos))
            publisher.start()
            return publisher, decode_packet(read_frame(sock)).body.packet_id

        def send(*bodies):
            sock.sendall(b"".join(encode_packet(ControlPacket(body)) for body in bodies))

        def stray(publisher, *bodies):
            send(*bodies, Publish("sync", b"", 1, packet_id=7))
            assert decode_packet(read_frame(sock)).body == PubAck(7)
            assert client.receive(timeout=3.0).topic == "sync"
            publisher.join(0.2)
            assert publisher.is_alive()

        try:
            publisher, pid = publish(1)
            stray(publisher, PubRec(pid), Suback(pid, (0,)))
            send(PubAck(pid))
            publisher.join(3.0)
            assert not publisher.is_alive()

            publisher, pid = publish(2)
            stray(publisher, PubAck(pid), PubComp(pid))
            send(PubRec(pid))
            assert decode_packet(read_frame(sock)).body == PubRel(pid)
            stray(publisher, PubAck(pid), PubRec(pid))
            send(PubComp(pid))
            publisher.join(3.0)
            assert not publisher.is_alive()
        finally:
            client.disconnect()
            sock.close()


@pytest.mark.parametrize(
    "operation, packet_type",
    [
        (lambda client: client.publish("t", b"x", qos=1), PacketType.PUBLISH),
        (lambda client: client.subscribe("t", qos=1), PacketType.SUBSCRIBE),
    ],
    ids=["qos1-publish", "subscribe"],
)
def test_an_unanswered_packet_is_sent_once_then_times_out(operation, packet_type):
    """TCP resends what the network loses, so the client sends each packet
    once and gives up after 1.5 x the keep-alive."""
    silent = _SilentBroker()
    client = MqttgClient(ClientConfig(client_id="once", port=silent.port, keep_alive=1)).connect()
    try:
        started = time.monotonic()
        with pytest.raises(DeliveryTimeout):
            operation(client)
        waited = time.monotonic() - started
    finally:
        client.disconnect()
    silent.done.wait(2.0)
    sent = [f for f in silent.frames if f[0] >> 4 == packet_type]
    assert len(sent) == 1
    assert sent[0][0] & 0x08 == 0  # DUP clear
    assert 1.5 <= waited < 3.0


def test_an_unanswered_ping_closes_the_connection():
    """MQTT 3.1.1 section 3.1.2.10: a client whose PINGREQ gets no answer
    in a reasonable time closes the connection. The ping goes out 0.75 s
    into the keep-alive of 1 s, and the answer is due 1.5 s after it."""
    silent = _SilentBroker()
    client = MqttgClient(ClientConfig(client_id="unanswered", port=silent.port, keep_alive=1)).connect()
    try:
        ends = time.monotonic() + 3.0
        while client.connected and time.monotonic() < ends:
            time.sleep(0.05)
        assert not client.connected
        assert silent.done.wait(2.0)  # the client closed the socket
        assert {f[0] >> 4 for f in silent.frames} == {PacketType.PINGREQ}
    finally:
        client.disconnect()


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


def test_a_connected_client_runs_one_thread():
    silent = _SilentBroker()
    before = set(threading.enumerate())
    client = MqttgClient(ClientConfig(client_id="one", port=silent.port, keep_alive=60)).connect()
    try:
        assert [t.name for t in set(threading.enumerate()) - before] == ["mqttg-reader"]
    finally:
        client.disconnect()


def test_disconnect_ends_the_reader_at_once():
    """The reader waits for input, not on a timer: at keep_alive=60 it
    still ends as soon as disconnect() shuts the socket down."""
    silent = _SilentBroker()
    before = set(threading.enumerate())
    client = MqttgClient(ClientConfig(client_id="gone", port=silent.port, keep_alive=60)).connect()
    reader = next(t for t in set(threading.enumerate()) - before if t.name == "mqttg-reader")
    client.disconnect()
    reader.join(1.0)
    assert not reader.is_alive()
    assert silent.done.wait(2.0)  # the broker side saw EOF: the reader closed the socket


def test_a_client_that_sends_often_enough_never_pings(broker):
    """Each send moves the ping deadline, 0.75 x the keep-alive after it."""
    tap = Tap("127.0.0.1", broker.port)
    client = MqttgClient(ClientConfig(client_id="busy", port=tap.port, keep_alive=1)).connect()
    try:
        for _ in range(10):
            client.publish("t", b"x")
            time.sleep(0.3)
    finally:
        client.disconnect()
        time.sleep(0.2)
        tap.close()
    frames = [decode_packet(f) for f in split_frames(bytes(tap.client_to_server))]
    assert sum(1 for f in frames if f.packet_type is PacketType.PUBLISH) == 10
    assert not any(f.packet_type is PacketType.PINGREQ for f in frames)


class _ScriptedBroker:
    """Accepts one connection, answers CONNACK, then runs ``script`` on
    the socket; the socket is closed when the script returns."""

    def __init__(self, script):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, args=(script,), daemon=True)
        self.thread.start()

    def _serve(self, script):
        with self.listener:
            sock, _ = self.listener.accept()
        with sock:
            sock.settimeout(3.0)
            read_frame(sock)  # CONNECT
            sock.sendall(encode_packet(ControlPacket(Connack(False, 0))))
            script(sock)


def test_a_peer_that_closes_during_a_qos1_publish_ends_it_at_once():
    """The reader's EOF releases the waiting flow with no reply, so the
    publish raises NotConnected at once, not after 1.5 x the keep-alive."""
    peer = _ScriptedBroker(read_frame)  # reads the PUBLISH, then closes
    client = MqttgClient(ClientConfig(client_id="dropped", port=peer.port, keep_alive=60)).connect()
    try:
        started = time.monotonic()
        with pytest.raises(NotConnected, match="connection lost during QoS 1 publish to 't'"):
            client.publish("t", b"x", qos=1)
        assert time.monotonic() - started < 5.0
        assert not client.connected
        with pytest.raises(NotConnected):
            client.publish("t", b"x", qos=1)
    finally:
        client.disconnect()
        peer.thread.join(5.0)


def test_an_unexpected_packet_from_the_broker_is_logged_and_the_connection_stays_open(caplog):
    """A PINGREQ is a client's packet; one from the broker is logged, and
    the QoS 1 publish behind it is still dispatched and acknowledged."""
    answered, release = threading.Event(), threading.Event()

    def script(sock):
        sock.sendall(
            encode_packet(ControlPacket(Pingreq()))
            + encode_packet(ControlPacket(Publish("after", b"", 1, packet_id=7)))
        )
        assert decode_packet(read_frame(sock)).body == PubAck(7)
        answered.set()
        release.wait(5.0)

    peer = _ScriptedBroker(script)
    client = MqttgClient(ClientConfig(client_id="puzzled", port=peer.port)).connect()
    try:
        assert answered.wait(5.0)
        assert client.connected
        assert client.receive(timeout=3.0).topic == "after"
        assert "unexpected PINGREQ from broker" in caplog.text
    finally:
        release.set()
        client.disconnect()
        peer.thread.join(5.0)
