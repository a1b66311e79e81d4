"""End-to-end broker/client tests over real TCP connections."""

import csv
import socket
import threading
import time

import pytest

from mqttg import broker as broker_module
from mqttg.broker import admin_request
from mqttg.client import ClientConfig, GeoMode, MqttgClient
from mqttg.codec import (
    Connect,
    ConstraintKind,
    ControlPacket,
    GeoConstraint,
    GeoLocation,
    Pingreq,
    PubAck,
    Publish,
    Suback,
    Will,
    decode_packet,
    encode_packet,
    encode_remaining_length,
)
from mqttg.errors import ConnectTimeout, NotConnected, SubscriptionRefused
from mqttg.netio import read_frame


def mk_client(broker, client_id, location=None, **kw):
    source = None
    mode = GeoMode.OFF
    if location is not None:
        holder = location if isinstance(location, list) else [location]
        source = lambda: holder[0]
        mode = GeoMode.ATTACH_ALL
    config = ClientConfig(
        client_id=client_id,
        host="127.0.0.1",
        port=broker.port,
        geo_mode=mode,
        location_source=source,
        connect_timeout=5.0,
        retry_interval=0.5,
        **kw,
    )
    return MqttgClient(config).connect()


def geo(lat, lon, elev=0.0):
    return GeoLocation(1, lat, lon, elev)


class TestBasicFlows:
    def test_publish_subscribe_qos0(self, broker):
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub")
        try:
            assert sub.subscribe("city/traffic", qos=0) == 0
            pub.publish("city/traffic", b"jam")
            message = sub.receive(timeout=3.0)
            assert message is not None
            assert (message.topic, message.payload, message.qos) == ("city/traffic", b"jam", 0)
            assert message.publisher_geolocation is None
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_qos1_and_qos2_round_trips(self, broker):
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub")
        try:
            assert sub.subscribe("t", qos=2) == 2
            pub.publish("t", b"once", qos=1)
            pub.publish("t", b"exactly", qos=2)
            first = sub.receive(timeout=3.0)
            second = sub.receive(timeout=3.0)
            assert (first.payload, first.qos) == (b"once", 1)
            assert (second.payload, second.qos) == (b"exactly", 2)
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_wildcard_subscription(self, broker):
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub")
        try:
            sub.subscribe("fleet/#")
            pub.publish("fleet/truck/7", b"pos")
            assert sub.receive(timeout=3.0).topic == "fleet/truck/7"
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_unsubscribe_stops_delivery(self, broker):
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub")
        try:
            sub.subscribe("t")
            pub.publish("t", b"1", qos=1)
            assert sub.receive(timeout=3.0).payload == b"1"
            sub.unsubscribe("t")
            pub.publish("t", b"2", qos=1)
            assert sub.receive(timeout=0.4) is None
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_retained_message_delivered_on_subscribe(self, broker):
        pub = mk_client(broker, "pub")
        pub.publish("news", b"latest", qos=1, retain=True)
        pub.disconnect()
        sub = mk_client(broker, "sub")
        try:
            sub.subscribe("news", qos=1)
            message = sub.receive(timeout=3.0)
            assert message.payload == b"latest"
            assert message.retain is True
        finally:
            sub.disconnect()

    def test_retained_copy_never_keeps_geolocation(self, broker):
        pub = mk_client(broker, "pub", location=geo(10.0, 10.0))
        pub.publish("news", b"geo-tagged", qos=1, retain=True)  # a PUBLISHG
        pub.disconnect()
        sub = mk_client(broker, "sub", location=geo(0.0, 0.0))  # geo-capable
        try:
            sub.subscribe("news", qos=1)
            message = sub.receive(timeout=3.0)
            assert message.payload == b"geo-tagged"
            assert message.publisher_geolocation is None
        finally:
            sub.disconnect()

    def test_qos1_publish_yields_exactly_one_puback(self, broker):
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        sock.sendall(encode_packet(ControlPacket(Connect(client_id="raw1", keep_alive=5))))
        assert decode_packet(read_frame(sock)).body.return_code == 0
        sock.sendall(encode_packet(ControlPacket(Publish("t", b"x", qos=1, packet_id=9))))
        first = decode_packet(read_frame(sock))
        assert first.body == PubAck(9)
        sock.settimeout(0.4)
        with pytest.raises((TimeoutError, socket.timeout)):
            read_frame(sock)  # no second PUBACK, nothing else inbound
        sock.close()


class TestGeoBehavior:
    def test_publishg_carries_location_to_geo_subscriber(self, broker):
        sub = mk_client(broker, "sub", location=geo(0.0, 0.0))
        pub = mk_client(broker, "pub", location=geo(49.85, -99.95, 400.0))
        try:
            sub.subscribe("t")
            pub.publish("t", b"x")
            message = sub.receive(timeout=3.0)
            assert message.publisher_geolocation is not None
            assert message.publisher_geolocation.latitude == pytest.approx(49.85)
            assert message.publisher_geolocation.elevation == pytest.approx(400.0)
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_geo_block_stripped_for_plain_subscriber(self, broker):
        sub = mk_client(broker, "plain-sub")  # geo mode off, never geo-flagged
        pub = mk_client(broker, "pub", location=geo(1.0, 2.0))
        try:
            sub.subscribe("t")
            pub.publish("t", b"x")
            message = sub.receive(timeout=3.0)
            assert message.payload == b"x"
            assert message.publisher_geolocation is None
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_inside_radius_subscription_filters_by_origin(self, broker):
        holder = [geo(0.0, 1.0)]  # ~111 km from origin
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub", location=holder)
        try:
            constraint = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 200_000.0, 0.0, 0.0)
            sub.subscribe("t", constraint=constraint)
            pub.publish("t", b"near", qos=1)
            message = sub.receive(timeout=3.0)
            assert message.payload == b"near"
            assert message.publisher_geolocation is not None  # constrained filter keeps geo
            holder[0] = geo(0.0, 30.0)
            pub.publish("t", b"far", qos=1)  # outside the 200 km circle now
            assert sub.receive(timeout=0.4) is None
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_outside_radius_and_no_geo_fail_closed(self, broker):
        sub = mk_client(broker, "sub")
        geopub = mk_client(broker, "geopub", location=geo(0.0, 0.5))
        plainpub = mk_client(broker, "plainpub")
        try:
            constraint = GeoConstraint(ConstraintKind.OUTSIDE_RADIUS, 200_000.0, 0.0, 0.0)
            sub.subscribe("t", constraint=constraint)
            geopub.publish("t", b"inside", qos=1)  # inside the circle: filtered out
            plainpub.publish("t", b"no-geo", qos=1)  # no geo: fail closed
            assert sub.receive(timeout=0.4) is None
        finally:
            geopub.disconnect()
            plainpub.disconnect()
            sub.disconnect()

    def test_routing_uses_the_packets_own_fix(self, broker):
        # The PUBLISHG both updates the location table and is routed with
        # that same location, even when the previous fix was far away.
        current = [geo(0.0, 30.0)]
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub", location=current)
        try:
            pub.ping()  # records the far fix
            constraint = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 50_000.0, 0.0, 0.0)
            sub.subscribe("t", constraint=constraint)
            current[0] = geo(0.0, 0.1)  # now inside the circle
            pub.publish("t", b"here", qos=1)
            assert sub.receive(timeout=3.0).payload == b"here"
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_pingreq_updates_location_table(self, broker):
        client = mk_client(broker, "truck-7", location=geo(10.0, 20.0, 5.0))
        try:
            client.ping()
            client.publish("t", b"sync", qos=1)  # barrier: broker processed the ping
            rows = admin_request("127.0.0.1", broker.admin_port, "DUMP-LOCATIONS")
            assert rows[-1] == "OK"
            row = next(r for r in rows[:-1] if r.startswith("truck-7 "))
            fields = row.split()
            assert float(fields[1]) == pytest.approx(10.0)
            assert float(fields[2]) == pytest.approx(20.0)
        finally:
            client.disconnect()

    def test_polygon_fence_via_admin_socket(self, broker):
        sub = mk_client(broker, "sub", location=geo(0.0, 0.0))
        pub = mk_client(broker, "pub", location=geo(5.0, 5.0))
        try:
            sub.subscribe("t", qos=1)
            sub.ping()
            sub.publish("dummy/own", b"", qos=1)  # barrier: location recorded
            assert admin_request(
                "127.0.0.1", broker.admin_port, "ADD-FENCE sub t static 1,1 1,-1 -1,-1 -1,1"
            ) == ["OK"]
            pub.publish("t", b"in-fence", qos=1)
            assert sub.receive(timeout=3.0).payload == b"in-fence"
            # a second fence the subscriber is not inside blocks delivery
            assert admin_request(
                "127.0.0.1", broker.admin_port, "ADD-FENCE sub t static 50,50 50,49 49,49"
            ) == ["OK"]
            pub.publish("t", b"blocked", qos=1)
            assert sub.receive(timeout=0.4) is None
            assert admin_request(
                "127.0.0.1", broker.admin_port, "CLEAR-FENCE sub t"
            ) == ["OK 2"]
            pub.publish("t", b"open-again", qos=1)
            assert sub.receive(timeout=3.0).payload == b"open-again"
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_admin_rejects_bad_fence(self, broker):
        reply = admin_request("127.0.0.1", broker.admin_port, "ADD-FENCE a t static 0,0 1,1")
        assert reply[0].startswith("ERR")
        reply = admin_request("127.0.0.1", broker.admin_port, "NONSENSE")
        assert reply[0].startswith("ERR")


class TestSessionRules:
    def test_duplicate_client_id_takeover(self, broker):
        first = mk_client(broker, "dup")
        second = mk_client(broker, "dup")
        try:
            deadline = time.monotonic() + 3.0
            while first.connected and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not first.connected
            second.publish("t", b"alive", qos=1)  # new session fully works
        finally:
            second.disconnect()
            first.disconnect()

    def test_taken_over_connection_leaves_successor_untouched(self, broker, monkeypatch):
        # The old connection's last packet is held between decode and
        # dispatch until a new connection has taken over its client id.
        last = encode_packet(ControlPacket(Pingreq(), geo(45.0, 45.0)))
        held, release = threading.Event(), threading.Event()
        holder = []
        decode = broker_module.decode_packet

        def held_decode(frame):
            if frame == last:
                holder.append(threading.current_thread())
                held.set()
                release.wait(5.0)
            return decode(frame)

        monkeypatch.setattr(broker_module, "decode_packet", held_decode)
        old = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        new = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            old.sendall(encode_packet(ControlPacket(Connect(client_id="dup", keep_alive=5))))
            assert decode_packet(read_frame(old)).body.return_code == 0
            old.sendall(last)
            assert held.wait(3.0)
            new.sendall(encode_packet(ControlPacket(Connect(client_id="dup", keep_alive=5))))
            assert decode_packet(read_frame(new)).body.return_code == 0
            release.set()
            holder[0].join(3.0)
            assert not holder[0].is_alive()
            assert "dup" not in broker.state.locations
            assert not broker.state.sessions["dup"].geo_capable
            rows = list(csv.reader(broker.log_buffer.getvalue().splitlines()))
            assert [r for r in rows if r[1] == "dup" and r[2] == "LOCATION"] == []
        finally:
            release.set()
            old.close()
            new.close()

    def test_subscriber_out_of_packet_ids_misses_only_its_copy(self, broker):
        full = mk_client(broker, "full")
        other = mk_client(broker, "other")
        pub = mk_client(broker, "pub")
        try:
            full.subscribe("t", qos=1)
            other.subscribe("t", qos=1)
            with broker._lock:
                broker.state.sessions["full"].outbound = dict.fromkeys(
                    range(1, 65536), "await_puback"
                )
            pub.publish("t", b"x", qos=1)  # returns once the PUBACK arrives
            assert other.receive(timeout=3.0).payload == b"x"
            assert full.receive(timeout=0.4) is None
            assert pub.connected and full.connected
            pub.publish("t", b"y", qos=1)  # the publisher's session still works
            assert other.receive(timeout=3.0).payload == b"y"
        finally:
            pub.disconnect()
            other.disconnect()
            full.disconnect()

    def test_will_published_on_abnormal_disconnect(self, broker):
        sub = mk_client(broker, "sub")
        doomed = MqttgClient(
            ClientConfig(
                client_id="doomed",
                port=broker.port,
                will=Will("last/words", b"gone", qos=1),
            )
        ).connect()
        try:
            sub.subscribe("last/words", qos=1)
            doomed._sock.shutdown(socket.SHUT_RDWR)  # crash: no DISCONNECT packet
            message = sub.receive(timeout=3.0)
            assert message is not None and message.payload == b"gone"
        finally:
            sub.disconnect()

    def test_clean_disconnect_suppresses_will(self, broker):
        sub = mk_client(broker, "sub")
        polite = MqttgClient(
            ClientConfig(client_id="polite", port=broker.port, will=Will("last/words", b"gone"))
        ).connect()
        try:
            sub.subscribe("last/words")
            polite.disconnect()
            assert sub.receive(timeout=0.4) is None
        finally:
            sub.disconnect()

    def test_keepalive_pings_keep_session_alive(self, broker):
        client = mk_client(broker, "pinger", location=geo(3.0, 4.0), keep_alive=1)
        try:
            time.sleep(2.5)  # several keep-alive periods
            assert client.connected
            client.publish("t", b"done", qos=1)
            rows = admin_request("127.0.0.1", broker.admin_port, "DUMP-LOCATIONS")
            row = next(r for r in rows if r.startswith("pinger "))
            assert int(row.split()[6]) >= 2  # pings carried location updates
        finally:
            client.disconnect()

    def test_empty_client_id_refused(self, broker):
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        sock.sendall(encode_packet(ControlPacket(Connect(client_id="", keep_alive=5))))
        reply = decode_packet(read_frame(sock))
        assert reply.body.return_code == 0x02
        sock.close()

    def test_wrong_protocol_level_refused(self, broker):
        data = bytearray(encode_packet(ControlPacket(Connect(client_id="x"))))
        data[8] = 5  # protocol level byte
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        sock.sendall(bytes(data))
        reply = decode_packet(read_frame(sock))
        assert reply.body.return_code == 0x01
        sock.close()

    def test_connect_timeout_unreachable(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            free_port = placeholder.getsockname()[1]
        config = ClientConfig(client_id="x", port=free_port, connect_timeout=0.5)
        with pytest.raises(ConnectTimeout):
            MqttgClient(config).connect()

    def test_not_connected_errors(self, broker):
        client = mk_client(broker, "c")
        client.disconnect()
        with pytest.raises(NotConnected):
            client.publish("t", b"x")
        client.disconnect()  # idempotent

    def test_client_rejects_bad_filter_locally(self, broker):
        client = mk_client(broker, "c")
        try:
            with pytest.raises(SubscriptionRefused):
                client.subscribe("a/#/b")
        finally:
            client.disconnect()

    def test_broker_grants_0x80_for_bad_filter_on_wire(self, broker):
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        sock.sendall(encode_packet(ControlPacket(Connect(client_id="raw", keep_alive=5))))
        assert decode_packet(read_frame(sock)).body.return_code == 0
        bad = "a/#/b".encode()
        body = b"\x00\x01" + len(bad).to_bytes(2, "big") + bad + b"\x00"
        sock.sendall(b"\x82" + encode_remaining_length(len(body)) + body)
        reply = decode_packet(read_frame(sock))
        assert isinstance(reply.body, Suback)
        assert reply.body.return_codes == (0x80,)
        sock.close()

    def test_garbage_bytes_close_connection(self, broker):
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        sock.sendall(b"\x00\x00")  # packet type 0
        assert read_frame(sock) is None  # broker hangs up
        sock.close()


class TestEventLog:
    def test_rows(self, broker):
        client = mk_client(broker, "truck-7", location=geo(49.0, -99.0, 400.0))
        client.publish("city/traffic", b"jam", qos=1)
        client.publish("city/traffic", b"jam2", qos=1)
        client.disconnect()
        time.sleep(0.3)
        rows = list(csv.reader(broker.log_buffer.getvalue().splitlines()))
        assert rows[0] == [
            "timestamp", "client_id", "event", "lat", "lon", "elev", "distance_m", "speed_kmh",
        ]
        events = [(r[1], r[2]) for r in rows[1:]]
        assert ("truck-7", "CONNECT") in events
        assert ("truck-7", "PUBLISH") in events
        assert ("truck-7", "DISCONNECT") in events
        connect_row = next(r for r in rows[1:] if r[2] == "CONNECT")
        assert connect_row[3] == "" and connect_row[7] == ""
        publish_row = next(r for r in rows[1:] if r[2] == "PUBLISH")
        assert float(publish_row[3]) == pytest.approx(49.0)
        assert float(publish_row[5]) == pytest.approx(400.0)
        disconnect_row = next(r for r in rows[1:] if r[2] == "DISCONNECT")
        assert float(disconnect_row[6]) == pytest.approx(0.0, abs=1e-6)  # stood still
