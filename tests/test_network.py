"""End-to-end broker/client tests over real TCP connections."""

import csv
import gc
import socket
import sys
import threading
import time
import warnings

import pytest

import mqttg.broker as broker_module
from mqttg.broker import Broker, admin_request
from mqttg.client import ClientConfig, InboundMessage, MqttgClient
from mqttg.codec import (
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
    Will,
    decode_packet,
    encode_packet,
    encode_remaining_length,
)
from mqttg.errors import ConnectTimeout, MQTTgError, NotConnected, SubscriptionRefused
from mqttg.eventlog import EventLog

from rawsock import read_frame
from test_eventlog import FlushedText
from test_geo import BAD_OFFSETS


def mk_client(broker, client_id, location=None, **kw):
    source = None
    if location is not None:
        holder = location if isinstance(location, list) else [location]
        source = lambda: holder[0]
    config = ClientConfig(
        client_id=client_id,
        host="127.0.0.1",
        port=broker.port,
        location_source=source,
        connect_timeout=5.0,
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

    def test_admin_line_that_is_not_utf8_gets_err_and_the_connection_serves_on(
        self, broker, monkeypatch
    ):
        caught = []
        monkeypatch.setattr(threading, "excepthook", caught.append)
        with socket.create_connection(("127.0.0.1", broker.admin_port), timeout=5.0) as sock:
            # One send: the second line must survive the reply to the first.
            sock.sendall(b"DUMP-\xffLOCATIONS\nDUMP-LOCATIONS\n")
            with sock.makefile("rb") as fh:
                assert fh.readline().startswith(b"ERR unknown command")
                assert fh.readline() == b"OK\n"
        assert caught == []

    def test_admin_arguments_that_are_not_utf8_get_err_and_store_nothing(self, broker):
        fence = b" t static 1,1 1,-1 -1,-1\n"
        with socket.create_connection(("127.0.0.1", broker.admin_port), timeout=5.0) as sock:
            sock.sendall(b"ADD-FENCE own\xff" + fence + b"ADD-FENCE own\xfe" + fence + b"DUMP-LOCATIONS\n")
            with sock.makefile("rb") as fh:
                assert fh.readline() == b"ERR line is not UTF-8 at byte 13\n"
                assert fh.readline() == b"ERR line is not UTF-8 at byte 13\n"
                assert fh.readline() == b"OK\n"
        assert not broker.state.fences

    @pytest.mark.parametrize("offsets, error", BAD_OFFSETS.values(), ids=BAD_OFFSETS)
    def test_admin_refuses_a_bad_dynamic_fence(self, broker, offsets, error):
        spec = " ".join(f"{dlat},{dlon}" for dlat, dlon in offsets)
        line = f"ADD-FENCE own t dynamic anchor {spec}"
        assert admin_request("127.0.0.1", broker.admin_port, line) == [f"ERR {error}"]
        assert not broker.state.fences

    @pytest.mark.parametrize("line", ["", " \t "], ids=["empty", "whitespace"])
    def test_a_blank_admin_request_fails_without_connecting(self, line):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            started = time.monotonic()
            with pytest.raises(MQTTgError, match="blank"):
                admin_request("127.0.0.1", listener.getsockname()[1], line, timeout=2.0)
            assert time.monotonic() - started < 0.5
            listener.settimeout(0.1)
            with pytest.raises((TimeoutError, socket.timeout)):
                listener.accept()

    def test_an_admin_request_that_times_out_closes_its_socket(self, monkeypatch):
        """The caught exception's traceback still holds the call's frame:
        the socket it opened must be closed all the same, not left to the
        garbage collector."""
        opened = []

        def create_connection(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        connect = socket.create_connection
        monkeypatch.setattr(socket, "create_connection", create_connection)
        with socket.create_server(("127.0.0.1", 0)) as listener:  # it never answers
            with pytest.raises((TimeoutError, socket.timeout)) as timed_out:
                admin_request("127.0.0.1", listener.getsockname()[1], "DUMP-LOCATIONS", timeout=0.3)
            assert timed_out.value.__traceback__ is not None
            assert [sock.fileno() for sock in opened] == [-1]

    def test_an_admin_line_past_the_limit_gets_err_and_eof(self, broker):
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", broker.admin_port), timeout=1.0) as sock:
            try:
                sock.sendall(b"X" * (1 << 20))
            except OSError:
                pass  # the broker may end the connection before it has all of it
            with sock.makefile("rb") as fh:
                assert fh.readline() == b"ERR line too long\n"
                assert fh.read() == b""
        assert time.monotonic() - started < 1.0
        assert admin_request("127.0.0.1", broker.admin_port, "DUMP-LOCATIONS") == ["OK"]

    def test_a_dump_ends_only_at_its_ok(self):
        broker = Broker(host="127.0.0.1", port=0, admin_host="127.0.0.1", admin_port=0,
                        event_log=EventLog(()))
        for client_id in ("ERRAND", "OK", "ERR"):
            broker.state.update_last_location(client_id, geo(1.0, 2.0), 0.0)
        broker.start()
        try:
            lines = admin_request("127.0.0.1", broker.admin_port, "dump-locations")
            assert admin_request("127.0.0.1", broker.admin_port, "CLEAR-FENCE OK t") == ["OK 0"]
        finally:
            broker.stop()
        assert [line.split()[0] for line in lines] == ["ERR", "ERRAND", "OK", "OK"]
        assert lines[-1] == "OK" and all(len(line.split()) == 7 for line in lines[:-1])


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
        # The loop is held inside a third connection's frame while the new
        # CONNECT and then the old connection's located packet arrive, so
        # one round decides both, in the order they became ready.
        last = encode_packet(ControlPacket(Pingreq(), geo(45.0, 45.0)))
        hold = encode_packet(ControlPacket(Pingreq()))
        held, release = threading.Event(), threading.Event()
        decode = broker_module.decode_packet

        def held_decode(frame):
            if frame == hold:
                held.set()
                release.wait(5.0)
            return decode(frame)

        monkeypatch.setattr(broker_module, "decode_packet", held_decode)
        socks = [socket.create_connection(("127.0.0.1", broker.port), timeout=3.0) for _ in range(3)]
        old, new, holder = socks
        try:
            for sock, cid in ((old, "dup"), (holder, "holder")):
                sock.sendall(encode_packet(ControlPacket(Connect(client_id=cid, keep_alive=5))))
                assert decode_packet(read_frame(sock)).body.return_code == 0
            holder.sendall(hold)
            assert held.wait(3.0)
            new.sendall(encode_packet(ControlPacket(Connect(client_id="dup", keep_alive=5))))
            old.sendall(last)
            release.set()
            assert decode_packet(read_frame(new)).body.return_code == 0
            assert decode_packet(read_frame(holder)).body == Pingresp()
            assert "dup" not in broker.state.locations
            assert not broker.state.sessions["dup"].geo_capable
            rows = list(csv.reader(broker.log_buffer.getvalue().splitlines()))
            assert [r for r in rows if r[1] == "dup" and r[2] == "LOCATION"] == []
        finally:
            release.set()
            for sock in socks:
                sock.close()

    def test_takeover_logs_the_first_connect_before_its_disconnect(self, broker, monkeypatch):
        # The loop is held inside a third connection's frame while both
        # CONNECTs arrive, so one round decides both: the takeover's
        # DISCONNECT row must still fall between the two CONNECT rows.
        hold = encode_packet(ControlPacket(Pingreq()))
        held, release = threading.Event(), threading.Event()
        decode = broker_module.decode_packet

        def held_decode(frame):
            if frame == hold:
                held.set()
                release.wait(5.0)
            return decode(frame)

        monkeypatch.setattr(broker_module, "decode_packet", held_decode)
        socks = [socket.create_connection(("127.0.0.1", broker.port), timeout=3.0) for _ in range(3)]
        first, second, holder = socks
        try:
            holder.sendall(encode_packet(ControlPacket(Connect(client_id="holder", keep_alive=5))))
            assert decode_packet(read_frame(holder)).body.return_code == 0
            holder.sendall(hold)
            assert held.wait(3.0)
            for sock in (first, second):
                sock.sendall(encode_packet(ControlPacket(Connect(client_id="x", keep_alive=5))))
            release.set()
            assert decode_packet(read_frame(second)).body.return_code == 0
            assert decode_packet(read_frame(holder)).body == Pingresp()
            rows = list(csv.reader(broker.log_buffer.getvalue().splitlines()))
            assert [r[2] for r in rows if r[1] == "x"] == ["CONNECT", "DISCONNECT", "CONNECT"]
        finally:
            release.set()
            for sock in socks:
                sock.close()

    def test_takeover_storm_pairs_each_connect_with_one_disconnect(self, broker):
        rounds, workers = 10, 6

        def storm():
            for _ in range(rounds):
                with socket.create_connection(("127.0.0.1", broker.port), timeout=3.0) as sock:
                    sock.sendall(encode_packet(ControlPacket(Connect(client_id="x", keep_alive=5))))
                    try:
                        read_frame(sock)  # its CONNACK, or EOF once taken over
                    except OSError:
                        pass

        threads = [threading.Thread(target=storm) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        deadline = time.monotonic() + 3.0
        while broker.state.clients and time.monotonic() < deadline:
            time.sleep(0.05)
        assert broker.state.clients == {} and "x" not in broker.state.sessions
        rows = list(csv.reader(broker.log_buffer.getvalue().splitlines()))
        assert [r[2] for r in rows if r[1] == "x"] == ["CONNECT", "DISCONNECT"] * (rounds * workers)

    def test_subscriber_that_stops_reading_is_closed_and_its_will_published(self, broker):
        """A subscriber that pings but never reads: the first write to it
        that times out (1.5 x keep-alive) closes it and publishes its will,
        so the publisher is held once, not once per copy."""
        watcher = mk_client(broker, "watcher")
        pub = mk_client(broker, "pub")
        slow = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        stop = threading.Event()

        def ping():
            while not stop.wait(0.4):
                try:
                    slow.sendall(encode_packet(ControlPacket(Pingreq())))
                except OSError:
                    return

        pinger = threading.Thread(target=ping, daemon=True)
        try:
            watcher.subscribe("will/slow")
            will = Will("will/slow", b"gone")
            slow.sendall(encode_packet(ControlPacket(Connect(client_id="slow", keep_alive=1, will=will))))
            assert decode_packet(read_frame(slow)).body.return_code == 0
            slow.sendall(encode_packet(ControlPacket(Subscribe(1, (TopicFilter("big", 0),)))))
            assert decode_packet(read_frame(slow)).body == Suback(1, (0,))
            pinger.start()
            payload = bytes(200_000)
            deadline = time.monotonic() + 10.0
            message = None
            while message is None and time.monotonic() < deadline:
                pub.publish("big", payload)
                message = watcher.receive(timeout=0)
            if message is None:
                message = watcher.receive(timeout=max(0.0, deadline - time.monotonic()))
            assert message is not None and message.payload == b"gone"
            started = time.monotonic()
            for _ in range(5):
                pub.publish("big", payload, qos=1)  # returns once the broker has routed it
            assert time.monotonic() - started < 1.5
        finally:
            stop.set()
            if pinger.is_alive():
                pinger.join(3.0)
            slow.close()
            pub.disconnect()
            watcher.disconnect()

    def test_a_slow_consumer_without_keep_alive_cannot_wedge_the_publisher(self, broker):
        """A keep_alive=0 subscriber that stops reading has no deadline: the
        bound on its queue closes it and publishes its will, and the
        publisher's QoS 1 publishes keep completing. Every wait is bounded."""
        watcher = mk_client(broker, "watcher")
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(3.0)
        slow.connect(("127.0.0.1", broker.port))
        pub = socket.create_connection(("127.0.0.1", broker.port), timeout=5.0)
        try:
            watcher.subscribe("will/slow")
            will = Will("will/slow", b"gone")
            slow.sendall(encode_packet(ControlPacket(Connect(client_id="slow", keep_alive=0, will=will))))
            assert decode_packet(read_frame(slow)).body.return_code == 0
            slow.sendall(encode_packet(ControlPacket(Subscribe(1, (TopicFilter("big", 0),)))))
            assert decode_packet(read_frame(slow)).body == Suback(1, (0,))
            pub.sendall(encode_packet(ControlPacket(Connect(client_id="pub", keep_alive=0))))
            assert decode_packet(read_frame(pub)).body.return_code == 0
            big = encode_packet(ControlPacket(Publish("big", bytes(64_000))))
            deadline = time.monotonic() + 20.0
            message, pid = None, 0
            while message is None and time.monotonic() < deadline:
                pub.sendall(big * 16)  # bounded by the socket timeout, as is each read
                pid += 1
                pub.sendall(encode_packet(ControlPacket(Publish("acked", b"x", 1, packet_id=pid))))
                assert decode_packet(read_frame(pub)).body == PubAck(pid)
                message = watcher.receive(timeout=0)
            assert message is not None and message.payload == b"gone"
            started = time.monotonic()
            for _ in range(5):
                pid += 1
                pub.sendall(big + encode_packet(ControlPacket(Publish("big", b"x", 1, packet_id=pid))))
                assert decode_packet(read_frame(pub)).body == PubAck(pid)
            assert time.monotonic() - started < 1.5
        finally:
            slow.close()
            pub.close()
            watcher.disconnect()

    def test_resent_qos2_publish_is_routed_once(self, broker):
        sub = mk_client(broker, "sub")
        raw = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            sub.subscribe("t", qos=0)
            raw.sendall(encode_packet(ControlPacket(Connect(client_id="raw", keep_alive=5))))
            assert decode_packet(read_frame(raw)).body.return_code == 0
            for payload, dup in ((b"first", False), (b"first", True)):
                raw.sendall(encode_packet(ControlPacket(Publish("t", payload, 2, dup=dup, packet_id=7))))
                assert decode_packet(read_frame(raw)).body == PubRec(7)
            raw.sendall(encode_packet(ControlPacket(PubRel(7))))
            assert decode_packet(read_frame(raw)).body == PubComp(7)
            raw.sendall(encode_packet(ControlPacket(Publish("t", b"second", 2, packet_id=7))))
            assert decode_packet(read_frame(raw)).body == PubRec(7)
            assert sub.receive(timeout=3.0).payload == b"first"
            assert sub.receive(timeout=3.0).payload == b"second"
            assert sub.receive(timeout=0.3) is None
        finally:
            raw.close()
            sub.disconnect()

    def test_subscriber_out_of_packet_ids_misses_only_its_copy(self, broker):
        full = mk_client(broker, "full")
        other = mk_client(broker, "other")
        pub = mk_client(broker, "pub")
        try:
            full.subscribe("t", qos=1)
            other.subscribe("t", qos=1)
            broker.state.sessions["full"].outbound = set(range(1, 65536))
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

    def test_a_retained_will_is_stored_only_without_disconnect(self, broker):
        """A connection that ends without DISCONNECT stores its retained
        will; a later subscriber gets it retained, with no geolocation
        although its publisher had one. A DISCONNECT stores nothing."""
        watcher = mk_client(broker, "watcher")
        try:
            watcher.subscribe("will/#", qos=1)
            polite = mk_client(broker, "polite", will=Will("will/polite", b"bye", retain=True))
            polite.disconnect()
            doomed = mk_client(
                broker, "doomed", location=geo(1.0, 2.0), will=Will("will/doomed", b"gone", 1, True)
            )
            doomed.ping()
            doomed._sock.shutdown(socket.SHUT_RDWR)  # crash: no DISCONNECT packet
            live = watcher.receive(timeout=3.0)
            assert (live.topic, live.payload, live.retain) == ("will/doomed", b"gone", False)
            late = mk_client(broker, "late")
            try:
                late.subscribe("will/#", qos=1)
                message = late.receive(timeout=3.0)
                assert message == InboundMessage("will/doomed", b"gone", 1, None, retain=True)
                assert late.receive(timeout=0.4) is None  # nothing from "polite"
            finally:
                late.disconnect()
            assert watcher.receive(timeout=0.1) is None
        finally:
            watcher.disconnect()

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


class FakeSelector:
    """Records what a connection is registered for."""

    def __init__(self) -> None:
        self.events: dict[object, int] = {}

    def modify(self, sock, events, data) -> None:
        self.events[sock] = events

    def unregister(self, sock) -> None:
        self.events.pop(sock, None)


def unstarted_broker() -> Broker:
    """A broker whose write step can be driven without a loop."""
    broker = Broker(host="127.0.0.1", port=0, admin_port=None, event_log=EventLog(()))
    broker._selector = FakeSelector()
    return broker


def frames(*bodies, geolocation=None) -> bytes:
    return b"".join(encode_packet(ControlPacket(body, geolocation)) for body in bodies)


class TestBatchedFrames:
    """Frames that arrive in one segment are decided one by one and their
    writes sent together, in the order they were decided."""

    def test_a_publish_cut_short_holds_no_other_client(self, broker):
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub")
        raw = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            sub.subscribe("t", qos=1)
            raw.sendall(encode_packet(ControlPacket(Connect(client_id="raw", keep_alive=60))))
            assert decode_packet(read_frame(raw)).body.return_code == 0
            cut = encode_packet(ControlPacket(Publish("t", bytes(10_000))))
            raw.sendall(cut[:1024])  # the header and 1 kB of the body, then nothing
            time.sleep(0.1)
            started = time.monotonic()
            pub.publish("t", b"through", qos=1)  # returns once the PUBACK arrives
            assert sub.receive(timeout=1.0).payload == b"through"
            assert time.monotonic() - started < 1.0
        finally:
            raw.close()
            pub.disconnect()
            sub.disconnect()

    def test_four_publishes_in_one_segment_arrive_in_order(self, broker):
        sub = mk_client(broker, "sub")
        raw = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            sub.subscribe("t")
            publishes = [Publish("t", b"m%d" % i) for i in range(4)]
            raw.sendall(frames(Connect(client_id="raw", keep_alive=5), *publishes))
            assert decode_packet(read_frame(raw)).body.return_code == 0
            assert [sub.receive(timeout=3.0).payload for _ in range(4)] == [b"m0", b"m1", b"m2", b"m3"]
            assert sub.receive(timeout=0.3) is None
        finally:
            raw.close()
            sub.disconnect()

    def test_a_publish_before_malformed_bytes_is_delivered_then_the_will(self, broker):
        sub = mk_client(broker, "sub")
        raw = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            sub.subscribe("t")
            sub.subscribe("will/raw")
            connect = Connect(client_id="raw", keep_alive=5, will=Will("will/raw", b"gone"))
            raw.sendall(frames(connect, Publish("t", b"before")) + b"\x00\x00")
            assert decode_packet(read_frame(raw)).body.return_code == 0
            assert read_frame(raw) is None  # the broker hangs up
            assert sub.receive(timeout=3.0).payload == b"before"
            assert sub.receive(timeout=3.0).payload == b"gone"
        finally:
            raw.close()
            sub.disconnect()

    def test_nothing_after_a_disconnect_is_routed_and_no_will_is_sent(self, broker):
        sub = mk_client(broker, "sub")
        raw = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            sub.subscribe("t")
            sub.subscribe("will/raw")
            connect = Connect(client_id="raw", keep_alive=5, will=Will("will/raw", b"gone"))
            raw.sendall(frames(connect, Publish("t", b"first"), Disconnect(), Publish("t", b"last")))
            assert decode_packet(read_frame(raw)).body.return_code == 0
            assert read_frame(raw) is None
            assert sub.receive(timeout=3.0).payload == b"first"
            assert sub.receive(timeout=0.5) is None
        finally:
            raw.close()
            sub.disconnect()

    def test_a_run_of_writes_to_one_connection_is_one_send(self):
        done = []

        class Sock:
            def __init__(self, name, fail=False):
                self.name, self.fail = name, fail

            def send(self, data):
                if self.fail:
                    raise OSError("broken pipe")
                done.append((self.name, bytes(data)))
                return len(data)

            def shutdown(self, how):
                pass

            def close(self):
                done.append((self.name, None))

        broker = unstarted_broker()
        a, b, c = (broker_module._Conn(Sock(n, n == "c"), n, None, None, 0.0, 0.0) for n in "abc")
        broker._conns.update((a, b, c))
        broker._write([
            (a, b"1"), (a, b"2"), (b, b"3"), (a, b"4"), (a, None), (a, None), (a, b"5"),
            (c, b"6"), (c, b"7"), (b, b"8"),
        ])
        # a closed connection is closed once and sent nothing more
        assert done == [("a", b"12"), ("b", b"3"), ("a", b"4"), ("a", None), ("c", None), ("b", b"8")]

    def test_a_publish_row_is_flushed_before_its_puback_is_sent(self):
        stream = FlushedText()
        broker = Broker(host="127.0.0.1", port=0, admin_port=None, event_log=EventLog([stream]))
        broker.start()
        raw = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            raw.sendall(frames(Connect(client_id="raw", keep_alive=5), Publish("t", b"x", 1, packet_id=9)))
            assert decode_packet(read_frame(raw)).body.return_code == 0
            assert decode_packet(read_frame(raw)).body == PubAck(9)
            rows = list(csv.reader(stream.flushed.splitlines()))
            assert [r[1:3] for r in rows[1:]] == [["raw", "CONNECT"], ["raw", "PUBLISH"]]
        finally:
            raw.close()
            broker.stop()


class TestStop:
    """stop() ends what start() started, and returns only then."""

    def test_a_start_that_cannot_bind_the_admin_port_leaves_no_socket_open(self):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with socket.socket() as probe:  # a client port that is free now
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        broker = Broker(host="127.0.0.1", port=port, admin_host="127.0.0.1",
                        admin_port=taken.getsockname()[1], event_log=EventLog(()))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(OSError):
                    broker.start()
                gc.collect()
        finally:
            taken.close()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=2.0).close()

    @staticmethod
    def started(events=None):
        broker = Broker(host="127.0.0.1", port=0, admin_host="127.0.0.1", admin_port=0,
                        event_log=EventLog(events or ()))
        broker.start()
        return broker

    def test_after_stop_no_port_accepts_and_no_accept_thread_is_left(self):
        broker = self.started()
        ports = broker.port, broker.admin_port
        broker.stop()
        for port in ports:
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=2.0).close()
        with pytest.raises(OSError):
            admin_request("127.0.0.1", ports[1], "ADD-FENCE sub t static 1,1 1,-1 -1,-1 -1,1")
        assert broker.state.fences == {}
        assert not broker._thread.is_alive()

    def test_stop_ends_connections_that_sent_nothing(self):
        broker = self.started()
        raws = [socket.create_connection(("127.0.0.1", port), timeout=3.0)
                for port in (broker.port, broker.admin_port)]
        try:
            time.sleep(0.2)  # each connection's thread is reading by now
            broker.stop()
            for raw in raws:
                raw.settimeout(2.0)
                assert raw.recv(1) == b""  # EOF now, not at the CONNECT timeout
        finally:
            for raw in raws:
                raw.close()

    def test_when_stop_returns_the_log_holds_every_disconnect_row(self):
        class SlowText(FlushedText):
            """Each row takes a while to write, so the connections' threads
            are still writing their DISCONNECT rows after the shutdowns."""

            def write(self, text):
                time.sleep(0.02)
                return super().write(text)

        stream = SlowText()
        broker = self.started([stream])
        clients = [mk_client(broker, f"c{i}") for i in range(5)]
        try:
            broker.stop()
            rows = list(csv.reader(stream.flushed.splitlines()))
            assert sorted(r[1] for r in rows if r[2] == "DISCONNECT") == [f"c{i}" for i in range(5)]
        finally:
            for client in clients:
                client.disconnect()


    def test_stop_wakes_the_loop_before_the_loop_can_end(self):
        """A loop that ends closes its end of the wake pair, so stop() must
        send the wake byte while the loop still runs. Here the send waits
        for the loop to end, if it would end by itself within two sweeps."""

        class LateWake:
            def __init__(self, sock, thread):
                self.sock, self.thread = sock, thread

            def send(self, data):
                self.thread.join(2 * broker_module.SWEEP_S)
                return self.sock.send(data)

            def close(self):
                self.sock.close()

        broker = self.started()
        broker._wake = LateWake(broker._wake, broker._thread)
        broker.stop()  # the send raised BrokenPipeError when it came after the flag
        assert not broker._thread.is_alive()


class TestOneThread:
    """The broker is one thread running one loop."""

    def test_start_adds_one_thread_and_stop_leaves_none(self):
        before = set(threading.enumerate())
        broker = TestStop.started()
        raws = [socket.create_connection(("127.0.0.1", port), timeout=3.0)
                for port in (broker.port, broker.admin_port)]
        try:
            raws[0].sendall(encode_packet(ControlPacket(Connect(client_id="c", keep_alive=5))))
            assert decode_packet(read_frame(raws[0])).body.return_code == 0
            assert admin_request("127.0.0.1", broker.admin_port, "DUMP-LOCATIONS") == ["OK"]
            assert set(threading.enumerate()) - before == {broker._thread}
            broker.stop()
            assert not broker._thread.is_alive()
            started = time.monotonic()
            broker.stop()  # a second stop returns at once
            assert time.monotonic() - started < 0.1
        finally:
            for raw in raws:
                raw.close()

    def test_stop_without_start_only_flushes(self):
        stream = FlushedText()
        broker = Broker(host="127.0.0.1", port=0, admin_port=0, event_log=EventLog([stream]))
        broker.state.events.emit("c", "CONNECT")
        broker.stop()
        assert stream.flushed.splitlines()[-1].split(",")[1:3] == ["c", "CONNECT"]
        assert broker._thread is None

    def test_a_broker_never_started_leaves_no_socket(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            broker = Broker(host="127.0.0.1", port=0, admin_port=0, event_log=EventLog(()))
            del broker
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestLargeWrites:
    """Any one write is queued whole, however large: OUT_LIMIT bounds what
    a write may add to bytes already queued."""

    def test_a_publish_past_the_queue_bound_reaches_a_reading_subscriber(self, broker):
        sub = mk_client(broker, "sub")
        pub = mk_client(broker, "pub")
        try:
            sub.subscribe("big", qos=1)
            # more than the bound and a socket buffer together
            payload = bytes(range(256)) * (2 * broker_module.OUT_LIMIT // 256)
            pub.publish("big", payload, qos=1)
            message = sub.receive(timeout=10.0)
            assert message is not None and message.payload == payload
        finally:
            pub.disconnect()
            sub.disconnect()

    def test_a_dump_past_the_queue_bound_arrives_whole(self, monkeypatch):
        monkeypatch.setattr(broker_module, "OUT_LIMIT", 4096)
        broker = Broker(host="127.0.0.1", port=0, admin_host="127.0.0.1", admin_port=0,
                        event_log=EventLog(()))
        for i in range(1000):
            broker.state.update_last_location(f"c{i:04d}", geo(i / 100, -i / 100), 0.0)
        broker.start()
        try:
            lines = admin_request("127.0.0.1", broker.admin_port, "DUMP-LOCATIONS")
        finally:
            broker.stop()
        assert [line.split()[0] for line in lines] == [f"c{i:04d}" for i in range(1000)] + ["OK"]
        assert sum(len(line) + 1 for line in lines) > 4096


class FailingFlush(FlushedText):
    """A stream whose flushes fail once ``broken`` is set."""

    broken = False

    def flush(self) -> None:
        if self.broken:
            raise OSError("no space left on device")
        super().flush()


class TestARoundThatFails:
    def test_a_log_that_cannot_flush_drops_no_reply_and_no_will(self):
        stream = FailingFlush()
        broker = Broker(host="127.0.0.1", port=0, admin_port=None, event_log=EventLog([stream]))
        stream.broken = True
        broker.start()
        watcher = None
        raw = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            watcher = mk_client(broker, "watcher")  # its CONNACK is sent
            watcher.subscribe("will/raw")
            raw.sendall(frames(Connect(client_id="raw", keep_alive=5, will=Will("will/raw", b"gone"))))
            assert decode_packet(read_frame(raw)).body.return_code == 0
            raw.close()  # ended: its session released, its will published
            message = watcher.receive(timeout=3.0)
            assert message is not None and message.payload == b"gone"
        finally:
            raw.close()
            if watcher is not None:
                watcher.disconnect()
            stream.broken = False
            broker.stop()


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
