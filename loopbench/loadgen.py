"""The load generator: one thread, one selectors loop, two MQTT connections.

The publisher and the subscriber are raw non-blocking sockets that speak
MQTTg through mqttg.codec; no MqttgClient, whose reader and keep-alive
threads would outnumber the cores. Publishes run as a closed loop with a
fixed number in flight: the next publish goes out when a flow completes,
that is when the publisher's QoS handshake has ended and, if the oracle
says the subscriber must get it, when the subscriber has received it and
finished its own handshake. Churn operations (subscribe, unsubscribe,
reconnect) run with nothing in flight, so the oracle knows the
subscriber's filters at every publish.
"""

from __future__ import annotations

import selectors
import socket
from itertools import cycle, islice
from time import monotonic, perf_counter_ns

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
    decode_packet,
    encode_packet,
)
from oracle import DeliveryChecker
from workloads import ELEVATION_M, PROBE_TOPIC, PUB_ID, SUB_ID, Workload, payload

PUBLISHG = 0xF
KINDS = {"inside": ConstraintKind.INSIDE_RADIUS, "outside": ConstraintKind.OUTSIDE_RADIUS}


def wire_filter(f) -> TopicFilter:
    """The SUBSCRIBE entry for an oracle filter."""
    circle = f.circle and GeoConstraint(KINDS[f.circle.kind], f.circle.radius_m, *f.circle.center)
    return TopicFilter(f.topic, f.qos, circle)


STALL_S = 10.0


class Stall(Exception):
    """No progress within STALL_S seconds: a delivery or reply is lost."""


class Conn:
    """A non-blocking MQTT connection that splits its input into frames."""

    def __init__(self, gen: "LoadGen", name: str, port: int):
        self.gen = gen
        self.name = name
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inbuf = bytearray()
        self.out = bytearray()
        self.closed = False
        gen.sel.register(self.sock, selectors.EVENT_READ, self)

    def send(self, data: bytes) -> None:
        if not self.out:
            try:
                sent = self.sock.send(data)
            except BlockingIOError:
                sent = 0
            if sent == len(data):
                return
            data = data[sent:]
            self.gen.sel.modify(self.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, self)
        self.out += data

    def ready(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE and self.out:
            sent = self.sock.send(self.out)
            del self.out[:sent]
            if not self.out:
                self.gen.sel.modify(self.sock, selectors.EVENT_READ, self)
        if mask & selectors.EVENT_READ:
            data = self.sock.recv(262144)
            now = perf_counter_ns()
            if not data:
                self.close()
                return
            buf = self.inbuf
            buf += data
            pos = 0
            while len(buf) - pos >= 2:
                length, mult, i = 0, 1, pos + 1
                while i < len(buf):
                    length += (buf[i] & 0x7F) * mult
                    mult *= 128
                    i += 1
                    if not buf[i - 1] & 0x80:
                        break
                else:
                    break  # the length itself is incomplete
                if i + length > len(buf):
                    break
                frame = bytes(buf[pos : i + length])
                pos = i + length
                self.gen.on_frame(self, frame, now)
            del buf[:pos]

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.gen.sel.unregister(self.sock)
            self.sock.close()


class LoadGen:
    def __init__(self, w: Workload, port: int):
        self.w = w
        self.port = port
        self.sel = selectors.DefaultSelector()
        self.checker = DeliveryChecker()
        self.errors: list[str] = []  # protocol faults no single publish owns
        self.replies: dict[tuple[str, type], int] = {}
        self.open: dict[int, int] = {}  # seq -> parts of its flow still running
        self.sub_waiting: set[int] = set()
        self.pub_pids: dict[int, int] = {}  # pid -> seq
        self.sub_rec: dict[int, int] = {}  # pid -> seq, QoS 2 awaiting PUBREL
        self.next_pid = 1
        self.sent_at: dict[int, int] = {}
        self.latencies_ns: list[int] = []
        self.timed_from: int | None = None
        self.timed_to: int | None = None
        self.completed = 0
        self.track: list[tuple[float, float]] = []  # every fix the publisher sent
        self.extra = False
        self.expect_cache: dict = {}
        self.sub_geo = self._geo(w.sub_at) if w.geo else None
        self.granted: tuple[int, ...] | None = None
        self.pub: Conn | None = None
        self.sub: Conn | None = None

    # -- event loop -----------------------------------------------------------

    def pump(self, done) -> None:
        deadline = monotonic() + STALL_S
        while not done():
            left = deadline - monotonic()
            if left <= 0:
                raise Stall(f"no progress for {STALL_S:.0f} s")
            for key, mask in self.sel.select(left):
                key.data.ready(mask)

    def request(self, conn: Conn, packet: ControlPacket, reply: type) -> None:
        key = (conn.name, reply)
        before = self.replies.get(key, 0)
        conn.send(encode_packet(packet))
        self.pump(lambda: self.replies.get(key, 0) > before)

    def close(self) -> None:
        for conn in (self.pub, self.sub):
            if conn is not None:
                conn.close()
        self.sel.close()

    # -- connections and subscriptions ----------------------------------------

    def connect(self, client_id: str) -> Conn:
        conn = Conn(self, client_id, self.port)
        self.request(conn, ControlPacket(Connect(client_id, keep_alive=60)), Connack)
        return conn

    def disconnect(self, conn: Conn) -> None:
        conn.send(encode_packet(ControlPacket(Disconnect())))
        self.pump(lambda: conn.closed)

    def subscribe(self, filters) -> None:
        self.granted = None
        packet = ControlPacket(Subscribe(self._pid(), tuple(map(wire_filter, filters))), self._geo(self.w.sub_at))
        self.request(self.sub, packet, Suback)
        if self.granted != tuple(f.qos for f in filters):
            self.errors.append(f"SUBACK {self.granted} for {[f.topic for f in filters]}")

    def unsubscribe(self, topic: str) -> None:
        packet = ControlPacket(Unsubscribe(self._pid(), (topic,)), self.sub_geo)
        self.request(self.sub, packet, Unsuback)

    def setup(self) -> None:
        """Connect, subscribe, and push one probe publish through the whole
        geo path (radius filter, static fence, QoS 1 delivery), checked
        like any other publish; then drop the probe filter and its fence."""
        self.pub = self.connect(PUB_ID)
        self.sub = self.connect(SUB_ID)
        self.subscribe(self.w.main_filters)
        self.subscribe((self.w.probe_filter,))
        self.publish(None, probe=True)
        self.drain()
        self.unsubscribe(PROBE_TOPIC)

    def reconnect_sub(self) -> None:
        self.disconnect(self.sub)
        self.sub = self.connect(SUB_ID)
        self.subscribe(self.w.main_filters)

    def barrier(self) -> None:
        """PINGREQ/PINGRESP on the publisher, then on the subscriber. Each
        connection is served in order, so after both replies every publish
        has been routed and every delivery is in the subscriber's stream."""
        for conn in (self.pub, self.sub):
            self.request(conn, ControlPacket(Pingreq()), Pingresp)

    def finish(self) -> None:
        """Barrier, flag what never arrived, and disconnect both clients."""
        self.barrier()
        self.checker.finish()
        self.disconnect(self.pub)
        self.disconnect(self.sub)

    # -- publishing -------------------------------------------------------------

    @staticmethod
    def _geo(at) -> GeoLocation:
        return GeoLocation(1, at[0], at[1], ELEVATION_M)

    def _pid(self) -> int:
        while True:
            pid = self.next_pid
            self.next_pid = pid % 65535 + 1
            if pid not in self.pub_pids:
                return pid

    def publish(self, fix: int | None, probe: bool = False) -> None:
        w = self.w
        key = (fix, self.extra, probe)
        expect = self.expect_cache.get(key)
        if expect is None:
            expect = self.expect_cache[key] = w.expect(fix, self.extra, probe)
        seq = self.checker.published
        topic, qos = (PROBE_TOPIC, 1) if probe else (w.topic, w.qos)
        at = w.route[0] if probe else (w.route[fix] if w.geo else None)
        data = payload(seq, w.payload_size)
        pid = self._pid() if qos else None
        frame = encode_packet(ControlPacket(Publish(topic, data, qos, packet_id=pid), at and self._geo(at)))
        self.checker.publish(seq, topic, data, expect)
        parts = (qos > 0) + expect.deliver
        if parts:
            self.open[seq] = parts
        else:
            self._flow_done(seq)
        if expect.deliver:
            self.sub_waiting.add(seq)
        if pid is not None:
            self.pub_pids[pid] = seq
        if at is not None and (not self.track or self.track[-1] != at):
            self.track.append(at)
        self.sent_at[seq] = perf_counter_ns()
        self.pub.send(frame)

    def _part_done(self, seq: int, now: int) -> None:
        left = self.open[seq] - 1
        if left:
            self.open[seq] = left
        else:
            del self.open[seq]
            self._flow_done(seq)

    def _flow_done(self, seq: int) -> None:
        self.sent_at.pop(seq, None)
        if self.timed_from is not None and seq >= self.timed_from:
            self.completed += 1

    def drain(self) -> None:
        self.pump(lambda: not self.open)

    def run_round(self) -> None:
        self.run_steps(len(self.w.steps))

    def run_steps(self, n: int) -> None:
        """The first n steps of the round schedule, repeated as needed."""
        w = self.w
        for kind, fix in islice(cycle(w.steps), n):
            if kind == "pub":
                if len(self.open) >= w.window:
                    self.pump(lambda: len(self.open) < w.window)
                self.publish(fix)
                continue
            self.drain()
            if kind == "sub_extra":
                self.subscribe((w.extra_filter,))
                self.extra = True
            elif kind == "unsub_extra":
                self.unsubscribe(w.extra_filter.topic)
                self.extra = False
            elif kind == "reconnect":
                self.reconnect_sub()

    # -- inbound frames ---------------------------------------------------------

    def on_frame(self, conn: Conn, frame: bytes, now: int) -> None:
        packet = decode_packet(frame)
        body = packet.body
        if conn is self.sub and isinstance(body, Publish):
            self._delivered(frame, body, now)
        elif conn is self.sub and isinstance(body, PubRel):
            seq = self.sub_rec.pop(body.packet_id, None)
            self.sub.send(encode_packet(ControlPacket(PubComp(body.packet_id), self.sub_geo)))
            if seq is None:
                self.errors.append(f"PUBREL for unknown pid {body.packet_id}")
            elif seq in self.sub_waiting:
                self.sub_waiting.discard(seq)
                self._part_done(seq, now)
        elif conn is self.pub and isinstance(body, (PubAck, PubComp)):
            seq = self.pub_pids.pop(body.packet_id, None)
            if seq is None:
                self.errors.append(f"{type(body).__name__} for unknown pid {body.packet_id}")
            else:
                self._part_done(seq, now)
        elif conn is self.pub and isinstance(body, PubRec):
            if body.packet_id not in self.pub_pids:
                self.errors.append(f"PUBREC for unknown pid {body.packet_id}")
            at = self.track[-1] if self.w.geo else None
            conn.send(encode_packet(ControlPacket(PubRel(body.packet_id), at and self._geo(at))))
        else:
            if isinstance(body, Suback):
                self.granted = body.return_codes
            key = (conn.name, type(body))
            self.replies[key] = self.replies.get(key, 0) + 1

    def _delivered(self, frame: bytes, body: Publish, now: int) -> None:
        data = body.payload
        seq = int.from_bytes(data[:8], "big")
        geo = None
        if frame[0] >> 4 == PUBLISHG:
            at = 1
            while frame[at] & 0x80:
                at += 1
            at += 3 + len(body.topic.encode("utf-8")) + (2 if body.qos else 0)
            geo = frame[at : at + 21]
        ok = self.checker.deliver(seq, body.topic, body.qos, data, geo)
        if ok and self.timed_from is not None and seq >= self.timed_from:
            self.latencies_ns.append(now - self.sent_at[seq])
        self.sent_at.pop(seq, None)
        if body.qos == 1:
            self.sub.send(encode_packet(ControlPacket(PubAck(body.packet_id), self.sub_geo)))
        elif body.qos == 2:
            self.sub_rec[body.packet_id] = seq
            self.sub.send(encode_packet(ControlPacket(PubRec(body.packet_id), self.sub_geo)))
            return
        if seq in self.sub_waiting:
            self.sub_waiting.discard(seq)
            self._part_done(seq, now)
