"""MQTTg client: connection lifecycle, geo-constrained subscribe, publish
with location, and inbound message dispatch.

With a location source the client samples it at packet-build time, and its
fix rides on every geo-capable packet the client emits (PUBLISHG, QoS-flow
acks, SUBSCRIBE, UNSUBSCRIBE, PINGREQ, DISCONNECT). A source that yields
nothing degrades the packet to its plain MQTT form. Without a source the
client is byte-identical to a baseline MQTT 3.1.1 client.
"""

from __future__ import annotations

import logging
import queue
import selectors
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from .codec import (
    Connack,
    Connect,
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
from .errors import (
    ConnectRefused,
    ConnectTimeout,
    DeliveryTimeout,
    MQTTgError,
    NotConnected,
    SubscriptionRefused,
)
from .netio import SocketBuffer, read_frame
from .topics import topic_filter_valid

logger = logging.getLogger("mqttg.client")


LocationSource = Callable[[], "GeoLocation | None"]


@dataclass
class ClientConfig:
    client_id: str
    host: str = "127.0.0.1"
    port: int = 1883
    keep_alive: int = 60
    location_source: LocationSource | None = None
    will: Will | None = None
    connect_timeout: float = 10.0

    def __post_init__(self) -> None:
        if not self.client_id:
            raise MQTTgError("client_id must be non-empty")
        if not 1 <= self.keep_alive <= 65535:
            raise MQTTgError(f"keep_alive must be in 1..65535 s, got {self.keep_alive}")


@dataclass(frozen=True)
class InboundMessage:
    topic: str
    payload: bytes
    qos: int
    publisher_geolocation: GeoLocation | None = None
    retain: bool = False


class _Flow:
    """One in-flight acknowledged exchange: the reply class it waits for,
    and that reply once it came (still None if the connection was lost)."""

    __slots__ = ("reply", "event", "body")

    def __init__(self, reply: type):
        self.reply = reply
        self.event = threading.Event()
        self.body = None


class MqttgClient:
    """A connected client handle; safe to share between threads. Its one
    thread reads the socket, and sends a PINGREQ once nothing has been sent
    for 0.75 x the keep-alive; if nothing arrives within 1.5 x the
    keep-alive of that ping, it closes the connection. Other threads only
    shut the socket down; the reader closes it when it ends."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self._sock: socket.socket | None = None
        self._reader: SocketBuffer | None = None
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._flows: dict[int, _Flow] = {}
        self._next_pid = 1
        self._inbound_qos2: dict[int, InboundMessage] = {}
        self._messages: queue.Queue[InboundMessage] = queue.Queue()
        self._connected = False
        self._last_send = 0.0

    # -- lifecycle ------------------------------------------------------------

    def connect(self) -> "MqttgClient":
        cfg = self.config
        try:
            sock = socket.create_connection((cfg.host, cfg.port), timeout=cfg.connect_timeout)
        except (socket.timeout, OSError) as exc:
            raise ConnectTimeout(f"cannot reach {cfg.host}:{cfg.port}: {exc}") from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        # one reader for the CONNACK and the reader loop, so that bytes
        # that arrive with the CONNACK stay in it
        self._reader = SocketBuffer(sock)
        # The broker keeps no session between connections, so every one is clean.
        body = Connect(client_id=cfg.client_id, keep_alive=cfg.keep_alive, will=cfg.will)
        try:
            self._send(ControlPacket(body))
            try:
                frame = read_frame(self._reader)
            except socket.timeout:
                raise ConnectTimeout("no CONNACK within the connect timeout") from None
            except BlockingIOError:  # a body longer than CHUNK is no CONNACK
                raise ConnectTimeout("expected CONNACK, got a longer packet") from None
            if frame is None:
                raise ConnectTimeout("connection closed before CONNACK")
            packet = decode_packet(frame)
            if not isinstance(packet.body, Connack):
                raise ConnectTimeout(f"expected CONNACK, got {packet.packet_type.name}")
            if packet.body.return_code != 0:
                raise ConnectRefused(packet.body.return_code)
        except BaseException:
            sock.close()
            raise
        sock.settimeout(None)
        self._connected = True
        threading.Thread(target=self._reader_loop, daemon=True, name="mqttg-reader").start()
        return self

    def disconnect(self) -> None:
        """Send DISCONNECT (with the final location, given a location
        source) and close. Idempotent."""
        with self._state_lock:
            was_connected = self._connected
            self._connected = False
        if was_connected:
            try:
                self._send(ControlPacket(Disconnect(), self._geo()))
            except OSError:
                pass
        self._shutdown()

    @property
    def connected(self) -> bool:
        return self._connected

    # -- outbound operations ----------------------------------------------------

    def publish(self, topic: str, payload: bytes | str = b"", qos: int = 0, retain: bool = False) -> None:
        """Publish; blocks until the QoS flow completes (PUBACK for QoS 1,
        PUBCOMP for QoS 2)."""
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        self._require_connected()
        if qos == 0:
            self._send(ControlPacket(Publish(topic, payload, 0, retain), self._geo()))
            return
        with self._acked_flow(PubAck if qos == 1 else PubRec) as (pid, flow):
            self._exchange(
                ControlPacket(Publish(topic, payload, qos, retain, packet_id=pid), self._geo()),
                flow,
                f"QoS {qos} publish to {topic!r}",
            )
            if qos == 2:
                # The pid stays reserved from PUBLISH through PUBCOMP.
                relflow = _Flow(PubComp)
                with self._state_lock:
                    self._flows[pid] = relflow
                self._exchange(
                    ControlPacket(PubRel(pid), self._geo()), relflow, f"QoS 2 release to {topic!r}"
                )

    def subscribe(
        self, topic: str, qos: int = 0, constraint: GeoConstraint | None = None
    ) -> int:
        """Subscribe one filter; returns the granted QoS."""
        if not topic_filter_valid(topic):
            raise SubscriptionRefused(f"invalid topic filter {topic!r}")
        self._require_connected()
        with self._acked_flow(Suback) as (pid, flow):
            self._exchange(
                ControlPacket(Subscribe(pid, (TopicFilter(topic, qos, constraint),)), self._geo()),
                flow,
                f"subscribe {topic!r}",
            )
        code = flow.body.return_codes[0]
        if code == 0x80:
            raise SubscriptionRefused(f"broker refused filter {topic!r}")
        return code

    def unsubscribe(self, topic: str) -> None:
        self._require_connected()
        with self._acked_flow(Unsuback) as (pid, flow):
            self._exchange(
                ControlPacket(Unsubscribe(pid, (topic,)), self._geo()),
                flow,
                f"unsubscribe {topic!r}",
            )

    def ping(self) -> None:
        """Send a keep-alive PINGREQ now (a location heartbeat, given a
        location source)."""
        self._require_connected()
        self._send(ControlPacket(Pingreq(), self._geo()))

    def receive(self, timeout: float | None = None) -> InboundMessage | None:
        """Next inbound message in arrival order, or None on timeout."""
        try:
            return self._messages.get(timeout=timeout)
        except queue.Empty:
            return None

    # -- internals ----------------------------------------------------------------

    def _geo(self) -> GeoLocation | None:
        source = self.config.location_source
        return None if source is None else source()

    def _require_connected(self) -> None:
        if not self._connected or self._sock is None:
            raise NotConnected("client is not connected")

    @contextmanager
    def _acked_flow(self, reply: type) -> Iterator[tuple[int, _Flow]]:
        """Reserve a packet id for one acknowledged exchange and register
        its flow; the id is freed when the exchange ends, however it ends."""
        flow = _Flow(reply)
        with self._state_lock:
            pid = self._alloc_pid()
            self._flows[pid] = flow
        try:
            yield pid, flow
        finally:
            with self._state_lock:
                self._flows.pop(pid, None)

    def _alloc_pid(self) -> int:
        """Next packet id not in flight (caller holds ``_state_lock``)."""
        for _ in range(65535):
            pid = self._next_pid
            self._next_pid = pid % 65535 + 1
            if pid not in self._flows:
                return pid
        raise DeliveryTimeout("no free packet identifiers")

    def _send(self, packet: ControlPacket) -> None:
        sock = self._sock
        if sock is None:
            raise NotConnected("client is not connected")
        data = encode_packet(packet)
        with self._send_lock:
            sock.sendall(data)
            self._last_send = time.monotonic()

    def _exchange(self, packet: ControlPacket, flow: _Flow, what: str) -> None:
        """Send ``packet`` once and await the flow's reply for 1.5 x the
        keep-alive, MQTT's deadline for a silent peer. TCP resends what the
        network loses, so nothing is resent in the session."""
        deadline = 1.5 * self.config.keep_alive
        self._send(packet)
        if not flow.event.wait(deadline):
            raise DeliveryTimeout(f"{what} unacknowledged after {deadline:g} s")
        if flow.body is None:
            raise NotConnected(f"connection lost during {what}")

    def _reader_loop(self) -> None:
        sock, reader = self._sock, self._reader
        keep_alive = self.config.keep_alive
        answer_by = float("inf")  # an unanswered PINGREQ closes the connection then
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(sock, selectors.EVENT_READ)
                while True:
                    while not reader.holds_frame():
                        now = time.monotonic()
                        if now >= answer_by:
                            logger.warning("no answer to PINGREQ in %g s; closing", 1.5 * keep_alive)
                            return
                        # a send from another thread moves the ping
                        due = self._last_send + 0.75 * keep_alive - now
                        if due <= 0:
                            self._send(ControlPacket(Pingreq(), self._geo()))
                            answer_by = min(answer_by, now + 1.5 * keep_alive)
                        elif selector.select(min(due, answer_by - now)):
                            break
                    try:
                        frame = read_frame(reader)
                    except BlockingIOError:
                        continue  # the rest of the body has not arrived yet
                    if frame is None:
                        break
                    answer_by = float("inf")
                    self._dispatch(decode_packet(frame))
        except (ConnectionError, OSError):
            pass
        except Exception:
            logger.exception("reader loop failed")
        finally:
            self._shutdown()
            sock.close()

    def _dispatch(self, packet: ControlPacket) -> None:
        body = packet.body
        if isinstance(body, Publish):
            message = InboundMessage(
                body.topic, body.payload, body.qos, packet.geolocation, body.retain
            )
            if body.qos == 0:
                self._messages.put(message)
            elif body.qos == 1:
                self._messages.put(message)
                self._send(ControlPacket(PubAck(body.packet_id), self._geo()))
            else:
                self._inbound_qos2[body.packet_id] = message
                self._send(ControlPacket(PubRec(body.packet_id), self._geo()))
        elif isinstance(body, PubRel):
            message = self._inbound_qos2.pop(body.packet_id, None)
            if message is not None:
                self._messages.put(message)
            self._send(ControlPacket(PubComp(body.packet_id), self._geo()))
        elif isinstance(body, (PubAck, PubRec, PubComp, Suback, Unsuback)):
            with self._state_lock:
                flow = self._flows.get(body.packet_id)
            if flow is not None and flow.reply is body.__class__:
                flow.body = body
                flow.event.set()
            else:
                logger.debug("stray %s for pid %d", packet.packet_type.name, body.packet_id)
        elif not isinstance(body, Pingresp):
            logger.warning("unexpected %s from broker", packet.packet_type.name)

    def _shutdown(self) -> None:
        self._connected = False
        with self._state_lock:
            flows = list(self._flows.values())
            self._flows.clear()
        for flow in flows:
            flow.event.set()
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

