"""MQTTg client: connection lifecycle, geo-attach policy, geo-constrained
subscribe, publish with location, and inbound message dispatch.

In AttachAll mode the location source is sampled at packet-build time and
its fix rides on every geo-capable packet the client emits (PUBLISHG,
QoS-flow acks, SUBSCRIBE, UNSUBSCRIBE, PINGREQ, DISCONNECT). A source
that yields nothing degrades the packet to its plain MQTT form. In Off
mode the client is byte-identical to a baseline MQTT 3.1.1 client.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
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
    NotConnected,
    SubscriptionRefused,
)
from .netio import read_frame
from .topics import topic_filter_valid

logger = logging.getLogger("mqttg.client")


class GeoMode(Enum):
    OFF = "off"
    ATTACH_ALL = "attach_all"


LocationSource = Callable[[], "GeoLocation | None"]


@dataclass
class ClientConfig:
    client_id: str
    host: str = "127.0.0.1"
    port: int = 1883
    keep_alive: int = 60
    geo_mode: GeoMode = GeoMode.OFF
    location_source: LocationSource | None = None
    clean_session: bool = True
    will: Will | None = None
    connect_timeout: float = 10.0
    retry_interval: float = 1.0  # doubles per attempt
    max_retries: int = 5

    def __post_init__(self) -> None:
        if not self.client_id:
            raise ValueError("client_id must be non-empty")
        if self.keep_alive <= 0:
            raise ValueError("keep_alive must be > 0")


@dataclass(frozen=True)
class InboundMessage:
    topic: str
    payload: bytes
    qos: int
    publisher_geolocation: GeoLocation | None = None
    retain: bool = False


class _Flow:
    """One in-flight acknowledged exchange."""

    __slots__ = ("stage", "event", "failed", "payload")

    def __init__(self, stage: str):
        self.stage = stage
        self.event = threading.Event()
        self.failed = False
        self.payload: object = None

    def finish(self, payload: object = None) -> None:
        self.payload = payload
        self.event.set()

    def fail(self) -> None:
        self.failed = True
        self.event.set()


class MqttgClient:
    """A connected client handle; safe to share between threads."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._flows: dict[int, _Flow] = {}
        self._next_pid = 1
        self._inbound_qos2: dict[int, InboundMessage] = {}
        self._messages: queue.Queue[InboundMessage] = queue.Queue()
        self._connected = False
        self._stop = threading.Event()
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
        body = Connect(
            client_id=cfg.client_id,
            clean_session=cfg.clean_session,
            keep_alive=cfg.keep_alive,
            will=cfg.will,
        )
        try:
            self._send(ControlPacket(body))
            try:
                frame = read_frame(sock)
            except socket.timeout:
                raise ConnectTimeout("no CONNACK within the connect timeout") from None
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
        threading.Thread(target=self._keepalive_loop, daemon=True, name="mqttg-keepalive").start()
        return self

    def disconnect(self) -> None:
        """Send DISCONNECT (with the final location under AttachAll) and
        close. Idempotent."""
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
        with self._acked_flow("await_puback" if qos == 1 else "await_pubrec") as (pid, flow):
            self._send_with_retries(
                lambda dup: ControlPacket(
                    Publish(topic, payload, qos, retain, dup, pid), self._geo()
                ),
                flow,
                f"QoS {qos} publish to {topic!r}",
            )
            if qos == 2:
                # The pid stays reserved from PUBLISH through PUBCOMP.
                relflow = _Flow("await_pubcomp")
                with self._state_lock:
                    self._flows[pid] = relflow
                self._send_with_retries(
                    lambda dup: ControlPacket(PubRel(pid), self._geo()),
                    relflow,
                    f"QoS 2 release to {topic!r}",
                )

    def subscribe(
        self, topic: str, qos: int = 0, constraint: GeoConstraint | None = None
    ) -> int:
        """Subscribe one filter; returns the granted QoS."""
        if not topic_filter_valid(topic):
            raise SubscriptionRefused(f"invalid topic filter {topic!r}")
        self._require_connected()
        with self._acked_flow("await_suback") as (pid, flow):
            self._send_with_retries(
                lambda dup: ControlPacket(
                    Subscribe(pid, (TopicFilter(topic, qos, constraint),)), self._geo()
                ),
                flow,
                f"subscribe {topic!r}",
            )
        codes = flow.payload
        assert isinstance(codes, tuple)
        if codes[0] == 0x80:
            raise SubscriptionRefused(f"broker refused filter {topic!r}")
        return codes[0]

    def unsubscribe(self, topic: str) -> None:
        self._require_connected()
        with self._acked_flow("await_unsuback") as (pid, flow):
            self._send_with_retries(
                lambda dup: ControlPacket(Unsubscribe(pid, (topic,)), self._geo()),
                flow,
                f"unsubscribe {topic!r}",
            )

    def ping(self) -> None:
        """Send a keep-alive PINGREQ now (a location heartbeat under AttachAll)."""
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
        cfg = self.config
        if cfg.geo_mode is not GeoMode.ATTACH_ALL or cfg.location_source is None:
            return None
        return cfg.location_source()

    def _require_connected(self) -> None:
        if not self._connected or self._sock is None:
            raise NotConnected("client is not connected")

    @contextmanager
    def _acked_flow(self, stage: str) -> Iterator[tuple[int, _Flow]]:
        """Reserve a packet id for one acknowledged exchange and register
        its flow; the id is freed when the exchange ends, however it ends."""
        flow = _Flow(stage)
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

    def _send_with_retries(
        self, make: Callable[[bool], ControlPacket], flow: _Flow, what: str
    ) -> None:
        """Send and await the flow's ack, retransmitting with DUP on timeout."""
        self._send(make(False))
        delay = self.config.retry_interval
        for attempt in range(self.config.max_retries + 1):
            if flow.event.wait(delay):
                if flow.failed:
                    raise NotConnected(f"connection lost during {what}")
                return
            if attempt == self.config.max_retries:
                break
            logger.debug("retransmitting %s (attempt %d)", what, attempt + 1)
            self._require_connected()
            self._send(make(True))
            delay *= 2
        raise DeliveryTimeout(f"{what} unacknowledged after {self.config.max_retries} retries")

    def _reader_loop(self) -> None:
        sock = self._sock
        assert sock is not None
        try:
            while not self._stop.is_set():
                frame = read_frame(sock)
                if frame is None:
                    break
                self._dispatch(decode_packet(frame))
        except (ConnectionError, OSError):
            pass
        except Exception:
            logger.exception("reader loop failed")
        finally:
            self._shutdown()

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
                with self._state_lock:
                    self._inbound_qos2[body.packet_id] = message
                self._send(ControlPacket(PubRec(body.packet_id), self._geo()))
        elif isinstance(body, PubRel):
            with self._state_lock:
                message = self._inbound_qos2.pop(body.packet_id, None)
            if message is not None:
                self._messages.put(message)
            self._send(ControlPacket(PubComp(body.packet_id), self._geo()))
        elif isinstance(body, PubAck):
            self._finish_flow(body.packet_id, "await_puback")
        elif isinstance(body, PubRec):
            self._finish_flow(body.packet_id, "await_pubrec")
        elif isinstance(body, PubComp):
            self._finish_flow(body.packet_id, "await_pubcomp")
        elif isinstance(body, Suback):
            self._finish_flow(body.packet_id, "await_suback", body.return_codes)
        elif isinstance(body, Unsuback):
            self._finish_flow(body.packet_id, "await_unsuback")
        elif isinstance(body, Pingresp):
            pass
        else:
            logger.warning("unexpected %s from broker", packet.packet_type.name)

    def _finish_flow(self, pid: int, stage: str, payload: object = None) -> None:
        with self._state_lock:
            flow = self._flows.get(pid)
        if flow is None or flow.stage != stage:
            logger.debug("stray ack for pid %d stage %s", pid, stage)
            return
        flow.finish(payload)

    def _keepalive_loop(self) -> None:
        interval = self.config.keep_alive
        while not self._stop.wait(interval / 8):
            if not self._connected:
                return
            if time.monotonic() - self._last_send >= interval * 0.75:
                try:
                    self.ping()
                except (NotConnected, OSError):
                    return

    def _shutdown(self) -> None:
        self._connected = False
        self._stop.set()
        with self._state_lock:
            flows = list(self._flows.values())
            self._flows.clear()
        for flow in flows:
            flow.fail()
        sock = self._sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


def connect(config: ClientConfig) -> MqttgClient:
    """Open a connection and return the connected client handle."""
    return MqttgClient(config).connect()
