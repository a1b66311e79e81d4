"""The MQTTg broker.

BrokerState is the in-memory core: sessions, subscriptions, the
last-known-location table, the geofence registry, retained messages and
the routing decision logic. It does no I/O and takes no locks; Broker
wraps it with a TCP listener, per-connection threads, a single state lock
and the line-oriented admin socket.

Delivery rules for a publish on topic T, evaluated per subscriber:
  1. a plain filter matching T always passes;
  2. an inside/outside-radius filter passes only when the publish carries
     an evaluable geolocation on the right side of the circle (publishes
     without geolocation never match a geo-constrained filter);
  3. every polygon fence the subscriber registered for T must contain the
     subscriber's own last-known location (unresolvable fences block
     delivery).
Subscribers that are geo-capable or matched through a geo-constrained
filter receive the geolocation block intact; everyone else gets a plain
PUBLISH with the block stripped. Outgoing QoS is min(publish, granted).
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from dataclasses import dataclass, field

from .codec import (
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
from .errors import (
    AnchorUnknown,
    CodecError,
    InvalidCoordinates,
    InvalidPolygon,
    MQTTgError,
    RouteFormatError,
)
from .eventlog import EventLog
from .geo import (
    FenceMode,
    GeofencePolygon,
    GeoPoint,
    haversine_distance,
    inside_radius,
    point_in_polygon,
    resolve_polygon,
)
from .netio import read_frame
from .topics import topic_filter_valid, topic_matches

logger = logging.getLogger("mqttg.broker")

CONNACK_ACCEPTED = 0x00
CONNACK_BAD_PROTOCOL = 0x01
CONNACK_ID_REJECTED = 0x02
SUBACK_FAILURE = 0x80


@dataclass
class Subscription:
    topic: str
    qos: int
    constraint: GeoConstraint | None = None


@dataclass
class LocationRecord:
    """Last-known location of a client plus its trip accumulators."""

    client_id: str
    location: GeoLocation
    received_at: float
    cumulative_distance_m: float = 0.0
    last_speed_kmh: float | None = None
    updates: int = 1


@dataclass(frozen=True)
class LocationUpdate:
    record: LocationRecord
    segment_m: float
    speed_kmh: float | None


@dataclass(frozen=True)
class Delivery:
    client_id: str
    qos: int
    include_geo: bool


@dataclass
class SessionState:
    client_id: str
    subscriptions: dict[str, Subscription] = field(default_factory=dict)
    geo_capable: bool = False
    next_pid: int = 1
    outbound: dict[int, str] = field(default_factory=dict)  # pid -> flow stage
    incoming_qos2: set[int] = field(default_factory=set)


class BrokerState:
    """Pure broker state; callers serialize access."""

    def __init__(self) -> None:
        self.sessions: dict[str, SessionState] = {}
        self.locations: dict[str, LocationRecord] = {}
        self.fences: dict[tuple[str, str], list[GeofencePolygon]] = {}
        self.retained: dict[str, tuple[bytes, int]] = {}

    # -- session lifecycle --------------------------------------------------

    def open_session(self, client_id: str) -> SessionState:
        """Fresh clean session; restarts the client's trip accumulators."""
        session = SessionState(client_id)
        self.sessions[client_id] = session
        self.locations.pop(client_id, None)
        return session

    def close_session(self, client_id: str) -> None:
        self.sessions.pop(client_id, None)

    # -- location table -----------------------------------------------------

    def update_last_location(
        self, client_id: str, geo: GeoLocation, now: float
    ) -> LocationUpdate:
        point = GeoPoint(geo.latitude, geo.longitude)
        prior = self.locations.get(client_id)
        if prior is None:
            record = LocationRecord(client_id, geo, now)
            self.locations[client_id] = record
            return LocationUpdate(record, 0.0, None)
        segment = haversine_distance(
            GeoPoint(prior.location.latitude, prior.location.longitude), point
        )
        dt = now - prior.received_at
        speed = (segment / dt) * 3.6 if dt > 0 else None
        record = LocationRecord(
            client_id,
            geo,
            now,
            prior.cumulative_distance_m + segment,
            speed,
            prior.updates + 1,
        )
        self.locations[client_id] = record
        return LocationUpdate(record, segment, speed)

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, client_id: str, filters: tuple[TopicFilter, ...]) -> list[int]:
        """Store each filter (replacing any same-topic one) and return the
        SUBACK grant codes."""
        session = self.sessions[client_id]
        codes = []
        for f in filters:
            if not topic_filter_valid(f.topic) or f.qos not in (0, 1, 2):
                codes.append(SUBACK_FAILURE)
                continue
            session.subscriptions[f.topic] = Subscription(f.topic, f.qos, f.constraint)
            codes.append(f.qos)
        return codes

    def unsubscribe(self, client_id: str, topics: tuple[str, ...]) -> None:
        session = self.sessions[client_id]
        for topic in topics:
            session.subscriptions.pop(topic, None)
            self.fences.pop((client_id, topic), None)

    # -- geofence registry --------------------------------------------------

    def add_fence(self, owner: str, topic: str, fence: GeofencePolygon) -> None:
        if not topic_filter_valid(topic):
            raise InvalidPolygon(f"invalid fence topic filter {topic!r}")
        self.fences.setdefault((owner, topic), []).append(fence)

    def clear_fence(self, owner: str, topic: str) -> int:
        return len(self.fences.pop((owner, topic), []))

    # -- retained messages ----------------------------------------------------

    def set_retained(self, topic: str, payload: bytes, qos: int) -> None:
        if payload:
            self.retained[topic] = (payload, qos)
        else:
            self.retained.pop(topic, None)

    # -- QoS flow bookkeeping -------------------------------------------------

    def alloc_pid(self, client_id: str) -> int:
        session = self.sessions[client_id]
        for _ in range(65535):
            pid = session.next_pid
            session.next_pid = pid % 65535 + 1
            if pid not in session.outbound:
                return pid
        raise MQTTgError("no free packet identifiers")

    # -- routing --------------------------------------------------------------

    def route(
        self,
        publisher_id: str | None,
        topic: str,
        qos: int,
        geo: GeoLocation | None,
    ) -> list[Delivery]:
        """Delivery decisions for one publish; see the module docstring."""
        deliveries = []
        for session in self.sessions.values():
            matching = [
                s for s in session.subscriptions.values() if topic_matches(s.topic, topic)
            ]
            passing = [s for s in matching if self._constraint_passes(s.constraint, geo)]
            if not passing:
                continue
            if not self._fences_pass(session.client_id, topic):
                continue
            out_qos = min(qos, max(s.qos for s in passing))
            include_geo = geo is not None and (
                session.geo_capable or any(s.constraint is not None for s in passing)
            )
            deliveries.append(Delivery(session.client_id, out_qos, include_geo))
        return deliveries

    @staticmethod
    def _constraint_passes(constraint: GeoConstraint | None, geo: GeoLocation | None) -> bool:
        if constraint is None:
            return True
        if geo is None or not geo.is_evaluable:
            return False  # fail closed: no location, no geo-constrained delivery
        inside = inside_radius(
            GeoPoint(geo.latitude, geo.longitude),
            GeoPoint(constraint.latitude, constraint.longitude),
            constraint.radius,
        )
        return inside if constraint.kind is ConstraintKind.INSIDE_RADIUS else not inside

    def _fences_pass(self, client_id: str, topic: str) -> bool:
        fence_lists = [
            fences
            for (owner, fence_topic), fences in self.fences.items()
            if owner == client_id and topic_matches(fence_topic, topic)
        ]
        if not fence_lists:
            return True
        record = self.locations.get(client_id)
        if record is None or not record.location.is_evaluable:
            return False
        where = GeoPoint(record.location.latitude, record.location.longitude)
        for fences in fence_lists:
            for fence in fences:
                try:
                    anchor = self._anchor_location(fence)
                    vertices = resolve_polygon(fence, anchor)
                except (AnchorUnknown, InvalidCoordinates):
                    return False
                if not point_in_polygon(where, vertices):
                    return False
        return True

    def _anchor_location(self, fence: GeofencePolygon) -> GeoPoint | None:
        if fence.mode is FenceMode.STATIC:
            return None
        record = self.locations.get(fence.anchor_client or "")
        if record is None or not record.location.is_evaluable:
            raise AnchorUnknown(f"anchor {fence.anchor_client!r} has no known location")
        return GeoPoint(record.location.latitude, record.location.longitude)

    def retained_for(self, filters: tuple[TopicFilter, ...], client_id: str):
        """Retained messages owed to freshly granted filters.

        Retained messages never carry geolocation, so geo-constrained
        filters receive none (fail closed); polygon fences still apply.
        """
        out = []
        for f in filters:
            if f.constraint is not None:
                continue
            for topic, (payload, qos) in self.retained.items():
                if topic_matches(f.topic, topic) and self._fences_pass(client_id, topic):
                    out.append((topic, payload, min(qos, f.qos)))
        return out


# ---------------------------------------------------------------------------
# Fence configuration parsing
# ---------------------------------------------------------------------------


def _parse_latlon_pairs(tokens: list[str], what: str) -> list[tuple[float, float]]:
    pairs = []
    for token in tokens:
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"{what} {token!r} is not lat,lon")
        pairs.append((float(parts[0]), float(parts[1])))
    return pairs


def parse_fence_spec(tokens: list[str]) -> tuple[str, str, GeofencePolygon]:
    """Parse `owner topic static lat,lon ...` or
    `owner topic dynamic anchor dlat,dlon ...` tokens."""
    if len(tokens) < 4:
        raise ValueError("expected: owner topic static|dynamic vertices...")
    owner, topic, mode = tokens[0], tokens[1], tokens[2].lower()
    if mode == "static":
        pairs = _parse_latlon_pairs(tokens[3:], "vertex")
        fence = GeofencePolygon(
            FenceMode.STATIC, vertices=tuple(GeoPoint(lat, lon) for lat, lon in pairs)
        )
    elif mode == "dynamic":
        if len(tokens) < 5:
            raise ValueError("dynamic fence needs an anchor client and offsets")
        anchor = tokens[3]
        pairs = _parse_latlon_pairs(tokens[4:], "offset")
        fence = GeofencePolygon(
            FenceMode.DYNAMIC, vertex_offsets=tuple(pairs), anchor_client=anchor
        )
    else:
        raise ValueError(f"unknown fence mode {tokens[2]!r}")
    return owner, topic, fence


def load_fence_file(path: str, state: BrokerState) -> int:
    """Load fences from a config file; one fence per line, '#' comments.

    Raises RouteFormatError naming the offending line.
    """
    count = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                owner, topic, fence = parse_fence_spec(line.split())
                state.add_fence(owner, topic, fence)
            except (ValueError, MQTTgError) as exc:
                raise RouteFormatError(line_no, str(exc)) from None
            count += 1
    return count


# ---------------------------------------------------------------------------
# Networked broker
# ---------------------------------------------------------------------------


class _Conn:
    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.addr = addr
        self.client_id: str | None = None
        self.send_lock = threading.Lock()
        self.will: Will | None = None

    def send(self, data: bytes) -> None:
        with self.send_lock:
            self.sock.sendall(data)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class Broker:
    """TCP broker front end over BrokerState.

    Routing takes its decisions under a single state lock (a consistent
    snapshot); socket writes happen outside it under per-connection send
    locks, so per-publisher delivery order is preserved.

    A connection touches its session only while it owns it. A CONNECT
    with a client id already in use takes the id over: the old session
    is dropped, its will is published, and any packet the old connection
    still sends is ignored. ``clean_session=0`` is served as a clean
    session. Whatever ends a connection (DISCONNECT, EOF, keep-alive
    timeout, malformed bytes or an error in the broker) closes only that
    connection and runs one teardown, which publishes its will unless it
    sent DISCONNECT.
    """

    def __init__(
        self,
        host: str = "0.0.0.0",
        port: int = 1883,
        admin_host: str = "127.0.0.1",
        admin_port: int | None = 1884,
        event_log: EventLog | None = None,
    ):
        self.state = BrokerState()
        self._lock = threading.RLock()
        self._conns: dict[str, _Conn] = {}
        self._host = host
        self._port = port
        self._admin_host = admin_host
        self._admin_port = admin_port
        self._events = event_log or EventLog()
        self._listener: socket.socket | None = None
        self._admin_listener: socket.socket | None = None
        self._running = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._listener is not None, "broker not started"
        return self._listener.getsockname()[1]

    @property
    def admin_port(self) -> int | None:
        if self._admin_listener is None:
            return None
        return self._admin_listener.getsockname()[1]

    def load_fences(self, path: str) -> int:
        with self._lock:
            return load_fence_file(path, self.state)

    def start(self) -> None:
        self._listener = self._listen(self._host, self._port)
        self._running = True
        threading.Thread(target=self._accept_loop, daemon=True, name="mqttg-accept").start()
        if self._admin_port is not None:
            self._admin_listener = self._listen(self._admin_host, self._admin_port)
            threading.Thread(
                target=self._admin_accept_loop, daemon=True, name="mqttg-admin"
            ).start()
        logger.info("broker listening on %s:%d", self._host, self.port)

    @staticmethod
    def _listen(host: str, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        return sock

    def stop(self) -> None:
        self._running = False
        for listener in (self._listener, self._admin_listener):
            if listener is not None:
                try:
                    listener.close()
                except OSError:
                    pass
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.close()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock, addr)
            threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True, name=f"mqttg-{addr}"
            ).start()

    # -- client connections -----------------------------------------------------

    def _serve_client(self, conn: _Conn) -> None:
        try:
            conn.sock.settimeout(10.0)
            frame = read_frame(conn.sock)
            if frame is None:
                return
            packet = decode_packet(frame)
            if not isinstance(packet.body, Connect):
                logger.warning("%s: first packet was %s", conn.addr, packet.packet_type.name)
                return
            if not self._handle_connect(conn, packet.body):
                return
            keep_alive = packet.body.keep_alive
            conn.sock.settimeout(keep_alive * 1.5 if keep_alive else None)
            while self._running:
                frame = read_frame(conn.sock)
                if frame is None or not self._handle_packet(conn, decode_packet(frame)):
                    return
        except socket.timeout:
            logger.warning("%s: keep-alive timeout", conn.client_id or conn.addr)
        except CodecError as exc:
            logger.warning("%s: closing connection: %s", conn.client_id or conn.addr, exc)
        except OSError:
            pass  # the peer went away
        except Exception:
            logger.exception("%s: closing connection after an error", conn.client_id or conn.addr)
        finally:
            self._teardown(conn)
            conn.close()

    def _handle_connect(self, conn: _Conn, body: Connect) -> bool:
        if body.protocol_level != 4:
            code = CONNACK_BAD_PROTOCOL
        elif not body.client_id:
            code = CONNACK_ID_REJECTED
        else:
            code = CONNACK_ACCEPTED
            with self._lock:
                old = self._conns.get(body.client_id)
                # MQTT 3.1.1 takeover: drop the existing session first.
                will_sends = self._drop_session(old) if old is not None else []
                conn.client_id = body.client_id
                conn.will = body.will
                self._conns[body.client_id] = conn
                self.state.open_session(body.client_id)
            self._send_all(will_sends)
            if old is not None:
                old.close()
        conn.send(encode_packet(ControlPacket(Connack(False, code))))
        if code != CONNACK_ACCEPTED:
            return False
        self._events.emit(body.client_id, "CONNECT")
        return True

    def _teardown(self, conn: _Conn) -> None:
        """Drop the connection's session if it still owns it."""
        with self._lock:
            if conn.client_id is None or self._conns.get(conn.client_id) is not conn:
                return
            sends = self._drop_session(conn)
        self._send_all(sends)

    def _drop_session(self, conn: _Conn) -> list[tuple[_Conn, bytes]]:
        """Remove a session (lock held); returns its will's deliveries.

        A connection that sent DISCONNECT has no will left to publish."""
        cid = conn.client_id
        assert cid is not None
        self._conns.pop(cid, None)
        record = self.state.locations.get(cid)
        self.state.close_session(cid)
        self._events.emit(
            cid,
            "DISCONNECT",
            geo=record.location if record else None,
            distance_m=record.cumulative_distance_m if record else None,
        )
        will, conn.will = conn.will, None
        sends: list[tuple[_Conn, bytes]] = []
        if will is not None:
            if will.retain:
                self.state.set_retained(will.topic, will.payload, will.qos)
            for d in self.state.route(cid, will.topic, will.qos, None):
                self._queue_publish(sends, d.client_id, will.topic, will.payload, d.qos)
        return sends

    # -- packet dispatch ----------------------------------------------------------

    def _handle_packet(self, conn: _Conn, packet: ControlPacket) -> bool:
        """Process one inbound packet; False ends the connection loop."""
        cid = conn.client_id
        assert cid is not None
        body = packet.body
        geo = packet.geolocation
        sends: list[tuple[_Conn, bytes]] = []
        reply = None
        retained: list[tuple[str, bytes, int]] = []

        with self._lock:
            if self._conns.get(cid) is not conn:
                return False  # taken over: the session belongs to a newer connection
            session = self.state.sessions[cid]
            update: LocationUpdate | None = None
            if geo is not None:
                session.geo_capable = True
                if geo.is_evaluable:
                    # Location lands in the table before any routing below.
                    update = self.state.update_last_location(cid, geo, time.monotonic())
            row = "LOCATION" if update else None

            if isinstance(body, Publish):
                if body.qos == 2 and body.packet_id in session.incoming_qos2:
                    row = None  # a resent QoS 2 publish is routed only once
                else:
                    row = "PUBLISH"
                    if body.qos == 2:
                        session.incoming_qos2.add(body.packet_id)
                    if body.retain:
                        # Retained copies never keep the geolocation block.
                        self.state.set_retained(body.topic, body.payload, body.qos)
                    for d in self.state.route(cid, body.topic, body.qos, geo):
                        self._queue_publish(
                            sends, d.client_id, body.topic, body.payload, d.qos,
                            geo if d.include_geo else None,
                        )
                if body.qos == 1:
                    reply = PubAck(body.packet_id)
                elif body.qos == 2:
                    reply = PubRec(body.packet_id)
            elif isinstance(body, PubAck):
                if session.outbound.pop(body.packet_id, None) is None:
                    logger.debug("%s: PUBACK for unknown pid %d", cid, body.packet_id)
            elif isinstance(body, PubRec):
                if session.outbound.get(body.packet_id) == "await_pubrec":
                    session.outbound[body.packet_id] = "await_pubcomp"
                reply = PubRel(body.packet_id)
            elif isinstance(body, PubRel):
                session.incoming_qos2.discard(body.packet_id)
                reply = PubComp(body.packet_id)
            elif isinstance(body, PubComp):
                session.outbound.pop(body.packet_id, None)
            elif isinstance(body, Subscribe):
                codes = self.state.subscribe(cid, body.filters)
                reply = Suback(body.packet_id, tuple(codes))
                granted = tuple(
                    f for f, code in zip(body.filters, codes) if code != SUBACK_FAILURE
                )
                retained = self.state.retained_for(granted, cid)
            elif isinstance(body, Unsubscribe):
                self.state.unsubscribe(cid, body.topics)
                reply = Unsuback(body.packet_id)
            elif isinstance(body, Pingreq):
                reply = Pingresp()
            elif isinstance(body, Disconnect):
                conn.will = None  # graceful close discards the will
                return False  # final location lands in the DISCONNECT row
            else:
                logger.warning("%s: unexpected %s from client", cid, packet.packet_type.name)
                return False

            # A publish's ack follows its deliveries; a SUBACK precedes the
            # retained messages it grants.
            if reply is not None:
                sends.append((conn, encode_packet(ControlPacket(reply))))
            for topic, payload, qos in retained:
                self._queue_publish(sends, cid, topic, payload, qos, retain=True)
            if row is not None:
                self._events.emit(
                    cid,
                    row,
                    geo=update.record.location if update else None,
                    distance_m=update.segment_m if update else None,
                    speed_kmh=update.speed_kmh if update else None,
                )

        self._send_all(sends)
        return True

    def _queue_publish(
        self,
        sends: list[tuple[_Conn, bytes]],
        client_id: str,
        topic: str,
        payload: bytes,
        qos: int,
        geo: GeoLocation | None = None,
        retain: bool = False,
    ) -> None:
        """Encode a publish to a connected client and open its QoS flow
        (lock held). A client out of packet ids misses this copy."""
        target = self._conns.get(client_id)
        if target is None:
            return
        pid = None
        if qos > 0:
            try:
                pid = self.state.alloc_pid(client_id)
            except MQTTgError:
                logger.warning("%s: no free packet id, dropping a copy of %r", client_id, topic)
                return
            stage = "await_puback" if qos == 1 else "await_pubrec"
            self.state.sessions[client_id].outbound[pid] = stage
        pkt = ControlPacket(Publish(topic, payload, qos, retain, packet_id=pid), geo)
        sends.append((target, encode_packet(pkt)))

    @staticmethod
    def _send_all(sends: list[tuple[_Conn, bytes]]) -> None:
        for target, data in sends:
            try:
                target.send(data)
            except OSError:
                pass  # the receiver's own thread will tear the session down

    # -- admin socket -----------------------------------------------------------

    def _admin_accept_loop(self) -> None:
        assert self._admin_listener is not None
        while self._running:
            try:
                sock, addr = self._admin_listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_admin, args=(sock,), daemon=True, name=f"mqttg-admin-{addr}"
            ).start()

    def _serve_admin(self, sock: socket.socket) -> None:
        try:
            with sock, sock.makefile("rw", encoding="utf-8", newline="\n") as fh:
                for line in fh:
                    for reply in self._admin_command(line.strip()):
                        fh.write(reply + "\n")
                    fh.flush()
        except (ConnectionError, OSError):
            pass

    def _admin_command(self, line: str) -> list[str]:
        if not line:
            return []
        tokens = line.split()
        command = tokens[0].upper()
        try:
            if command == "DUMP-LOCATIONS":
                with self._lock:
                    records = list(self.state.locations.values())
                rows = [
                    " ".join(
                        (
                            r.client_id,
                            repr(r.location.latitude),
                            repr(r.location.longitude),
                            repr(r.location.elevation),
                            repr(r.cumulative_distance_m),
                            "-" if r.last_speed_kmh is None else repr(r.last_speed_kmh),
                            str(r.updates),
                        )
                    )
                    for r in sorted(records, key=lambda r: r.client_id)
                ]
                return rows + ["OK"]
            if command == "ADD-FENCE":
                owner, topic, fence = parse_fence_spec(tokens[1:])
                with self._lock:
                    self.state.add_fence(owner, topic, fence)
                return ["OK"]
            if command == "CLEAR-FENCE":
                if len(tokens) != 3:
                    return ["ERR expected: CLEAR-FENCE client_id topic"]
                with self._lock:
                    removed = self.state.clear_fence(tokens[1], tokens[2])
                return [f"OK {removed}"]
            return [f"ERR unknown command {tokens[0]!r}"]
        except (ValueError, MQTTgError) as exc:
            return [f"ERR {exc}"]


def admin_request(host: str, port: int, line: str, timeout: float = 5.0) -> list[str]:
    """Send one admin command; returns the reply lines up to OK/ERR."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(line.encode("utf-8") + b"\n")
        fh = sock.makefile("r", encoding="utf-8")
        lines: list[str] = []
        for reply in fh:
            reply = reply.rstrip("\n")
            lines.append(reply)
            if reply == "OK" or reply.startswith(("OK ", "ERR")):
                return lines
    raise MQTTgError("admin connection closed before reply terminator")
