"""The MQTTg broker.

BrokerState is the sans-IO core. It holds sessions, subscriptions, the
last-known-location table, the geofence registry and retained messages,
and it makes every protocol decision: CONNECT, takeover, wills, QoS flows,
routing, event rows and admin commands. It does no socket I/O and takes no
locks; for each packet it returns the ordered writes ``(conn, bytes |
None)``, where None closes that connection. Broker is the threaded driver
that moves the bytes; it also serves the line-oriented admin socket.

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

Routing reads a plan per topic, so a publish costs what matches it, not
the size of the table. A plan holds the subscriber maps of the filters
matching the topic, found by walking a topic tree (topics.TopicTree), and,
for each of those clients that owns fences, the fences whose filters
match the topic. A topic's first publish since plans were dropped only
marks it, so a topic published once costs what it did without plans; the
second builds its plan, and later ones walk no tree and match no fence
filter. A subscribe, or a fence added or cleared, drops every plan. An
unsubscribe or a session close drops none: a plan shares the tree's
subscriber maps, which lose the client at once. PLAN_ENTRIES bounds what
the plans hold. What depends on where a client is stays out of the plan:
radius verdicts, fence containment and geo-capability are decided at
each publish. Geometry is compiled when it is stored (see geo): a radius
filter keeps a geo.Circle, a static fence its Ring, a location record its
GeoPoint, and a dynamic fence the Ring it last resolved to, with the
anchor's record it was resolved at.

route() decides most radius filters without a call. A point past the
circle's latitude band is outside; a point within its inner bound, where
|dlat| + cos(centre latitude) * |dlon| is at most the radius in degrees
less a margin, is inside, since a walk along the centre's parallel and
then the point's meridian is no shorter than the great circle. Only a
point between the two bounds is decided by inside_radius, so every
verdict is the one inside_radius gives.
"""

from __future__ import annotations

import logging
import math
import socket
import struct
import threading
import time

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
    Circle,
    FenceMode,
    GeofencePolygon,
    GeoPoint,
    Ring,
    coordinates_valid,
    haversine_distance,
    inside_radius,
    point_in_polygon,
    resolve_polygon,
)
from .netio import SocketBuffer, read_frame
from .record import FrozenRecord, Record
from .topics import TopicTree, topic_filter_valid, topic_matches

logger = logging.getLogger("mqttg.broker")

CONNACK_ACCEPTED = 0x00
CONNACK_BAD_PROTOCOL = 0x01
CONNACK_ID_REJECTED = 0x02
SUBACK_FAILURE = 0x80
# route()'s marks and plans take at most 64 bytes a unit (traced: 16-64), so
# this caps them near 3 MB, a sixth of an idle broker's RSS, with room for
# some 6000 plans of short topics. Past it, route() drops them all.
PLAN_ENTRIES = 50_000

Write = tuple[object, bytes | None]  # (connection handle, bytes to send, or None to close it)

_set = object.__setattr__


class Subscription(Record):
    """A stored filter; a radius constraint is compiled to a geo.Circle."""

    _fields = ("topic", "qos", "constraint")
    __slots__ = (*_fields, "circle")

    def __init__(self, topic: str, qos: int, constraint: GeoConstraint | None = None) -> None:
        self.topic = topic
        self.qos = qos
        self.constraint = c = constraint
        self.circle = None if c is None else Circle(
            GeoPoint(c.latitude, c.longitude), c.radius, c.kind is ConstraintKind.INSIDE_RADIUS
        )


class LocationRecord(Record):
    """Last-known location of a client plus its trip accumulators."""

    _fields = ("client_id", "location", "received_at", "cumulative_distance_m", "last_speed_kmh",
               "updates", "segment_m")
    __slots__ = (*_fields, "point")

    def __init__(
        self, client_id: str, location: GeoLocation, received_at: float,
        cumulative_distance_m: float = 0.0, last_speed_kmh: float | None = None,
        updates: int = 1, segment_m: float = 0.0,
    ) -> None:
        self.client_id = client_id
        self.location = location
        self.received_at = received_at
        self.cumulative_distance_m = cumulative_distance_m
        self.last_speed_kmh = last_speed_kmh
        self.updates = updates
        self.segment_m = segment_m  # distance from the previous fix
        self.point = GeoPoint(location.latitude, location.longitude)


class Delivery(FrozenRecord):
    __slots__ = _fields = ("client_id", "qos", "include_geo")

    def __init__(self, client_id: str, qos: int, include_geo: bool) -> None:
        _set(self, "client_id", client_id)
        _set(self, "qos", qos)
        _set(self, "include_geo", include_geo)


class SessionState(Record):
    __slots__ = _fields = ("client_id", "subscriptions", "geo_capable", "next_pid", "outbound",
                           "incoming_qos2", "owner", "will")

    def __init__(
        self, client_id: str, subscriptions: dict[str, Subscription] | None = None,
        geo_capable: bool = False, next_pid: int = 1, outbound: set[int] | None = None,
        incoming_qos2: set[int] | None = None, owner: object = None, will: Will | None = None,
    ) -> None:
        self.client_id = client_id
        self.subscriptions = {} if subscriptions is None else subscriptions
        self.geo_capable = geo_capable
        self.next_pid = next_pid
        # QoS flow tables, made on first use: most sessions never need them
        self.outbound = outbound  # packet ids of unacknowledged deliveries
        self.incoming_qos2 = incoming_qos2
        self.owner = owner  # the connection's handle; None for a session with no connection
        self.will = will


class _StoredFence:
    """A registered fence and the Ring it is tested against.

    A static fence's Ring is its own. A dynamic fence's is the one it last
    resolved to, kept with ``anchor``, the anchor's LocationRecord at that
    time (None: it had none); None if that resolution failed. Every fix
    and every new session replaces the anchor's record, so a record that
    is still the anchor's means the Ring is still right.
    """

    __slots__ = ("fence", "anchor", "ring")

    def __init__(self, fence: GeofencePolygon) -> None:
        self.fence = fence
        self.anchor: LocationRecord | None = None
        self.ring: Ring | None = fence.ring


# A topic's route plan: the subscriber maps ({client: Subscription}) of the
# filters matching the topic, and {candidate client: its fences whose
# filters match the topic}, or None where the fences are not planned.
Plan = tuple[list[dict[str, Subscription]], dict[str, list[_StoredFence]] | None]


class BrokerState:
    """The sans-IO core; callers serialize access. A connection is an
    opaque handle that the core only stores and compares. Event rows go to
    ``events`` in the order they are decided."""

    def __init__(self, events: EventLog | None = None) -> None:
        self.events = events or EventLog()
        self.clients: dict[object, str] = {}  # connection handle -> client id
        self.sessions: dict[str, SessionState] = {}
        # filter -> {client_id: Subscription}; the same objects as in
        # session.subscriptions, kept in step by every method that changes them
        self.subscriptions = TopicTree()
        self.locations: dict[str, LocationRecord] = {}
        self.fences: dict[str, dict[str, list[_StoredFence]]] = {}  # owner -> filter -> fences
        self.retained: dict[str, tuple[bytes, int]] = {}
        # topic -> Plan, made by route(); cleared by subscribe and by every
        # change to self.fences. A plan shares the tree's subscriber maps, so
        # a subscription removed (unsubscribe, close) leaves it at once.
        self.plans: dict[str, Plan | tuple[()]] = {}  # a plan, or a topic's mark
        self._planned = 0  # PLAN_ENTRIES units in self.plans; stale once it is cleared

    # -- session lifecycle --------------------------------------------------

    def open_session(self, client_id: str) -> SessionState:
        """Fresh clean session, replacing any under the same id; restarts
        the client's trip accumulators."""
        self.close_session(client_id)
        session = self.sessions[client_id] = SessionState(client_id)
        self.locations.pop(client_id, None)
        return session

    def close_session(self, client_id: str) -> None:
        session = self.sessions.pop(client_id, None)
        if session is not None:
            for topic in session.subscriptions:
                self.subscriptions.remove(topic, client_id)

    # -- connections ----------------------------------------------------------

    def receive(self, conn: object, packet: ControlPacket, now: float) -> tuple[list[Write], bool]:
        """Decide one packet from ``conn``: (writes, keep_open). The first
        packet must be CONNECT; a taken-over connection touches nothing."""
        cid = self.clients.get(conn)
        body = packet.body
        if cid is None:
            if isinstance(body, Connect):
                return self._connect(conn, body)
            logger.warning("%s: first packet was %s", conn, packet.packet_type.name)
            return [], False
        session = self.sessions.get(cid)
        if session is None or session.owner is not conn:
            return [], False  # taken over: the session belongs to a newer connection
        geo = packet.geolocation
        writes: list[Write] = []
        reply = None
        retained: list[tuple[str, bytes, int]] = []
        fix: LocationRecord | None = None
        if geo is not None:
            session.geo_capable = True
            if geo.is_evaluable:
                # Location lands in the table before any routing below.
                fix = self.update_last_location(cid, geo, now)
        row = "LOCATION" if fix else None

        if isinstance(body, Publish):
            # A resent QoS 2 publish is routed only once; its fix still gets a LOCATION row.
            if body.qos != 2 or body.packet_id not in (session.incoming_qos2 or ()):
                row = "PUBLISH"
                if body.qos == 2:
                    if session.incoming_qos2 is None:
                        session.incoming_qos2 = set()
                    session.incoming_qos2.add(body.packet_id)
                if body.retain:
                    # Retained copies never keep the geolocation block.
                    self.set_retained(body.topic, body.payload, body.qos)
                for d in self.route(cid, body.topic, body.qos, geo):
                    self._queue_publish(
                        writes, d.client_id, body.topic, body.payload, d.qos,
                        geo if d.include_geo else None,
                    )
            if body.qos == 1:
                reply = PubAck(body.packet_id)
            elif body.qos == 2:
                reply = PubRec(body.packet_id)
        elif isinstance(body, (PubAck, PubComp)):
            if body.packet_id in (session.outbound or ()):
                session.outbound.remove(body.packet_id)
            else:
                logger.debug("%s: %s for unknown pid %d", cid, packet.packet_type.name, body.packet_id)
        elif isinstance(body, PubRec):
            reply = PubRel(body.packet_id)  # the id stays unacknowledged until PUBCOMP
        elif isinstance(body, PubRel):
            if session.incoming_qos2:
                session.incoming_qos2.discard(body.packet_id)
            reply = PubComp(body.packet_id)
        elif isinstance(body, Subscribe):
            codes = self.subscribe(cid, body.filters)
            reply = Suback(body.packet_id, tuple(codes))
            granted = tuple(f for f, code in zip(body.filters, codes) if code != SUBACK_FAILURE)
            retained = self.retained_for(granted, cid)
        elif isinstance(body, Unsubscribe):
            self.unsubscribe(cid, body.topics)
            reply = Unsuback(body.packet_id)
        elif isinstance(body, Pingreq):
            reply = Pingresp()
        elif isinstance(body, Disconnect):
            session.will = None  # graceful close discards the will
            return [], False  # final location lands in the DISCONNECT row
        else:
            logger.warning("%s: unexpected %s from client", cid, packet.packet_type.name)
            return [], False

        # A publish's ack follows its deliveries; a SUBACK precedes the
        # retained messages it grants.
        if reply is not None:
            writes.append((conn, encode_packet(ControlPacket(reply))))
        for topic, payload, qos in retained:
            self._queue_publish(writes, cid, topic, payload, qos, retain=True)
        if row is not None:
            self.events.emit(
                cid,
                row,
                geo=fix.location if fix else None,
                distance_m=fix.segment_m if fix else None,
                speed_kmh=fix.last_speed_kmh if fix else None,
            )
        return writes, True

    def release(self, conn: object) -> list[Write]:
        """``conn`` has ended: drop its session if it still owns it."""
        session = self.sessions.get(self.clients.pop(conn, None))
        if session is None or session.owner is not conn:
            return []
        return self._drop(session)

    def _connect(self, conn: object, body: Connect) -> tuple[list[Write], bool]:
        if body.protocol_level != 4 or not body.client_id:
            code = CONNACK_BAD_PROTOCOL if body.protocol_level != 4 else CONNACK_ID_REJECTED
            return [(conn, encode_packet(ControlPacket(Connack(False, code))))], False
        writes: list[Write] = []
        old = self.sessions.get(body.client_id)
        if old is not None and old.owner is not None:
            # MQTT 3.1.1 takeover: drop the existing session first.
            writes = self._drop(old)
            writes.append((old.owner, None))
        session = self.open_session(body.client_id)
        session.owner, session.will = conn, body.will
        self.clients[conn] = body.client_id
        writes.append((conn, encode_packet(ControlPacket(Connack(False, CONNACK_ACCEPTED)))))
        self.events.emit(body.client_id, "CONNECT")
        return writes, True

    def _drop(self, session: SessionState) -> list[Write]:
        """Close a connected session: its DISCONNECT row, then its will's
        deliveries (none once it sent DISCONNECT)."""
        cid = session.client_id
        record = self.locations.get(cid)
        self.close_session(cid)
        self.events.emit(
            cid,
            "DISCONNECT",
            geo=record.location if record else None,
            distance_m=record.cumulative_distance_m if record else None,
        )
        writes: list[Write] = []
        will = session.will
        if will is not None:
            if will.retain:
                self.set_retained(will.topic, will.payload, will.qos)
            for d in self.route(cid, will.topic, will.qos, None):
                self._queue_publish(writes, d.client_id, will.topic, will.payload, d.qos)
        return writes

    def _queue_publish(
        self,
        writes: list[Write],
        client_id: str,
        topic: str,
        payload: bytes,
        qos: int,
        geo: GeoLocation | None = None,
        retain: bool = False,
    ) -> None:
        """Encode a publish to a connected client and open its QoS flow.
        A client out of packet ids misses this copy."""
        session = self.sessions[client_id]
        if session.owner is None:
            return
        pid = None
        if qos > 0:
            try:
                pid = self.alloc_pid(client_id)
            except MQTTgError:
                logger.warning("%s: no free packet id, dropping a copy of %r", client_id, topic)
                return
            if session.outbound is None:
                session.outbound = set()
            session.outbound.add(pid)
        pkt = ControlPacket(Publish(topic, payload, qos, retain, packet_id=pid), geo)
        writes.append((session.owner, encode_packet(pkt)))

    # -- location table -----------------------------------------------------

    def update_last_location(
        self, client_id: str, geo: GeoLocation, now: float
    ) -> LocationRecord:
        record = LocationRecord(client_id, geo, now)
        prior = self.locations.get(client_id)
        if prior is not None:
            segment = haversine_distance(prior.point, record.point)
            dt = now - prior.received_at
            record.segment_m = segment
            record.cumulative_distance_m = prior.cumulative_distance_m + segment
            record.last_speed_kmh = (segment / dt) * 3.6 if dt > 0 else None
            record.updates = prior.updates + 1
        self.locations[client_id] = record
        return record

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, client_id: str, filters: tuple[TopicFilter, ...]) -> list[int]:
        """Store each filter (replacing any same-topic one) and return the
        SUBACK grant codes."""
        session = self.sessions[client_id]
        codes = []
        for f in filters:
            c = f.constraint
            if (
                not topic_filter_valid(f.topic)
                or f.qos not in (0, 1, 2)
                or (c is not None and not coordinates_valid(c.latitude, c.longitude))
            ):
                codes.append(SUBACK_FAILURE)
                continue
            sub = session.subscriptions[f.topic] = Subscription(f.topic, f.qos, f.constraint)
            self.subscriptions.add(f.topic, client_id, sub)
            codes.append(f.qos)
        self.plans.clear()
        return codes

    def unsubscribe(self, client_id: str, topics: tuple[str, ...]) -> None:
        session = self.sessions[client_id]
        for topic in topics:
            if session.subscriptions.pop(topic, None) is not None:
                self.subscriptions.remove(topic, client_id)
            self.clear_fence(client_id, topic)

    # -- geofence registry --------------------------------------------------

    def add_fence(self, owner: str, topic: str, fence: GeofencePolygon) -> None:
        if not topic_filter_valid(topic):
            raise InvalidPolygon(f"invalid fence topic filter {topic!r}")
        self.fences.setdefault(owner, {}).setdefault(topic, []).append(_StoredFence(fence))
        self.plans.clear()

    def clear_fence(self, owner: str, topic: str) -> int:
        owned = self.fences.get(owner)
        if owned is None or topic not in owned:
            return 0
        removed = len(owned.pop(topic))
        if not owned:
            del self.fences[owner]
        self.plans.clear()
        return removed

    # -- retained messages ----------------------------------------------------

    def set_retained(self, topic: str, payload: bytes, qos: int) -> None:
        if payload:
            self.retained[topic] = (payload, qos)
        else:
            self.retained.pop(topic, None)

    # -- QoS flow bookkeeping -------------------------------------------------

    def alloc_pid(self, client_id: str) -> int:
        session = self.sessions[client_id]
        outbound = session.outbound or ()
        if len(outbound) >= 65535:
            raise MQTTgError("no free packet identifiers")
        for _ in range(65535):
            pid = session.next_pid
            session.next_pid = pid % 65535 + 1
            if pid not in outbound:
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
        point = None  # fail closed: no location, no geo-constrained delivery
        if geo is not None and geo.is_evaluable:
            # The publisher's fix, stored by receive() just before, has the point.
            fix = self.locations.get(publisher_id)
            if fix is not None and fix.location is geo:
                point = fix.point
            else:
                point = GeoPoint(geo.latitude, geo.longitude)
            lat, lon = point.latitude, point.longitude
        plan = self.plans.get(topic)
        if not plan:  # None: not seen since the plans were dropped; (): seen once
            plan = self._plan(topic, plan is not None)
        nodes, fenced = plan
        granted: dict[str, int] = {}  # client -> the highest QoS of its passing filters
        via_circle: set[str] = set()  # clients with a passing radius filter
        for subs in nodes:
            for client_id, sub in subs.items():
                circle = sub.circle
                if circle is not None:
                    if point is None:
                        continue
                    center = circle.center
                    dlat = abs(lat - center.latitude)
                    if dlat > circle.band:
                        inside = False
                    else:
                        dlon = abs(lon - center.longitude)
                        if dlon > 180.0:
                            dlon = 360.0 - dlon
                        inside = dlat + circle.cos_lat * dlon <= circle.inner or inside_radius(
                            point, center, circle.radius
                        )
                    if inside != circle.inside:
                        continue
                    via_circle.add(client_id)
                if sub.qos > granted.get(client_id, -1):
                    granted[client_id] = sub.qos
        deliveries = []
        for client_id, sub_qos in granted.items():
            if client_id in self.fences:
                fences = self._fences_for(client_id, topic) if fenced is None else fenced.get(client_id)
                if fences and not self._inside_fences(client_id, fences):
                    continue
            include_geo = geo is not None and (
                client_id in via_circle or self.sessions[client_id].geo_capable
            )
            deliveries.append(Delivery(client_id, min(qos, sub_qos), include_geo))
        return deliveries

    def _plan(self, topic: str, seen: bool) -> Plan:
        """``topic``'s plan if it was ``seen`` since plans were dropped, else a
        mark (an empty plan) and no fence lists. Each is stored with its size
        in PLAN_ENTRIES units; passing PLAN_ENTRIES drops all marks and
        plans first, and a plan larger than it alone is not stored."""
        nodes = self.subscriptions.match(topic)
        fenced = None
        size = mark = 2 + len(topic) // 16  # its slot, its topic at up to 4 bytes a character
        if seen:
            owners = {client_id for subs in nodes for client_id in subs} & self.fences.keys()
            fenced = {cid: fences for cid in owners if (fences := self._fences_for(cid, topic))}
            size += 4 + len(nodes) + 2 * len(fenced) + sum(map(len, fenced.values()))
        if size > PLAN_ENTRIES:
            return nodes, fenced
        if not self.plans or self._planned + size > PLAN_ENTRIES:  # empty: the count is stale
            self.plans.clear()
            self._planned = 0
        elif seen:
            self._planned -= mark  # the plan replaces the topic's mark
        self.plans[topic] = (nodes, fenced) if seen else ()
        self._planned += size
        return nodes, fenced

    def _fences_for(self, client_id: str, topic: str) -> list[_StoredFence]:
        """The fences the client owns for the filters matching ``topic``."""
        matched: list[_StoredFence] = []
        for fence_topic, fences in self.fences.get(client_id, {}).items():
            if topic_matches(fence_topic, topic):
                matched += fences
        return matched

    def _inside_fences(self, client_id: str, fences: list[_StoredFence]) -> bool:
        """Every one of ``fences`` (at least one) contains the client's
        last-known location."""
        record = self.locations.get(client_id)
        if record is None or not record.location.is_evaluable:
            return False
        where = record.point
        for stored in fences:
            ring = self._ring(stored)
            if ring is None or not ring.box_contains(where) or not point_in_polygon(where, ring):
                return False
        return True

    def _ring(self, stored: _StoredFence) -> Ring | None:
        """The fence's Ring where its anchor is now; None fails it closed."""
        fence = stored.fence
        if fence.mode is FenceMode.STATIC:
            return stored.ring
        record = self.locations.get(fence.anchor_client or "")
        if record is not stored.anchor:
            stored.anchor = record
            anchor = record.point if record is not None and record.location.is_evaluable else None
            try:
                stored.ring = Ring(resolve_polygon(fence, anchor))
            except (AnchorUnknown, InvalidCoordinates):
                stored.ring = None
        return stored.ring

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
                if not topic_matches(f.topic, topic):
                    continue
                fences = self._fences_for(client_id, topic)
                if not fences or self._inside_fences(client_id, fences):
                    out.append((topic, payload, min(qos, f.qos)))
        return out

    # -- admin commands -------------------------------------------------------

    def admin_command(self, line: str) -> list[str]:
        """Reply lines to one admin socket command."""
        if not line:
            return []
        tokens = line.split()
        command = tokens[0].upper()
        try:
            if command == "DUMP-LOCATIONS":
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
                    for r in sorted(self.locations.values(), key=lambda r: r.client_id)
                ]
                return rows + ["OK"]
            if command == "ADD-FENCE":
                self.add_fence(*parse_fence_spec(tokens[1:]))
                return ["OK"]
            if command == "CLEAR-FENCE":
                if len(tokens) != 3:
                    return ["ERR expected: CLEAR-FENCE client_id topic"]
                return [f"OK {self.clear_fence(tokens[1], tokens[2])}"]
            return [f"ERR unknown command {tokens[0]!r}"]
        except (ValueError, MQTTgError) as exc:
            return [f"ERR {exc}"]


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


STOP_WAIT_S = 5.0  # each of stop()'s waits for the broker's threads

_TIMEVAL = struct.Struct("@ll")  # a native struct timeval: seconds, microseconds


def _timeval(seconds: float) -> bytes:
    """``seconds`` as SO_RCVTIMEO/SO_SNDTIMEO take it, rounded up to the
    microsecond, so that only 0 reads as no limit."""
    return _TIMEVAL.pack(*divmod(math.ceil(seconds * 1_000_000), 1_000_000))


class _Conn:
    """A connection's socket. It stays blocking: its deadlines are the
    kernel's SO_RCVTIMEO and SO_SNDTIMEO, since a socket with a Python
    timeout polls before every recv and send. A read past its deadline
    raises BlockingIOError."""

    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.addr = addr
        self.send_lock = threading.Lock()
        self.timeout = 0.0  # seconds each read, and each whole write, may take; 0: no limit

    def __repr__(self) -> str:
        return str(self.addr)

    def set_timeout(self, seconds: float) -> None:
        """Under the send lock: a write cut short restores the deadline it began with."""
        with self.send_lock:
            self.timeout = seconds
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(seconds))
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, _timeval(seconds))

    def send(self, data: bytes) -> None:
        """Send all of ``data`` within one deadline for the whole write. A
        send the kernel's timeout cut short is retried with only what is
        left of it, so a reader that drains a trickle holds the writer no
        longer than one deadline; TimeoutError once it has passed."""
        with self.send_lock:
            sock, timeout = self.sock, self.timeout
            start = time.monotonic()
            sent = sock.send(data)
            if sent == len(data):
                return
            rest = memoryview(data)[sent:]
            while rest:
                if timeout:
                    left = start + timeout - time.monotonic()
                    if left <= 0.0:
                        raise TimeoutError(f"write not done within {timeout} s")
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, _timeval(left))
                rest = rest[sock.send(rest):]
            if timeout:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, _timeval(timeout))

    def shutdown(self) -> None:
        """End the connection; any thread may. It wakes every thread blocked
        on the socket but, unlike close, keeps the descriptor, so the next
        accept cannot reuse it under them."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        """Only the connection's own thread closes it, once it is done."""
        self.shutdown()
        with self.send_lock:
            self.sock.close()


class Broker:
    """Threaded TCP driver of BrokerState.

    A thread per connection reads its socket a chunk at a time
    (netio.SocketBuffer). It decodes each frame and hands it to
    ``state.receive`` under the one state lock, collecting the writes it
    returns, until no whole frame is left in the chunk. With the chunk's
    last frame it also flushes the event log, under that lock, which
    serializes every row too; so every row reaches the log before the
    bytes its packet caused. Then it performs the collected writes in
    order, outside the lock under per-connection send locks, one send per
    run of writes to one connection; so per-publisher delivery order is
    preserved. When the connection ends, the writes still collected go
    out before those of its release.

    A CONNECT with a client id already in use takes the id over: the old
    session is dropped, its will is published, and any packet the old
    connection still sends is ignored. ``clean_session=0`` is served as a
    clean session. Whatever ends a connection (DISCONNECT, EOF, keep-alive
    timeout, malformed bytes, a failed or timed-out write to it, or an
    error in the broker) closes only that connection and publishes its
    will unless it sent DISCONNECT.
    """

    def __init__(
        self,
        host: str = "0.0.0.0",
        port: int = 1883,
        admin_host: str = "127.0.0.1",
        admin_port: int | None = 1884,
        event_log: EventLog | None = None,
    ):
        self.state = BrokerState(event_log)
        self._lock = threading.Lock()
        # Under the state lock: the live client and admin connections, and
        # a Condition notified as each one ends.
        self._conns: set[_Conn] = set()
        self._ended = threading.Condition(self._lock)
        self._accepters: list[threading.Thread] = []
        self._host = host
        self._port = port
        self._admin_host = admin_host
        self._admin_port = admin_port
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
        """Listen on both ports and serve them; if the admin port cannot be
        bound, close the client listener and raise."""
        self._listener = self._listen(self._host, self._port)
        served = [(self._listener, self._serve_client, "mqttg-accept")]
        if self._admin_port is not None:
            try:
                self._admin_listener = self._listen(self._admin_host, self._admin_port)
            except OSError:
                self._listener.close()
                self._listener = None
                raise
            served.append((self._admin_listener, self._serve_admin, "mqttg-admin"))
        self._running = True
        for listener, serve, name in served:
            thread = threading.Thread(target=self._accept, args=(listener, serve), daemon=True, name=name)
            thread.start()
            self._accepters.append(thread)
        logger.info("broker listening on %s:%d", self._host, self.port)

    @staticmethod
    def _listen(host: str, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(64)
        except OSError:
            sock.close()
            raise
        return sock

    def stop(self) -> None:
        """End what start() started: shut the listeners and every client
        and admin connection down, wait for the listeners' threads to end
        and for each connection's thread to release its session, then
        flush the event log."""
        with self._lock:
            self._running = False
            conns = list(self._conns)
        listeners = [s for s in (self._listener, self._admin_listener) if s is not None]
        for listener in listeners:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes its accept(), which close() would not
            except OSError:
                pass
        for conn in conns:
            conn.shutdown()
        for thread in self._accepters:
            thread.join(STOP_WAIT_S)
        for listener in listeners:
            listener.close()
        with self._lock:
            if not self._ended.wait_for(lambda: not self._conns, STOP_WAIT_S):
                logger.warning("stop: %d connections still open", len(self._conns))
            self.state.events.flush()

    def _accept(self, listener: socket.socket, serve) -> None:
        """Serve each connection on its own thread, counted as live for
        stop() to end; once stop() has begun, close it instead."""
        while True:
            try:
                sock, addr = listener.accept()
            except OSError:
                return
            conn = _Conn(sock, addr)
            with self._lock:
                if not self._running:
                    break
                self._conns.add(conn)
            threading.Thread(target=serve, args=(conn,), daemon=True, name=f"mqttg-{addr}").start()
        conn.close()

    # -- client connections -----------------------------------------------------

    def _serve_client(self, conn: _Conn) -> None:
        sock = conn.sock
        reader = SocketBuffer(sock)
        pending: list[Write] = []  # the writes of the frames decided since the last send
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.set_timeout(10.0)  # until CONNECT sets the keep-alive
            while self._running:
                frame = read_frame(reader)
                if frame is None:
                    return
                packet = decode_packet(frame)
                batch_ends = not reader.holds_frame()
                with self._lock:
                    writes, keep_open = self.state.receive(conn, packet, time.monotonic())
                    if batch_ends:
                        self.state.events.flush()  # the batch's rows go before its writes
                pending += writes
                if not keep_open:
                    return
                if isinstance(packet.body, Connect):
                    conn.set_timeout(packet.body.keep_alive * 1.5)
                if batch_ends:
                    self._write(pending)
                    pending = []
        except BlockingIOError:  # a read past the deadline
            logger.warning("%s: keep-alive timeout", conn)
        except CodecError as exc:
            logger.warning("%s: closing connection: %s", conn, exc)
        except OSError:
            pass  # the peer went away
        except Exception:
            logger.exception("%s: closing connection after an error", conn)
        finally:
            with self._lock:
                pending += self.state.release(conn)
                self.state.events.flush()
                self._conns.discard(conn)
                self._ended.notify_all()
            self._write(pending)
            conn.close()

    @staticmethod
    def _write(writes: list[Write]) -> None:
        """Perform the core's writes in order, joining a run of writes to
        one connection into one send. A write that fails or times out shuts
        its target down; the target's own thread then releases it."""
        i, n = 0, len(writes)
        while i < n:
            target, data = writes[i]
            i += 1
            if data is not None:
                start = i - 1
                while i < n and writes[i][0] is target and writes[i][1] is not None:
                    i += 1
                if i - start > 1:
                    data = b"".join([d for _, d in writes[start:i]])
                try:
                    target.send(data)
                    continue
                except OSError:
                    pass
            target.shutdown()

    # -- admin socket -----------------------------------------------------------

    def _serve_admin(self, conn: _Conn) -> None:
        """Answer each line in turn; one that is not UTF-8 gets ERR. Replies
        are sent on the socket: a write to the text file would drop the
        lines it has read ahead."""
        try:
            with conn.sock.makefile("r", encoding="utf-8", errors="replace", newline="\n") as lines:
                for line in lines:
                    with self._lock:
                        replies = self.state.admin_command(line.strip())
                    conn.send("".join([reply + "\n" for reply in replies]).encode("utf-8"))
        except (ConnectionError, OSError):
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
                self._ended.notify_all()
            conn.close()


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
