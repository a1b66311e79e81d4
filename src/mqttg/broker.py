"""The MQTTg broker.

BrokerState is the sans-IO core. It holds sessions, subscriptions, the
last-known-location table, the geofence registry and retained messages,
and it makes every protocol decision: CONNECT, takeover, wills, QoS flows,
routing, event rows and admin commands. It does no socket I/O and takes no
locks; for each packet it returns the ordered writes ``(conn, bytes |
None)``, where None closes that connection. Broker is the driver that moves
the bytes: one thread running a ``selectors`` loop over every socket,
the line-oriented admin socket's included.

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
A QoS 0 publish that is not retained is itself each copy that keeps its
block choice, so that copy is the frame it came in; every other copy is
encoded.

Routing reads a plan per topic, so a publish costs what matches it, not
the size of the table. A plan holds the subscriber maps of the filters
matching the topic, found by walking a topic tree (topics.TopicTree), and,
for each of those clients that owns fences, the fences whose filters
match the topic. A topic's first publish since plans were dropped builds
its plan, and later ones walk no tree and match no fence filter. A
subscribe, or a fence added or cleared, drops every plan. An unsubscribe
or a session close drops none: a plan shares the tree's subscriber maps,
which lose the client at once. PLAN_ENTRIES bounds what the plans hold.
What depends on where a client is stays out of the plan: radius verdicts,
fence containment and geo-capability are decided at each publish.
A subscription is the TopicFilter the client sent. Geometry is compiled
once (see geo): a radius constraint holds its geo.Circle, a static fence
its Ring, and a dynamic fence the Ring it last resolved to, with the
anchor's record it was resolved at. A fix is its own point: the decoder
has already checked a version-1 block's coordinates. A repeated fix costs
almost nothing: equal blocks decode to one GeoLocation, whose event-log
columns are formatted once, and a fix at the client's last latitude and
longitude updates its LocationRecord in place, so a dynamic fence
anchored there keeps its Ring. A will is routed as a publish without
geolocation, on the same path.

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
import selectors
import socket
import threading
import time
from selectors import EVENT_READ, EVENT_WRITE

from .codec import (
    Connack,
    Connect,
    ControlPacket,
    Disconnect,
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
    Ring,
    coordinates_valid,
    haversine_distance,
    inside_radius,
    point_in_polygon,
    resolve_polygon,
)
from .netio import CHUNK, SocketBuffer, read_frame
from .record import FrozenRecord, Record
from .topics import TopicTree, topic_filter_valid, topic_matches

logger = logging.getLogger("mqttg.broker")

CONNACK_ACCEPTED = 0x00
CONNACK_BAD_PROTOCOL = 0x01
CONNACK_ID_REJECTED = 0x02
SUBACK_FAILURE = 0x80
# route()'s plans take at most 64 bytes a unit (traced: 16-64), so this caps
# them near 3 MB, a sixth of an idle broker's RSS, with room for some 6000
# plans of short topics. Past it, route() drops them all.
PLAN_ENTRIES = 50_000
ADMIN_COMMANDS = ("DUMP-LOCATIONS", "ADD-FENCE", "CLEAR-FENCE")

Write = tuple[object, bytes | None]  # (connection handle, bytes to send, or None to close it)

_set = object.__setattr__


class LocationRecord(Record):
    """Last-known location of a client plus its trip accumulators."""

    __slots__ = _fields = ("client_id", "location", "received_at", "cumulative_distance_m",
                           "last_speed_kmh", "updates", "segment_m")

    def __init__(self, client_id: str, location: GeoLocation, received_at: float) -> None:
        self.client_id = client_id
        self.location = location
        self.received_at = received_at
        self.cumulative_distance_m = 0.0
        self.last_speed_kmh: float | None = None
        self.updates = 1
        self.segment_m = 0.0  # distance from the previous fix


class Delivery(FrozenRecord):
    __slots__ = _fields = ("client_id", "qos", "include_geo")

    def __init__(self, client_id: str, qos: int, include_geo: bool) -> None:
        _set(self, "client_id", client_id)
        _set(self, "qos", qos)
        _set(self, "include_geo", include_geo)


class SessionState(Record):
    __slots__ = _fields = ("client_id", "subscriptions", "geo_capable", "next_pid", "outbound",
                           "incoming_qos2", "owner", "will")

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self.subscriptions: dict[str, TopicFilter] = {}  # the filters as the client sent them
        self.geo_capable = False
        self.next_pid = 1
        # QoS flow tables, made on first use: most sessions never need them
        self.outbound: set[int] | None = None  # packet ids of unacknowledged deliveries
        self.incoming_qos2: set[int] | None = None
        self.owner: object = None  # the connection's handle; None for a session with no connection
        self.will: Will | None = None


class _StoredFence:
    """A registered fence and the Ring it is tested against.

    A static fence's Ring is its own. A dynamic fence's is the one it last
    resolved to, kept with ``anchor``, the anchor's LocationRecord at that
    time (None: it had none); None if that resolution failed. Only a fix
    that moves (or changes its block's version) replaces the anchor's
    record, and every new session drops it; a fix that repeats the
    latitude and longitude updates the record in place. So a record that
    is still the anchor's means the Ring is still right.
    """

    __slots__ = ("fence", "anchor", "ring")

    def __init__(self, fence: GeofencePolygon) -> None:
        self.fence = fence
        self.anchor: LocationRecord | None = None
        self.ring: Ring | None = fence.ring


# A topic's route plan: the subscriber maps ({client: TopicFilter}) of the
# filters matching the topic, and {candidate client: its fences whose
# filters match the topic}.
Plan = tuple[list[dict[str, TopicFilter]], dict[str, list[_StoredFence]]]


class BrokerState:
    """The sans-IO core; callers serialize access. A connection is an
    opaque handle that the core only stores and compares. Event rows go to
    ``events`` in the order they are decided."""

    def __init__(self, events: EventLog | None = None) -> None:
        self.events = events or EventLog()
        self.clients: dict[object, str] = {}  # connection handle -> client id
        self.sessions: dict[str, SessionState] = {}
        # filter -> {client_id: TopicFilter}; the same objects as in
        # session.subscriptions, kept in step by every method that changes them
        self.subscriptions = TopicTree()
        self.locations: dict[str, LocationRecord] = {}
        self.fences: dict[str, dict[str, list[_StoredFence]]] = {}  # owner -> filter -> fences
        self.retained: dict[str, tuple[bytes, int]] = {}
        # topic -> Plan, made by route(); cleared by subscribe and by every
        # change to self.fences. A plan shares the tree's subscriber maps, so
        # a subscription removed (unsubscribe, close) leaves it at once.
        self.plans: dict[str, Plan] = {}
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
                self._publish(writes, cid, body.topic, body.payload, body.qos, body.retain, geo, packet)
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
        # An id must be one admin token: not empty, and no whitespace (MQTT-3.1.3-9).
        if body.protocol_level != 4 or body.client_id.split() != [body.client_id]:
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
            self._publish(writes, cid, will.topic, will.payload, will.qos, will.retain)
        return writes

    def _publish(
        self, writes: list[Write], cid: str, topic: str, payload: bytes, qos: int, retain: bool,
        geo: GeoLocation | None = None, packet: ControlPacket | None = None,
    ) -> None:
        """Store, route and queue one publish from ``cid``: a received
        ``packet``, or a will (no packet, no geolocation)."""
        if retain:
            # Retained copies never keep the geolocation block.
            self.set_retained(topic, payload, qos)
        source = packet if qos == 0 and not retain else None
        for d in self.route(cid, topic, qos, geo):
            self._queue_publish(
                writes, d.client_id, topic, payload, d.qos, geo if d.include_geo else None, source=source
            )

    def _queue_publish(
        self,
        writes: list[Write],
        client_id: str,
        topic: str,
        payload: bytes,
        qos: int,
        geo: GeoLocation | None = None,
        retain: bool = False,
        source: ControlPacket | None = None,
    ) -> None:
        """Encode a publish to a connected client and open its QoS flow.
        A client out of packet ids misses this copy. ``source``, a received
        QoS 0 publish that is not retained, is itself this copy when the
        copy keeps its block choice: every copy of it is QoS 0 and not
        retained."""
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
        if source is not None and geo is source.geolocation:
            pkt = source
        else:
            pkt = ControlPacket(Publish(topic, payload, qos, retain, packet_id=pid), geo)
        writes.append((session.owner, encode_packet(pkt)))

    # -- location table -----------------------------------------------------

    def update_last_location(
        self, client_id: str, geo: GeoLocation, now: float
    ) -> LocationRecord:
        """Record the client's fix. A fix at the record's latitude and
        longitude, of the same version, updates the record in place: the
        haversine of a point to itself is exactly 0.0, so its values are the
        ones a new record would get, and a dynamic fence anchored there keeps
        its Ring (see _StoredFence). Any other fix replaces the record."""
        prior = self.locations.get(client_id)
        if prior is None:
            record = self.locations[client_id] = LocationRecord(client_id, geo, now)
            return record
        dt = now - prior.received_at
        last = prior.location
        same_point = last.latitude == geo.latitude and last.longitude == geo.longitude
        if same_point and last.version == geo.version:
            prior.location, prior.received_at, prior.segment_m = geo, now, 0.0
            prior.last_speed_kmh = 0.0 if dt > 0 else None
            prior.updates += 1
            return prior
        segment = haversine_distance(last, geo)
        record = self.locations[client_id] = LocationRecord(client_id, geo, now)
        record.segment_m = segment
        record.cumulative_distance_m = prior.cumulative_distance_m + segment
        record.last_speed_kmh = (segment / dt) * 3.6 if dt > 0 else None
        record.updates = prior.updates + 1
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
            session.subscriptions[f.topic] = f
            self.subscriptions.add(f.topic, client_id, f)
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
        while True:  # fewer than 65535 are taken, so a free one comes within 65535 steps
            pid = session.next_pid
            session.next_pid = pid % 65535 + 1
            if pid not in outbound:
                return pid

    # -- routing --------------------------------------------------------------

    def route(
        self,
        publisher_id: str | None,
        topic: str,
        qos: int,
        geo: GeoLocation | None,
    ) -> list[Delivery]:
        """Delivery decisions for one publish; see the module docstring.
        The decision does not read ``publisher_id``."""
        point = None  # fail closed: no location, no geo-constrained delivery
        if geo is not None and geo.is_evaluable:
            point = geo
            lat, lon = geo.latitude, geo.longitude
        nodes, fenced = self.plans.get(topic) or self._plan(topic)
        granted: dict[str, int] = {}  # client -> the highest QoS of its passing filters
        via_circle: set[str] = set()  # clients with a passing radius filter
        for subs in nodes:
            for client_id, sub in subs.items():
                constraint = sub.constraint
                if constraint is not None:
                    if point is None:
                        continue
                    circle = constraint.circle
                    dlat = abs(lat - circle.latitude)
                    if dlat > circle.band:
                        inside = False
                    else:
                        dlon = abs(lon - circle.longitude)
                        if dlon > 180.0:
                            dlon = 360.0 - dlon
                        inside = dlat + circle.cos_lat * dlon <= circle.inner or inside_radius(
                            point, circle, circle.radius
                        )
                    if inside != circle.inside:
                        continue
                    via_circle.add(client_id)
                if sub.qos > granted.get(client_id, -1):
                    granted[client_id] = sub.qos
        deliveries = []
        for client_id, sub_qos in granted.items():
            fences = fenced.get(client_id)
            if fences and not self._inside_fences(client_id, fences):
                continue
            include_geo = geo is not None and (
                client_id in via_circle or self.sessions[client_id].geo_capable
            )
            deliveries.append(Delivery(client_id, min(qos, sub_qos), include_geo))
        return deliveries

    def _plan(self, topic: str) -> Plan:
        """``topic``'s plan, stored with its size in PLAN_ENTRIES units;
        passing PLAN_ENTRIES drops all plans first, and a plan larger than
        it alone is not stored."""
        nodes = self.subscriptions.match(topic)
        owners = {client_id for subs in nodes for client_id in subs} & self.fences.keys()
        fenced = {cid: fences for cid in owners if (fences := self._fences_for(cid, topic))}
        # its slot (2), its topic at up to 4 bytes a character, the plan (4) and what it holds
        size = 6 + len(topic) // 16 + len(nodes) + 2 * len(fenced) + sum(map(len, fenced.values()))
        plan = nodes, fenced
        if size > PLAN_ENTRIES:
            return plan
        if not self.plans or self._planned + size > PLAN_ENTRIES:  # empty: the count is stale
            self.plans.clear()
            self._planned = 0
        self.plans[topic] = plan
        self._planned += size
        return plan

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
        where = record.location
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
            anchor = record.location if record is not None and record.location.is_evaluable else None
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
        if command not in ADMIN_COMMANDS:
            return [f"ERR unknown command {tokens[0]!r}"]
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
            if len(tokens) != 3:  # CLEAR-FENCE
                return ["ERR expected: CLEAR-FENCE client_id topic"]
            return [f"OK {self.clear_fence(tokens[1], tokens[2])}"]
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


SWEEP_S = 0.5  # how often the loop checks every connection's deadlines
OUT_LIMIT = 8 << 20  # bytes queued to one connection past which it is closed as a slow consumer
ADMIN_LINE_LIMIT = 64 << 10  # bytes of an unfinished admin line past which its connection is ended


class _Conn:
    """A client or admin connection; ``serve`` handles its readable events.
    ``reader`` is a client's SocketBuffer or an admin connection's partial
    line; ``out`` holds what the socket did not take yet. Its deadline is
    ``timeout`` seconds (0: none) since bytes last arrived (``heard``), and
    since ``queued``: when ``out`` became non-empty, or when the ``mark``
    bytes in it then had all been sent."""

    __slots__ = ("sock", "addr", "serve", "reader", "out", "mark", "timeout", "heard", "queued")

    def __init__(self, sock: socket.socket, addr, serve, reader, timeout: float, now: float) -> None:
        self.sock = sock
        self.addr = addr
        self.serve = serve
        self.reader = reader
        self.out = bytearray()
        self.mark = 0
        self.timeout = timeout
        self.heard = self.queued = now

    def __repr__(self) -> str:
        return str(self.addr)


class Broker:
    """TCP driver of BrokerState: one thread runs a ``selectors`` loop over
    both listeners and every client and admin connection, all non-blocking.

    Each round gives a readable client connection one ``read_frame`` and
    has ``state.receive`` decide each frame its reader holds; then it
    flushes the event log, so rows precede the bytes their packets caused,
    and performs the writes in the order they were decided (see _write).
    Every SWEEP_S it ends each connection that sent nothing for 1.5 x its
    keep-alive (10 s before CONNECT; 0 sets none), or whose queued bytes
    waited that long (see _Conn).

    A CONNECT with a client id in use takes the id over: the old session is
    dropped and its will published; the old connection's packets are
    ignored. ``clean_session=0`` is served as a clean session. Whatever
    ends a connection (DISCONNECT, EOF, a deadline, malformed bytes, a
    failed write, a full queue, an error) closes only it and publishes its
    will unless it sent DISCONNECT. Touch ``state`` only before ``start()``
    or after ``stop()``.
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
        self._conns: set[_Conn] = set()  # the live client and admin connections
        self._address = (host, port)
        self._admin_address = None if admin_port is None else (admin_host, admin_port)
        self._listener: socket.socket | None = None
        self._admin_listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._wake: socket.socket | None = None  # stop() sends a byte to it to end select()
        self._thread: threading.Thread | None = None
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
        """Load a fence file (see load_fence_file); call it before start()."""
        return load_fence_file(path, self.state)

    def start(self) -> None:
        """Listen on both ports and serve them on the loop's thread; if the
        admin port cannot be bound, close the client listener and raise."""
        listener = socket.create_server(self._address, backlog=64)
        admin = None
        if self._admin_address is not None:
            try:
                admin = socket.create_server(self._admin_address, backlog=64)
            except OSError:
                listener.close()
                raise
        self._listener, self._admin_listener = listener, admin
        self._selector = selectors.DefaultSelector()
        woken, self._wake = socket.socketpair()
        # key.data: the handler of a listener's readable events; None for the wake socket
        for sock, data in ((listener, self._accept), (admin, self._accept), (woken, None)):
            if sock is not None:
                sock.setblocking(False)
                self._selector.register(sock, EVENT_READ, data)
        self._running = True
        self._thread = threading.Thread(target=self._run, daemon=True, name="mqttg-broker")
        self._thread.start()
        logger.info("broker listening on %s:%d", self._address[0], self.port)

    def stop(self) -> None:
        """Wake the loop and wait until it has closed every socket, each
        session released; then flush the event log. A second call, or one
        without start(), only flushes."""
        if self._running:
            # Wake it first: once _running is False, the loop may end and close its end.
            self._wake.send(b"\0")
            self._running = False
            self._thread.join()
            self._wake.close()
        self.state.events.flush()

    # -- the loop -------------------------------------------------------------

    def _run(self) -> None:
        selector = self._selector
        writes: list[Write] = []
        swept = time.monotonic()
        while self._running:
            try:
                ready = selector.select(SWEEP_S)
                now = time.monotonic()
                for key, mask in ready:
                    conn = key.data
                    if conn.__class__ is not _Conn:
                        if conn is not None:
                            conn(key.fileobj)  # a listener's accept
                        continue
                    if mask & EVENT_WRITE:
                        self._drain(conn, now, writes)
                    if mask & EVENT_READ:
                        conn.heard = now
                        try:
                            conn.serve(conn, writes)
                        except Exception:
                            logger.exception("%s: closing connection after an error", conn)
                            writes.append((conn, None))
                if now - swept >= SWEEP_S:
                    swept = now
                    self._sweep(now, writes)
                self.state.events.flush()  # the round's rows go before its writes
            except Exception:
                logger.exception("broker loop: a round failed")
            self._write(writes)  # what the round decided goes, whatever failed in it
            writes = []
        self._write([(conn, None) for conn in list(self._conns)])
        for key in list(selector.get_map().values()):
            key.fileobj.close()
        selector.close()
        self.state.events.flush()

    def _accept(self, listener: socket.socket) -> None:
        """Take a connection from a listener: a client's has 10 s to send
        CONNECT, an admin connection has no deadline."""
        try:
            sock, addr = listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if listener is self._listener:
            conn = _Conn(sock, addr, self._read_client, SocketBuffer(sock), 10.0, time.monotonic())
        else:
            conn = _Conn(sock, addr, self._read_admin, b"", 0.0, time.monotonic())
        self._selector.register(sock, EVENT_READ, conn)
        self._conns.add(conn)

    def _sweep(self, now: float, writes: list[Write]) -> None:
        """End every connection past its deadline."""
        for conn in self._conns:
            timeout = conn.timeout
            if timeout and (now - conn.heard > timeout or conn.out and now - conn.queued > timeout):
                logger.warning("%s: keep-alive timeout", conn)
                writes.append((conn, None))

    def _read_client(self, conn: _Conn, writes: list[Write]) -> None:
        """Read once, then decide every frame the reader holds; a
        connection that ends adds ``(conn, None)``."""
        reader = conn.reader
        try:
            frame = read_frame(reader)
            while frame is not None:
                packet = decode_packet(frame)
                done, keep_open = self.state.receive(conn, packet, time.monotonic())
                writes += done
                if not keep_open:
                    break
                if isinstance(packet.body, Connect):
                    conn.timeout = packet.body.keep_alive * 1.5
                if not reader.holds_frame():
                    return
                frame = read_frame(reader)
        except BlockingIOError:
            return  # the rest of the frame has not arrived yet
        except CodecError as exc:
            logger.warning("%s: closing connection: %s", conn, exc)
        except OSError:
            pass  # the peer went away
        writes.append((conn, None))

    def _read_admin(self, conn: _Conn, writes: list[Write]) -> None:
        """Answer each whole line, and at EOF a last one without a newline.
        An unfinished line longer than ADMIN_LINE_LIMIT gets ERR and ends
        the connection."""
        try:
            chunk = conn.sock.recv(CHUNK)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        lines = (conn.reader + chunk).split(b"\n")
        conn.reader = lines.pop() if chunk else b""
        replies = [reply + "\n" for line in lines for reply in self._admin_replies(line)]
        too_long = len(conn.reader) > ADMIN_LINE_LIMIT
        if too_long:
            replies.append("ERR line too long\n")
        if replies:
            writes.append((conn, "".join(replies).encode("utf-8")))
        if not chunk or too_long:
            writes.append((conn, None))

    def _admin_replies(self, line: bytes) -> list[str]:
        """The replies to one admin line. A line that is not UTF-8 is not
        run: its ERR says that its first word is no command, or else where
        it stops being UTF-8."""
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            word = line.split()[0].decode("utf-8", "replace")
            if word.upper() not in ADMIN_COMMANDS:
                return [f"ERR unknown command {word!r}"]
            return [f"ERR line is not UTF-8 at byte {exc.start}"]
        return self.state.admin_command(text.strip())

    # -- writes -----------------------------------------------------------------

    def _write(self, writes: list[Write]) -> None:
        """Perform the core's writes in order, a run to one connection as one
        send, made at once while nothing is queued to it; the rest is queued.
        ``(conn, None)``, a failed send, an error or a write that would take a
        non-empty queue past OUT_LIMIT ends only that connection (see _end)."""
        i = 0
        while i < len(writes):  # _end appends to it
            conn, data = writes[i]
            i += 1
            try:
                if data is None:
                    self._end(conn, writes)
                    continue
                start = i - 1
                while i < len(writes) and writes[i][0] is conn and writes[i][1] is not None:
                    i += 1
                if conn not in self._conns:
                    continue
                if i - start > 1:
                    data = b"".join([d for _, d in writes[start:i]])
                out = conn.out
                if out:
                    if len(out) + len(data) > OUT_LIMIT:
                        logger.warning("%s: closing a slow consumer: %d bytes queued", conn, len(out))
                        self._end(conn, writes)
                    else:
                        out += data
                    continue
                try:
                    sent = conn.sock.send(data)
                except BlockingIOError:
                    sent = 0
                except OSError:
                    self._end(conn, writes)
                    continue
                if sent < len(data):
                    out += memoryview(data)[sent:]
                    conn.mark, conn.queued = len(out), time.monotonic()
                    self._selector.modify(conn.sock, EVENT_READ | EVENT_WRITE, conn)
            except Exception:
                logger.exception("%s: closing connection after an error", conn)
                self._end(conn, writes)

    def _drain(self, conn: _Conn, now: float, writes: list[Write]) -> None:
        """Send what is queued; once the ``mark`` bytes have gone, reset the deadline."""
        out = conn.out
        try:
            sent = conn.sock.send(out)
        except BlockingIOError:
            return
        except OSError:
            writes.append((conn, None))
            return
        del out[:sent]
        conn.mark -= sent
        if not out:
            self._selector.modify(conn.sock, EVENT_READ, conn)
        elif conn.mark <= 0:
            conn.mark, conn.queued = len(out), now

    def _end(self, conn: _Conn, writes: list[Write]) -> None:
        """Close ``conn`` once, dropping what is still queued to it; release
        its session, flush the rows that made, and add its writes."""
        if conn not in self._conns:
            return
        self._conns.remove(conn)
        self._selector.unregister(conn.sock)
        try:  # a FIN first, so a reset for unread input still lets the peer read all, then EOF
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.sock.close()
        writes += self.state.release(conn)
        self.state.events.flush()


def admin_request(host: str, port: int, line: str, timeout: float = 5.0) -> list[str]:
    """Send one admin command; returns its reply lines. DUMP-LOCATIONS
    replies with rows of seven fields and then ``OK``, so only the line
    ``OK`` ends it; every other command replies with one line. The broker
    answers no blank line, so a blank ``line`` raises MQTTgError at once."""
    if not line.strip():
        raise MQTTgError("an admin command cannot be blank")
    dump = line.upper().split()[:1] == ["DUMP-LOCATIONS"]
    # The reader holds the socket open until it is closed itself, so both
    # close here on every path, a timeout included.
    with (
        socket.create_connection((host, port), timeout=timeout) as sock,
        sock.makefile("r", encoding="utf-8") as fh,
    ):
        sock.sendall(line.encode("utf-8") + b"\n")
        lines: list[str] = []
        for reply in fh:
            reply = reply.rstrip("\n")
            lines.append(reply)
            if reply == "OK" or not dump:
                return lines
    raise MQTTgError("admin connection closed before reply terminator")
