"""Randomized routing scenarios checked against the brute-force oracle.

One scenario builds a BrokerState and a RoutingOracle mirror from the
same random choices (never by reading one from the other), then replays
up to 50 publishes through both and compares delivery sets. A large
scenario does the same with hundreds of sessions on overlapping wildcard
filters and '$' topics, while subscribes, unsubscribes, fence changes,
session closes and re-opens interleave with the publishes. An interleaved
scenario puts a change of each kind between publishes on a few repeated
topics, where a routing decision kept past a change would show.
"""

from __future__ import annotations

import math
from random import Random

from mqttg.broker import BrokerState
from mqttg.codec import ConstraintKind, GeoConstraint, GeoLocation, TopicFilter
from mqttg.geo import FenceMode, GeofencePolygon, GeoPoint

from oracles import RoutingOracle

# Everything stays inside this box: no antimeridian wrap, no poles.
LAT_RANGE = (-40.0, 40.0)
LON_RANGE = (-60.0, 60.0)

_TOPICS = ("city/traffic", "city/air", "fleet/truck/7", "fleet/truck/9", "door", "t")
_FILTERS = _TOPICS + ("city/+", "fleet/#", "#", "+/traffic", "fleet/+/7")


def _point(rng: Random) -> tuple[float, float]:
    return rng.uniform(*LAT_RANGE), rng.uniform(*LON_RANGE)


def _convex_vertices(rng: Random, center: tuple[float, float], radius_deg: float):
    n = rng.randint(3, 7)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    if min(b - a for a, b in zip(angles, angles[1:])) < 1e-3:
        angles = [2 * math.pi * i / n for i in range(n)]
    return [
        (center[0] + radius_deg * math.sin(a), center[1] + radius_deg * math.cos(a))
        for a in angles
    ]


def run_scenario(rng: Random, force_no_geo_publishes: bool = False) -> int:
    """Run one scenario; returns the number of publishes checked.

    With force_no_geo_publishes the publishes all lack geolocation and the
    scenario additionally asserts fail-closed filtering directly.
    """
    state = BrokerState()
    oracle = RoutingOracle()
    clients = [f"c{i}" for i in range(rng.randint(2, 10))]
    for client in clients:
        state.open_session(client)
        oracle.subscriptions.setdefault(client, [])
    now = 0.0

    # Seed locations and geo-capability for a subset of clients.
    for client in clients:
        if rng.random() < 0.7:
            lat, lon = _point(rng)
            now += 1.0
            state.sessions[client].geo_capable = True
            state.update_last_location(client, GeoLocation(1, lat, lon, 0.0), now)
            oracle.geo_capable.add(client)
            oracle.set_location(client, lat, lon)

    for _ in range(rng.randint(1, 20)):
        client = rng.choice(clients)
        topic_filter = rng.choice(_FILTERS)
        qos = rng.randint(0, 2)
        constraint = None
        oracle_constraint = None
        if rng.random() < 0.45:
            kind = rng.choice((ConstraintKind.INSIDE_RADIUS, ConstraintKind.OUTSIDE_RADIUS))
            clat, clon = _point(rng)
            constraint = GeoConstraint(kind, rng.uniform(10_000.0, 3_000_000.0), clat, clon)
            oracle_constraint = (
                "inside" if kind is ConstraintKind.INSIDE_RADIUS else "outside",
                constraint.radius,  # after float32 rounding
                clat,
                clon,
            )
        state.subscribe(client, (TopicFilter(topic_filter, qos, constraint),))
        oracle.subscribe(client, topic_filter, qos, oracle_constraint)

    for _ in range(rng.randint(0, 5)):
        owner = rng.choice(clients)
        topic_filter = rng.choice(_FILTERS)
        radius_deg = rng.uniform(0.5, 8.0)
        if rng.random() < 0.7:
            # static fence, usually near the owner's current location
            if owner in oracle.locations and rng.random() < 0.7:
                base = oracle.locations[owner]
                center = (base[0] + rng.uniform(-2, 2), base[1] + rng.uniform(-2, 2))
            else:
                center = _point(rng)
            vertices = _convex_vertices(rng, center, radius_deg)
            fence = GeofencePolygon(
                FenceMode.STATIC, vertices=tuple(GeoPoint(la, lo) for la, lo in vertices)
            )
            state.add_fence(owner, topic_filter, fence)
            oracle.add_fence(owner, topic_filter, {"mode": "static", "vertices": vertices})
        else:
            anchor = rng.choice(clients)
            offsets = _convex_vertices(rng, (0.0, 0.0), radius_deg)
            fence = GeofencePolygon(
                FenceMode.DYNAMIC, vertex_offsets=tuple(offsets), anchor_client=anchor
            )
            state.add_fence(owner, topic_filter, fence)
            oracle.add_fence(
                owner, topic_filter, {"mode": "dynamic", "anchor": anchor, "offsets": offsets}
            )

    checked = 0
    for _ in range(rng.randint(1, 50)):
        publisher = rng.choice(clients)
        topic = rng.choice(_TOPICS)
        qos = rng.randint(0, 2)
        geo = None
        if not force_no_geo_publishes and rng.random() < 0.7:
            lat, lon = _point(rng)
            geo = GeoLocation(1, lat, lon, rng.uniform(0, 500))

        # Mirror the broker's geo-attach ordering: location first, then route.
        if geo is not None:
            state.sessions[publisher].geo_capable = True
            now += rng.uniform(1.0, 60.0)
            state.update_last_location(publisher, geo, now)
        got = {
            (d.client_id, d.qos, d.include_geo)
            for d in state.route(publisher, topic, qos, geo)
        }
        want = oracle.publish(
            publisher,
            topic,
            qos,
            None if geo is None else (geo.version, geo.latitude, geo.longitude),
        )
        assert got == want, f"topic={topic} qos={qos} geo={geo}\n got={got}\nwant={want}"

        if geo is None:
            # Fail-closed: no geo-constrained subscription may be served.
            for client, out_qos, has_geo in got:
                assert not has_geo
                subs = oracle.subscriptions[client]
                plain = [
                    s for s in subs
                    if s[2] is None and oracle._sub_passes(s, topic, None)
                ]
                assert plain, f"{client} got a geo-less publish without a plain filter"
        checked += 1
    return checked


_WORDS = ("a", "b", "c", "7", "")
_DOLLAR_WORDS = ("$SYS", "$app")


def _large_topic(rng: Random) -> str:
    first = rng.choice(_DOLLAR_WORDS if rng.random() < 0.15 else _WORDS[:-1])
    return "/".join([first] + [rng.choice(_WORDS) for _ in range(rng.randint(0, 3))])


def _large_filter(rng: Random) -> str:
    levels = ["+" if rng.random() < 0.3 else level for level in _large_topic(rng).split("/")]
    if rng.random() < 0.3:
        levels[rng.randrange(len(levels)):] = ["#"]
    return "/".join(levels)


def _large_constraint(rng: Random):
    """A (GeoConstraint, oracle tuple) pair, or (None, None) for a plain filter."""
    if rng.random() >= 0.4:
        return None, None
    kind = rng.choice((ConstraintKind.INSIDE_RADIUS, ConstraintKind.OUTSIDE_RADIUS))
    clat, clon = _point(rng)
    constraint = GeoConstraint(kind, rng.uniform(500_000.0, 6_000_000.0), clat, clon)
    name = "inside" if kind is ConstraintKind.INSIDE_RADIUS else "outside"
    return constraint, (name, constraint.radius, clat, clon)


def run_large_scenario(rng: Random) -> int:
    """Run one large scenario of 300 sessions and 60 rounds of churn and
    publishes; returns the number of publishes checked.

    Ends by closing every session and checking that the subscription
    index is left empty.
    """
    sessions, rounds = 300, 60
    state = BrokerState()
    oracle = RoutingOracle()
    clients = [f"s{i:03d}" for i in range(sessions)]
    live: set[str] = set()
    now = 0.0

    def locate(client: str, lat: float, lon: float) -> None:
        nonlocal now
        now += 1.0
        state.sessions[client].geo_capable = True
        state.update_last_location(client, GeoLocation(1, lat, lon, 0.0), now)

    def open_session(client: str) -> None:
        state.open_session(client)
        oracle.reopen(client)
        live.add(client)
        if rng.random() < 0.7:
            lat, lon = _point(rng)
            locate(client, lat, lon)
            oracle.geo_capable.add(client)
            oracle.set_location(client, lat, lon)

    def own_or_new(client: str, share: float) -> str:
        """One of the client's filters with probability share, else a new one."""
        own = [s[0] for s in oracle.subscriptions.get(client, [])]
        return rng.choice(own) if own and rng.random() < share else _large_filter(rng)

    def subscribe(client: str) -> None:
        topic_filter = own_or_new(client, 0.2)  # sometimes a re-subscribe
        qos = rng.randint(0, 2)
        constraint, oracle_constraint = _large_constraint(rng)
        state.subscribe(client, (TopicFilter(topic_filter, qos, constraint),))
        oracle.subscribe(client, topic_filter, qos, oracle_constraint)

    def add_fence(owner: str) -> None:
        topic_filter = own_or_new(owner, 0.8)
        if rng.random() < 0.7:
            base = oracle.locations.get(owner) or _point(rng)
            center = (base[0] + rng.uniform(-3, 3), base[1] + rng.uniform(-3, 3))
            vertices = _convex_vertices(rng, center, rng.uniform(1.0, 8.0))
            fence = GeofencePolygon(
                FenceMode.STATIC, vertices=tuple(GeoPoint(la, lo) for la, lo in vertices)
            )
            oracle.add_fence(owner, topic_filter, {"mode": "static", "vertices": vertices})
        else:
            anchor = rng.choice(clients)
            offsets = _convex_vertices(rng, (0.0, 0.0), rng.uniform(5.0, 30.0))
            fence = GeofencePolygon(
                FenceMode.DYNAMIC, vertex_offsets=tuple(offsets), anchor_client=anchor
            )
            oracle.add_fence(
                owner, topic_filter, {"mode": "dynamic", "anchor": anchor, "offsets": offsets}
            )
        state.add_fence(owner, topic_filter, fence)

    for client in clients:
        open_session(client)
        for _ in range(rng.randint(1, 4)):
            subscribe(client)
    for _ in range(sessions // 10):
        add_fence(rng.choice(clients))

    checked = 0
    for _ in range(rounds):
        for _ in range(rng.randint(1, 8)):
            client = rng.choice(clients)
            op = rng.random()
            if op < 0.3 and client in live:
                topic_filter = own_or_new(client, 0.8)
                state.unsubscribe(client, (topic_filter,))
                oracle.unsubscribe(client, topic_filter)
            elif op < 0.5 and client in live:
                subscribe(client)
            elif op < 0.65:
                open_session(client)  # a takeover when the id is live
                for _ in range(rng.randint(0, 3)):
                    subscribe(client)
            elif op < 0.75:
                state.close_session(client)
                oracle.close(client)
                live.discard(client)
            elif op < 0.9:
                add_fence(client)
            else:
                fenced = [(owner, tf) for owner, tf, _ in oracle.fences]
                owner, topic_filter = rng.choice(fenced) if fenced else (client, "a")
                state.clear_fence(owner, topic_filter)
                oracle.clear_fence(owner, topic_filter)

        for _ in range(5):
            publisher = rng.choice(clients)
            topic = _large_topic(rng)
            qos = rng.randint(0, 2)
            geo = None
            if publisher in live and rng.random() < 0.7:
                lat, lon = _point(rng)
                geo = GeoLocation(1, lat, lon, 0.0)
                locate(publisher, lat, lon)
            # A publisher without a session stands for a will: no geolocation.
            got = {
                (d.client_id, d.qos, d.include_geo)
                for d in state.route(publisher, topic, qos, geo)
            }
            want = oracle.publish(
                publisher, topic, qos, None if geo is None else (1, geo.latitude, geo.longitude)
            )
            assert got == want, f"topic={topic} qos={qos} geo={geo}\n got={got}\nwant={want}"
            checked += 1

    for client in clients:
        state.close_session(client)
    assert state.subscriptions.root.children == {}
    return checked


def run_interleaved_scenario(rng: Random) -> int:
    """Run 200 random steps on a few sessions and topics, where every kind
    of change lands between publishes: subscribe, unsubscribe, fence added and
    cleared, takeover, close and location fixes. Publishes repeat the same
    few topics, in runs of up to four, so a routing decision that outlived
    a change shows up on a later publish. Returns the number of publishes
    checked.
    """
    state = BrokerState()
    oracle = RoutingOracle()
    clients = [f"i{i}" for i in range(6)]
    live: set[str] = set()
    now = 0.0

    def locate(client: str) -> None:
        nonlocal now
        lat, lon = _point(rng)
        now += 1.0
        state.sessions[client].geo_capable = True
        state.update_last_location(client, GeoLocation(1, lat, lon, 0.0), now)
        oracle.geo_capable.add(client)
        oracle.set_location(client, lat, lon)

    def open_session(client: str) -> None:
        state.open_session(client)
        oracle.reopen(client)
        live.add(client)

    def add_fence(owner: str) -> None:
        topic_filter = rng.choice(_FILTERS)
        if rng.random() < 0.6:
            # Near the owner or anywhere, so that clearing a fence often
            # changes a verdict.
            base = oracle.locations.get(owner) if rng.random() < 0.5 else None
            base = base or _point(rng)
            center = (base[0] + rng.uniform(-2, 2), base[1] + rng.uniform(-2, 2))
            vertices = _convex_vertices(rng, center, rng.uniform(1.0, 6.0))
            fence = GeofencePolygon(
                FenceMode.STATIC, vertices=tuple(GeoPoint(la, lo) for la, lo in vertices)
            )
            oracle.add_fence(owner, topic_filter, {"mode": "static", "vertices": vertices})
        else:
            anchor = rng.choice(clients)
            offsets = _convex_vertices(rng, (0.0, 0.0), rng.uniform(5.0, 30.0))
            fence = GeofencePolygon(
                FenceMode.DYNAMIC, vertex_offsets=tuple(offsets), anchor_client=anchor
            )
            oracle.add_fence(
                owner, topic_filter, {"mode": "dynamic", "anchor": anchor, "offsets": offsets}
            )
        state.add_fence(owner, topic_filter, fence)

    for client in clients:
        open_session(client)

    checked = 0
    for _ in range(200):
        client = rng.choice(clients)
        op = rng.random()
        if op < 0.45:
            # One to four publishes on a topic: the broker plans a topic on
            # its second publish, and uses the plan from the third on.
            topic = rng.choice(_TOPICS)
            for _ in range(rng.randint(1, 4)):
                qos = rng.randint(0, 2)
                geo = None
                if client in live and rng.random() < 0.6:
                    lat, lon = _point(rng)
                    geo = GeoLocation(1, lat, lon, 0.0)
                    now += 1.0
                    state.sessions[client].geo_capable = True
                    state.update_last_location(client, geo, now)
                # A publisher without a session stands for a will: no geolocation.
                deliveries = state.route(client, topic, qos, geo)
                got = {(d.client_id, d.qos, d.include_geo) for d in deliveries}
                want = oracle.publish(
                    client, topic, qos, None if geo is None else (1, geo.latitude, geo.longitude)
                )
                assert got == want, f"topic={topic} qos={qos} geo={geo}\n got={got}\nwant={want}"
                checked += 1
        elif client not in live:
            open_session(client)
        elif op < 0.6:
            topic_filter = rng.choice(_FILTERS)
            qos = rng.randint(0, 2)
            constraint = oracle_constraint = None
            if rng.random() < 0.3:
                constraint, oracle_constraint = _large_constraint(rng)
            state.subscribe(client, (TopicFilter(topic_filter, qos, constraint),))
            oracle.subscribe(client, topic_filter, qos, oracle_constraint)
        elif op < 0.68:
            own = [s[0] for s in oracle.subscriptions[client]]
            topic_filter = rng.choice(own) if own and rng.random() < 0.8 else rng.choice(_FILTERS)
            state.unsubscribe(client, (topic_filter,))
            oracle.unsubscribe(client, topic_filter)
        elif op < 0.76:
            add_fence(client)
        elif op < 0.82:
            fenced = [(owner, tf) for owner, tf, _ in oracle.fences]
            owner, topic_filter = rng.choice(fenced) if fenced else (client, "t")
            state.clear_fence(owner, topic_filter)
            oracle.clear_fence(owner, topic_filter)
        elif op < 0.87:
            open_session(client)  # a takeover: the id is live
        elif op < 0.91:
            state.close_session(client)
            oracle.close(client)
            live.discard(client)
        else:
            locate(client)
    return checked
