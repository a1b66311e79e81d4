"""Independent oracles the tests check the implementation against.

Everything here is deliberately written from the protocol/geometry
definitions, not by calling into mqttg internals: a varint encoder from
the MQTT algorithm, a great-circle distance from 3-D chord geometry, a
winding-number polygon test, a recursive topic matcher, and a brute-force
routing evaluator that re-checks every (publish, subscription, fence)
triple.
"""

from __future__ import annotations

import math

EARTH_RADIUS_M = 6_371_000.0


def varint_oracle(n: int) -> bytes:
    """MQTT remaining-length encoding, shift-based formulation."""
    assert 0 <= n <= 0x0FFFFFFF
    out = []
    while True:
        out.append(n & 0x7F)
        n >>= 7
        if n:
            out[-1] |= 0x80
        else:
            return bytes(out)


def distance_oracle(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle meters via 3-D vectors and atan2 of cross/dot."""
    def unit(lat, lon):
        phi, lam = math.radians(lat), math.radians(lon)
        return (
            math.cos(phi) * math.cos(lam),
            math.cos(phi) * math.sin(lam),
            math.sin(phi),
        )

    a = unit(lat1, lon1)
    b = unit(lat2, lon2)
    cross = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    cross_norm = math.sqrt(sum(c * c for c in cross))
    dot = sum(x * y for x, y in zip(a, b))
    return EARTH_RADIUS_M * math.atan2(cross_norm, dot)


def winding_inside(lat: float, lon: float, vertices) -> bool:
    """Winding-number containment in the (lon, lat) plane.

    ``vertices`` are (lat, lon) pairs. Points on the boundary are
    considered inside (zero-area angle contributions are skipped).
    """
    total = 0.0
    n = len(vertices)
    for i in range(n):
        y1, x1 = vertices[i]
        y2, x2 = vertices[(i + 1) % n]
        ax, ay = x1 - lon, y1 - lat
        bx, by = x2 - lon, y2 - lat
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        if cross == 0.0 and dot <= 0.0:
            return True  # on the edge (or at a vertex)
        total += math.atan2(cross, dot)
    return abs(total) > math.pi


def topic_match_oracle(topic_filter: str, topic: str) -> bool:
    """Recursive wildcard matcher, including the leading-$ rule."""
    flevels = topic_filter.split("/")
    tlevels = topic.split("/")
    if tlevels[0].startswith("$") and flevels[0] in ("+", "#"):
        return False

    def rec(fi: int, ti: int) -> bool:
        if fi == len(flevels):
            return ti == len(tlevels)
        if flevels[fi] == "#":
            return True
        if ti == len(tlevels):
            return False
        if flevels[fi] == "+" or flevels[fi] == tlevels[ti]:
            return rec(fi + 1, ti + 1)
        return False

    return rec(0, 0)


class RoutingOracle:
    """Mirror of the broker's delivery rules, evaluated brute force.

    The test scenario feeds the same ops into this mirror and into the
    real BrokerState, then compares delivery sets publish by publish.
    """

    def __init__(self):
        self.subscriptions = {}  # client -> list of (filter, qos, constraint)
        self.locations = {}  # client -> (lat, lon)
        self.geo_capable = set()
        self.fences = []  # (owner, topic_filter, fence_dict)

    def subscribe(self, client: str, topic: str, qos: int, constraint) -> None:
        subs = self.subscriptions.setdefault(client, [])
        subs[:] = [s for s in subs if s[0] != topic]
        subs.append((topic, qos, constraint))

    def unsubscribe(self, client: str, topic: str) -> None:
        subs = self.subscriptions.get(client, [])
        subs[:] = [s for s in subs if s[0] != topic]
        self.clear_fence(client, topic)

    def reopen(self, client: str) -> None:
        """A fresh clean session under the id: no filters, no location,
        not geo-capable. Fences are broker configuration and stay."""
        self.subscriptions[client] = []
        self.locations.pop(client, None)
        self.geo_capable.discard(client)

    def close(self, client: str) -> None:
        """The session ends; its last location stays known (fences may be
        anchored on it) until the id opens a session again."""
        self.subscriptions.pop(client, None)

    def clear_fence(self, owner: str, topic: str) -> None:
        self.fences = [f for f in self.fences if not (f[0] == owner and f[1] == topic)]

    def set_location(self, client: str, lat: float, lon: float) -> None:
        self.locations[client] = (lat, lon)

    def add_fence(self, owner: str, topic: str, fence: dict) -> None:
        """fence: {"mode": "static", "vertices": [(lat, lon), ...]} or
        {"mode": "dynamic", "anchor": str, "offsets": [(dlat, dlon), ...]}"""
        self.fences.append((owner, topic, fence))

    def publish(self, publisher: str, topic: str, qos: int, geo) -> set:
        """geo: None or (version, lat, lon). Returns {(client, qos, has_geo)}.

        Mirrors geo-attach ordering: the publisher's location/geo-capable
        state is updated before the delivery decisions.
        """
        if geo is not None:
            self.geo_capable.add(publisher)
            if geo[0] == 1:
                self.set_location(publisher, geo[1], geo[2])
        out = set()
        for client, subs in self.subscriptions.items():
            passing = [s for s in subs if self._sub_passes(s, topic, geo)]
            if not passing:
                continue
            if not self._fences_pass(client, topic):
                continue
            out_qos = min(qos, max(q for _, q, _ in passing))
            has_geo = geo is not None and (
                client in self.geo_capable or any(c is not None for _, _, c in passing)
            )
            out.add((client, out_qos, has_geo))
        return out

    def _sub_passes(self, sub, topic: str, geo) -> bool:
        topic_filter, _, constraint = sub
        if not topic_match_oracle(topic_filter, topic):
            return False
        if constraint is None:
            return True
        if geo is None or geo[0] != 1:
            return False  # fail closed
        kind, radius, clat, clon = constraint
        inside = distance_oracle(geo[1], geo[2], clat, clon) <= radius
        return inside if kind == "inside" else not inside

    def _fences_pass(self, client: str, topic: str) -> bool:
        relevant = [
            f for owner, tf, f in self.fences
            if owner == client and topic_match_oracle(tf, topic)
        ]
        if not relevant:
            return True
        if client not in self.locations:
            return False
        lat, lon = self.locations[client]
        for fence in relevant:
            if fence["mode"] == "static":
                vertices = fence["vertices"]
            else:
                anchor = self.locations.get(fence["anchor"])
                if anchor is None:
                    return False
                vertices = [
                    (anchor[0] + dlat, anchor[1] + dlon) for dlat, dlon in fence["offsets"]
                ]
                if any(abs(v[0]) > 90.0 for v in vertices):
                    return False
            if not winding_inside(lat, lon, vertices):
                return False
        return True
