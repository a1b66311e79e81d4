"""Checks computed apart from the program under test.

Nothing here imports mqttg. Distances come from 3-D chord geometry
(atan2 of cross and dot), polygon containment from a winding number,
topic matching from a recursive matcher: different formulations from the
broker's haversine, ray cast and iterative matcher. The same module holds
the delivery checker that counts failed operations and the percentile
rule the benchmark reports latency with.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass

EARTH_RADIUS_M = 6_371_000.0
MIN_P99_SAMPLES = 1000


def f32(value: float) -> float:
    """Round like the wire's 32-bit float (radius and elevation fields)."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


def distance_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle metres between (lat, lon) points, from unit vectors."""

    def unit(lat, lon):
        phi, lam = math.radians(lat), math.radians(lon)
        return (math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi))

    ax, ay, az = unit(*a)
    bx, by, bz = unit(*b)
    cross = math.sqrt((ay * bz - az * by) ** 2 + (az * bx - ax * bz) ** 2 + (ax * by - ay * bx) ** 2)
    return EARTH_RADIUS_M * math.atan2(cross, ax * bx + ay * by + az * bz)


def winding_inside(p: tuple[float, float], vertices) -> bool:
    """Winding-number containment in the (lon, lat) plane; boundary is inside."""
    lat, lon = p
    total = 0.0
    n = len(vertices)
    for i in range(n):
        y1, x1 = vertices[i]
        y2, x2 = vertices[(i + 1) % n]
        ax, ay, bx, by = x1 - lon, y1 - lat, x2 - lon, y2 - lat
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        if cross == 0.0 and dot <= 0.0:
            return True
        total += math.atan2(cross, dot)
    return abs(total) > math.pi


def edge_distance_deg(p: tuple[float, float], vertices) -> float:
    """Smallest distance, in degrees of the (lon, lat) plane, from p to an edge."""
    py, px = p
    best = math.inf
    n = len(vertices)
    for i in range(n):
        y1, x1 = vertices[i]
        y2, x2 = vertices[(i + 1) % n]
        dx, dy = x2 - x1, y2 - y1
        t = max(0.0, min(1.0, ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)))
        best = min(best, math.hypot(px - (x1 + t * dx), py - (y1 + t * dy)))
    return best


def topic_matches(topic_filter: str, topic: str) -> bool:
    """Recursive MQTT wildcard match, with the leading-'$' rule."""
    fl, tl = topic_filter.split("/"), topic.split("/")
    if tl[0].startswith("$") and fl[0] in ("+", "#"):
        return False

    def rec(i: int, j: int) -> bool:
        if i == len(fl):
            return j == len(tl)
        if fl[i] == "#":
            return True
        if j == len(tl):
            return False
        return (fl[i] == "+" or fl[i] == tl[j]) and rec(i + 1, j + 1)

    return rec(0, 0)


# ---------------------------------------------------------------------------
# Expected deliveries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    """A radius constraint: kind is "inside" or "outside"."""

    kind: str
    radius_m: float
    center: tuple[float, float]

    def passes(self, p: tuple[float, float]) -> bool:
        inside = distance_m(p, self.center) <= f32(self.radius_m)
        return inside if self.kind == "inside" else not inside

    def margin_m(self, p: tuple[float, float]) -> float:
        return abs(distance_m(p, self.center) - f32(self.radius_m))


@dataclass(frozen=True)
class Filter:
    topic: str
    qos: int
    circle: Circle | None = None


@dataclass(frozen=True)
class Fence:
    """A fence owned by the live subscriber: absolute vertices, or offsets
    from the publisher's location when ``dynamic``."""

    topic: str
    points: tuple[tuple[float, float], ...]
    dynamic: bool = False

    def vertices(self, anchor: tuple[float, float]):
        if not self.dynamic:
            return self.points
        return tuple((anchor[0] + dlat, anchor[1] + dlon) for dlat, dlon in self.points)


@dataclass(frozen=True)
class Expect:
    deliver: bool
    qos: int = 0
    geo: bytes | None = None  # the 21-byte block the subscriber must receive


def expected_delivery(
    topic: str,
    qos: int,
    pub_at: tuple[float, float] | None,
    geo_block: bytes | None,
    filters,
    fences,
    sub_at: tuple[float, float] | None,
    sub_geo_capable: bool,
) -> Expect:
    """What one live subscriber must receive for one publish.

    Filters pass on a topic match and, when constrained, a location on the
    right side of the circle (no location: fail closed). Every fence of the
    subscriber on the topic must contain the subscriber's own location,
    dynamic fences being placed on the publisher (the anchor). The QoS is
    min(publish, max granted over passing filters); the block goes to a
    geo-capable subscriber or through a constrained filter.
    """
    passing = [
        f
        for f in filters
        if topic_matches(f.topic, topic)
        and (f.circle is None or (pub_at is not None and f.circle.passes(pub_at)))
    ]
    if not passing:
        return Expect(False)
    for fence in fences:
        if not topic_matches(fence.topic, topic):
            continue
        if sub_at is None or (fence.dynamic and pub_at is None):
            return Expect(False)
        if not winding_inside(sub_at, fence.vertices(pub_at)):
            return Expect(False)
    with_geo = geo_block is not None and (
        sub_geo_capable or any(f.circle is not None for f in passing)
    )
    return Expect(True, min(qos, max(f.qos for f in passing)), geo_block if with_geo else None)


def track_length_m(points) -> float:
    """Summed great-circle length of a sequence of (lat, lon) fixes."""
    return sum(distance_m(a, b) for a, b in zip(points, points[1:]))


# ---------------------------------------------------------------------------
# Statistics and failure counting
# ---------------------------------------------------------------------------


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p99(samples) -> float | None:
    """The 99th percentile, or None below MIN_P99_SAMPLES samples: with
    fewer, fewer than ten samples lie beyond it and it is no tail."""
    if len(samples) < MIN_P99_SAMPLES:
        return None
    return percentile(samples, 99.0)


class DeliveryChecker:
    """Matches what the subscriber receives against what it must receive.

    Publishes are registered in send order with their expectation; every
    expected delivery must arrive exactly once, in that order, with the
    expected topic, QoS, payload and geolocation block. Any breach marks the
    publish (the operation) as failed, with the reason.
    """

    def __init__(self) -> None:
        self._pending: deque[int] = deque()
        self._expect: dict[int, Expect] = {}
        self._sent: dict[int, tuple[str, bytes]] = {}
        self.published = 0
        self.failed: dict[int, str] = {}
        self.stray = 0  # deliveries naming no publish at all

    def publish(self, seq: int, topic: str, payload: bytes, expect: Expect) -> None:
        if seq != self.published:
            raise ValueError(f"publishes must be registered in order: {seq}")
        self.published += 1
        if expect.deliver:
            self._pending.append(seq)
            self._expect[seq] = expect
            self._sent[seq] = (topic, payload)

    def fail(self, seq: int, reason: str) -> None:
        self.failed.setdefault(seq, reason)

    def deliver(self, seq: int, topic: str, qos: int, payload: bytes, geo: bytes | None) -> bool:
        """Record one delivery; True when it is the one due next, intact."""
        if not 0 <= seq < self.published:
            self.stray += 1
            return False
        if seq not in self._expect:
            self.fail(seq, "unexpected or duplicate delivery")
            return False
        while self._pending[0] != seq:
            self.fail(self._pending.popleft(), "missing or out of order")
        self._pending.popleft()
        expect = self._expect.pop(seq)
        want_topic, want_payload = self._sent.pop(seq)
        for ok, what in (
            (topic == want_topic, f"topic {topic!r}, expected {want_topic!r}"),
            (qos == expect.qos, f"QoS {qos}, expected {expect.qos}"),
            (payload == want_payload, "payload differs"),
            (geo == expect.geo, "geolocation block differs"),
        ):
            if not ok:
                self.fail(seq, what)
                return False
        return True

    def finish(self) -> None:
        """After the barrier: whatever is still due never arrived."""
        while self._pending:
            seq = self._pending.popleft()
            self._expect.pop(seq, None)
            self.fail(seq, "never delivered")

    def failed_between(self, first: int, end: int) -> int:
        return sum(1 for seq in self.failed if first <= seq < end)
