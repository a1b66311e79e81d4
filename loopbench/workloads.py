"""Seeded inputs of the three workloads.

Everything a run feeds the broker is made here from the workload name and
the seed: the publisher's route, the live subscriber's filters and fences,
the phantom subscription table and the per-round schedule. Both the load
generator and the broker host build the same Workload from the same
arguments. Geometry is laid out in metres on a local east/north plane
around a seeded centre and converted to degrees.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from dataclasses import dataclass, replace

from oracle import (
    EARTH_RADIUS_M,
    Circle,
    Fence,
    Filter,
    edge_distance_deg,
    expected_delivery,
    topic_matches,
    winding_inside,
)

PUB_ID = "bench-pub"
SUB_ID = "bench-sub"
PROBE_TOPIC = "probe/setup"
ELEVATION_M = 212.5
MARGIN_M = 15.0  # every route fix stays this far from every circle edge
M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0
MARGIN_DEG = MARGIN_M / M_PER_DEG  # ... and this far from every fence edge
WARMUP_FIXES = 25  # warm-up publishes on geo-route-large, whose lap is about 110 fixes


@dataclass(frozen=True)
class Phantom:
    """A session with no connection, loaded before the broker starts."""

    sid: str
    filters: tuple[Filter, ...]
    at: tuple[float, float] | None = None  # the last location it is given
    fences: tuple[tuple[str | None, Fence], ...] = ()  # (anchor session, or None for static)


@dataclass(frozen=True)
class Workload:
    name: str
    topic: str
    qos: int
    window: int  # publishes in flight
    payload_size: int
    warmup_steps: int  # run before timing, from the start of the round schedule
    geo: bool  # PUBLISHG with the route fix, geolocation on every ack
    sub_at: tuple[float, float]
    route: tuple[tuple[float, float], ...]  # one lap; a round walks it once
    steps: tuple[tuple[str, int], ...]  # one round: ("pub", fix) or a churn op
    main_filters: tuple[Filter, ...]
    extra_filter: Filter | None  # subscribed and dropped on the churn schedule
    fences: tuple[Fence, ...]  # the live subscriber's
    probe_filter: Filter
    phantoms: tuple[Phantom, ...]

    @property
    def round_publishes(self) -> int:
        return sum(1 for kind, _ in self.steps if kind == "pub")

    def fence_lines(self) -> list[str]:
        """The fence file the broker loads: the subscriber's, then phantoms'."""
        owned = [(SUB_ID, PUB_ID if f.dynamic else None, f) for f in self.fences]
        owned += [(ph.sid, anchor, f) for ph in self.phantoms for anchor, f in ph.fences]
        lines = []
        for owner, anchor, fence in owned:
            pairs = " ".join(f"{a!r},{b!r}" for a, b in fence.points)
            mode = f"dynamic {anchor}" if fence.dynamic else "static"
            lines.append(f"{owner} {fence.topic} {mode} {pairs}")
        return lines

    def expect(self, fix: int | None, extra: bool, probe: bool = False):
        """Oracle expectation for a publish from route fix ``fix``."""
        if probe:
            at = self.route[0]
        else:
            at = self.route[fix] if self.geo else None
        filters = (self.probe_filter,) if probe else self.main_filters
        if extra and self.extra_filter is not None:
            filters = filters + (self.extra_filter,)
        return expected_delivery(
            PROBE_TOPIC if probe else self.topic,
            1 if probe else self.qos,
            at,
            geo_block(at) if at is not None else None,
            filters,
            self.fences,
            self.sub_at,
            True,  # every SUBSCRIBE of the live subscriber carries its location
        )


def geo_block(at: tuple[float, float]) -> bytes:
    """The 21-byte version-1 block for a fix, packed from the paper's layout."""
    return struct.pack("<Bddf", 1, at[0], at[1], ELEVATION_M)


def payload(seq: int, size: int) -> bytes:
    return seq.to_bytes(8, "big") + bytes((seq + i) & 0xFF for i in range(size - 8))


def _offset(c: tuple[float, float], east_m: float, north_m: float) -> tuple[float, float]:
    return (
        c[0] + north_m / M_PER_DEG,
        c[1] + east_m / (M_PER_DEG * math.cos(math.radians(c[0]))),
    )


def _square(c: tuple[float, float], half_m: float):
    return tuple(_offset(c, e * half_m, n * half_m) for e, n in ((1, 1), (-1, 1), (-1, -1), (1, -1)))


def _square_offsets(c: tuple[float, float], half_m: float):
    return tuple((lat - c[0], lon - c[1]) for lat, lon in _square(c, half_m))


def _lap(rng: random.Random, c, waypoints: int, near, far, step_m: float):
    """A closed route that alternates between near and far waypoints."""
    marks = []
    for i in range(waypoints):
        angle = 2 * math.pi * (i + rng.uniform(-0.15, 0.15)) / waypoints
        r = rng.uniform(*(near if i % 2 == 0 else far))
        marks.append((r * math.cos(angle), r * math.sin(angle)))
    fixes = []
    for (x1, y1), (x2, y2) in zip(marks, marks[1:] + marks[:1]):
        n = max(1, round(math.hypot(x2 - x1, y2 - y1) / step_m))
        fixes += [_offset(c, x1 + (x2 - x1) * k / n, y1 + (y2 - y1) * k / n) for k in range(n)]
    return fixes


def _keeps_margin(circles, fences, sub_at, at) -> bool:
    if any(circle.margin_m(at) < MARGIN_M for circle in circles):
        return False
    return all(edge_distance_deg(sub_at, f.vertices(at)) >= MARGIN_DEG for f in fences)


def _around(rng: random.Random, c, near_m: float, far_m: float):
    """A point at a seeded bearing, near_m to far_m metres from c."""
    r, angle = rng.uniform(near_m, far_m), rng.uniform(0.0, 2 * math.pi)
    return _offset(c, r * math.cos(angle), r * math.sin(angle))


def _phantoms(rng: random.Random, c, topic: str, sessions: int, matching: tuple[str, ...]):
    """The phantom table: ``sessions`` sessions that never match a timed
    topic, plus one session per entry of ``matching`` that does match the
    timed topic but that the broker must reject at every route fix.

    The non-matching sessions alternate one and two filters, and their
    filters are exactly half plain, 40% radius-constrained and 10% fenced
    (half static, half dynamic), in seeded order. Their topics share levels
    with the timed topic, so matching them is real work. The matching
    roles are "far" (an inside-radius circle 30-60 km away), "around" (an
    outside-radius circle that holds the whole route), and, on plain
    filters, "static" (the session has a location 5-15 km away and a
    static fence 30-60 km away), "dynamic" (a located session whose fence
    is anchored on another located phantom and placed 45-60 km from it) and
    "unlocated" (a fenced session with no location, which fails closed).
    So every publish makes radius checks, fence resolutions and polygon
    tests for sessions that get nothing.
    """
    a, b, t = topic.split("/")
    shapes = (
        "{a}/{b}/z{n}", "{a}/+/z{n}", "{a}/{b}/c/z{n}", "+/{b}/z{n}",
        "{a}/z{n}/#", "x{n}/{b}/+", "+/+/z{n}", "{a}/{b}/+/+",
    )
    hits = ("{a}/{b}/{t}", "{a}/+/{t}", "{a}/#", "+/{b}/{t}", "{a}/{b}/+")
    counts = [1 + i % 2 for i in range(sessions)]
    total = sum(counts)
    kinds = ["plain"] * (total // 2) + ["static", "dynamic"] * (total // 20)
    kinds += ["radius"] * (total - len(kinds))
    rng.shuffle(kinds)
    kind_of = iter(kinds)
    table = []
    for i, count in enumerate(counts):
        sid = f"ph-{i:05d}"
        filters, fences = [], []
        for kind in itertools.islice(kind_of, count):
            ftopic = rng.choice(shapes).format(a=a, b=b, n=rng.randrange(500))
            while any(f.topic == ftopic for f in filters):  # a session keeps one filter per topic
                ftopic = rng.choice(shapes).format(a=a, b=b, n=rng.randrange(500))
            circle = None
            if kind == "radius":
                circle = Circle(rng.choice(("inside", "outside")), rng.uniform(100, 5000), _around(rng, c, 0, 20e3))
            elif kind == "static":
                fences.append((None, Fence(ftopic, _square(_around(rng, c, 0, 20e3), 500))))
            elif kind == "dynamic":
                anchor = f"ph-{rng.randrange(sessions):05d}"
                fences.append((anchor, Fence(ftopic, _square_offsets(c, 800), dynamic=True)))
            filters.append(Filter(ftopic, rng.choice((0, 1, 2)), circle))
        table.append(Phantom(sid, tuple(filters), fences=tuple(fences)))

    located = [f"pm-{i:03d}" for i, role in enumerate(matching) if role in ("static", "dynamic")]
    for i, role in enumerate(matching):
        sid = f"pm-{i:03d}"
        ftopic = rng.choice(hits).format(a=a, b=b, t=t)
        circle, at, fences = None, None, ()
        if role == "far":
            circle = Circle("inside", rng.uniform(100, 5000), _around(rng, c, 30e3, 60e3))
        elif role == "around":
            circle = Circle("outside", rng.uniform(10e3, 20e3), _around(rng, c, 0, 1e3))
        elif role == "unlocated":
            fences = ((None, Fence(ftopic, _square(_around(rng, c, 0, 20e3), 500))),)
        else:
            at = _around(rng, c, 5e3, 15e3)
            if role == "static":
                fences = ((None, Fence(ftopic, _square(_around(rng, c, 30e3, 60e3), 500))),)
            else:
                anchor = located[(located.index(sid) + 1) % len(located)]
                square = _square(_around(rng, c, 45e3, 60e3), 500)
                offsets = tuple((lat - c[0], lon - c[1]) for lat, lon in square)
                fences = ((anchor, Fence(ftopic, offsets, dynamic=True)),)
        table.append(Phantom(sid, (Filter(ftopic, rng.choice((0, 1, 2)), circle),), at, fences))
    rng.shuffle(table)
    return tuple(table)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    centre = (rng.uniform(-55.0, 55.0), rng.uniform(-170.0, 170.0))
    probe_fence = Fence(PROBE_TOPIC, _square(centre, 500.0))
    if name == "plain-qos0":
        return Workload(
            name, "plain/bench/t", 0, window=4, payload_size=16, warmup_steps=1000, geo=False,
            sub_at=centre, route=(centre,), steps=(("pub", 0),) * 100,
            main_filters=(Filter("plain/bench/t", 0),), extra_filter=None,
            fences=(probe_fence,), probe_filter=Filter(PROBE_TOPIC, 1, Circle("inside", 100.0, centre)),
            phantoms=(),
        )
    if name == "geo-route-large":
        topic, sessions, near, far, step = "geo/fleet/track", 2000, (300, 700), (2300, 2800), 200.0
        matching = ("far",) * 12 + ("around",) * 6 + ("static", "static", "dynamic", "unlocated")
    elif name == "qos2-geo-churn":
        topic, sessions, near, far, step = "churn/geo/track", 400, (300, 700), (2300, 2800), 250.0
        matching = ("far",) * 3 + ("around", "static", "dynamic", "unlocated")
    else:
        raise ValueError(f"unknown workload {name!r}")

    # Draw the geometry and a lap until the lap mixes the decisions. Most
    # draws do, so a build takes a few tens of milliseconds.
    while True:
        if name == "geo-route-large":
            main = (Filter(topic, 1, Circle("inside", rng.uniform(1650, 1950), _offset(centre, rng.uniform(850, 1150), rng.uniform(-200, 200)))),)
            fences = (
                probe_fence,
                Fence(topic, _square(centre, 3000.0)),
                Fence(topic, _square_offsets(centre, rng.uniform(1250, 1550)), dynamic=True),
            )
            extra, circles = None, [main[0].circle]
        else:
            main = (Filter(topic, 2, Circle("inside", rng.uniform(1400, 1600), _offset(centre, rng.uniform(-150, 150), rng.uniform(-150, 150)))),)
            extra = Filter("churn/+/track", 1, Circle("outside", rng.uniform(1900, 2100), _offset(centre, rng.uniform(-850, -550), rng.uniform(-150, 150))))
            fences, circles = (probe_fence,), [main[0].circle, extra.circle]
        route = [p for p in _lap(rng, centre, 10, near, far, step)
                 if _keeps_margin(circles, [f for f in fences if f.topic == topic], centre, p)]
        w = Workload(
            name, topic, main[0].qos, window=1, payload_size=32, warmup_steps=0,
            geo=True, sub_at=centre, route=tuple(route), steps=(), main_filters=main,
            extra_filter=extra, fences=fences,
            probe_filter=Filter(PROBE_TOPIC, 1, Circle("inside", 100.0, route[0])),
            phantoms=(),
        )
        if extra is None:
            steps = tuple(("pub", i) for i in range(len(route)))
            outcomes = [w.expect(i, False) for i in range(len(route))]
        else:
            half = len(route) // 2
            steps = (
                (("sub_extra", 0),)
                + tuple(("pub", i) for i in range(half))
                + (("unsub_extra", 0),)
                + tuple(("pub", i) for i in range(half, len(route)))
                + (("reconnect", 0),)
            )
            outcomes = [w.expect(i, i < half) for i in range(len(route))]
        if _mixed(w, outcomes, extra is not None):
            break
    # A churn round is short, so it warms up whole; a long route warms up on
    # its first fixes only, so that warm-up stays small beside the window.
    warmup = len(steps) if extra is not None else WARMUP_FIXES
    return replace(w, steps=steps, warmup_steps=warmup, phantoms=_phantoms(rng, centre, topic, sessions, matching))


def _mixed(w: Workload, outcomes, churn: bool) -> bool:
    """Each decision the workload is meant to exercise occurs on at least
    3% of the lap's fixes, and the delivered share stays in a narrow band,
    so that every seed asks about the same work of the broker."""
    n = len(outcomes)
    if churn:
        half = n // 2
        kinds = [
            sum(1 for o in outcomes[:half] if o.deliver and o.qos == 2),
            sum(1 for o in outcomes[:half] if o.deliver and o.qos == 1),
            sum(1 for o in outcomes[:half] if not o.deliver),
            sum(1 for o in outcomes[half:] if o.deliver),
            sum(1 for o in outcomes[half:] if not o.deliver),
        ]
    else:
        circle = w.main_filters[0].circle
        dynamic = w.fences[-1]
        kinds = [0, 0, 0, 0]
        for at in w.route:
            in_circle = circle.passes(at)
            in_fence = winding_inside(w.sub_at, dynamic.vertices(at))
            kinds[2 * in_circle + in_fence] += 1
    delivered = sum(1 for o in outcomes if o.deliver) / n
    low, high = (0.62, 0.68) if churn else (0.38, 0.47)
    return min(kinds) >= 0.03 * n and low <= delivered <= high


def _phantom_rejects(w: Workload, ph: Phantom, at: tuple[float, float], located: dict) -> bool:
    """The oracle's verdict, with the margin, that phantom ``ph`` gets
    nothing from a publish on the timed topic at fix ``at``. ``located``
    maps each phantom to its location, or None."""
    passing = []
    for f in ph.filters:
        if not topic_matches(f.topic, w.topic):
            continue
        if f.circle is not None and f.circle.margin_m(at) < MARGIN_M:
            return False
        if f.circle is None or f.circle.passes(at):
            passing.append(f)
    if not passing:
        return True
    for anchor, fence in ph.fences:
        if not topic_matches(fence.topic, w.topic):
            continue
        if ph.at is None or (anchor is not None and located.get(anchor) is None):
            return True  # no location of its own or of the anchor: fail closed
        vertices = fence.vertices(located[anchor]) if anchor else fence.points
        if not winding_inside(ph.at, vertices) and edge_distance_deg(ph.at, vertices) >= MARGIN_DEG:
            return True
    return False


def validate(w: Workload) -> None:
    """Assert the properties the oracle's verdicts rely on."""
    located = {ph.sid: ph.at for ph in w.phantoms}
    for ph in w.phantoms:
        if any(topic_matches(f.topic, PROBE_TOPIC) for f in ph.filters):
            raise AssertionError(f"phantom {ph.sid} matches {PROBE_TOPIC}")
        if not any(topic_matches(f.topic, w.topic) for f in ph.filters):
            continue
        for i, at in enumerate(w.route if w.geo else (None,)):
            if at is None or not _phantom_rejects(w, ph, at, located):
                raise AssertionError(f"phantom {ph.sid} matches {w.topic} and is not clearly rejected at fix {i}")
    circles = [f.circle for f in w.main_filters + ((w.extra_filter,) if w.extra_filter else ()) if f.circle]
    own = [f for f in w.fences if f.topic == w.topic]
    if w.geo:
        for i, at in enumerate(w.route):
            if not _keeps_margin(circles, own, w.sub_at, at):
                raise AssertionError(f"route fix {i} is within the margin of an edge")
    probe = w.expect(None, False, probe=True)
    if not (probe.deliver and probe.qos == 1 and probe.geo is not None):
        raise AssertionError("the set-up probe must be delivered at QoS 1 with its block")
