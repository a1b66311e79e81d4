"""BrokerState unit tests: location tracking, subscription store,
geofence registry and the routing rules."""

import math
import tracemalloc
from random import Random

import pytest

import mqttg.broker
from mqttg.broker import BrokerState, Delivery, load_fence_file, parse_fence_spec
from mqttg.codec import ConstraintKind, GeoConstraint, GeoLocation, TopicFilter
from mqttg.errors import InvalidPolygon, MQTTgError, RouteFormatError
from mqttg.geo import (
    EARTH_RADIUS_M,
    FenceMode,
    GeofencePolygon,
    GeoPoint,
    haversine_distance,
    inside_radius,
    normalize_longitude,
    point_in_polygon,
)
from mqttg.topics import TopicTree

from scenario import run_interleaved_scenario, run_large_scenario, run_scenario
from test_geo import BAD_OFFSETS


def geo(lat, lon, elev=0.0):
    return GeoLocation(1, lat, lon, elev)


def make_state(*clients):
    state = BrokerState()
    for client in clients:
        state.open_session(client)
    return state


class TestLocationTable:
    def test_first_fix(self):
        state = make_state("a")
        record = state.update_last_location("a", geo(1.0, 2.0), 100.0)
        assert record.cumulative_distance_m == 0.0
        assert record.last_speed_kmh is None
        assert record.segment_m == 0.0

    def test_thirty_second_fix_speed(self):
        # 0.00224830 degrees of equatorial arc in 30 s is ~250 m, ~30 km/h
        state = make_state("a")
        state.update_last_location("a", geo(0.0, 0.0), 0.0)
        record = state.update_last_location("a", geo(0.0, 0.00224830), 30.0)
        assert record.segment_m == pytest.approx(250.0, abs=0.01)
        assert record.last_speed_kmh == pytest.approx(30.0, abs=0.001)
        assert record.cumulative_distance_m == pytest.approx(250.0, abs=0.01)

    def test_same_location_twice(self):
        state = make_state("a")
        state.update_last_location("a", geo(5.0, 5.0), 0.0)
        record = state.update_last_location("a", geo(5.0, 5.0), 10.0)
        assert record.segment_m == 0.0
        assert record.last_speed_kmh == 0.0

    def test_non_positive_dt_stores_fix_without_speed(self):
        state = make_state("a")
        state.update_last_location("a", geo(0.0, 0.0), 50.0)
        record = state.update_last_location("a", geo(0.0, 1.0), 50.0)
        assert record.last_speed_kmh is None
        assert record.cumulative_distance_m > 0
        assert state.locations["a"].location.longitude == 1.0

    def test_cumulative_is_sum_of_segments(self):
        rng = Random(5)
        state = make_state("a")
        total = 0.0
        prev = None
        for t in range(40):
            g = geo(rng.uniform(-10, 10), rng.uniform(-10, 10))
            record = state.update_last_location("a", g, float(t))
            if prev is not None:
                total += record.segment_m
            prev = g
            assert state.locations["a"].cumulative_distance_m >= 0
        assert state.locations["a"].cumulative_distance_m == pytest.approx(total, rel=1e-9)
        assert state.locations["a"].updates == 40

    def test_reconnect_resets_trip(self):
        state = make_state("a")
        state.update_last_location("a", geo(0, 0), 0.0)
        state.update_last_location("a", geo(0, 1), 30.0)
        assert state.locations["a"].cumulative_distance_m > 0
        state.open_session("a")
        assert "a" not in state.locations


class TestSubscriptions:
    def test_grant_codes(self):
        state = make_state("a")
        codes = state.subscribe(
            "a",
            (
                TopicFilter("city/traffic", 1),
                TopicFilter("bad/#/filter", 0),
                TopicFilter("x", 2),
            ),
        )
        assert codes == [1, 0x80, 2]

    def test_resubscribe_replaces_constraint(self):
        state = make_state("a")
        inside = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 5000.0, 49.85, -99.95)
        state.subscribe("a", (TopicFilter("city/traffic", 1, inside),))
        assert state.sessions["a"].subscriptions["city/traffic"].constraint == inside
        outside = GeoConstraint(ConstraintKind.OUTSIDE_RADIUS, 100.0, 0.0, 0.0)
        state.subscribe("a", (TopicFilter("city/traffic", 0, outside),))
        sub = state.sessions["a"].subscriptions["city/traffic"]
        assert sub.constraint == outside
        assert sub.qos == 0
        assert len(state.sessions["a"].subscriptions) == 1

    def test_invalid_centre_is_refused(self):
        state = make_state("a")
        bad = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 100.0, 91.0, 0.0)
        good = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 100.0, 90.0, 0.0)
        codes = state.subscribe("a", (TopicFilter("x", 1, bad), TopicFilter("y", 1, good)))
        assert codes == [0x80, 1]
        assert set(state.sessions["a"].subscriptions) == {"y"}

    def test_unsubscribe_removes_fences_for_topic(self):
        state = make_state("a")
        state.subscribe("a", (TopicFilter("t", 0),))
        fence = GeofencePolygon(
            FenceMode.STATIC,
            vertices=(GeoPoint(1, 1), GeoPoint(1, -1), GeoPoint(-1, 0)),
        )
        state.add_fence("a", "t", fence)
        assert state.fences
        state.unsubscribe("a", ("t",))
        assert not state.fences
        assert not state.sessions["a"].subscriptions


class TestRouting:
    def test_spec_radius_example(self):
        # publisher at (0, 1.0): inside 200 km of (0,0), outside 100 km
        state = make_state("pub", "a", "b", "c")
        state.subscribe(
            "a", (TopicFilter("t", 0, GeoConstraint(ConstraintKind.INSIDE_RADIUS, 200_000.0, 0.0, 0.0)),)
        )
        state.subscribe(
            "b", (TopicFilter("t", 0, GeoConstraint(ConstraintKind.INSIDE_RADIUS, 100_000.0, 0.0, 0.0)),)
        )
        state.subscribe("c", (TopicFilter("t", 0),))
        deliveries = state.route("pub", "t", 0, geo(0.0, 1.0))
        assert {d.client_id for d in deliveries} == {"a", "c"}

    def test_plain_publish_never_matches_geo_filter(self):
        state = make_state("pub", "sub")
        state.subscribe(
            "sub", (TopicFilter("t", 0, GeoConstraint(ConstraintKind.OUTSIDE_RADIUS, 10.0, 0.0, 0.0)),)
        )
        assert state.route("pub", "t", 0, None) == []

    def test_unevaluable_geo_version_fails_closed(self):
        state = make_state("pub", "sub")
        state.subscribe(
            "sub", (TopicFilter("t", 0, GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1e7, 0.0, 0.0)),)
        )
        odd = GeoLocation(2, 0.0, 0.0, 0.0)
        assert state.route("pub", "t", 0, odd) == []

    def test_geo_stripped_for_non_geo_subscriber(self):
        state = make_state("pub", "plain", "geoclient")
        state.subscribe("plain", (TopicFilter("t", 0),))
        state.subscribe("geoclient", (TopicFilter("t", 0),))
        state.sessions["geoclient"].geo_capable = True
        deliveries = {d.client_id: d for d in state.route("pub", "t", 0, geo(1, 1))}
        assert deliveries["plain"].include_geo is False
        assert deliveries["geoclient"].include_geo is True

    def test_constrained_filter_gets_geo_without_capability(self):
        state = make_state("pub", "sub")
        state.subscribe(
            "sub", (TopicFilter("t", 0, GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1e7, 0.0, 0.0)),)
        )
        deliveries = state.route("pub", "t", 0, geo(0, 0))
        assert deliveries == [Delivery("sub", 0, True)]

    def test_outgoing_qos_is_min(self):
        state = make_state("pub", "s0", "s2")
        state.subscribe("s0", (TopicFilter("t", 0),))
        state.subscribe("s2", (TopicFilter("t", 2),))
        by_client = {d.client_id: d.qos for d in state.route("pub", "t", 1, None)}
        assert by_client == {"s0": 0, "s2": 1}

    def test_wildcard_overlap_delivers_once(self):
        state = make_state("pub", "sub")
        state.subscribe("sub", (TopicFilter("fleet/#", 0), TopicFilter("fleet/truck", 2)))
        deliveries = state.route("pub", "fleet/truck", 2, None)
        assert deliveries == [Delivery("sub", 2, False)]

    def test_polygon_gates_subscriber_location(self):
        state = make_state("pub", "sub")
        state.subscribe("sub", (TopicFilter("t", 0),))
        square = GeofencePolygon(
            FenceMode.STATIC,
            vertices=(GeoPoint(1, 1), GeoPoint(1, -1), GeoPoint(-1, -1), GeoPoint(-1, 1)),
        )
        state.add_fence("sub", "t", square)
        # no subscriber location yet: fail closed
        assert state.route("pub", "t", 0, None) == []
        state.update_last_location("sub", geo(0.5, 0.5), 1.0)
        assert state.route("pub", "t", 0, None) == [Delivery("sub", 0, False)]
        state.update_last_location("sub", geo(5.0, 5.0), 2.0)
        assert state.route("pub", "t", 0, None) == []

    def test_dynamic_fence_unknown_anchor_blocks(self):
        state = make_state("pub", "sub")
        state.subscribe("sub", (TopicFilter("t", 0),))
        state.update_last_location("sub", geo(0.0, 0.0), 1.0)
        fence = GeofencePolygon(
            FenceMode.DYNAMIC,
            vertex_offsets=((1, 1), (1, -1), (-1, -1), (-1, 1)),
            anchor_client="truck-7",
        )
        state.add_fence("sub", "t", fence)
        assert state.route("pub", "t", 0, None) == []
        state.update_last_location("truck-7", geo(0.0, 0.0), 2.0)
        assert state.route("pub", "t", 0, None) == [Delivery("sub", 0, False)]

    def test_retained_skips_geo_constrained_filters(self):
        state = make_state("sub")
        state.set_retained("t", b"old", 1)
        constrained = TopicFilter("t", 0, GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1e7, 0, 0))
        plain = TopicFilter("t", 1)
        assert state.retained_for((constrained,), "sub") == []
        assert state.retained_for((plain,), "sub") == [("t", b"old", 1)]

    def test_retained_clear_on_empty_payload(self):
        state = make_state("sub")
        state.set_retained("t", b"x", 0)
        state.set_retained("t", b"", 0)
        assert state.retained == {}


def square_around(lat, lon, half=1.0):
    return GeofencePolygon(
        FenceMode.STATIC,
        vertices=tuple(
            GeoPoint(lat + dlat, lon + dlon)
            for dlat, dlon in ((half, half), (half, -half), (-half, -half), (-half, half))
        ),
    )


def routed(state, topic, qos=0, geo=None):
    return {d.client_id for d in state.route("pub", topic, qos, geo)}


class TestSubscriptionIndex:
    """The topic tree and the per-owner fence registry stay in step with
    the sessions through every method that changes them."""

    def test_takeover_leaves_no_old_filter_routable(self):
        state = make_state("pub", "a", "b")
        state.subscribe("a", (TopicFilter("t", 1), TopicFilter("x/#", 0), TopicFilter("+/y", 2)))
        state.subscribe("b", (TopicFilter("t", 0),))
        state.open_session("a")  # the id is taken over: a fresh, empty session
        assert routed(state, "t") == {"b"}
        assert routed(state, "x/y") == set()
        state.subscribe("a", (TopicFilter("x/#", 0),))
        assert routed(state, "x/y") == {"a"}

    def test_closing_every_session_empties_the_tree(self):
        state = make_state(*(f"c{i}" for i in range(20)))
        filters = ("#", "a/#", "a/+", "a/b", "+/b/#", "$SYS/#", "a//b")
        for i in range(20):
            state.subscribe(f"c{i}", tuple(TopicFilter(f, i % 3) for f in filters[i % 4:]))
        state.unsubscribe("c0", ("a/+",))
        for i in range(20):
            state.close_session(f"c{i}")
        assert state.subscriptions.root.children == {}
        assert state.subscriptions.root.subs is None
        assert state.route("pub", "a/b", 0, None) == []

    def test_resubscribe_replaces_qos_and_constraint_in_routing(self):
        state = make_state("pub", "a")
        far = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1000.0, 40.0, 40.0)
        state.subscribe("a", (TopicFilter("t", 2, far),))
        assert state.route("pub", "t", 2, geo(0.0, 0.0)) == []
        state.subscribe("a", (TopicFilter("t", 1),))
        assert state.route("pub", "t", 2, geo(0.0, 0.0)) == [Delivery("a", 1, False)]

    def test_multi_level_wildcard_matches_its_parent(self):
        state = make_state("pub", "hash", "plus")
        state.subscribe("hash", (TopicFilter("a/#", 0),))
        state.subscribe("plus", (TopicFilter("a/+", 0),))
        assert routed(state, "a") == {"hash"}
        assert routed(state, "a/b") == {"hash", "plus"}

    def test_dollar_topics_skip_root_wildcards(self):
        state = make_state("pub", "sys", "all", "plus")
        state.subscribe("sys", (TopicFilter("$SYS/#", 0),))
        state.subscribe("all", (TopicFilter("#", 0),))
        state.subscribe("plus", (TopicFilter("+/x", 0),))
        assert routed(state, "$SYS/x") == {"sys"}
        assert routed(state, "a/x") == {"all", "plus"}

    def test_clear_fence_and_unsubscribe_drop_the_owners_fence(self):
        state = make_state("pub", "sub", "other")
        state.update_last_location("sub", geo(0.0, 0.0), 1.0)
        for client in ("sub", "other"):
            state.subscribe(client, (TopicFilter("t/#", 0),))
        state.add_fence("sub", "t/#", square_around(10.0, 10.0))  # excludes sub
        state.add_fence("other", "t/#", square_around(10.0, 10.0))  # no location: blocks
        assert routed(state, "t/x") == set()
        assert state.clear_fence("sub", "t/#") == 1
        assert state.clear_fence("sub", "t/#") == 0
        assert set(state.fences) == {"other"}
        assert routed(state, "t/x") == {"sub"}
        state.add_fence("sub", "t/#", square_around(10.0, 10.0))
        assert routed(state, "t/x") == set()
        state.unsubscribe("sub", ("t/#",))
        state.subscribe("sub", (TopicFilter("t/#", 0),))
        assert set(state.fences) == {"other"}
        assert routed(state, "t/x") == {"sub"}


def planned_entries(state):
    """What the stored plans hold, counted as PLAN_ENTRIES counts it: the
    topic's slot and its string, the plan, its subscriber maps, its fenced
    clients and their fences."""
    total = 0
    for topic, (nodes, fenced) in state.plans.items():
        total += 6 + len(topic) // 16 + len(nodes) + 2 * len(fenced) + sum(map(len, fenced.values()))
    return total


class TestRoutePlans:
    """route() reads a topic's candidates and fences from a plan, built on
    the topic's first publish, dropped by a subscribe or a fence change,
    and in step with the tree's subscriber maps through every removal."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"match": 0, "topic_matches": 0}

        def counted(name, func):
            def wrapper(*args):
                counts[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(TopicTree, "match", counted("match", TopicTree.match))
        monkeypatch.setattr(
            mqttg.broker, "topic_matches", counted("topic_matches", mqttg.broker.topic_matches)
        )
        return counts

    def fenced_state(self):
        state = make_state("pub", "sub", "near", "truck")
        for client in ("sub", "near", "truck"):
            state.update_last_location(client, geo(0.0, 0.0), 0.0)
        state.subscribe("sub", (TopicFilter("t/+", 1), TopicFilter("t/#", 0)))
        near = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 50_000.0, 0.0, 0.0)
        state.subscribe("near", (TopicFilter("t/x", 0, near),))
        state.add_fence("sub", "t/x", square_around(0.0, 0.0))
        state.add_fence("sub", "+/x", dynamic_square("truck"))
        state.add_fence("sub", "u/#", square_around(10.0, 10.0))
        return state

    def test_a_plan_hit_walks_no_tree_and_matches_no_filter(self, calls):
        state = self.fenced_state()
        assert routed(state, "t/x", geo=geo(0.1, 0.1)) == {"sub", "near"}
        assert calls == {"match": 1, "topic_matches": 3}  # the plan is built; sub's fences matched
        calls.update(match=0, topic_matches=0)
        assert routed(state, "t/x", geo=geo(0.1, 0.1)) == {"sub", "near"}
        assert routed(state, "t/x", geo=geo(1.0, 1.0)) == {"sub"}
        state.update_last_location("truck", geo(5.0, 5.0), 1.0)  # the dynamic fence moves away
        assert routed(state, "t/x", geo=geo(0.1, 0.1)) == {"near"}
        assert calls == {"match": 0, "topic_matches": 0}

    def test_a_subscribe_makes_the_topic_plan_again(self, calls):
        state = self.fenced_state()
        routed(state, "t/x")
        state.subscribe("truck", (TopicFilter("#", 0),))
        calls.update(match=0, topic_matches=0)
        for _ in range(3):
            assert routed(state, "t/x") == {"sub", "truck"}
        assert calls == {"match": 1, "topic_matches": 3}

    def test_a_topics_first_publish_stores_its_plan(self, calls):
        state = self.fenced_state()
        topics = ["t/x", *(f"t/{n}" for n in range(49))]
        for topic in topics:
            expected = {"sub", "near"} if topic == "t/x" else {"sub"}
            assert routed(state, topic, geo=geo(0.1, 0.1)) == expected
        assert calls == {"match": 50, "topic_matches": 150}  # a walk, and sub's 3 fence filters, each
        assert list(state.plans) == topics
        nodes, fenced = state.plans["t/x"]
        assert len(nodes) == 3 and fenced.keys() == {"sub"} and len(fenced["sub"]) == 2
        assert [f for _, f in list(state.plans.values())[1:]] == [{}] * 49  # no fence matches t/<n>
        calls.update(match=0, topic_matches=0)
        for topic in topics:
            routed(state, topic, geo=geo(0.1, 0.1))
        assert calls == {"match": 0, "topic_matches": 0}

    def test_an_unsubscribe_or_a_close_keeps_the_plans(self, calls):
        state = self.fenced_state()
        routed(state, "t/x", geo=geo(0.1, 0.1))
        kept = dict(state.plans)
        state.open_session("pub")  # a takeover of a session with no filters
        state.unsubscribe("sub", ("t/+",))  # sub still has t/#
        assert routed(state, "t/x", geo=geo(0.1, 0.1)) == {"sub", "near"}
        state.close_session("near")
        assert routed(state, "t/x", geo=geo(0.1, 0.1)) == {"sub"}
        state.open_session("sub")  # a takeover of a subscribed session
        assert routed(state, "t/x", geo=geo(0.1, 0.1)) == set()
        assert state.plans == kept
        assert calls == {"match": 1, "topic_matches": 3}

    def test_planned_entries_never_pass_the_cap(self):
        state = make_state("pub", *(f"all{i}" for i in range(4)))
        for i in range(4):
            state.subscribe(f"all{i}", (TopicFilter("#", 0),))
        state.update_last_location("all0", geo(0.0, 0.0), 0.0)
        state.add_fence("all0", "#", square_around(0.0, 0.0))
        state.add_fence("all1", "#", square_around(10.0, 10.0))  # all1 is never inside
        every = {"all0", "all2", "all3"}
        size = 2 + 4 + 1 + 2 * 2 + 2  # slot and topic, plan, one map, two fenced clients, their fences
        per_fill = mqttg.broker.PLAN_ENTRIES // size
        drops, held = 0, 0
        for n in range(per_fill * 2 + per_fill // 2):
            for _ in range(2):
                assert routed(state, f"m/{n}") == every
            if len(state.plans) < held:
                drops += 1
                assert routed(state, "m/0") == every  # planned again after the drop
            held = len(state.plans)
            if len(state.plans) in (1, per_fill) or n % 997 == 0:
                assert planned_entries(state) == state._planned <= mqttg.broker.PLAN_ENTRIES
        assert drops == 2
        assert planned_entries(state) <= mqttg.broker.PLAN_ENTRIES

    def test_long_topics_count_toward_the_cap(self):
        state = make_state("pub", "all")
        state.subscribe("all", (TopicFilter("#", 0),))
        held, peak, drops = 0, 0, 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for n in range(160):  # about three fills of 60 kB topics, at 4 bytes a character
                topic = f"long/{n:04d}/" + "\U0001F600" * 15_000
                for _ in range(2):
                    assert routed(state, topic) == {"all"}
                peak = max(peak, tracemalloc.get_traced_memory()[0] - start)
                drops += len(state.plans) < held
                held = len(state.plans)
                assert planned_entries(state) == state._planned <= mqttg.broker.PLAN_ENTRIES
        finally:
            tracemalloc.stop()
        assert drops >= 2
        assert peak < 80 * mqttg.broker.PLAN_ENTRIES  # units of at most 64 bytes, and the topic in hand

    def test_a_plan_larger_than_the_cap_is_used_and_not_kept(self, monkeypatch):
        monkeypatch.setattr(mqttg.broker, "PLAN_ENTRIES", 8)
        state = make_state("pub", "a", "b", "c", "d")
        for client in "abc":
            state.subscribe(client, (TopicFilter("x/#", 0),))
        for _ in range(2):
            assert routed(state, "x/1") == {"a", "b", "c"}
        assert planned_entries(state) == 7
        state.subscribe("d", (TopicFilter("x/+", 0), TopicFilter("x/1", 0)))
        for _ in range(2):
            assert routed(state, "x/1") == {"a", "b", "c", "d"}
            assert state.plans == {}
        assert routed(state, "y") == set()
        assert planned_entries(state) == state._planned == 6


def destination(lat, lon, distance_m, bearing_deg):
    """The point ``distance_m`` along the great circle leaving (lat, lon)
    on ``bearing_deg``; due north is a plain latitude step."""
    if bearing_deg == 0.0:
        return lat + math.degrees(distance_m / EARTH_RADIUS_M), lon
    phi, delta, theta = math.radians(lat), distance_m / EARTH_RADIUS_M, math.radians(bearing_deg)
    phi2 = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(theta))
    dlam = math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi),
        math.cos(delta) - math.sin(phi) * math.sin(phi2),
    )
    return math.degrees(phi2), normalize_longitude(lon + math.degrees(dlam))


def routed_inside(center, point, radius):
    """route()'s verdict for an inside-radius filter, checked against an
    outside-radius filter and against inside_radius on fresh GeoPoints."""
    verdicts = {}
    for kind in ConstraintKind:
        constraint = GeoConstraint(kind, radius, *center)
        state = make_state("pub", "sub")
        state.subscribe("sub", (TopicFilter("t", 0, constraint),))
        verdicts[kind] = bool(state.route("pub", "t", 0, geo(*point)))
    inside = inside_radius(GeoPoint(*point), GeoPoint(*center), constraint.radius)
    assert verdicts == {
        ConstraintKind.INSIDE_RADIUS: inside,
        ConstraintKind.OUTSIDE_RADIUS: not inside,
    }
    return inside


class TestRadiusBoundary:
    """route() decides radius filters exactly as inside_radius does, also
    for points a hair inside or outside the circle."""

    @pytest.mark.parametrize("bearing", [0.0, 90.0])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (48.2, 16.37), (-33.9, 151.2)])
    @pytest.mark.parametrize("radius", [250.0, 42_000.0, 3_000_000.0])
    def test_a_hair_inside_and_outside(self, center, radius, bearing):
        assert routed_inside(center, destination(*center, radius * (1 - 1e-9), bearing), radius)
        assert not routed_inside(center, destination(*center, radius * (1 + 1e-9), bearing), radius)

    def test_exact_radius_due_north(self):
        # The latitude step rounds above radius/EARTH_RADIUS_M while the
        # distance rounds to the radius: a boundary point that is inside.
        center = (-9.814, 20.0)
        assert routed_inside(center, destination(*center, 34_225.0, 0.0), 34_225.0)

    @pytest.mark.parametrize("scale", [1 - 1e-9, 1.0, 1 + 1e-9])
    def test_center_near_the_pole(self, scale):
        center = (89.9999, 10.0)
        across = (89.9999, -170.0)  # over the pole, about 22 m away
        d = haversine_distance(GeoPoint(*across), GeoPoint(*center))
        routed_inside(center, across, d * scale)
        for bearing in (0.0, 90.0, 200.0):
            routed_inside(center, destination(*center, 5.0 * scale, bearing), 5.0)

    @pytest.mark.parametrize("scale", [1 - 1e-9, 1.0, 1 + 1e-9])
    def test_across_the_antimeridian(self, scale):
        center, point = (12.5, 179.9995), (12.5, -179.9995)
        d = haversine_distance(GeoPoint(*point), GeoPoint(*center))
        assert 100.0 < d < 110.0
        routed_inside(center, point, d * scale)

    def test_the_exact_check_gets_the_publishs_own_geolocation(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return inside_radius(*args)

        monkeypatch.setattr(mqttg.broker, "inside_radius", spy)
        state = make_state("pub", "sub")
        near = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 50_000.0, 0.0, 0.0)
        state.subscribe("sub", (TopicFilter("t", 0, near),))
        fix = geo(0.3, 0.3)  # 47 km out: between the inner bound and the band
        state.update_last_location("pub", fix, 0.0)
        assert state.route("pub", "t", 0, fix) == [Delivery("sub", 0, True)]
        assert len(calls) == 1 and calls[0][0] is fix


def dynamic_square(anchor, half=1.0):
    return GeofencePolygon(
        FenceMode.DYNAMIC,
        vertex_offsets=((half, half), (half, -half), (-half, -half), (-half, half)),
        anchor_client=anchor,
    )


class TestFenceCache:
    """A dynamic fence is resolved again whenever its anchor's record
    changes, and fails closed while it cannot be resolved."""

    def fenced(self, fence, sub_at=(0.0, 0.0)):
        state = make_state("pub", "sub", "truck")
        state.subscribe("sub", (TopicFilter("t", 0),))
        state.update_last_location("sub", geo(*sub_at), 0.0)
        state.add_fence("sub", "t", fence)
        return state

    def test_anchor_move_flips_the_verdict(self):
        state = self.fenced(dynamic_square("truck"))
        state.update_last_location("truck", geo(0.5, 0.5), 1.0)
        assert routed(state, "t") == {"sub"}
        state.update_last_location("truck", geo(5.0, 5.0), 2.0)
        assert routed(state, "t") == set()
        state.update_last_location("truck", geo(-0.5, 0.0), 3.0)
        assert routed(state, "t") == {"sub"}

    def test_anchor_reconnect_without_a_fix_fails_closed(self):
        state = self.fenced(dynamic_square("truck"))
        state.update_last_location("truck", geo(0.0, 0.0), 1.0)
        assert routed(state, "t") == {"sub"}
        state.close_session("truck")
        state.open_session("truck")
        assert routed(state, "t") == set()
        state.update_last_location("truck", geo(0.2, 0.2), 2.0)
        assert routed(state, "t") == {"sub"}

    def test_vertex_beyond_the_pole_fails_closed_until_the_anchor_moves(self):
        state = self.fenced(dynamic_square("truck"), sub_at=(89.2, 0.5))
        state.update_last_location("truck", geo(89.5, 0.0), 1.0)  # a vertex at 90.5
        assert routed(state, "t") == set()
        state.update_last_location("truck", geo(89.0, 0.0), 2.0)  # back to 90.0
        assert routed(state, "t") == {"sub"}

    @pytest.mark.parametrize(
        "point,inside",
        [
            ((0.0, -179.5000001), True),  # just inside the east edge of the box
            ((0.0, -179.4999999), False),  # just outside it
            ((0.0, -179.5), True),  # on it
            ((0.0, 179.5000001), True),  # the west edge, from inside
            ((0.0, 179.4999999), False),
            ((1.0000001, 180.0), False),  # just north of the box
            ((0.9999999, 180.0), True),
        ],
    )
    def test_static_ring_across_the_antimeridian(self, point, inside):
        vertices = (GeoPoint(1, 179.5), GeoPoint(1, -179.5), GeoPoint(-1, -179.5), GeoPoint(-1, 179.5))
        state = self.fenced(GeofencePolygon(FenceMode.STATIC, vertices=vertices), sub_at=point)
        assert point_in_polygon(GeoPoint(*point), vertices) is inside
        assert routed(state, "t") == ({"sub"} if inside else set())


class TestPacketIds:
    def test_exhausted_ids_raise_without_a_walk(self):
        class CountingSet(set):
            lookups = 0

            def __contains__(self, key):
                CountingSet.lookups += 1
                return super().__contains__(key)

        state = make_state("a")
        session = state.sessions["a"]
        session.outbound = CountingSet(range(1, 65536))
        session.next_pid = 777
        with pytest.raises(MQTTgError):
            state.alloc_pid("a")
        assert session.next_pid == 777
        assert CountingSet.lookups == 0

    def test_flow_tables_are_made_on_first_use(self):
        state = make_state("a")
        session = state.sessions["a"]
        assert session.outbound is None and session.incoming_qos2 is None
        assert state.alloc_pid("a") == 1
        assert session.outbound is None  # allocating does not open the flow

    def test_alloc_skips_ids_in_flight(self):
        state = make_state("a")
        session = state.sessions["a"]
        session.outbound = set(range(1, 65535))
        assert state.alloc_pid("a") == 65535
        assert session.next_pid == 1


class TestFenceConfig:
    def test_parse_static_line(self):
        owner, topic, fence = parse_fence_spec(
            "sub city/traffic static 1,1 1,-1 -1,-1 -1,1".split()
        )
        assert (owner, topic, fence.mode) == ("sub", "city/traffic", FenceMode.STATIC)
        assert fence.vertices[0] == GeoPoint(1.0, 1.0)

    def test_parse_dynamic_line(self):
        _, _, fence = parse_fence_spec("sub t dynamic truck-7 0.1,0.1 0.1,-0.1 -0.1,0".split())
        assert fence.mode is FenceMode.DYNAMIC
        assert fence.anchor_client == "truck-7"

    def test_invalid_polygon_rejected(self):
        with pytest.raises(InvalidPolygon):
            parse_fence_spec("sub t static 0,0 1,1".split())

    def test_file_error_names_line(self, tmp_path):
        path = tmp_path / "fences.txt"
        path.write_text("# comment\nsub t static 1,1 1,-1 -1,-1\nbroken line here\n")
        state = BrokerState()
        with pytest.raises(RouteFormatError) as err:
            load_fence_file(str(path), state)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("offsets, error", BAD_OFFSETS.values(), ids=BAD_OFFSETS)
    def test_a_bad_dynamic_fence_in_a_file_names_its_line(self, tmp_path, offsets, error):
        path = tmp_path / "fences.txt"
        spec = " ".join(f"{dlat},{dlon}" for dlat, dlon in offsets)
        path.write_text(f"sub a static 1,1 1,-1 -1,-1\nsub t dynamic truck-7 {spec}\n")
        with pytest.raises(RouteFormatError, match=error) as err:
            load_fence_file(str(path), BrokerState())
        assert err.value.line_no == 2

    def test_file_loads_fences(self, tmp_path):
        path = tmp_path / "fences.txt"
        path.write_text(
            "\n".join(
                [
                    "# fleet fences",
                    "sub city/traffic static 1,1 1,-1 -1,-1 -1,1",
                    "sub t dynamic truck-7 0.1,0.1 0.1,-0.1 -0.1,0",
                    "",
                ]
            )
        )
        state = BrokerState()
        assert load_fence_file(str(path), state) == 2
        assert sum(len(fences) for fences in state.fences["sub"].values()) == 2


class TestScenarioOracle:
    def test_randomized_scenarios_match_brute_force(self):
        rng = Random(2024)
        for _ in range(60):
            run_scenario(rng)

    def test_no_geo_scenarios_fail_closed(self):
        rng = Random(99)
        for _ in range(20):
            run_scenario(rng, force_no_geo_publishes=True)

    def test_interleaved_changes_match_brute_force(self):
        rng = Random(2026)
        assert sum(run_interleaved_scenario(rng) for _ in range(40)) > 3000

    def test_large_scenarios_with_churn_match_brute_force(self):
        rng = Random(4242)
        for _ in range(2):
            assert run_large_scenario(rng) == 300
