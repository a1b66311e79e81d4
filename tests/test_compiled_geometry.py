"""Compiled geometry decides exactly as the plain geometry does.

The broker compiles a radius filter to a Circle with a latitude band and
an inner bound, and a fence to a Ring with a bounding box, when it stores
them. These properties route random publishes through BrokerState and
compare its verdicts with inside_radius on fresh GeoPoints and with the
ray cast that tested vertex sequences before rings were compiled (copied
below). Points are also placed a hair from the circle, the box and the
vertices, circles are centred a hair from a pole or the antimeridian, and
rings are drawn across the antimeridian.
"""

import math
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mqttg.broker as broker
from mqttg.broker import BrokerState
from mqttg.codec import ConstraintKind, GeoConstraint, GeoLocation, TopicFilter
from mqttg.errors import InvalidCoordinates, InvalidPolygon
from mqttg.geo import (
    EARTH_RADIUS_M,
    Circle,
    FenceMode,
    GeofencePolygon,
    GeoPoint,
    Ring,
    haversine_distance,
    inside_radius,
    latitude_band,
    normalize_longitude,
    resolve_polygon,
)

from test_broker_state import destination


def vertex_list_point_in_polygon(p, vertices):
    """The even-odd ray cast over a vertex sequence, as it was before
    rings were compiled."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(a, b, q):
        return min(a[0], b[0]) <= q[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= q[1] <= max(
            a[1], b[1]
        )

    ref = vertices[0].longitude
    pts = [(ref + normalize_longitude(v.longitude - ref), v.latitude) for v in vertices]
    px = ref + normalize_longitude(p.longitude - ref)
    py = p.latitude
    n = len(pts)
    inside = False
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        if cross((x1, y1), (x2, y2), (px, py)) == 0.0 and on_segment((x1, y1), (x2, y2), (px, py)):
            return True
        if (y1 > py) != (y2 > py):
            x_int = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if x_int > px:
                inside = not inside
    return inside


def geo(lat, lon):
    return GeoLocation(1, lat, lon, 0.0)


latitudes = st.one_of(
    st.floats(-90.0, 90.0),
    st.sampled_from([-1.0, 1.0]).flatmap(lambda s: st.floats(89.0, 90.0).map(lambda x: s * x)),
)
longitudes = st.one_of(st.floats(-180.0, 180.0), st.floats(179.0, 181.0).map(normalize_longitude))
hairs = st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-3])
signs = st.sampled_from([-1.0, 1.0])


@st.composite
def publish_points(draw, center, radius):
    """A point anywhere, or within a few 1e-9 of the radius from the circle."""
    if draw(st.booleans()):
        return draw(latitudes), draw(longitudes)
    scale = 1.0 + draw(st.integers(-3, 3)) * 1e-9
    bearing = draw(st.sampled_from([0.0, 90.0, 180.0]) | st.floats(0.0, 360.0))
    lat, lon = destination(*center, radius * scale, bearing)
    return min(90.0, lat), lon  # due north steps past the pole


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_radius_decision_equals_inside_radius(data):
    center = (data.draw(latitudes), data.draw(longitudes))
    radius = data.draw(st.floats(1e-3, 2.1e7) | st.sampled_from([1.0, 5_000.0, 1e7, 2.0015e7]))
    kind = data.draw(st.sampled_from(ConstraintKind))
    constraint = GeoConstraint(kind, radius, *center)
    state = BrokerState()
    for client in ("pub", "sub"):
        state.open_session(client)
    state.subscribe("sub", (TopicFilter("t", 0, constraint),))
    for _ in range(4):
        point = data.draw(publish_points(center, constraint.radius))
        inside = inside_radius(GeoPoint(*point), GeoPoint(*center), constraint.radius)
        delivered = bool(state.route("pub", "t", 0, geo(*point)))
        assert delivered == (inside if kind is ConstraintKind.INSIDE_RADIUS else not inside)


def test_band_holds_near_the_antipode():
    # Here haversine_distance rounds the distance down by about 1e-8 of
    # itself, below EARTH_RADIUS_M times the latitude difference.
    center, point = GeoPoint(-89.99999934014907, 77.40955608226699), GeoPoint(89.99999934494903, 77.40955608226699)
    d = haversine_distance(point, center)
    assert d < EARTH_RADIUS_M * math.radians(point.latitude - center.latitude) * (1 - 1e-9)
    for radius in (d, d * (1 + 1e-12)):
        assert inside_radius(point, center, radius)
        assert point.latitude - center.latitude <= latitude_band(radius)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_band_never_rejects_a_point_inside_the_radius(data):
    center = (data.draw(latitudes), data.draw(longitudes))
    radius = data.draw(st.floats(1e-3, 2.1e7))  # not rounded to 32 bits here
    point = data.draw(publish_points(center, radius))
    if abs(point[0] - center[0]) > latitude_band(radius):
        assert not inside_radius(GeoPoint(*point), GeoPoint(*center), radius)


QUARTER_MERIDIAN_M = EARTH_RADIUS_M * math.pi / 2
near_edges = st.just(0.0) | st.floats(-13.0, -3.0).map(lambda x: 10.0**x)  # degrees
edge_centers = st.one_of(
    st.tuples(st.builds(lambda s, e: s * (90.0 - e), signs, near_edges), longitudes),
    st.tuples(latitudes, st.builds(lambda s, e: s * (180.0 - e), signs, near_edges)),
)


@st.composite
def rim_points(draw, center, radius):
    """A point k * 1e-9 of the radius inside or outside the circle, due
    north, east, south or west of the centre, or on a random bearing."""
    k = draw(signs) * draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]))
    bearing = draw(st.sampled_from([0.0, 90.0, 180.0, 270.0]) | st.floats(0.0, 360.0))
    lat, lon = destination(*center, radius * (1.0 + k * 1e-9), bearing)
    return min(90.0, lat), lon


def route_verdict(center, radius, point):
    """route()'s verdict for an inside-radius filter, and whether it
    called inside_radius to reach it."""
    state = BrokerState()
    for client in ("pub", "sub"):
        state.open_session(client)
    state.subscribe("sub", (TopicFilter("t", 0, GeoConstraint(ConstraintKind.INSIDE_RADIUS, radius, *center)),))
    with mock.patch.object(broker, "inside_radius", wraps=inside_radius) as exact:
        delivered = bool(state.route("pub", "t", 0, geo(*point)))
    return delivered, exact.called


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_inner_bound_never_accepts_a_point_that_inside_radius_rejects(data):
    center = data.draw(st.tuples(latitudes, longitudes) | edge_centers)
    radius = data.draw(
        st.floats(1e-3, 2.1e7)
        | st.floats(-3.0, 3.0).map(lambda x: 10.0**x)
        | st.sampled_from([1 - 1e-6, 1 + 1e-6]).map(lambda s: s * QUARTER_MERIDIAN_M)
    )
    radius = GeoConstraint(ConstraintKind.INSIDE_RADIUS, radius, *center).radius  # 32 bits, as stored
    for _ in range(4):
        point = data.draw(rim_points(center, radius))
        delivered, _ = route_verdict(center, radius, point)  # without a call when the inner bound accepts
        assert delivered == inside_radius(GeoPoint(*point), GeoPoint(*center), radius)


def test_only_a_point_between_the_bounds_costs_a_distance():
    center = (48.2, 16.37)
    for bearing in (0.0, 45.0, 90.0, 200.0):
        assert route_verdict(center, 5_000.0, destination(*center, 2_000.0, bearing)) == (True, False)
    # 45 degrees off the meridian the inner bound reaches only about 0.7 of the radius
    assert route_verdict(center, 5_000.0, destination(*center, 4_000.0, 45.0)) == (True, True)
    assert route_verdict(center, 5_000.0, destination(*center, 6_000.0, 45.0)) == (False, True)
    assert route_verdict(center, 5_000.0, destination(*center, 6_000.0, 0.0)) == (False, False)


def test_inner_bound_is_off_where_the_band_is_infinite():
    circle = Circle(GeoPoint(0.0, 0.0), 1.1 * QUARTER_MERIDIAN_M, True)
    assert circle.band == math.inf and circle.inner == -math.inf
    assert route_verdict((0.0, 0.0), 1.1 * QUARTER_MERIDIAN_M, (0.0, 0.0)) == (True, True)


@st.composite
def convex_offsets(draw):
    """(dlat, dlon) vertices of a convex polygon around the origin."""
    n = draw(st.integers(3, 8))
    radius = draw(st.floats(1e-4, 5.0))
    aspect = draw(st.floats(0.3, 1.0))
    angles = [2 * math.pi * (i + draw(st.floats(0.0, 0.8))) / n for i in range(n)]
    return [(radius * aspect * math.sin(a), radius * math.cos(a)) for a in angles]


@st.composite
def near_ring_points(draw, vertices):
    """A point in or near the polygon's box, or a hair from a vertex."""
    lats = [v.latitude for v in vertices]
    lons = [vertices[0].longitude + normalize_longitude(v.longitude - vertices[0].longitude) for v in vertices]
    if draw(st.booleans()):
        v = draw(st.sampled_from(vertices))
        lat = v.latitude + draw(signs) * draw(hairs)
        lon = v.longitude + draw(signs) * draw(hairs)
        if draw(st.booleans()):  # on the box's edge line, off the vertex
            lat = draw(st.sampled_from([min(lats), max(lats)]))
    else:
        pad_lat = (max(lats) - min(lats)) * 0.1 + 1e-9
        pad_lon = (max(lons) - min(lons)) * 0.1 + 1e-9
        lat = draw(st.floats(min(lats) - pad_lat, max(lats) + pad_lat))
        lon = draw(st.floats(min(lons) - pad_lon, max(lons) + pad_lon))
    return max(-90.0, min(90.0, lat)), normalize_longitude(lon)


def fenced_state(fence, sub_at):
    state = BrokerState()
    for client in ("pub", "sub", "anchor"):
        state.open_session(client)
    state.subscribe("sub", (TopicFilter("t", 0),))
    state.update_last_location("sub", geo(*sub_at), 0.0)
    state.add_fence("sub", "t", fence)
    return state


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_static_ring_decision_equals_vertex_ray_cast(data):
    lat0, lon0 = data.draw(st.floats(-80.0, 80.0)), data.draw(longitudes)
    vertices = tuple(
        GeoPoint(lat0 + dlat, normalize_longitude(lon0 + dlon))
        for dlat, dlon in data.draw(convex_offsets())
    )
    try:
        fence = GeofencePolygon(FenceMode.STATIC, vertices=vertices)
    except InvalidPolygon:
        assume(False)
    for _ in range(4):
        point = data.draw(near_ring_points(vertices))
        state = fenced_state(fence, point)
        expect = vertex_list_point_in_polygon(GeoPoint(*point), vertices)
        assert bool(state.route("pub", "t", 0, None)) == expect


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dynamic_ring_decision_equals_vertex_ray_cast(data):
    offsets = tuple(data.draw(convex_offsets()))
    fence = GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="anchor")
    lat, lon = data.draw(latitudes), data.draw(longitudes)
    state = sub_at = None
    for t in range(4):
        if t:  # the anchor stays, creeps, moves or jumps
            step = data.draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.5, 50.0]))
            lat = max(-90.0, min(90.0, lat + data.draw(signs) * step))
            lon = normalize_longitude(lon + data.draw(signs) * step)
        try:
            vertices = resolve_polygon(fence, GeoPoint(lat, lon))
        except InvalidCoordinates:
            vertices = None
        if state is None:
            sub_at = data.draw(near_ring_points(vertices)) if vertices else (lat, lon)
            state = fenced_state(fence, sub_at)
            assert not state.route("pub", "t", 0, None)  # no anchor fix yet
        state.update_last_location("anchor", geo(lat, lon), float(t))
        expect = vertices is not None and vertex_list_point_in_polygon(GeoPoint(*sub_at), vertices)
        assert bool(state.route("pub", "t", 0, None)) == expect


def validated_ring(fence, anchor):
    """A dynamic fence's Ring as it was built while resolution validated a
    new GeoPoint per vertex."""
    return Ring(tuple(
        GeoPoint(anchor.latitude + dlat, normalize_longitude(anchor.longitude + dlon))
        for dlat, dlon in fence.vertex_offsets
    ))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_resolved_ring_equals_the_validated_construction(data):
    offsets = tuple(data.draw(convex_offsets()))
    fence = GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="anchor")
    across = st.floats(170.0, 190.0).map(normalize_longitude)  # rings across the antimeridian
    anchor = GeoPoint(data.draw(latitudes), data.draw(longitudes | across))
    try:
        old = validated_ring(fence, anchor)
    except InvalidCoordinates:  # a vertex past a pole
        old = None
    try:
        vertices = resolve_polygon(fence, anchor)
    except InvalidCoordinates:
        assert old is None
        return
    assert old is not None
    assert all(type(v) is GeoPoint for v in vertices)
    new = Ring(vertices)
    assert (new.ref, new.points) == (old.ref, old.points)
    assert (new.west, new.south, new.east, new.north) == (old.west, old.south, old.east, old.north)


def test_an_offset_past_a_pole_fails_the_fence_closed():
    offsets = ((0.2, -0.5), (0.2, 0.5), (-0.2, 0.0))
    fence = GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="anchor")
    state = fenced_state(fence, (89.9, 10.0))
    state.update_last_location("anchor", geo(89.9, 10.0), 0.0)  # a vertex at 90.1
    assert not state.route("pub", "t", 0, None)
    state.update_last_location("sub", geo(45.0, 10.0), 1.0)
    state.update_last_location("anchor", geo(45.0, 10.0), 1.0)
    assert state.route("pub", "t", 0, None)
