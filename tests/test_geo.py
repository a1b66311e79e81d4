import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqttg.errors import AnchorUnknown, InvalidPolygon
from mqttg.geo import (
    EARTH_RADIUS_M,
    FenceMode,
    GeofencePolygon,
    GeoPoint,
    haversine_distance,
    inside_radius,
    normalize_longitude,
    point_in_polygon,
    resolve_polygon,
    validate_polygon,
)

from oracles import distance_oracle, winding_inside

coords = st.tuples(
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
)


def convex_polygon(rng: Random, center_lat=None, center_lon=None, max_radius_deg=5.0):
    """Random convex polygon: angularly sorted points on a random ellipse."""
    if center_lat is None:
        center_lat = rng.uniform(-60.0, 60.0)
    if center_lon is None:
        center_lon = rng.uniform(-120.0, 120.0)
    n = rng.randint(3, 9)
    radius = rng.uniform(0.01, max_radius_deg)
    aspect = rng.uniform(0.3, 1.0)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    if min(b - a for a, b in zip(angles, angles[1:])) < 1e-3:
        angles = [2.0 * math.pi * i / n for i in range(n)]
    return [
        GeoPoint(center_lat + radius * aspect * math.sin(a), center_lon + radius * math.cos(a))
        for a in angles
    ]


class TestHaversine:
    def test_coincident_points(self):
        p = GeoPoint(12.3, -45.6)
        assert haversine_distance(p, p) == 0.0

    def test_equatorial_degree(self):
        d = haversine_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert d == pytest.approx(111194.93, abs=0.01)

    def test_quarter_meridian(self):
        d = haversine_distance(GeoPoint(0.0, 0.0), GeoPoint(90.0, 0.0))
        assert d == pytest.approx(10007543.4, abs=0.1)
        assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 2.0, rel=1e-12)

    def test_antipodal(self):
        d = haversine_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
        assert d == pytest.approx(EARTH_RADIUS_M * math.pi, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(coords, coords)
    def test_symmetry_and_oracle_agreement(self, a, b):
        p, q = GeoPoint(*a), GeoPoint(*b)
        d1 = haversine_distance(p, q)
        d2 = haversine_distance(q, p)
        assert d1 == d2
        assert d1 >= 0.0
        assert d1 == pytest.approx(distance_oracle(*a, *b), rel=1e-9, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(coords, coords, coords)
    def test_triangle_inequality(self, a, b, c):
        p, q, r = GeoPoint(*a), GeoPoint(*b), GeoPoint(*c)
        ab = haversine_distance(p, q)
        bc = haversine_distance(q, r)
        ac = haversine_distance(p, r)
        assert ac <= ab + bc + 1e-6 * max(1.0, ac)


class TestInsideRadius:
    def test_center_always_inside(self):
        p = GeoPoint(3.0, 4.0)
        assert inside_radius(p, p, 0.001)

    def test_spec_radius_examples(self):
        p, center = GeoPoint(0.0, 1.0), GeoPoint(0.0, 0.0)
        assert inside_radius(p, center, 200_000.0)
        assert not inside_radius(p, center, 100_000.0)

    def test_boundary_counts_as_inside(self):
        p, center = GeoPoint(0.0, 1.0), GeoPoint(0.0, 0.0)
        d = haversine_distance(p, center)
        assert inside_radius(p, center, d)

    def test_monotone_in_radius(self):
        rng = Random(11)
        for _ in range(500):
            p = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            c = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            r = rng.uniform(1.0, 2e7)
            if inside_radius(p, c, r):
                assert inside_radius(p, c, r * 1.5)


class TestPointInPolygon:
    square = [GeoPoint(1, 1), GeoPoint(1, -1), GeoPoint(-1, -1), GeoPoint(-1, 1)]

    def test_inside_square(self):
        assert point_in_polygon(GeoPoint(0.1, 0.1), self.square)

    def test_outside_square(self):
        assert not point_in_polygon(GeoPoint(2.0, 0.0), self.square)

    def test_boundary_edge_and_vertex_inside(self):
        assert point_in_polygon(GeoPoint(1.0, 0.5), self.square)
        assert point_in_polygon(GeoPoint(1.0, 1.0), self.square)

    def test_concave_polygon(self):
        # a "C" shape: inside the notch is outside the polygon
        poly = [
            GeoPoint(0, 0),
            GeoPoint(4, 0),
            GeoPoint(4, 4),
            GeoPoint(0, 4),
            GeoPoint(0, 3),
            GeoPoint(3, 3),
            GeoPoint(3, 1),
            GeoPoint(0, 1),
        ]
        poly = [GeoPoint(p.longitude, p.latitude) for p in poly]  # lat/lon irrelevant
        assert not point_in_polygon(GeoPoint(2.0, 2.0), poly)
        assert point_in_polygon(GeoPoint(3.5, 2.0), poly)

    def test_antimeridian_straddling_polygon(self):
        poly = [
            GeoPoint(1.0, 179.5),
            GeoPoint(1.0, -179.5),
            GeoPoint(-1.0, -179.5),
            GeoPoint(-1.0, 179.5),
        ]
        assert point_in_polygon(GeoPoint(0.0, 179.9), poly)
        assert point_in_polygon(GeoPoint(0.0, -179.9), poly)
        assert not point_in_polygon(GeoPoint(0.0, 178.0), poly)

    def test_agrees_with_winding_oracle_on_convex_polygons(self):
        rng = Random(42)
        for _ in range(2000):
            poly = convex_polygon(rng)
            lat0 = sum(v.latitude for v in poly) / len(poly)
            lon0 = sum(v.longitude for v in poly) / len(poly)
            p = GeoPoint(lat0 + rng.uniform(-8, 8), lon0 + rng.uniform(-8, 8))
            expect = winding_inside(p.latitude, p.longitude, [(v.latitude, v.longitude) for v in poly])
            assert point_in_polygon(p, poly) == expect, (p, poly)


class TestPolygonValidation:
    def test_needs_three_vertices(self):
        with pytest.raises(InvalidPolygon):
            validate_polygon((GeoPoint(0, 0), GeoPoint(1, 1)))

    def test_rejects_consecutive_duplicates(self):
        with pytest.raises(InvalidPolygon):
            validate_polygon((GeoPoint(0, 0), GeoPoint(0, 0), GeoPoint(1, 1)))

    def test_rejects_self_intersection(self):
        bowtie = (GeoPoint(0, 0), GeoPoint(1, 1), GeoPoint(1, 0), GeoPoint(0, 1))
        with pytest.raises(InvalidPolygon):
            validate_polygon(bowtie)

    def test_rejects_wide_longitude_span(self):
        wide = (GeoPoint(0, -100), GeoPoint(1, 0), GeoPoint(0, 100))
        with pytest.raises(InvalidPolygon):
            validate_polygon(wide)

    def test_rejects_a_vertex_on_a_non_adjacent_edge(self):
        # (0, 2) touches edge 0 without crossing it: the collinear case.
        dent = (GeoPoint(0, 0), GeoPoint(0, 4), GeoPoint(3, 4), GeoPoint(0, 2), GeoPoint(3, 0))
        with pytest.raises(InvalidPolygon, match="edges 0 and 2 intersect"):
            validate_polygon(dent)

    def test_accepts_simple_polygon(self):
        validate_polygon(tuple(TestPointInPolygon.square))


#: Offsets a dynamic fence refuses, as validate_polygon refuses such vertices.
BAD_OFFSETS = {
    "bowtie": (((1, 1), (-1, -1), (1, -1), (-1, 1)), "edges 0 and 2 intersect"),
    "repeated": (((1, 1), (1, 1), (-1, -1), (1, -1)), "consecutive duplicate vertex at index 0"),
    "wide": (((0, 0), (0, 100), (1, -100)), "longitude span 200.000 degrees >= 180"),
    "two": (((0, 0), (1, 1)), "a polygon needs at least 3 vertices, got 2"),
}


class TestDynamicFenceValidation:
    @pytest.mark.parametrize("offsets, error", BAD_OFFSETS.values(), ids=BAD_OFFSETS)
    def test_a_bad_shape_is_refused(self, offsets, error):
        with pytest.raises(InvalidPolygon, match=error):
            GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="a")

    def test_the_span_is_taken_across_the_antimeridian(self):
        offsets = ((0, 170), (1, -170), (-1, -170))  # 20 degrees wide, not 340
        GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="a")

    def test_an_offset_is_not_range_checked(self):
        offsets = ((100, 0), (100, 1), (99, 0))
        fence = GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="a")
        got = resolve_polygon(fence, GeoPoint(-80.0, 0.0))
        assert [v.latitude for v in got] == [20.0, 20.0, 19.0]


class TestResolvePolygon:
    def test_static_is_identity(self):
        fence = GeofencePolygon(FenceMode.STATIC, vertices=tuple(TestPointInPolygon.square))
        assert resolve_polygon(fence) == tuple(TestPointInPolygon.square)

    def test_dynamic_translates_by_anchor(self):
        offsets = ((0.01, 0.01), (0.01, -0.01), (-0.01, -0.01), (-0.01, 0.01))
        fence = GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="truck-7")
        got = resolve_polygon(fence, GeoPoint(50.0, -100.0))
        assert got == tuple(GeoPoint(50.0 + dlat, -100.0 + dlon) for dlat, dlon in offsets)

    def test_dynamic_wraps_longitude(self):
        fence = GeofencePolygon(
            FenceMode.DYNAMIC,
            vertex_offsets=((0.0, 0.01), (0.1, 0.0), (0.0, -0.01)),
            anchor_client="x",
        )
        got = resolve_polygon(fence, GeoPoint(0.0, 179.995))
        assert got[0].longitude == pytest.approx(-179.995, abs=1e-9)
        assert got[2].longitude == pytest.approx(179.985, abs=1e-9)

    def test_dynamic_without_anchor_location(self):
        fence = GeofencePolygon(
            FenceMode.DYNAMIC, vertex_offsets=((0, 0.1), (0.1, 0), (0, -0.1)), anchor_client="x"
        )
        with pytest.raises(AnchorUnknown):
            resolve_polygon(fence, None)

    def test_displacement_shifts_every_vertex(self):
        rng = Random(3)
        offsets = [(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for _ in range(4)]
        offsets = tuple(sorted(offsets, key=lambda o: math.atan2(o[0], o[1])))  # a simple ring
        fence = GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=offsets, anchor_client="a")
        before = resolve_polygon(fence, GeoPoint(10.0, 20.0))
        after = resolve_polygon(fence, GeoPoint(10.5, 20.25))
        for b, a in zip(before, after):
            assert a.latitude - b.latitude == pytest.approx(0.5, abs=1e-12)
            assert a.longitude - b.longitude == pytest.approx(0.25, abs=1e-12)


class TestNormalizeLongitude:
    @pytest.mark.parametrize(
        "lon,expect",
        [(0.0, 0.0), (180.0, 180.0), (-180.0, 180.0), (180.005, -179.995), (540.0, 180.0), (-190.0, 170.0)],
    )
    def test_cases(self, lon, expect):
        assert normalize_longitude(lon) == pytest.approx(expect, abs=1e-9)
