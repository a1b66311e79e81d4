import io
import math

import pytest

from mqttg.errors import RouteFormatError
from mqttg.routes import (
    METERS_PER_DEGREE,
    RouteFix,
    gen_circle,
    gen_line_equator,
    gen_line_meridian,
    parse_route,
    route_length_m,
    write_route,
)


class TestParse:
    def test_round_trip_through_writer(self):
        fixes = [RouteFix(0, 0.0, 0.0, 10.0), RouteFix(30, 0.5, 0.25, 12.0)]
        buf = io.StringIO()
        write_route(buf, fixes, {"shape": "test", "total_length_m": "123.0"})
        parsed, meta = parse_route(buf.getvalue().splitlines())
        assert parsed == fixes
        assert meta["total_length_m"] == "123.0"
        assert meta["shape"] == "test"

    def test_rejects_bad_field_count(self):
        with pytest.raises(RouteFormatError) as err:
            parse_route(["0,1,2"])
        assert err.value.line_no == 1

    def test_rejects_non_numeric(self):
        with pytest.raises(RouteFormatError) as err:
            parse_route(["# ok", "0,1,2,x"])
        assert err.value.line_no == 2

    def test_rejects_non_increasing_offsets(self):
        with pytest.raises(RouteFormatError) as err:
            parse_route(["0,0,0,0", "30,0,1,0", "30,0,2,0"])
        assert err.value.line_no == 3

    def test_rejects_a_negative_first_offset(self):
        with pytest.raises(RouteFormatError, match="offsets must be non-negative") as err:
            parse_route(["# starts before zero", "-1,0,0,0", "0,0,1,0"])
        assert err.value.line_no == 2

    def test_skips_comments_and_blanks(self):
        fixes, _ = parse_route(["# a comment", "", "0,1,2,3"])
        assert fixes == [RouteFix(0, 1, 2, 3)]


class TestGenerators:
    def test_equator_line_spans_expected_longitude(self):
        fixes, length = gen_line_equator(4900.0, 10)
        assert length == 4900.0
        assert len(fixes) == 10
        assert fixes[-1].longitude == pytest.approx(4900.0 / METERS_PER_DEGREE, rel=1e-12)
        assert all(f.latitude == 0.0 for f in fixes)
        assert route_length_m(fixes) == pytest.approx(4900.0, rel=1e-9)

    def test_equator_offsets_use_interval(self):
        fixes, _ = gen_line_equator(1000.0, 4, interval_s=30.0)
        assert [f.offset_seconds for f in fixes] == [0.0, 30.0, 60.0, 90.0]

    def test_meridian_line(self):
        fixes, length = gen_line_meridian(10_000.0, 5, start_lat=10.0, lon=7.0)
        assert length == 10_000.0
        assert all(f.longitude == 7.0 for f in fixes)
        assert route_length_m(fixes) == pytest.approx(10_000.0, rel=1e-9)

    def test_meridian_refuses_pole_crossing(self):
        with pytest.raises(ValueError):
            gen_line_meridian(1e7, 5, start_lat=89.0)

    def test_circle_perimeter_is_inscribed_polygon(self):
        fixes, length = gen_circle(1000.0, 64)
        assert len(fixes) == 65  # closing fix repeats the first vertex
        assert fixes[0].latitude == fixes[-1].latitude
        assert fixes[0].longitude == fixes[-1].longitude
        expect = 64 * 2.0 * 1000.0 * math.sin(math.pi / 64)
        assert length == pytest.approx(expect, rel=1e-12)
        # the replayed haversine path reproduces the stated perimeter closely
        assert route_length_m(fixes) == pytest.approx(length, rel=1e-6)

    def test_single_fix_is_usage_error(self):
        with pytest.raises(ValueError):
            gen_line_equator(100.0, 1)

    def test_degenerate_length_is_usage_error(self):
        with pytest.raises(ValueError):
            gen_line_equator(0.0, 5)
