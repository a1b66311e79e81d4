"""Synthetic route files: parsing, analytic generators, path length.

A route file is CSV with one fix per line, `offset_seconds,lat,lon,elev`,
with `#` comment lines; `# key=value` comments carry metadata such as the
analytically known total length. Generated shapes (equatorial line,
meridian line, inscribed circle polygon) state their exact length so a
replay can report discretization error against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import RouteFormatError
from .geo import EARTH_RADIUS_M, GeoPoint, haversine_distance, normalize_longitude

#: meters per degree of arc on the mean-radius sphere
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0


@dataclass(frozen=True)
class RouteFix:
    offset_seconds: float
    latitude: float
    longitude: float
    elevation: float = 0.0


def parse_route(lines: Iterable[str]) -> tuple[list[RouteFix], dict[str, str]]:
    """Parse route lines; returns (fixes, metadata from # key=value comments)."""
    fixes: list[RouteFix] = []
    meta: dict[str, str] = {}
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
            if "=" in comment and " " not in comment.split("=", 1)[0]:
                key, value = comment.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise RouteFormatError(line_no, f"expected offset,lat,lon,elev, got {line!r}")
        try:
            fix = RouteFix(*(float(p) for p in parts))
        except ValueError:
            raise RouteFormatError(line_no, f"non-numeric field in {line!r}") from None
        if fixes and fix.offset_seconds <= fixes[-1].offset_seconds:
            raise RouteFormatError(line_no, "offsets must be strictly increasing")
        if fix.offset_seconds < 0:
            raise RouteFormatError(line_no, "offsets must be non-negative")
        fixes.append(fix)
    return fixes, meta


def load_route(path: str) -> tuple[list[RouteFix], dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return parse_route(fh)


def route_length_m(fixes: list[RouteFix]) -> float:
    """Sum of great-circle segments over the fix sequence."""
    total = 0.0
    for prev, cur in zip(fixes, fixes[1:]):
        total += haversine_distance(
            GeoPoint(prev.latitude, prev.longitude), GeoPoint(cur.latitude, cur.longitude)
        )
    return total


def write_route(fh: IO[str], fixes: list[RouteFix], meta: dict[str, object]) -> None:
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")
    for fix in fixes:
        fh.write(
            f"{fix.offset_seconds:g},{fix.latitude!r},{fix.longitude!r},{fix.elevation:g}\n"
        )


def gen_line_equator(
    length_m: float, n_fixes: int, interval_s: float = 30.0, start_lon: float = 0.0
) -> tuple[list[RouteFix], float]:
    """Eastward arc along the equator; analytic length is exact."""
    _check_shape(length_m > 0, "length must be > 0")
    _check_shape(n_fixes >= 2, "a path needs at least 2 fixes")
    dlon_total = length_m / METERS_PER_DEGREE
    fixes = [
        RouteFix(i * interval_s, 0.0, normalize_longitude(start_lon + dlon_total * i / (n_fixes - 1)))
        for i in range(n_fixes)
    ]
    return fixes, length_m


def gen_line_meridian(
    length_m: float, n_fixes: int, interval_s: float = 30.0, start_lat: float = 0.0, lon: float = 0.0
) -> tuple[list[RouteFix], float]:
    """Northward arc along a meridian; analytic length is exact."""
    _check_shape(length_m > 0, "length must be > 0")
    _check_shape(n_fixes >= 2, "a path needs at least 2 fixes")
    dlat_total = length_m / METERS_PER_DEGREE
    _check_shape(start_lat + dlat_total <= 90.0, "route would cross the pole")
    fixes = [
        RouteFix(i * interval_s, start_lat + dlat_total * i / (n_fixes - 1), lon)
        for i in range(n_fixes)
    ]
    return fixes, length_m


def gen_circle(
    radius_m: float,
    n_fixes: int,
    interval_s: float = 30.0,
    center_lat: float = 0.0,
    center_lon: float = 0.0,
) -> tuple[list[RouteFix], float]:
    """Closed loop over the regular n-gon inscribed in a circle.

    ``n_fixes`` is the vertex count; the route emits n_fixes + 1 rows
    (the first vertex repeated at the end to close the loop). The stated
    length is the inscribed n-gon perimeter, not the circumference.
    """
    _check_shape(radius_m > 0, "radius must be > 0")
    _check_shape(n_fixes >= 3, "a polygon needs at least 3 vertices")
    sides = n_fixes
    r_deg = radius_m / METERS_PER_DEGREE
    cos_lat = math.cos(math.radians(center_lat))
    _check_shape(cos_lat > 1e-9, "circle center too close to a pole")
    fixes = []
    for i in range(sides + 1):
        theta = 2.0 * math.pi * (i % sides) / sides
        lat = center_lat + r_deg * math.cos(theta)
        lon = normalize_longitude(center_lon + r_deg * math.sin(theta) / cos_lat)
        fixes.append(RouteFix(i * interval_s, lat, lon))
    perimeter = sides * 2.0 * radius_m * math.sin(math.pi / sides)
    return fixes, perimeter


def _check_shape(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)
