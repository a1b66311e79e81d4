"""Great-circle distance, radius containment and point-in-polygon tests.

All geometry is 2-D over latitude/longitude in decimal degrees on a sphere
of mean Earth radius; elevation never participates. Containment tests are
boundary-inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import AnchorUnknown, InvalidCoordinates, InvalidPolygon

EARTH_RADIUS_M = 6_371_000.0


def coordinates_valid(latitude: float, longitude: float) -> bool:
    """True iff both are finite and in [-90, 90] and [-180, 180] degrees."""
    return (
        math.isfinite(latitude)
        and math.isfinite(longitude)
        and -90.0 <= latitude <= 90.0
        and -180.0 <= longitude <= 180.0
    )


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not coordinates_valid(self.latitude, self.longitude):
            raise InvalidCoordinates(
                f"lat={self.latitude!r} lon={self.longitude!r} out of range"
            )


class FenceMode(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class GeofencePolygon:
    """A broker-side polygon fence.

    Static fences carry absolute vertices; dynamic fences carry per-vertex
    (dlat, dlon) offsets plus the client whose last-known location anchors
    them.
    """

    mode: FenceMode
    vertices: tuple[GeoPoint, ...] = ()
    vertex_offsets: tuple[tuple[float, float], ...] = ()
    anchor_client: str | None = None

    def __post_init__(self) -> None:
        if self.mode is FenceMode.STATIC:
            if self.vertex_offsets or self.anchor_client is not None:
                raise InvalidPolygon("static fences take absolute vertices only")
            validate_polygon(self.vertices)
        else:
            if self.vertices:
                raise InvalidPolygon("dynamic fences take vertex offsets, not vertices")
            if not self.anchor_client:
                raise InvalidPolygon("dynamic fences require an anchor client")
            if len(self.vertex_offsets) < 3:
                raise InvalidPolygon("a polygon needs at least 3 vertices")
            for dlat, dlon in self.vertex_offsets:
                if not (math.isfinite(dlat) and math.isfinite(dlon)):
                    raise InvalidPolygon("non-finite vertex offset")


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on the mean-radius sphere."""
    phi1 = math.radians(a.latitude)
    phi2 = math.radians(b.latitude)
    dphi = math.radians(b.latitude - a.latitude)
    dlambda = math.radians(b.longitude - a.longitude)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    h = min(1.0, h)
    return EARTH_RADIUS_M * 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def inside_radius(p: GeoPoint, center: GeoPoint, radius_m: float) -> bool:
    """True iff ``p`` lies within ``radius_m`` meters of ``center``
    (boundary counts as inside)."""
    return haversine_distance(p, center) <= radius_m


def _wrap180(delta: float) -> float:
    """Fold a longitude difference into (-180, 180]."""
    wrapped = math.fmod(delta + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


def normalize_longitude(lon: float) -> float:
    """Fold an absolute longitude into (-180, 180]."""
    return _wrap180(lon)


def validate_polygon(vertices: tuple[GeoPoint, ...] | list[GeoPoint]) -> None:
    """Reject polygons this module cannot test reliably.

    Requires >= 3 vertices, no two consecutive vertices identical, a simple
    (non-self-intersecting) ring, and a longitude span under 180 degrees
    after unwrapping (which also excludes pole-encircling rings).
    """
    n = len(vertices)
    if n < 3:
        raise InvalidPolygon(f"a polygon needs at least 3 vertices, got {n}")
    for i in range(n):
        if vertices[i] == vertices[(i + 1) % n]:
            raise InvalidPolygon(f"consecutive duplicate vertex at index {i}")
    pts = _unwrap(vertices)
    span = max(x for x, _ in pts) - min(x for x, _ in pts)
    if span >= 180.0:
        raise InvalidPolygon(f"longitude span {span:.3f} degrees >= 180")
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # edges sharing a vertex may touch there
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _segments_cross(a1, a2, b1, b2):
                raise InvalidPolygon(f"edges {i} and {j} intersect")


def _unwrap(vertices) -> list[tuple[float, float]]:
    """Map vertices to (lon, lat) with longitudes unwrapped around the
    first vertex so the antimeridian does not split the ring."""
    ref = vertices[0].longitude
    return [(ref + _wrap180(v.longitude - ref), v.latitude) for v in vertices]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_cross(p1, p2, p3, p4) -> bool:
    d1 = _cross(p3, p4, p1)
    d2 = _cross(p3, p4, p2)
    d3 = _cross(p1, p2, p3)
    d4 = _cross(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    for d, (s1, s2, q) in (
        (d1, (p3, p4, p1)),
        (d2, (p3, p4, p2)),
        (d3, (p1, p2, p3)),
        (d4, (p1, p2, p4)),
    ):
        if d == 0 and _on_segment(s1, s2, q):
            return True
    return False


def _on_segment(a, b, q) -> bool:
    return min(a[0], b[0]) <= q[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= q[1] <= max(
        a[1], b[1]
    )


def point_in_polygon(p: GeoPoint, vertices: tuple[GeoPoint, ...] | list[GeoPoint]) -> bool:
    """Even-odd ray cast in the unwrapped equirectangular plane.

    Boundary points count as inside. The polygon must span less than 180
    degrees of longitude (enforced at registration).
    """
    pts = _unwrap(vertices)
    ref = vertices[0].longitude
    px = ref + _wrap180(p.longitude - ref)
    py = p.latitude
    n = len(pts)
    inside = False
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        if _cross((x1, y1), (x2, y2), (px, py)) == 0.0 and _on_segment(
            (x1, y1), (x2, y2), (px, py)
        ):
            return True
        if (y1 > py) != (y2 > py):
            x_int = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if x_int > px:
                inside = not inside
    return inside


def resolve_polygon(
    fence: GeofencePolygon, anchor_location: GeoPoint | None = None
) -> tuple[GeoPoint, ...]:
    """Absolute vertices of a fence.

    Static fences resolve to their own vertices. Dynamic fences translate
    each offset by the anchor's location, normalizing longitudes into
    (-180, 180]; with no anchor location known yet they raise
    AnchorUnknown (the fence then evaluates as non-matching).
    """
    if fence.mode is FenceMode.STATIC:
        return fence.vertices
    if anchor_location is None:
        raise AnchorUnknown(
            f"no known location for anchor client {fence.anchor_client!r}"
        )
    resolved = []
    for dlat, dlon in fence.vertex_offsets:
        lat = anchor_location.latitude + dlat
        lon = normalize_longitude(anchor_location.longitude + dlon)
        resolved.append(GeoPoint(lat, lon))
    return tuple(resolved)
