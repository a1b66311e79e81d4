"""Great-circle distance, radius containment and point-in-polygon tests.

All geometry is 2-D over latitude/longitude in decimal degrees on a sphere
of mean Earth radius; elevation never participates. Containment tests are
boundary-inclusive.

Shapes that are stored are compiled once, so a test against them pays only
for the decision. A polygon compiles to a Ring: its vertices unwrapped
around the first one's longitude, and their bounding box. A static fence
holds its Ring from construction; point_in_polygon takes a Ring or a vertex
sequence, which it compiles first. A radius filter compiles to a Circle,
which holds two bounds in degrees: a point further than its latitude band
from the centre's latitude is outside, and a point within its inner bound
is inside, both without computing a distance. Only a point between the two
is decided by inside_radius, so every result is the one inside_radius
gives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

from .errors import AnchorUnknown, InvalidCoordinates, InvalidPolygon
from .record import FrozenRecord

EARTH_RADIUS_M = 6_371_000.0

_set = object.__setattr__


def coordinates_valid(latitude: float, longitude: float) -> bool:
    """True iff both are finite and in [-90, 90] and [-180, 180] degrees
    (a NaN fails every comparison, an infinity the range)."""
    return -90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0


class GeoPoint(FrozenRecord):
    __slots__ = _fields = ("latitude", "longitude")

    def __init__(self, latitude: float, longitude: float) -> None:
        if not coordinates_valid(latitude, longitude):
            raise InvalidCoordinates(f"lat={latitude!r} lon={longitude!r} out of range")
        _set(self, "latitude", latitude)
        _set(self, "longitude", longitude)


class FenceMode(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


class GeofencePolygon(FrozenRecord):
    """A broker-side polygon fence.

    Static fences carry absolute vertices, and their Ring once validated;
    dynamic fences carry per-vertex (dlat, dlon) offsets plus the client
    whose last-known location anchors them. Both modes pass
    validate_polygon's shape checks, a dynamic fence on its offsets. An
    offset is not range-checked: whether its vertex is in range depends on
    the anchor.
    """

    _fields = ("mode", "vertices", "vertex_offsets", "anchor_client")
    __slots__ = (*_fields, "ring")

    def __init__(
        self, mode: FenceMode, vertices: tuple[GeoPoint, ...] = (),
        vertex_offsets: tuple[tuple[float, float], ...] = (), anchor_client: str | None = None,
    ) -> None:
        ring = None
        if mode is FenceMode.STATIC:
            if vertex_offsets or anchor_client is not None:
                raise InvalidPolygon("static fences take absolute vertices only")
            ring = validate_polygon(vertices)
        else:
            if vertices:
                raise InvalidPolygon("dynamic fences take vertex offsets, not vertices")
            if not anchor_client:
                raise InvalidPolygon("dynamic fences require an anchor client")
            for dlat, dlon in vertex_offsets:
                if not (math.isfinite(dlat) and math.isfinite(dlon)):
                    raise InvalidPolygon("non-finite vertex offset")
            _check_ring(vertex_offsets)
        _set(self, "mode", mode)
        _set(self, "vertices", vertices)
        _set(self, "vertex_offsets", vertex_offsets)
        _set(self, "anchor_client", anchor_client)
        _set(self, "ring", ring)


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


def latitude_band(radius_m: float) -> float:
    """Degrees of latitude beyond which no point is within ``radius_m`` of
    a centre.

    A great-circle distance is at least EARTH_RADIUS_M times the latitude
    difference in radians, so a point further than the band from the
    centre's latitude is outside the circle. The band is widened by 1e-9,
    far more than the rounding of haversine_distance, so it never rejects a
    point that inside_radius accepts. Near the antipode that rounding grows
    to about 1e-8 of the distance, so a circle of a quarter meridian or
    more gets an infinite band, which rejects nothing.
    """
    band = math.degrees(radius_m / EARTH_RADIUS_M) * (1.0 + 1e-9)
    return band if band < 90.0 else math.inf


_WRAP_SLACK = 1e-12  # degrees


class Circle:
    """A radius filter compiled for containment tests.

    ``inside`` is the filter's kind: True for inside-radius, False for
    outside-radius. ``band`` is latitude_band(radius): a point whose
    latitude differs from the centre's by more is outside.

    ``inner`` is an inner bound. A walk along the centre's parallel, then
    along the point's meridian, is at least as long as the great-circle
    distance d, so d <= EARTH_RADIUS_M * (|dlat| + cos_lat * |dlon|) in
    radians, with dlon folded into [-180, 180]. A point whose
    ``|dlat| + cos_lat * |dlon|`` in degrees is at most ``inner`` is
    therefore inside. The bound gives up 1e-9 of the radius, far more than
    the rounding of haversine_distance, and 1e-12 degrees (about 0.1 um)
    more: across the antimeridian the longitude difference is taken near
    360 degrees, where haversine_distance's own rounding is about 1e-14
    degrees however small the circle. ``cos_lat`` is computed as
    haversine_distance computes the centre's cosine. Where the band is
    infinite, the inner bound is off. BrokerState.route applies both bounds
    inline and calls inside_radius only for a point between them.
    """

    __slots__ = ("center", "radius", "inside", "band", "cos_lat", "inner")

    def __init__(self, center: GeoPoint, radius_m: float, inside: bool) -> None:
        self.center = center
        self.radius = radius_m
        self.inside = inside
        self.band = latitude_band(radius_m)
        self.cos_lat = math.cos(math.radians(center.latitude))
        self.inner = (
            math.degrees(radius_m / EARTH_RADIUS_M) * (1.0 - 1e-9) - _WRAP_SLACK
            if self.band < math.inf
            else -math.inf
        )


def normalize_longitude(lon: float) -> float:
    """Fold a longitude, or a difference of two, into (-180, 180]."""
    wrapped = math.fmod(lon + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


_BOX_SLACK = 1e-9  # degrees


class Ring:
    """A polygon compiled for containment tests.

    ``points`` are the vertices as (lon, lat) pairs with longitudes
    unwrapped around ``ref``, the first vertex's longitude, so the
    antimeridian does not split the ring. The box (west, south, east,
    north) bounds them, padded by 1e-9 degrees: rounding in the ray cast
    moves a crossing by far less, so a point outside the box is outside the
    ring, and a point on the box's edge is left to the ray cast.
    """

    __slots__ = ("ref", "points", "west", "south", "east", "north")

    def __init__(self, vertices: Sequence[GeoPoint]) -> None:
        ref = self.ref = vertices[0].longitude
        self.points = tuple((ref + normalize_longitude(v.longitude - ref), v.latitude) for v in vertices)
        xs = [x for x, _ in self.points]
        ys = [y for _, y in self.points]
        self.west, self.east = min(xs) - _BOX_SLACK, max(xs) + _BOX_SLACK
        self.south, self.north = min(ys) - _BOX_SLACK, max(ys) + _BOX_SLACK

    def box_contains(self, p: GeoPoint) -> bool:
        """False for a point the ring cannot contain."""
        if not self.south <= p.latitude <= self.north:
            return False
        x = self.ref + normalize_longitude(p.longitude - self.ref)
        return self.west <= x <= self.east


def validate_polygon(vertices: Sequence[GeoPoint]) -> Ring:
    """Reject polygons this module cannot test reliably; return the Ring
    of one it can.

    Requires >= 3 vertices, no two consecutive vertices identical, a simple
    (non-self-intersecting) ring, and a longitude span under 180 degrees
    after unwrapping (which also excludes pole-encircling rings).
    """
    _check_ring([(v.latitude, v.longitude) for v in vertices])
    return Ring(vertices)


def _check_ring(pairs: Sequence[tuple[float, float]]) -> None:
    """validate_polygon's checks on (lat, lon) pairs: a fence's vertices,
    or a dynamic fence's (dlat, dlon) offsets. The longitudes are unwrapped
    around the first one's, as Ring unwraps them."""
    n = len(pairs)
    if n < 3:
        raise InvalidPolygon(f"a polygon needs at least 3 vertices, got {n}")
    for i in range(n):
        if pairs[i] == pairs[(i + 1) % n]:
            raise InvalidPolygon(f"consecutive duplicate vertex at index {i}")
    ref = pairs[0][1]
    pts = [(ref + normalize_longitude(lon - ref), lat) for lat, lon in pairs]
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


def point_in_polygon(p: GeoPoint, vertices: Ring | Sequence[GeoPoint]) -> bool:
    """Even-odd ray cast in the unwrapped equirectangular plane.

    ``vertices`` is a Ring, or a vertex sequence that is compiled to one
    first. Boundary points count as inside. The polygon must span less
    than 180 degrees of longitude (enforced at registration).
    """
    ring = vertices if isinstance(vertices, Ring) else Ring(vertices)
    ref = ring.ref
    px = ref + normalize_longitude(p.longitude - ref)
    py = p.latitude
    inside = False
    x1, y1 = ring.points[-1]
    for x2, y2 in ring.points:
        # on the edge: _cross((x1, y1), (x2, y2), p) == 0 and _on_segment
        if (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) == 0.0 and (
            min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2)
        ):
            return True
        if (y1 > py) != (y2 > py) and x1 + (py - y1) * (x2 - x1) / (y2 - y1) > px:
            inside = not inside
        x1, y1 = x2, y2
    return inside


def resolve_polygon(
    fence: GeofencePolygon, anchor_location: GeoPoint | None = None
) -> tuple[GeoPoint, ...]:
    """Absolute vertices of a fence.

    Static fences resolve to their own vertices. Dynamic fences translate
    each offset by the anchor's location, normalizing longitudes into
    (-180, 180], and make each vertex with GeoPoint: with no anchor
    location known yet they raise AnchorUnknown (the fence then evaluates
    as non-matching), and with a vertex past a pole GeoPoint raises
    InvalidCoordinates.
    """
    if fence.mode is FenceMode.STATIC:
        return fence.vertices
    if anchor_location is None:
        raise AnchorUnknown(
            f"no known location for anchor client {fence.anchor_client!r}"
        )
    anchor_lat, anchor_lon = anchor_location.latitude, anchor_location.longitude
    return tuple(
        GeoPoint(anchor_lat + dlat, normalize_longitude(anchor_lon + dlon))
        for dlat, dlon in fence.vertex_offsets
    )
