"""The value classes of the codec, the geometry and the broker core.

Each is compared by exact class and its compared fields, frozen ones hash
and refuse assignment, mutable ones are unhashable, each survives a copy and
a pickle, and every repr is the string the dataclass each class replaced
printed for the same value.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import re

import pytest

from mqttg.broker import Delivery, LocationRecord, SessionState
from mqttg.codec import (
    Connack,
    Connect,
    ConstraintKind,
    ControlPacket,
    Disconnect,
    FixedHeader,
    GeoConstraint,
    GeoLocation,
    PacketType,
    Pingreq,
    Pingresp,
    PubAck,
    PubComp,
    PubRec,
    PubRel,
    Publish,
    Suback,
    Subscribe,
    TopicFilter,
    Unsuback,
    Unsubscribe,
    Will,
)
from mqttg.errors import InvalidCoordinates, InvalidPolygon
from mqttg.geo import FenceMode, GeofencePolygon, GeoPoint


def constraint():
    return GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1500.3, 45.0, 7.5)


def location():
    return GeoLocation(1, 12.5, -7.25, 100.1)


C_REPR = (
    "GeoConstraint(kind=<ConstraintKind.INSIDE_RADIUS: 0>, radius=1500.300048828125, "
    "latitude=45.0, longitude=7.5)"
)
G_REPR = "GeoLocation(version=1, latitude=12.5, longitude=-7.25, elevation=100.0999984741211)"

# (make one value, its repr, frozen); one row per class
CASES = [
    (location, G_REPR, True),
    (constraint, C_REPR, True),
    (
        lambda: TopicFilter("a/+", 1, constraint()),
        f"TopicFilter(topic='a/+', qos=1, constraint={C_REPR})",
        True,
    ),
    (lambda: Will("w/t", b"bye", 1, True), "Will(topic='w/t', payload=b'bye', qos=1, retain=True)", True),
    (
        lambda: Connect("c1", True, 30, Will("w", b"x"), "u", b"p"),
        "Connect(client_id='c1', clean_session=True, keep_alive=30, will=Will(topic='w', payload=b'x', "
        "qos=0, retain=False), username='u', password=b'p', protocol_level=4)",
        True,
    ),
    (lambda: Connack(True, 0), "Connack(session_present=True, return_code=0)", True),
    (
        lambda: Publish("t/1", b"x", 1, False, True, 7),
        "Publish(topic='t/1', payload=b'x', qos=1, retain=False, dup=True, packet_id=7)",
        True,
    ),
    (lambda: PubAck(5), "PubAck(packet_id=5)", True),
    (lambda: PubRec(5), "PubRec(packet_id=5)", True),
    (lambda: PubRel(5), "PubRel(packet_id=5)", True),
    (lambda: PubComp(5), "PubComp(packet_id=5)", True),
    (
        lambda: Subscribe(5, (TopicFilter("a", 0),)),
        "Subscribe(packet_id=5, filters=(TopicFilter(topic='a', qos=0, constraint=None),))",
        True,
    ),
    (lambda: Suback(5, (0, 128)), "Suback(packet_id=5, return_codes=(0, 128))", True),
    (lambda: Unsubscribe(5, ("a", "b/#")), "Unsubscribe(packet_id=5, topics=('a', 'b/#'))", True),
    (lambda: Unsuback(5), "Unsuback(packet_id=5)", True),
    (Pingreq, "Pingreq()", True),
    (Pingresp, "Pingresp()", True),
    (Disconnect, "Disconnect()", True),
    (
        lambda: FixedHeader(PacketType.PUBLISH, 2, 10),
        "FixedHeader(packet_type=<PacketType.PUBLISH: 3>, flags=2, remaining_length=10)",
        True,
    ),
    (
        lambda: ControlPacket(PubAck(5), location()),
        f"ControlPacket(body=PubAck(packet_id=5), geolocation={G_REPR})",
        True,
    ),
    (lambda: GeoPoint(10.5, -20.25), "GeoPoint(latitude=10.5, longitude=-20.25)", True),
    (
        lambda: GeofencePolygon(
            FenceMode.STATIC, vertices=(GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1))
        ),
        "GeofencePolygon(mode=<FenceMode.STATIC: 'static'>, vertices=(GeoPoint(latitude=0, longitude=0), "
        "GeoPoint(latitude=0, longitude=1), GeoPoint(latitude=1, longitude=1)), vertex_offsets=(), "
        "anchor_client=None)",
        True,
    ),
    (
        lambda: LocationRecord("c1", location(), 123.5),
        f"LocationRecord(client_id='c1', location={G_REPR}, received_at=123.5, cumulative_distance_m=0.0, "
        "last_speed_kmh=None, updates=1, segment_m=0.0)",
        False,
    ),
    (lambda: Delivery("c1", 1, True), "Delivery(client_id='c1', qos=1, include_geo=True)", True),
    (
        lambda: SessionState("c1"),
        "SessionState(client_id='c1', subscriptions={}, geo_capable=False, next_pid=1, outbound=None, "
        "incoming_qos2=None, owner=None, will=None)",
        False,
    ),
]
IDS = [text.split("(")[0] for _, text, _ in CASES]


def test_the_table_holds_one_row_per_class():
    assert len(CASES) == len({type(make()) for make, _, _ in CASES}) == 25


@pytest.mark.parametrize("make, text, frozen", CASES, ids=IDS)
def test_value_semantics(make, text, frozen):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    assert a != object()
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))
    first = re.match(r"\w+\((\w+)=", text)
    name = first.group(1) if first else "anything"
    if frozen:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, None)
        assert a != b


def test_equality_is_by_exact_class():
    for (make_a, _, _), (make_b, _, _) in itertools.permutations(CASES, 2):
        assert make_a() != make_b()
    ids = (PubAck, PubRec, PubRel, PubComp, Unsuback)
    for x, y in itertools.combinations(ids, 2):
        assert x(5) != y(5)


def test_fields_left_out_of_eq_hash_and_repr():
    raw = bytes(21)
    assert GeoLocation(2, 1.0, 2.0, 3.0, raw) == GeoLocation(2, 1.0, 2.0, 3.0)
    assert hash(GeoLocation(2, 1.0, 2.0, 3.0, raw)) == hash(GeoLocation(2, 1.0, 2.0, 3.0))
    assert "raw" not in repr(GeoLocation(2, 1.0, 2.0, 3.0, raw))
    assert pickle.loads(pickle.dumps(GeoLocation(2, 1.0, 2.0, 3.0, raw))).raw == raw
    square = (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1))
    fence = GeofencePolygon(FenceMode.STATIC, vertices=square)
    assert fence.ring is not None and "ring" not in repr(fence)
    made = constraint()
    circle = made.circle  # centred on the constraint's coordinates, with no reference back to it
    assert circle is not None and (circle.latitude, circle.longitude) == (made.latitude, made.longitude)
    assert "circle" not in repr(made)
    twin = copy.copy(made)  # rebuilt by __init__, with a circle of its own
    assert twin == made and hash(twin) == hash(made) and twin.circle is not circle
    assert (twin.circle.latitude, twin.circle.longitude) == (made.latitude, made.longitude)
    assert GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1.0, 91.0, 0.0).circle is None
    assert GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1.0, float("inf"), 0.0).circle is None


def test_construction_keeps_its_rounding_and_validation():
    assert GeoLocation(elevation=0.1).elevation == 0.10000000149011612
    assert constraint().radius == 1500.300048828125
    with pytest.raises(InvalidCoordinates):
        GeoPoint(90.5, 0.0)
    with pytest.raises(InvalidPolygon):
        GeofencePolygon(FenceMode.DYNAMIC, vertex_offsets=((0.0, 1.0),) * 3)
    fields = {"version", "latitude", "longitude", "elevation", "raw"}
    assert vars(GeoLocation(1, 1.0, 2.0)).keys() == fields
