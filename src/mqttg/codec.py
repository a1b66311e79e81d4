"""MQTT 3.1.1 wire codec with the geolocation extension.

Implements bit-exact encoding and decoding of all fifteen control packet
types: the fourteen standard ones plus PUBLISHG (type 0xF), a PUBLISH
variant carrying a 21-byte geolocation block between the variable header
and the payload. On the other geo-capable types the block is signalled by
fixed-header flag bit 2 (mask 0x04). Packets without geolocation encode
byte-identically to plain MQTT 3.1.1.

``_PACKETS`` states each non-PUBLISH type's wire facts once: its body
class, mandated flag nibble, whether it may carry the block, whether a
packet identifier leads its variable header, and the codec for the rest
of its body. The block follows the packet identifier, or opens the body
when the type has none. ``encode_packet`` writes every non-PUBLISH packet
from its entry, on one path.

``decode_packet`` reads each packet on one path, chosen by its type:
PUBLISH and PUBLISHG in one pass; a fixed layout (the four acks, UNSUBACK,
PINGREQ, PINGRESP, DISCONNECT), whose packet identifier and block are its
whole body, by its ``_PACKETS`` entry alone; and a variable body (CONNECT,
CONNACK, SUBSCRIBE, SUBACK, UNSUBSCRIBE) with its entry's decoder. Every
field is read in place by its index in the frame, with no copy of the
body: ``_id_and_block`` reads the packet identifier and block on all three
paths, ``_string_at`` every string (the PUBLISH topic included),
``_binary_at`` the will payload and the password, and ``_need`` checks
the bounds of each other fixed-size field. Every value a decoder returns
is made by its class's own ``__init__``, so a decoded record is the one
its constructor makes from the same fields.

A decoded PUBLISH or PUBLISHG encodes to its own frame: it keeps its
``bytes`` when encoding the fields gives them back (a minimal remaining
length, no NaN elevation in a version-1 block), and ``encode_packet``
returns them.

MQTT's own integers are big-endian; the geolocation fields (and the
radius/latitude/longitude of geo-constrained subscription filters) are
little-endian IEEE-754.
"""

from __future__ import annotations

import math
import struct
from enum import IntEnum
from typing import Callable, NamedTuple, Union

from .errors import (
    EncodeError,
    InvalidCoordinates,
    MalformedPacket,
    ProtocolViolation,
    ValueTooLarge,
)
from .geo import coordinates_valid
from .record import FrozenRecord
from .topics import topic_filter_valid, topic_name_bytes, topic_name_valid

MAX_REMAINING_LENGTH = 268_435_455
GEO_FLAG = 0x04
GEO_FILTER_FLAG = 0x04  # bit 2 of a SUBSCRIBE entry's QoS byte

_U16 = struct.Struct(">H")
#: Geolocation block: version, latitude, longitude, elevation.
_GEO_BLOCK = struct.Struct("<Bddf")
GEO_BLOCK_SIZE = _GEO_BLOCK.size
#: Extension of a geo-constrained SUBSCRIBE entry: kind, radius, latitude, longitude.
_RADIUS_ENTRY = struct.Struct("<Bfdd")


class PacketType(IntEnum):
    CONNECT = 1
    CONNACK = 2
    PUBLISH = 3
    PUBACK = 4
    PUBREC = 5
    PUBREL = 6
    PUBCOMP = 7
    SUBSCRIBE = 8
    SUBACK = 9
    UNSUBSCRIBE = 10
    UNSUBACK = 11
    PINGREQ = 12
    PINGRESP = 13
    DISCONNECT = 14
    PUBLISHG = 15


class ConstraintKind(IntEnum):
    INSIDE_RADIUS = 0x00
    OUTSIDE_RADIUS = 0x01


def _f32(value: float) -> float:
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        raise EncodeError(f"{value!r} does not fit a 32-bit float") from None


_set = object.__setattr__


class GeoLocation(FrozenRecord):
    """The 21-byte version/latitude/longitude/elevation record.

    Coordinates are decimal degrees; elevation is meters above sea level
    and is rounded to 32-bit float precision on construction so that
    encode/decode is the identity. decode_geolocation makes each block with
    this constructor too, where the rounding keeps the f32 it read. Blocks
    with an unknown version decode structurally and keep their raw bytes
    for verbatim re-encoding.
    """

    _fields = ("version", "latitude", "longitude", "elevation")

    def __init__(
        self, version: int = 1, latitude: float = 0.0, longitude: float = 0.0,
        elevation: float = 0.0, raw: bytes | None = None,
    ) -> None:
        fields = self.__dict__
        fields["version"] = version
        fields["latitude"] = latitude
        fields["longitude"] = longitude
        fields["elevation"] = _f32(elevation)
        fields["raw"] = raw

    __reduce__ = object.__reduce__  # a copy or pickle keeps the whole __dict__, raw included

    @property
    def is_evaluable(self) -> bool:
        """Only version-1 blocks take part in geofence evaluation."""
        return self.version == 1


class GeoConstraint(FrozenRecord):
    """Radius constraint of a geo-capable subscription filter."""

    __slots__ = _fields = ("kind", "radius", "latitude", "longitude")

    def __init__(self, kind: ConstraintKind, radius: float, latitude: float, longitude: float) -> None:
        _set(self, "kind", kind)
        _set(self, "radius", _f32(radius))  # meters, > 0
        _set(self, "latitude", latitude)
        _set(self, "longitude", longitude)


class TopicFilter(FrozenRecord):
    __slots__ = _fields = ("topic", "qos", "constraint")

    def __init__(self, topic: str, qos: int = 0, constraint: GeoConstraint | None = None) -> None:
        _set(self, "topic", topic)
        _set(self, "qos", qos)
        _set(self, "constraint", constraint)


class Will(FrozenRecord):
    __slots__ = _fields = ("topic", "payload", "qos", "retain")

    def __init__(self, topic: str, payload: bytes = b"", qos: int = 0, retain: bool = False) -> None:
        _set(self, "topic", topic)
        _set(self, "payload", payload)
        _set(self, "qos", qos)
        _set(self, "retain", retain)


class Connect(FrozenRecord):
    __slots__ = _fields = (
        "client_id", "clean_session", "keep_alive", "will", "username", "password", "protocol_level"
    )

    def __init__(
        self, client_id: str, clean_session: bool = True, keep_alive: int = 60,
        will: Will | None = None, username: str | None = None, password: bytes | None = None,
        protocol_level: int = 4,
    ) -> None:
        _set(self, "client_id", client_id)
        _set(self, "clean_session", clean_session)
        _set(self, "keep_alive", keep_alive)
        _set(self, "will", will)
        _set(self, "username", username)
        _set(self, "password", password)
        _set(self, "protocol_level", protocol_level)


class Connack(FrozenRecord):
    __slots__ = _fields = ("session_present", "return_code")

    def __init__(self, session_present: bool = False, return_code: int = 0) -> None:
        _set(self, "session_present", session_present)
        _set(self, "return_code", return_code)


class Publish(FrozenRecord):
    __slots__ = _fields = ("topic", "payload", "qos", "retain", "dup", "packet_id")

    def __init__(
        self, topic: str, payload: bytes = b"", qos: int = 0, retain: bool = False,
        dup: bool = False, packet_id: int | None = None,
    ) -> None:
        _set(self, "topic", topic)
        _set(self, "payload", payload)
        _set(self, "qos", qos)
        _set(self, "retain", retain)
        _set(self, "dup", dup)
        _set(self, "packet_id", packet_id)


class _PacketId(FrozenRecord):  # a body that is only a packet identifier
    __slots__ = _fields = ("packet_id",)

    def __init__(self, packet_id: int) -> None:
        _set(self, "packet_id", packet_id)


class PubAck(_PacketId):
    __slots__ = ()


class PubRec(_PacketId):
    __slots__ = ()


class PubRel(_PacketId):
    __slots__ = ()


class PubComp(_PacketId):
    __slots__ = ()


class Unsuback(_PacketId):
    __slots__ = ()


class Subscribe(FrozenRecord):
    __slots__ = _fields = ("packet_id", "filters")

    def __init__(self, packet_id: int, filters: tuple[TopicFilter, ...]) -> None:
        _set(self, "packet_id", packet_id)
        _set(self, "filters", filters)


class Suback(FrozenRecord):
    __slots__ = _fields = ("packet_id", "return_codes")

    def __init__(self, packet_id: int, return_codes: tuple[int, ...]) -> None:
        _set(self, "packet_id", packet_id)
        _set(self, "return_codes", return_codes)


class Unsubscribe(FrozenRecord):
    __slots__ = _fields = ("packet_id", "topics")

    def __init__(self, packet_id: int, topics: tuple[str, ...]) -> None:
        _set(self, "packet_id", packet_id)
        _set(self, "topics", topics)


class Pingreq(FrozenRecord):
    __slots__ = ()


class Pingresp(FrozenRecord):
    __slots__ = ()


class Disconnect(FrozenRecord):
    __slots__ = ()


Body = Union[
    Connect,
    Connack,
    Publish,
    PubAck,
    PubRec,
    PubRel,
    PubComp,
    Subscribe,
    Suback,
    Unsubscribe,
    Unsuback,
    Pingreq,
    Pingresp,
    Disconnect,
]


class FixedHeader(FrozenRecord):
    __slots__ = _fields = ("packet_type", "flags", "remaining_length")

    def __init__(self, packet_type: PacketType, flags: int, remaining_length: int) -> None:
        _set(self, "packet_type", packet_type)
        _set(self, "flags", flags)
        _set(self, "remaining_length", remaining_length)


class ControlPacket(FrozenRecord):
    """A decoded (or to-be-encoded) control packet.

    A Publish body with a geolocation encodes as PUBLISHG; without one it
    is a plain PUBLISH. For the other geo-capable types the geolocation
    is signalled by fixed-header flag bit 2. ``frame`` is not a field: it
    holds the bytes a decoded PUBLISH or PUBLISHG came in, when encoding
    its fields gives those very bytes, and None otherwise.
    """

    __slots__ = ("body", "geolocation", "frame")
    _fields = ("body", "geolocation")

    def __init__(self, body: Body, geolocation: GeoLocation | None = None) -> None:
        _set(self, "body", body)
        _set(self, "geolocation", geolocation)
        _set(self, "frame", None)

    @property
    def packet_type(self) -> PacketType:
        if isinstance(self.body, Publish):
            return PacketType.PUBLISHG if self.geolocation is not None else PacketType.PUBLISH
        return _BY_BODY[type(self.body)].ptype


# ---------------------------------------------------------------------------
# Geolocation block
# ---------------------------------------------------------------------------


def encode_geolocation(geo: GeoLocation) -> bytes:
    """Serialize to the 21-byte little-endian layout.

    Order: version byte, latitude (f64), longitude (f64), elevation (f32).
    """
    if geo.raw is not None:
        if len(geo.raw) != GEO_BLOCK_SIZE:
            raise EncodeError(f"raw geolocation block must be {GEO_BLOCK_SIZE} bytes")
        return geo.raw
    if not 0 <= geo.version <= 255:
        raise EncodeError(f"geolocation version {geo.version} does not fit a byte")
    if geo.version == 1 and not coordinates_valid(geo.latitude, geo.longitude):
        raise EncodeError(
            f"coordinates out of range: lat={geo.latitude} lon={geo.longitude}"
        )
    return _GEO_BLOCK.pack(geo.version, geo.latitude, geo.longitude, geo.elevation)


def decode_geolocation(data: bytes, pos: int = 0) -> GeoLocation:
    """Parse the 21 bytes at ``data[pos:]`` as a geolocation block."""
    if len(data) - pos < GEO_BLOCK_SIZE:
        raise MalformedPacket(
            f"geolocation block truncated: {len(data) - pos} of {GEO_BLOCK_SIZE} bytes"
        )
    version, latitude, longitude, elevation = _GEO_BLOCK.unpack_from(data, pos)
    if version == 1:
        if not coordinates_valid(latitude, longitude):
            raise InvalidCoordinates(
                f"latitude {latitude!r} / longitude {longitude!r} out of range"
            )
        return GeoLocation(1, latitude, longitude, elevation)
    # Unknown layout versions are preserved verbatim and flagged unevaluable.
    raw = bytes(data[pos : pos + GEO_BLOCK_SIZE])
    return GeoLocation(version, latitude, longitude, elevation, raw)


# ---------------------------------------------------------------------------
# Remaining-length variable integer
# ---------------------------------------------------------------------------


def encode_remaining_length(n: int) -> bytes:
    if n < 0 or n > MAX_REMAINING_LENGTH:
        raise ValueTooLarge(f"remaining length {n} outside [0, {MAX_REMAINING_LENGTH}]")
    out = bytearray()
    while True:
        n, digit = divmod(n, 128)
        out.append(digit | 0x80 if n else digit)
        if not n:
            return bytes(out)


def decode_remaining_length(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Return (value, next offset); at most four bytes are consumed."""
    value = 0
    for i in range(4):
        if offset + i >= len(data):
            raise MalformedPacket("truncated remaining length")
        byte = data[offset + i]
        value += (byte & 0x7F) << 7 * i
        if not byte & 0x80:
            return value, offset + i + 1
    raise MalformedPacket("remaining length uses more than 4 bytes")


# ---------------------------------------------------------------------------
# Primitive readers/writers
# ---------------------------------------------------------------------------


def _need(data: bytes, pos: int, n: int) -> int:
    """The end of the ``n`` bytes at ``data[pos]``, which must all be there."""
    if len(data) - pos < n:
        raise MalformedPacket(f"packet truncated: wanted {n} bytes, have {len(data) - pos}")
    return pos + n


def _string_at(data: bytes, pos: int) -> tuple[str, int]:
    """The MQTT string at ``data[pos]``, a 16-bit length and then that
    many bytes of UTF-8 with no U+0000, and the position after it. Flat,
    with no helper calls: it reads every PUBLISH topic."""
    n = len(data)
    end = pos + 2 + (data[pos] << 8 | data[pos + 1]) if n - pos >= 2 else n + 1
    if end > n:
        raise MalformedPacket("packet truncated in a string")
    try:
        text = data[pos + 2 : end].decode()
    except UnicodeDecodeError as exc:
        raise MalformedPacket(f"invalid UTF-8 in string: {exc}") from None
    if "\x00" in text:
        raise MalformedPacket("string contains U+0000")
    return text, end


def _binary_at(data: bytes, pos: int) -> tuple[bytes, int]:
    """The length-prefixed bytes at ``data[pos]`` and the position after them."""
    start = _need(data, pos, 2)
    end = _need(data, start, data[pos] << 8 | data[pos + 1])
    return data[start:end], end


def _string(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 65535:
        raise EncodeError("string longer than 65535 bytes")
    if "\x00" in text:
        raise EncodeError("string contains U+0000")
    return _U16.pack(len(raw)) + raw


def _binary(data: bytes) -> bytes:
    if len(data) > 65535:
        raise EncodeError("binary field longer than 65535 bytes")
    return _U16.pack(len(data)) + data


def _packet_id(value: int | None, what: str) -> bytes:
    if value is None or not 1 <= value <= 65535:
        raise EncodeError(f"{what} requires a packet identifier in [1, 65535], got {value}")
    return _U16.pack(value)


# ---------------------------------------------------------------------------
# The rest of a variable body: after the packet identifier and geolocation
# block. Encoders return its bytes; decoders return the body's remaining fields.
# ---------------------------------------------------------------------------


def _encode_connect(body: Connect) -> bytes:
    if not 0 <= body.keep_alive <= 65535:
        raise EncodeError(f"keep_alive {body.keep_alive} does not fit 16 bits")
    connect_flags = 0x02 if body.clean_session else 0x00
    payload = bytearray(_string(body.client_id))
    if body.will is not None:
        if not topic_name_valid(body.will.topic):
            raise EncodeError(f"invalid will topic {body.will.topic!r}")
        if body.will.qos not in (0, 1, 2):
            raise EncodeError(f"will QoS {body.will.qos} not in (0, 1, 2)")
        connect_flags |= 0x04 | (body.will.qos << 3) | (int(body.will.retain) << 5)
        payload += _string(body.will.topic)
        payload += _binary(body.will.payload)
    if body.username is not None:
        connect_flags |= 0x80
        payload += _string(body.username)
    if body.password is not None:
        if body.username is None:
            raise EncodeError("password requires a username")
        connect_flags |= 0x40
        payload += _binary(body.password)
    head = _string("MQTT") + bytes([body.protocol_level, connect_flags])
    return head + _U16.pack(body.keep_alive) + payload


def _decode_connect(data: bytes, pos: int) -> tuple[tuple, int]:
    protocol, pos = _string_at(data, pos)
    if protocol != "MQTT":
        raise MalformedPacket(f"unexpected protocol name {protocol!r}")
    pos = _need(data, pos, 2)
    level, connect_flags = data[pos - 2], data[pos - 1]
    if connect_flags & 0x01:
        raise MalformedPacket("CONNECT reserved flag bit set")
    pos = _need(data, pos, 2)
    keep_alive = data[pos - 2] << 8 | data[pos - 1]
    client_id, pos = _string_at(data, pos)
    clean_session = bool(connect_flags & 0x02)
    will = username = password = None
    if connect_flags & 0x04:
        will_qos = (connect_flags >> 3) & 0x03
        if will_qos == 3:
            raise MalformedPacket("will QoS 3 is invalid")
        will_topic, pos = _string_at(data, pos)
        will_payload, pos = _binary_at(data, pos)
        will = Will(will_topic, will_payload, will_qos, bool(connect_flags & 0x20))
    elif connect_flags & 0x38:
        raise MalformedPacket("will QoS/retain set without will flag")
    if connect_flags & 0x80:
        username, pos = _string_at(data, pos)
    if connect_flags & 0x40:
        password, pos = _binary_at(data, pos)
        if username is None:
            raise MalformedPacket("password flag set without username flag")
    return (client_id, clean_session, keep_alive, will, username, password, level), pos


def _encode_connack(body: Connack) -> bytes:
    if not 0 <= body.return_code <= 255:
        raise EncodeError(f"CONNACK return code {body.return_code} does not fit a byte")
    return bytes([int(body.session_present), body.return_code])


def _decode_connack(data: bytes, pos: int) -> tuple[tuple, int]:
    pos = _need(data, pos, 1)
    ack_flags = data[pos - 1]
    if ack_flags & 0xFE:
        raise MalformedPacket("CONNACK acknowledge flags bits 1-7 must be 0")
    pos = _need(data, pos, 1)
    return (bool(ack_flags & 0x01), data[pos - 1]), pos


def _encode_filter_entry(f: TopicFilter) -> bytes:
    if not topic_filter_valid(f.topic):
        raise EncodeError(f"invalid topic filter {f.topic!r}")
    if f.qos not in (0, 1, 2):
        raise EncodeError(f"requested QoS {f.qos} not in (0, 1, 2)")
    out = bytearray(_string(f.topic))
    if f.constraint is None:
        out.append(f.qos)
        return bytes(out)
    c = f.constraint
    if not (math.isfinite(c.radius) and c.radius > 0):
        raise EncodeError(f"geo filter radius must be > 0, got {c.radius}")
    if not coordinates_valid(c.latitude, c.longitude):
        raise EncodeError(
            f"geo filter center out of range: lat={c.latitude} lon={c.longitude}"
        )
    out.append(GEO_FILTER_FLAG | f.qos)
    out += _RADIUS_ENTRY.pack(c.kind, c.radius, c.latitude, c.longitude)
    return bytes(out)


def _encode_filters(body: Subscribe) -> bytes:
    if not body.filters:
        raise EncodeError("SUBSCRIBE requires at least one topic filter")
    return b"".join(_encode_filter_entry(f) for f in body.filters)


def _decode_filters(data: bytes, pos: int) -> tuple[tuple, int]:
    filters = []
    while pos < len(data):
        topic, pos = _string_at(data, pos)
        pos = _need(data, pos, 1)
        qos_byte = data[pos - 1]
        if qos_byte & ~(GEO_FILTER_FLAG | 0x03):
            raise ProtocolViolation(f"reserved bits set in QoS byte 0x{qos_byte:02x}")
        qos = qos_byte & 0x03
        if qos == 3:
            raise ProtocolViolation("requested QoS 3 is invalid")
        constraint = None
        if qos_byte & GEO_FILTER_FLAG:
            entry, pos = pos, _need(data, pos, _RADIUS_ENTRY.size)
            kind_byte, radius, latitude, longitude = _RADIUS_ENTRY.unpack_from(data, entry)
            try:
                kind = ConstraintKind(kind_byte)
            except ValueError:
                raise MalformedPacket(f"unknown geo filter kind 0x{kind_byte:02x}") from None
            if not (math.isfinite(radius) and radius > 0):
                raise MalformedPacket(f"geo filter radius must be > 0, got {radius!r}")
            if not coordinates_valid(latitude, longitude):
                raise InvalidCoordinates(
                    f"geo filter center out of range: lat={latitude!r} lon={longitude!r}"
                )
            constraint = GeoConstraint(kind, radius, latitude, longitude)
        filters.append(TopicFilter(topic, qos, constraint))
    if not filters:
        raise ProtocolViolation("SUBSCRIBE with no topic filters")
    return (tuple(filters),), pos


def _encode_return_codes(body: Suback) -> bytes:
    if not body.return_codes:
        raise EncodeError("SUBACK requires at least one return code")
    for code in body.return_codes:
        if code not in (0x00, 0x01, 0x02, 0x80):
            raise EncodeError(f"invalid SUBACK return code 0x{code:02x}")
    return bytes(body.return_codes)


def _decode_return_codes(data: bytes, pos: int) -> tuple[tuple, int]:
    codes = tuple(data[pos:])
    if not codes:
        raise MalformedPacket("SUBACK with no return codes")
    for code in codes:
        if code not in (0x00, 0x01, 0x02, 0x80):
            raise MalformedPacket(f"invalid SUBACK return code 0x{code:02x}")
    return (codes,), len(data)


def _encode_topics(body: Unsubscribe) -> bytes:
    if not body.topics:
        raise EncodeError("UNSUBSCRIBE requires at least one topic filter")
    for topic in body.topics:
        if not topic_filter_valid(topic):
            raise EncodeError(f"invalid topic filter {topic!r}")
    return b"".join(_string(topic) for topic in body.topics)


def _decode_topics(data: bytes, pos: int) -> tuple[tuple, int]:
    topics = []
    while pos < len(data):
        topic, pos = _string_at(data, pos)
        topics.append(topic)
    if not topics:
        raise ProtocolViolation("UNSUBSCRIBE with no topic filters")
    return (tuple(topics),), pos


# ---------------------------------------------------------------------------
# The packet table
# ---------------------------------------------------------------------------


class _Spec(NamedTuple):
    ptype: PacketType
    body: type
    flags: int  # mandated fixed-header flag nibble, without GEO_FLAG
    geo: bool  # may carry the geolocation block
    packet_id: bool  # a packet identifier leads the variable header
    # The rest of a variable body; both None for a fixed layout, whose
    # packet identifier and block are all of its body.
    encode: Callable[[Body], bytes] | None
    decode: Callable[[bytes, int], tuple[tuple, int]] | None


# PUBLISH and PUBLISHG are not here: their flags carry DUP, QoS and RETAIN.
_PACKETS = (
    _Spec(PacketType.CONNECT, Connect, 0x0, False, False, _encode_connect, _decode_connect),
    _Spec(PacketType.CONNACK, Connack, 0x0, False, False, _encode_connack, _decode_connack),
    _Spec(PacketType.PUBACK, PubAck, 0x0, True, True, None, None),
    _Spec(PacketType.PUBREC, PubRec, 0x0, True, True, None, None),
    _Spec(PacketType.PUBREL, PubRel, 0x2, True, True, None, None),
    _Spec(PacketType.PUBCOMP, PubComp, 0x0, True, True, None, None),
    _Spec(PacketType.SUBSCRIBE, Subscribe, 0x2, True, True, _encode_filters, _decode_filters),
    _Spec(PacketType.SUBACK, Suback, 0x0, False, True, _encode_return_codes, _decode_return_codes),
    _Spec(PacketType.UNSUBSCRIBE, Unsubscribe, 0x2, True, True, _encode_topics, _decode_topics),
    _Spec(PacketType.UNSUBACK, Unsuback, 0x0, False, True, None, None),
    _Spec(PacketType.PINGREQ, Pingreq, 0x0, True, False, None, None),
    _Spec(PacketType.PINGRESP, Pingresp, 0x0, False, False, None, None),
    _Spec(PacketType.DISCONNECT, Disconnect, 0x0, True, False, None, None),
)
_BY_BODY = {spec.body: spec for spec in _PACKETS}
#: By the type nibble of the first byte: its PacketType (None for the
#: reserved 0) and its _Spec (None for 0, PUBLISH and PUBLISHG).
_TYPES = (None, *PacketType)
_SPECS = tuple(next((spec for spec in _PACKETS if spec.ptype is t), None) for t in _TYPES)


# ---------------------------------------------------------------------------
# Packet encoding
# ---------------------------------------------------------------------------


def encode_packet(packet: ControlPacket) -> bytes:
    """Serialize a control packet, geolocation block included.

    Raises EncodeError naming the violated invariant when the packet
    cannot be represented on the wire. A decoded packet that kept its
    frame is that frame.
    """
    if packet.frame is not None:
        return packet.frame
    body, geo = packet.body, packet.geolocation
    if isinstance(body, Publish):
        return _encode_publish(body, geo)
    spec = _BY_BODY[type(body)]
    first = (spec.ptype << 4) | spec.flags
    rest = b""
    if geo is not None:
        if not spec.geo:
            raise EncodeError(f"{spec.ptype.name} never carries geolocation")
        first |= GEO_FLAG
        rest = encode_geolocation(geo)
    if spec.packet_id:
        rest = _packet_id(body.packet_id, spec.ptype.name) + rest
    if spec.encode is not None:
        rest += spec.encode(body)
    return _fixed_header(first, len(rest)) + rest


def _fixed_header(first: int, remaining: int) -> bytes:
    if remaining < 128:
        return bytes((first, remaining))
    return bytes((first,)) + encode_remaining_length(remaining)


def _encode_publish(body: Publish, geo: GeoLocation | None) -> bytes:
    qos = body.qos
    raw = topic_name_bytes(body.topic)
    if raw is None:
        raise EncodeError(f"invalid publish topic {body.topic!r}")
    if qos not in (0, 1, 2):
        raise EncodeError(f"QoS {qos} not in (0, 1, 2)")
    if qos == 0 and body.dup:
        raise EncodeError("DUP must be 0 on a QoS 0 publish")
    if qos == 0 and body.packet_id is not None:
        raise EncodeError("packet identifier requires QoS > 0")
    pid = _packet_id(body.packet_id, "publish with QoS > 0") if qos else b""
    if geo is None:
        first, block = (PacketType.PUBLISH << 4), b""
    else:
        first, block = (PacketType.PUBLISHG << 4), encode_geolocation(geo)
    first |= (body.dup << 3) | (qos << 1) | int(body.retain)
    payload = body.payload
    remaining = 2 + len(raw) + len(pid) + len(block) + len(payload)
    return b"".join(
        (_fixed_header(first, remaining), _U16.pack(len(raw)), raw, pid, block, payload)
    )


# ---------------------------------------------------------------------------
# Packet decoding
# ---------------------------------------------------------------------------


def _read_fixed_header(data: bytes) -> tuple[int, int, int]:
    """(first byte, remaining length, body offset) of a frame whose type
    is not the reserved 0."""
    if not data:
        raise MalformedPacket("empty input")
    first = data[0]
    if not first >> 4:
        raise ProtocolViolation("packet type 0 is invalid")
    if len(data) > 1 and data[1] < 0x80:
        return first, data[1], 2
    return (first, *decode_remaining_length(data, 1))


def decode_fixed_header(data: bytes) -> tuple[FixedHeader, int]:
    """Parse the first byte and remaining length; returns (header, body offset)."""
    first, remaining, offset = _read_fixed_header(data)
    return FixedHeader(_TYPES[first >> 4], first & 0x0F, remaining), offset


def decode_packet(data: bytes) -> ControlPacket:
    """Parse exactly one control packet from ``data``.

    Inverse of encode_packet. Raises, for the first fault in reading order,
    MalformedPacket on truncation or trailing bytes, ProtocolViolation on
    reserved-flag or packet-rule breaches, InvalidCoordinates on
    out-of-range version-1 coordinates.

    After the fixed header each packet takes one of three paths, chosen by
    its type nibble: PUBLISH and PUBLISHG go to ``_decode_publish``; a
    fixed layout (PUBACK, PUBREC, PUBREL, PUBCOMP, UNSUBACK, PINGREQ,
    PINGRESP, DISCONNECT) is only its packet identifier and block; a
    variable body (CONNECT, CONNACK, SUBSCRIBE, SUBACK, UNSUBSCRIBE) reads
    the rest with its ``_Spec.decode``, which takes the frame and the
    position after the block and returns the fields and the position after
    them. ``_id_and_block`` reads the packet identifier and block on each
    path. The body is its ``_Spec.body`` made from the packet identifier
    and the fields after the block, which a fixed layout has none of.
    """
    first, remaining, pos = _read_fixed_header(data)
    n = len(data)
    if n - pos != remaining:
        raise MalformedPacket(f"remaining length {remaining} does not match {n - pos} body bytes")
    spec = _SPECS[first >> 4]
    if spec is None:
        return _decode_publish(data, first, pos)
    flags = first & 0x0F
    if flags != spec.flags and not (spec.geo and flags == spec.flags | GEO_FLAG):
        raise ProtocolViolation(f"invalid fixed-header flags 0x{flags:x} for {spec.ptype.name}")
    packet_id, geo, pos = _id_and_block(data, pos, spec.packet_id, flags & GEO_FLAG, first >> 4)
    fields = ()
    if spec.decode is not None:
        fields, pos = spec.decode(data, pos)
    if pos != n:
        raise MalformedPacket(f"{n - pos} unexpected trailing bytes in {spec.ptype.name}")
    body = spec.body(packet_id, *fields) if spec.packet_id else spec.body(*fields)
    return ControlPacket(body, geo)


def _id_and_block(
    data: bytes, pos: int, has_id: bool, has_block: bool, type_code: int
) -> tuple[int | None, GeoLocation | None, int]:
    """The packet identifier and the geolocation block that start at
    ``data[pos]``, each None where the packet has none, and the position
    after them."""
    packet_id = geo = None
    if has_id:
        if len(data) - pos < 2:
            raise MalformedPacket(
                f"packet truncated in the {_TYPES[type_code].name} packet identifier"
            )
        packet_id = data[pos] << 8 | data[pos + 1]
        if not packet_id:
            raise ProtocolViolation(f"{_TYPES[type_code].name} packet identifier must be non-zero")
        pos += 2
    if has_block:
        geo = decode_geolocation(data, pos)
        pos += GEO_BLOCK_SIZE
    return packet_id, geo, pos


def _decode_publish(data: bytes, first: int, pos: int) -> ControlPacket:
    """The PUBLISH or PUBLISHG whose body starts at ``data[pos]``, read in
    one pass. It keeps ``data`` as its frame when encoding its fields gives
    those bytes back: ``data`` is ``bytes``, its remaining length is minimal
    (not ``80 00``) and a version-1 block's elevation is not a NaN, which
    struct writes back quiet (``01 00 80 7f`` as ``01 00 c0 7f``)."""
    qos = first >> 1 & 0x03
    if qos == 3:
        raise ProtocolViolation("publish QoS 3 is invalid")
    if first & 0x08 and not qos:
        raise ProtocolViolation("DUP set on a QoS 0 publish")
    topic, end = _string_at(data, pos)
    if not topic_name_valid(topic):
        raise ProtocolViolation(f"invalid publish topic {topic!r}")
    # data[pos - 1], the last remaining-length byte, is 0 only in a longer form than needed.
    frame = data if data.__class__ is bytes and data[pos - 1] else None
    packet_id = geo = None
    located = first >> 4 == PacketType.PUBLISHG
    if qos or located:
        packet_id, geo, end = _id_and_block(data, end, qos, located, first >> 4)
        if located and geo.version == 1 and geo.elevation != geo.elevation:
            frame = None
    body = Publish(topic, data[end:], qos, first & 0x01 == 1, first & 0x08 == 8, packet_id)
    packet = ControlPacket(body, geo)
    _set(packet, "frame", frame)
    return packet
