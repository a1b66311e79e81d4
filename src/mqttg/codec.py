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
when the type has none.

MQTT's own integers are big-endian; the geolocation fields (and the
radius/latitude/longitude of geo-constrained subscription filters) are
little-endian IEEE-754.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
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
from .topics import topic_filter_valid, topic_name_valid

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
    return struct.unpack("<f", struct.pack("<f", value))[0]


@dataclass(frozen=True)
class GeoLocation:
    """The 21-byte version/latitude/longitude/elevation record.

    Coordinates are decimal degrees; elevation is meters above sea level
    and is rounded to 32-bit float precision on construction so that
    encode/decode is the identity. Blocks with an unknown version decode
    structurally and keep their raw bytes for verbatim re-encoding.
    """

    version: int = 1
    latitude: float = 0.0
    longitude: float = 0.0
    elevation: float = 0.0
    raw: bytes | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elevation", _f32(self.elevation))

    @property
    def is_evaluable(self) -> bool:
        """Only version-1 blocks take part in geofence evaluation."""
        return self.version == 1


@dataclass(frozen=True)
class GeoConstraint:
    """Radius constraint of a geo-capable subscription filter."""

    kind: ConstraintKind
    radius: float  # meters, > 0
    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", _f32(self.radius))


@dataclass(frozen=True)
class TopicFilter:
    topic: str
    qos: int = 0
    constraint: GeoConstraint | None = None


@dataclass(frozen=True)
class Will:
    topic: str
    payload: bytes = b""
    qos: int = 0
    retain: bool = False


@dataclass(frozen=True)
class Connect:
    client_id: str
    clean_session: bool = True
    keep_alive: int = 60
    will: Will | None = None
    username: str | None = None
    password: bytes | None = None
    protocol_level: int = 4


@dataclass(frozen=True)
class Connack:
    session_present: bool = False
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes = b""
    qos: int = 0
    retain: bool = False
    dup: bool = False
    packet_id: int | None = None


@dataclass(frozen=True)
class PubAck:
    packet_id: int


@dataclass(frozen=True)
class PubRec:
    packet_id: int


@dataclass(frozen=True)
class PubRel:
    packet_id: int


@dataclass(frozen=True)
class PubComp:
    packet_id: int


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    filters: tuple[TopicFilter, ...]


@dataclass(frozen=True)
class Suback:
    packet_id: int
    return_codes: tuple[int, ...]


@dataclass(frozen=True)
class Unsubscribe:
    packet_id: int
    topics: tuple[str, ...]


@dataclass(frozen=True)
class Unsuback:
    packet_id: int


@dataclass(frozen=True)
class Pingreq:
    pass


@dataclass(frozen=True)
class Pingresp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


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


@dataclass(frozen=True)
class FixedHeader:
    packet_type: PacketType
    flags: int
    remaining_length: int


@dataclass(frozen=True)
class ControlPacket:
    """A decoded (or to-be-encoded) control packet.

    A Publish body with a geolocation encodes as PUBLISHG; without one it
    is a plain PUBLISH. For the other geo-capable types the geolocation
    is signalled by fixed-header flag bit 2.
    """

    body: Body
    geolocation: GeoLocation | None = None

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


def decode_geolocation(data: bytes) -> GeoLocation:
    """Parse the first 21 bytes of ``data`` as a geolocation block."""
    if len(data) < GEO_BLOCK_SIZE:
        raise MalformedPacket(
            f"geolocation block truncated: {len(data)} of {GEO_BLOCK_SIZE} bytes"
        )
    version, latitude, longitude, elevation = _GEO_BLOCK.unpack_from(data)
    if version == 1:
        if not coordinates_valid(latitude, longitude):
            raise InvalidCoordinates(
                f"latitude {latitude!r} / longitude {longitude!r} out of range"
            )
        return GeoLocation(version, latitude, longitude, elevation)
    # Unknown layout versions are preserved verbatim and flagged unevaluable.
    return GeoLocation(version, latitude, longitude, elevation, raw=bytes(data[:GEO_BLOCK_SIZE]))


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
    multiplier = 1
    for i in range(4):
        if offset + i >= len(data):
            raise MalformedPacket("truncated remaining length")
        byte = data[offset + i]
        value += (byte & 0x7F) * multiplier
        multiplier *= 128
        if not byte & 0x80:
            return value, offset + i + 1
    raise MalformedPacket("remaining length uses more than 4 bytes")


# ---------------------------------------------------------------------------
# Primitive readers/writers
# ---------------------------------------------------------------------------


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if self.remaining() < n:
            raise MalformedPacket(f"packet truncated: wanted {n} bytes, have {self.remaining()}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return self.unpack(_U16)[0]

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPacket(f"invalid UTF-8 in string: {exc}") from None
        if "\x00" in text:
            raise MalformedPacket("string contains U+0000")
        return text

    def binary(self) -> bytes:
        return self.take(self.u16())

    def geolocation(self) -> GeoLocation:
        return decode_geolocation(self.take(GEO_BLOCK_SIZE))

    def expect_end(self, what: str) -> None:
        if self.remaining():
            raise MalformedPacket(f"{self.remaining()} unexpected trailing bytes in {what}")


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


def _u16(value: int, what: str) -> bytes:
    if not 0 <= value <= 65535:
        raise EncodeError(f"{what} {value} does not fit 16 bits")
    return _U16.pack(value)


def _packet_id(value: int | None, what: str) -> bytes:
    if value is None or not 1 <= value <= 65535:
        raise EncodeError(f"{what} requires a packet identifier in [1, 65535], got {value}")
    return _U16.pack(value)


def _read_packet_id(reader: _Reader, what: str) -> int:
    pid = reader.u16()
    if pid == 0:
        raise ProtocolViolation(f"{what} packet identifier must be non-zero")
    return pid


# ---------------------------------------------------------------------------
# The rest of each body: after the packet identifier and geolocation block.
# Encoders return its bytes; decoders return the body's remaining fields.
# ---------------------------------------------------------------------------


def _encode_nothing(body: Body) -> bytes:
    return b""


def _decode_nothing(reader: _Reader) -> tuple:
    return ()


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
    head = _string("MQTT") + bytes([body.protocol_level, connect_flags]) + _u16(
        body.keep_alive, "keep_alive"
    )
    return head + payload


def _decode_connect(reader: _Reader) -> tuple:
    protocol = reader.string()
    if protocol != "MQTT":
        raise MalformedPacket(f"unexpected protocol name {protocol!r}")
    level = reader.u8()
    connect_flags = reader.u8()
    if connect_flags & 0x01:
        raise MalformedPacket("CONNECT reserved flag bit set")
    keep_alive = reader.u16()
    client_id = reader.string()
    clean_session = bool(connect_flags & 0x02)
    will = None
    if connect_flags & 0x04:
        will_qos = (connect_flags >> 3) & 0x03
        if will_qos == 3:
            raise MalformedPacket("will QoS 3 is invalid")
        will_topic = reader.string()
        will_payload = reader.binary()
        will = Will(will_topic, will_payload, will_qos, bool(connect_flags & 0x20))
    elif connect_flags & 0x38:
        raise MalformedPacket("will QoS/retain set without will flag")
    username = reader.string() if connect_flags & 0x80 else None
    password = reader.binary() if connect_flags & 0x40 else None
    if password is not None and username is None:
        raise MalformedPacket("password flag set without username flag")
    return client_id, clean_session, keep_alive, will, username, password, level


def _encode_connack(body: Connack) -> bytes:
    if not 0 <= body.return_code <= 255:
        raise EncodeError(f"CONNACK return code {body.return_code} does not fit a byte")
    return bytes([int(body.session_present), body.return_code])


def _decode_connack(reader: _Reader) -> tuple:
    ack_flags = reader.u8()
    if ack_flags & 0xFE:
        raise MalformedPacket("CONNACK acknowledge flags bits 1-7 must be 0")
    return bool(ack_flags & 0x01), reader.u8()


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


def _decode_filters(reader: _Reader) -> tuple:
    filters = []
    while reader.remaining():
        topic = reader.string()
        qos_byte = reader.u8()
        if qos_byte & ~(GEO_FILTER_FLAG | 0x03):
            raise ProtocolViolation(f"reserved bits set in QoS byte 0x{qos_byte:02x}")
        qos = qos_byte & 0x03
        if qos == 3:
            raise ProtocolViolation("requested QoS 3 is invalid")
        constraint = None
        if qos_byte & GEO_FILTER_FLAG:
            kind_byte, radius, latitude, longitude = reader.unpack(_RADIUS_ENTRY)
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
    return (tuple(filters),)


def _encode_return_codes(body: Suback) -> bytes:
    if not body.return_codes:
        raise EncodeError("SUBACK requires at least one return code")
    for code in body.return_codes:
        if code not in (0x00, 0x01, 0x02, 0x80):
            raise EncodeError(f"invalid SUBACK return code 0x{code:02x}")
    return bytes(body.return_codes)


def _decode_return_codes(reader: _Reader) -> tuple:
    codes = tuple(reader.take(reader.remaining()))
    if not codes:
        raise MalformedPacket("SUBACK with no return codes")
    for code in codes:
        if code not in (0x00, 0x01, 0x02, 0x80):
            raise MalformedPacket(f"invalid SUBACK return code 0x{code:02x}")
    return (codes,)


def _encode_topics(body: Unsubscribe) -> bytes:
    if not body.topics:
        raise EncodeError("UNSUBSCRIBE requires at least one topic filter")
    for topic in body.topics:
        if not topic_filter_valid(topic):
            raise EncodeError(f"invalid topic filter {topic!r}")
    return b"".join(_string(topic) for topic in body.topics)


def _decode_topics(reader: _Reader) -> tuple:
    topics = []
    while reader.remaining():
        topics.append(reader.string())
    if not topics:
        raise ProtocolViolation("UNSUBSCRIBE with no topic filters")
    return (tuple(topics),)


# ---------------------------------------------------------------------------
# The packet table
# ---------------------------------------------------------------------------


class _Spec(NamedTuple):
    ptype: PacketType
    body: type
    flags: int  # mandated fixed-header flag nibble, without GEO_FLAG
    geo: bool  # may carry the geolocation block
    packet_id: bool  # a packet identifier leads the variable header
    encode: Callable[[Body], bytes]
    decode: Callable[[_Reader], tuple]


# PUBLISH and PUBLISHG are not here: their flags carry DUP, QoS and RETAIN.
_PACKETS = (
    _Spec(PacketType.CONNECT, Connect, 0x0, False, False, _encode_connect, _decode_connect),
    _Spec(PacketType.CONNACK, Connack, 0x0, False, False, _encode_connack, _decode_connack),
    _Spec(PacketType.PUBACK, PubAck, 0x0, True, True, _encode_nothing, _decode_nothing),
    _Spec(PacketType.PUBREC, PubRec, 0x0, True, True, _encode_nothing, _decode_nothing),
    _Spec(PacketType.PUBREL, PubRel, 0x2, True, True, _encode_nothing, _decode_nothing),
    _Spec(PacketType.PUBCOMP, PubComp, 0x0, True, True, _encode_nothing, _decode_nothing),
    _Spec(PacketType.SUBSCRIBE, Subscribe, 0x2, True, True, _encode_filters, _decode_filters),
    _Spec(PacketType.SUBACK, Suback, 0x0, False, True, _encode_return_codes, _decode_return_codes),
    _Spec(PacketType.UNSUBSCRIBE, Unsubscribe, 0x2, True, True, _encode_topics, _decode_topics),
    _Spec(PacketType.UNSUBACK, Unsuback, 0x0, False, True, _encode_nothing, _decode_nothing),
    _Spec(PacketType.PINGREQ, Pingreq, 0x0, True, False, _encode_nothing, _decode_nothing),
    _Spec(PacketType.PINGRESP, Pingresp, 0x0, False, False, _encode_nothing, _decode_nothing),
    _Spec(PacketType.DISCONNECT, Disconnect, 0x0, True, False, _encode_nothing, _decode_nothing),
)
_BY_BODY = {spec.body: spec for spec in _PACKETS}
_BY_TYPE = {spec.ptype: spec for spec in _PACKETS}


# ---------------------------------------------------------------------------
# Packet encoding
# ---------------------------------------------------------------------------


def encode_packet(packet: ControlPacket) -> bytes:
    """Serialize a control packet, geolocation block included.

    Raises EncodeError naming the violated invariant when the packet
    cannot be represented on the wire.
    """
    body, geo = packet.body, packet.geolocation
    if isinstance(body, Publish):
        ptype = PacketType.PUBLISH if geo is None else PacketType.PUBLISHG
        flags, rest = _encode_publish(body, b"" if geo is None else encode_geolocation(geo))
    else:
        spec = _BY_BODY[type(body)]
        ptype, flags, rest = spec.ptype, spec.flags, b""
        if geo is not None:
            if not spec.geo:
                raise EncodeError(f"{ptype.name} never carries geolocation")
            flags |= GEO_FLAG
            rest = encode_geolocation(geo)
        if spec.packet_id:
            rest = _packet_id(body.packet_id, ptype.name) + rest
        rest += spec.encode(body)
    return bytes([(ptype << 4) | flags]) + encode_remaining_length(len(rest)) + rest


def _encode_publish(body: Publish, geo_bytes: bytes) -> tuple[int, bytes]:
    if not topic_name_valid(body.topic):
        raise EncodeError(f"invalid publish topic {body.topic!r}")
    if body.qos not in (0, 1, 2):
        raise EncodeError(f"QoS {body.qos} not in (0, 1, 2)")
    if body.qos == 0 and body.dup:
        raise EncodeError("DUP must be 0 on a QoS 0 publish")
    if body.qos == 0 and body.packet_id is not None:
        raise EncodeError("packet identifier requires QoS > 0")
    out = bytearray(_string(body.topic))
    if body.qos > 0:
        out += _packet_id(body.packet_id, "publish with QoS > 0")
    out += geo_bytes
    out += body.payload
    flags = (body.dup << 3) | (body.qos << 1) | int(body.retain)
    return flags, bytes(out)


# ---------------------------------------------------------------------------
# Packet decoding
# ---------------------------------------------------------------------------


def decode_fixed_header(data: bytes) -> tuple[FixedHeader, int]:
    """Parse the first byte and remaining length; returns (header, body offset)."""
    if not data:
        raise MalformedPacket("empty input")
    type_code = data[0] >> 4
    if type_code == 0:
        raise ProtocolViolation("packet type 0 is invalid")
    remaining, offset = decode_remaining_length(data, 1)
    return FixedHeader(PacketType(type_code), data[0] & 0x0F, remaining), offset


def decode_packet(data: bytes) -> ControlPacket:
    """Parse exactly one control packet from ``data``.

    Inverse of encode_packet. Raises MalformedPacket on truncation or
    trailing bytes, ProtocolViolation on reserved-flag or packet-rule
    breaches, InvalidCoordinates on out-of-range version-1 coordinates.
    """
    header, offset = decode_fixed_header(data)
    if len(data) - offset != header.remaining_length:
        raise MalformedPacket(
            f"remaining length {header.remaining_length} does not match "
            f"{len(data) - offset} body bytes"
        )
    reader = _Reader(data[offset:])
    ptype, flags = header.packet_type, header.flags

    if ptype is PacketType.PUBLISH or ptype is PacketType.PUBLISHG:
        return _decode_publish(ptype, flags, reader)

    spec = _BY_TYPE[ptype]
    if flags != spec.flags and not (spec.geo and flags == spec.flags | GEO_FLAG):
        raise ProtocolViolation(f"invalid fixed-header flags 0x{flags:x} for {ptype.name}")
    head = (_read_packet_id(reader, ptype.name),) if spec.packet_id else ()
    geo = reader.geolocation() if flags & GEO_FLAG else None
    body = spec.body(*head, *spec.decode(reader))
    reader.expect_end(ptype.name)
    return ControlPacket(body, geo)


def _decode_publish(ptype: PacketType, flags: int, reader: _Reader) -> ControlPacket:
    dup = bool(flags & 0x08)
    qos = (flags >> 1) & 0x03
    retain = bool(flags & 0x01)
    if qos == 3:
        raise ProtocolViolation("publish QoS 3 is invalid")
    if qos == 0 and dup:
        raise ProtocolViolation("DUP set on a QoS 0 publish")
    topic = reader.string()
    if not topic_name_valid(topic):
        raise ProtocolViolation(f"invalid publish topic {topic!r}")
    packet_id = _read_packet_id(reader, "publish with QoS > 0") if qos > 0 else None
    geo = reader.geolocation() if ptype is PacketType.PUBLISHG else None
    payload = reader.take(reader.remaining())
    body = Publish(topic, payload, qos, retain, dup, packet_id)
    return ControlPacket(body, geo)
