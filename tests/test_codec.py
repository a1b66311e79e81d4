"""Wire codec tests: golden bytes, spec'd error paths, round-trip and
fuzz properties. Golden vectors are hand-assembled with struct, never via
the codec under test."""

from __future__ import annotations

import struct
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqttg.codec import (
    GEO_BLOCK_SIZE,
    Connack,
    Connect,
    ConstraintKind,
    ControlPacket,
    Disconnect,
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
    Subscribe,
    TopicFilter,
    Unsuback,
    Unsubscribe,
    Will,
    decode_geolocation,
    decode_packet,
    decode_remaining_length,
    encode_geolocation,
    encode_packet,
    encode_remaining_length,
)
from mqttg.errors import (
    CodecError,
    EncodeError,
    InvalidCoordinates,
    MalformedPacket,
    ProtocolViolation,
    ValueTooLarge,
)

from gen import random_packet
from oracles import varint_oracle


# ---------------------------------------------------------------------------
# Geolocation block
# ---------------------------------------------------------------------------


class TestGeolocationBlock:
    def test_zero_record(self):
        data = encode_geolocation(GeoLocation(1, 0.0, 0.0, 0.0))
        assert data == b"\x01" + b"\x00" * 20

    def test_latitude_one(self):
        data = encode_geolocation(GeoLocation(1, 1.0, 0.0, 0.0))
        assert data == b"\x01" + bytes.fromhex("000000000000f03f") + b"\x00" * 12

    def test_block_is_21_bytes_little_endian(self):
        geo = GeoLocation(1, -90.0, 180.0, -12.5)
        data = encode_geolocation(geo)
        assert len(data) == GEO_BLOCK_SIZE == 21
        assert data[0] == 1
        assert data[1:9] == struct.pack("<d", -90.0)
        assert data[9:17] == struct.pack("<d", 180.0)
        assert data[17:21] == struct.pack("<f", -12.5)
        assert decode_geolocation(data) == geo

    def test_elevation_rounds_to_f32(self):
        geo = GeoLocation(1, 0.0, 0.0, 123.456)
        assert geo.elevation == struct.unpack("<f", struct.pack("<f", 123.456))[0]
        assert decode_geolocation(encode_geolocation(geo)) == geo

    def test_truncated_input(self):
        with pytest.raises(MalformedPacket):
            decode_geolocation(b"\x01" + b"\x00" * 19)

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-90.5, 0.0), (0.0, 180.5), (0.0, -181.0)])
    def test_out_of_range_coordinates(self, lat, lon):
        data = struct.pack("<Bddf", 1, lat, lon, 0.0)
        with pytest.raises(InvalidCoordinates):
            decode_geolocation(data)

    def test_non_finite_coordinates(self):
        data = struct.pack("<Bddf", 1, float("nan"), 0.0, 0.0)
        with pytest.raises(InvalidCoordinates):
            decode_geolocation(data)

    def test_unknown_version_preserved_verbatim(self):
        data = struct.pack("<Bddf", 7, 123.0, -700.0, 1.5)  # nonsense coords allowed
        geo = decode_geolocation(data)
        assert geo.version == 7
        assert not geo.is_evaluable
        assert encode_geolocation(geo) == data

    def test_extra_bytes_after_cursor_are_ignored(self):
        data = encode_geolocation(GeoLocation(1, 2.0, 3.0, 4.0)) + b"tail"
        assert decode_geolocation(data).latitude == 2.0


# ---------------------------------------------------------------------------
# Remaining length
# ---------------------------------------------------------------------------


class TestRemainingLength:
    @pytest.mark.parametrize("n,expect", [(0, b"\x00"), (127, b"\x7f"), (321, b"\xc1\x02")])
    def test_spec_examples(self, n, expect):
        assert encode_remaining_length(n) == expect

    @pytest.mark.parametrize("n", [0, 1, 127, 128, 16383, 16384, 2097151, 2097152, 268435455])
    def test_boundaries_match_oracle(self, n):
        assert encode_remaining_length(n) == varint_oracle(n)
        value, offset = decode_remaining_length(encode_remaining_length(n))
        assert (value, offset) == (n, len(encode_remaining_length(n)))

    @given(st.integers(0, 268435455))
    def test_round_trip(self, n):
        data = encode_remaining_length(n)
        assert 1 <= len(data) <= 4
        assert decode_remaining_length(data) == (n, len(data))

    def test_out_of_range(self):
        with pytest.raises(ValueTooLarge):
            encode_remaining_length(268435456)
        with pytest.raises(ValueTooLarge):
            encode_remaining_length(-1)

    def test_decode_truncated(self):
        with pytest.raises(MalformedPacket):
            decode_remaining_length(b"\x80")

    def test_decode_overlong(self):
        with pytest.raises(MalformedPacket):
            decode_remaining_length(b"\x80\x80\x80\x80\x01")


# ---------------------------------------------------------------------------
# Golden packets (hand-assembled per MQTT 3.1.1 + the geolocation layout)
# ---------------------------------------------------------------------------


def geo_bytes(version, lat, lon, elev) -> bytes:
    return struct.pack("<Bddf", version, lat, lon, elev)


def _body_size(packet: ControlPacket) -> int:
    """Decoded remaining_length of the packet's encoding."""
    from mqttg.codec import decode_fixed_header

    return decode_fixed_header(encode_packet(packet))[0].remaining_length


class TestGoldenPackets:
    def test_pingreq_plain(self):
        assert encode_packet(ControlPacket(Pingreq())) == b"\xc0\x00"
        assert decode_packet(b"\xc0\x00") == ControlPacket(Pingreq())

    def test_pingreq_with_geo(self):
        geo = GeoLocation(1, 49.85, -99.95, 400.0)
        data = encode_packet(ControlPacket(Pingreq(), geo))
        assert data[0] == 0xC4
        assert data[1] == 21
        assert data[2:] == geo_bytes(1, 49.85, -99.95, 400.0)
        assert decode_packet(data) == ControlPacket(Pingreq(), geo)

    def test_disconnect_with_geo_remaining_length_21(self):
        data = encode_packet(ControlPacket(Disconnect(), GeoLocation(1, 1.0, 2.0, 3.0)))
        assert data[0] == 0xE4 and data[1] == 21 and len(data) == 23

    def test_disconnect_plain(self):
        assert encode_packet(ControlPacket(Disconnect())) == b"\xe0\x00"

    def test_puback_plain_is_baseline_mqtt(self):
        assert encode_packet(ControlPacket(PubAck(0x1234))) == b"\x40\x02\x12\x34"

    def test_puback_with_geo_block_follows_packet_id(self):
        geo = GeoLocation(1, 10.0, 20.0, 30.0)
        data = encode_packet(ControlPacket(PubAck(7), geo))
        assert data[:4] == b"\x44\x17\x00\x07"  # flags 0x4, rl 2+21=23
        assert data[4:] == geo_bytes(1, 10.0, 20.0, 30.0)

    def test_pubrel_keeps_mandated_flag_bits(self):
        assert encode_packet(ControlPacket(PubRel(3)))[0] == 0x62
        geo = GeoLocation(1, 0.0, 0.0, 0.0)
        assert encode_packet(ControlPacket(PubRel(3), geo))[0] == 0x66

    def test_publishg_remaining_length(self):
        # topic "a" (2+1) + geo block (21), QoS 0: no packet id, empty payload
        packet = ControlPacket(Publish("a", b""), GeoLocation(1, 0.0, 0.0, 0.0))
        data = encode_packet(packet)
        assert data[0] >> 4 == 0xF
        assert data[1] == 24

    def test_publishg_qos1_packet_id_before_geo_block(self):
        geo = GeoLocation(1, 5.0, 6.0, 7.0)
        packet = ControlPacket(Publish("t", b"payload", qos=1, packet_id=0x0102), geo)
        data = encode_packet(packet)
        expect = (
            bytes([0xF2, 2 + 1 + 2 + 21 + 7])
            + b"\x00\x01t"
            + b"\x01\x02"
            + geo_bytes(1, 5.0, 6.0, 7.0)
            + b"payload"
        )
        assert data == expect
        assert decode_packet(data) == packet

    def test_publish_qos0_baseline(self):
        data = encode_packet(ControlPacket(Publish("bench/t", b"m0")))
        assert data == b"\x30\x0b\x00\x07bench/tm0"

    def test_connect_baseline(self):
        packet = ControlPacket(Connect("cap-client", clean_session=True, keep_alive=60))
        expect = (
            b"\x10\x16"
            + b"\x00\x04MQTT\x04\x02\x00\x3c"
            + b"\x00\x0acap-client"
        )
        assert encode_packet(packet) == expect
        assert decode_packet(expect) == packet

    def test_connect_with_will_and_credentials(self):
        packet = ControlPacket(
            Connect(
                "c1",
                keep_alive=10,
                will=Will("w/t", b"gone", qos=1, retain=True),
                username="u",
                password=b"p",
            )
        )
        data = encode_packet(packet)
        assert decode_packet(data) == packet
        connect_flags = data[9]  # type+rl (2) + protocol name (6) + level (1)
        assert connect_flags == 0x02 | 0x04 | (1 << 3) | 0x20 | 0x80 | 0x40

    def test_connack_golden(self):
        assert encode_packet(ControlPacket(Connack(False, 0))) == b"\x20\x02\x00\x00"
        assert decode_packet(b"\x20\x02\x01\x05") == ControlPacket(Connack(True, 5))

    def test_subscribe_geo_filter_entry_layout(self):
        constraint = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 5000.0, 49.85, -99.95)
        packet = ControlPacket(Subscribe(1, (TopicFilter("city/traffic", 1, constraint),)))
        data = encode_packet(packet)
        entry = (
            b"\x00\x0ccity/traffic"
            + bytes([0x05])  # geo-filter bit 2 + requested QoS 1
            + b"\x00"  # InsideRadius
            + struct.pack("<f", 5000.0)
            + struct.pack("<d", 49.85)
            + struct.pack("<d", -99.95)
        )
        expect = bytes([0x82, 2 + len(entry)]) + b"\x00\x01" + entry
        assert data == expect
        assert decode_packet(data) == packet

    def test_subscribe_qos_byte_0x05_decodes_geo_filter(self):
        # spec example: QoS byte 0x05 -> requested_qos 1, geo filter follows
        entry = (
            b"\x00\x01t"
            + bytes([0x05, 0x01])  # OutsideRadius
            + struct.pack("<f", 100.0)
            + struct.pack("<d", 1.0)
            + struct.pack("<d", 2.0)
        )
        data = bytes([0x82, 2 + len(entry)]) + b"\x00\x09" + entry
        packet = decode_packet(data)
        f = packet.body.filters[0]
        assert f.qos == 1
        assert f.constraint == GeoConstraint(ConstraintKind.OUTSIDE_RADIUS, 100.0, 1.0, 2.0)

    def test_subscribe_with_packet_geo_block_before_filters(self):
        geo = GeoLocation(1, -10.0, 10.0, 0.0)
        packet = ControlPacket(Subscribe(9, (TopicFilter("a", 0),)), geo)
        data = encode_packet(packet)
        assert data[0] == 0x86  # flags 0b0110: mandated bit 1 + geo bit 2
        assert data[2:4] == b"\x00\x09"
        assert data[4:25] == geo_bytes(1, -10.0, 10.0, 0.0)
        assert data[25:] == b"\x00\x01a\x00"
        assert decode_packet(data) == packet

    def test_unsubscribe_with_geo(self):
        geo = GeoLocation(1, 1.0, 1.0, 1.0)
        packet = ControlPacket(Unsubscribe(4, ("x/y",)), geo)
        data = encode_packet(packet)
        assert data[0] == 0xA6
        assert decode_packet(data) == packet


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------


class TestDecodeErrors:
    def test_packet_type_zero(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x00\x00")

    def test_reserved_flags_on_puback(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x41\x02\x00\x01")

    def test_geo_flag_on_connack_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x24\x02\x00\x00")

    def test_geo_flag_on_pingresp_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\xd4\x15" + geo_bytes(1, 0, 0, 0))

    def test_publish_qos3(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x36\x03\x00\x01t")

    def test_publish_dup_on_qos0(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x38\x03\x00\x01t")

    def test_publish_wildcard_topic(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x30\x03\x00\x01#")

    def test_zero_packet_id(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x40\x02\x00\x00")

    def test_remaining_length_mismatch(self):
        with pytest.raises(MalformedPacket):
            decode_packet(b"\xc0\x01")  # claims 1 byte body, has none
        with pytest.raises(MalformedPacket):
            decode_packet(b"\xc0\x00\xff")  # trailing byte

    def test_pingreq_wrong_body_size(self):
        with pytest.raises(MalformedPacket):
            decode_packet(b"\xc0\x05hello")

    def test_truncated_geo_block_in_pingreq(self):
        data = bytes([0xC4, 20]) + b"\x00" * 20
        with pytest.raises(MalformedPacket):
            decode_packet(data)

    def test_unknown_geo_filter_kind(self):
        entry = b"\x00\x01t" + bytes([0x05, 0x02]) + b"\x00" * 20
        data = bytes([0x82, 2 + len(entry)]) + b"\x00\x01" + entry
        with pytest.raises(MalformedPacket):
            decode_packet(data)

    def test_non_positive_filter_radius(self):
        entry = (
            b"\x00\x01t"
            + bytes([0x05, 0x00])
            + struct.pack("<f", 0.0)
            + struct.pack("<d", 0.0)
            + struct.pack("<d", 0.0)
        )
        data = bytes([0x82, 2 + len(entry)]) + b"\x00\x01" + entry
        with pytest.raises(MalformedPacket):
            decode_packet(data)

    def test_filter_qos_byte_reserved_bits(self):
        data = bytes([0x82, 6]) + b"\x00\x01" + b"\x00\x01t" + bytes([0x08])
        with pytest.raises(ProtocolViolation):
            decode_packet(data)

    def test_subscribe_empty_filter_list(self):
        with pytest.raises(ProtocolViolation):
            decode_packet(b"\x82\x02\x00\x01")

    def test_out_of_range_latitude_in_block(self):
        data = bytes([0xC4, 21]) + geo_bytes(1, 91.0, 0.0, 0.0)
        with pytest.raises(InvalidCoordinates):
            decode_packet(data)

    def test_bad_utf8_topic(self):
        with pytest.raises(MalformedPacket):
            decode_packet(b"\x30\x04\x00\x02\xff\xfe")


class TestEncodeErrors:
    def test_geo_on_non_capable_type(self):
        with pytest.raises(EncodeError):
            encode_packet(ControlPacket(Connack(False, 0), GeoLocation(1, 0, 0, 0)))

    def test_bad_publish_topic(self):
        with pytest.raises(EncodeError):
            encode_packet(ControlPacket(Publish("a/+/b", b"")))

    def test_qos_publish_needs_packet_id(self):
        with pytest.raises(EncodeError):
            encode_packet(ControlPacket(Publish("t", b"", qos=1)))

    def test_subscribe_needs_filters(self):
        with pytest.raises(EncodeError):
            encode_packet(ControlPacket(Subscribe(1, ())))

    def test_bad_filter_grammar(self):
        with pytest.raises(EncodeError):
            encode_packet(ControlPacket(Subscribe(1, (TopicFilter("a/#/b", 0),))))

    def test_negative_radius(self):
        constraint = GeoConstraint(ConstraintKind.INSIDE_RADIUS, -5.0, 0.0, 0.0)
        with pytest.raises(EncodeError):
            encode_packet(ControlPacket(Subscribe(1, (TopicFilter("t", 0, constraint),))))

    def test_out_of_range_geolocation(self):
        with pytest.raises(EncodeError):
            encode_geolocation(GeoLocation(1, 91.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GeoLocation(1, 0.0, 0.0, 1e39),
            lambda: GeoConstraint(ConstraintKind.INSIDE_RADIUS, 1e39, 0.0, 0.0),
        ],
        ids=["elevation", "radius"],
    )
    def test_value_beyond_a_32_bit_float(self, make):
        with pytest.raises(EncodeError, match="32-bit float"):
            make()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**48))
    def test_round_trip_random_packets(self, seed):
        packet = random_packet(Random(seed))
        assert decode_packet(encode_packet(packet)) == packet

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**48))
    def test_geo_block_grows_body_by_exactly_21_bytes(self, seed):
        packet = random_packet(Random(seed))
        if packet.geolocation is None:
            return
        stripped = ControlPacket(packet.body)
        assert _body_size(packet) - _body_size(stripped) == GEO_BLOCK_SIZE

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**48))
    def test_geo_filter_entry_grows_body_by_exactly_21_bytes(self, seed):
        rng = Random(seed)
        packet = random_packet(rng)
        if not isinstance(packet.body, Subscribe):
            return
        constrained = sum(1 for f in packet.body.filters if f.constraint is not None)
        plain_filters = tuple(TopicFilter(f.topic, f.qos) for f in packet.body.filters)
        plain = ControlPacket(Subscribe(packet.body.packet_id, plain_filters), packet.geolocation)
        assert _body_size(packet) - _body_size(plain) == 21 * constrained

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**48))
    def test_reencoding_decoded_geo_block_is_bit_exact(self, seed):
        packet = random_packet(Random(seed))
        data = encode_packet(packet)
        assert encode_packet(decode_packet(data)) == data

    @settings(max_examples=500, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    @example(b"\xc0\x80\x00")
    @example(b"\x30\x83\x00\x00\x01a")
    @example(b"\x44\x17\x00\x07" + struct.pack("<Bdd", 1, 0.0, 0.0) + b"\x01\x00\x80\x7f")
    def test_decoder_totality_random_bytes(self, data):
        """Bytes that decode re-encode to a fixed point of decode and
        encode, and to themselves unless they spell the remaining length in
        more bytes than needed or carry a version-1 block whose elevation is
        a NaN (struct writes a signalling NaN back quiet)."""
        try:
            packet = decode_packet(data)
        except CodecError:
            return
        encoded = encode_packet(packet)
        assert encode_packet(decode_packet(encoded)) == encoded
        length_end = next(i for i in range(1, 5) if data[i] < 0x80)
        # A varint is longer than needed exactly when its last byte is 0.
        minimal = length_end == 1 or data[length_end] != 0
        geo = packet.geolocation
        nan = geo is not None and geo.version == 1 and geo.elevation != geo.elevation
        if minimal and not nan:
            assert encoded == data

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**48), st.binary(min_size=1, max_size=8))
    def test_decoder_totality_mutated_valid_packets(self, seed, noise):
        rng = Random(seed)
        data = bytearray(encode_packet(random_packet(rng)))
        for byte in noise:
            data[rng.randrange(len(data))] ^= byte or 0xFF
        try:
            decode_packet(bytes(data))
        except CodecError:
            pass

    def test_no_geo_flag_means_no_geolocation(self):
        for seed in range(200):
            packet = random_packet(Random(seed))
            data = encode_packet(packet)
            first = data[0]
            ptype = first >> 4
            if ptype == 0xF or (ptype != 0x3 and first & 0x04):
                assert packet.geolocation is not None
            else:
                assert packet.geolocation is None


# ---------------------------------------------------------------------------
# A PUBLISH decoded against the fields it was assembled from
# ---------------------------------------------------------------------------

#: Raw little-endian f32 elevations that a float does not carry back
#: unchanged, or that sit at an edge: -0.0, +inf, -inf, quiet NaNs and a
#: signalling NaN (which struct writes back quiet, as 01 00 c0 7f).
ELEVATIONS = (
    b"\x00\x00\x00\x80", b"\x00\x00\x80\x7f", b"\x00\x00\x80\xff",
    b"\x00\x00\xc0\x7f", b"\x00\x00\xc0\xff", b"\x01\x00\x80\x7f",
)


@st.composite
def publish_frames(draw) -> tuple[bytes, object, bool]:
    """A PUBLISH or PUBLISHG assembled by hand from drawn fields, valid or
    not, with what decode_packet must make of it: the exception class of
    its first fault, in the order the decoder reads, or the packet of those
    fields; and whether that packet keeps the frame."""
    geo_type, retain = draw(st.booleans()), draw(st.booleans())
    dup, qos = draw(st.sampled_from((False, False, True))), draw(st.sampled_from((0, 0, 1, 2, 3)))
    first = (0xF0 if geo_type else 0x30) | dup << 3 | qos << 1 | retain
    names = st.characters(blacklist_characters="\x00+#", blacklist_categories=("Cs",))
    topic = draw(st.one_of(
        st.text(names, min_size=1, max_size=12).map(str.encode),
        st.text(names, min_size=1, max_size=12).map(str.encode),
        st.text(max_size=12).map(str.encode),  # wildcards, NUL and multi-byte characters among them
        st.sampled_from(("é/ü/日本", "a/+", "#", "a\x00b", "fleet/🚚", "")).map(str.encode),
        st.binary(max_size=6),  # invalid and overlong UTF-8
    ))
    packet_id = draw(st.one_of(st.sampled_from((0, 1, 0xFFFF)), st.integers(1, 0xFFFF)))
    head = struct.pack(">H", len(topic)) + topic + (struct.pack(">H", packet_id) if qos else b"")
    geo, block = None, b""
    if geo_type:
        version = draw(st.sampled_from((1, 1, 1, 0, 2, 255)))
        edges = st.sampled_from((-0.0, 91.0, 181.0, float("nan"), float("inf")))
        latitude = draw(st.one_of(st.floats(-90, 90), st.floats(-90, 90), edges))
        longitude = draw(st.one_of(st.floats(-180, 180), st.floats(-180, 180), edges))
        elevation = draw(st.one_of(st.sampled_from(ELEVATIONS), st.binary(min_size=4, max_size=4)))
        block = struct.pack("<Bdd", version, latitude, longitude) + elevation
        raw = block if version != 1 else None
        geo = GeoLocation(version, latitude, longitude, struct.unpack("<f", elevation)[0], raw)
    payload = draw(st.binary(max_size=8))
    size = draw(st.sampled_from((None, 127, 128, 16384)))
    if size is not None:
        payload += bytes(max(0, size - len(head) - len(block) - len(payload)))
    body = head + block + payload
    # A body that stops partway through its topic, packet identifier or block.
    stop = None
    if draw(st.integers(0, 4)) == 0:
        stop = draw(st.integers(0, len(head) + len(block) - 1))
        body = body[:stop]
    length = varint_oracle(len(body))
    minimal = len(length) == 4 or draw(st.booleans())
    if not minimal:
        length = length[:-1] + bytes((length[-1] | 0x80, 0))  # as 80 00 is for 0
    frame = bytes((first,)) + length + body
    # A frame whose remaining length is not its body's: cut short, or one byte over.
    fault = draw(st.sampled_from((None,) * 9 + (1, 21, -1)))
    if fault is not None:
        frame = frame[:-fault] if fault > 0 else frame + b"\x00"
        return frame, MalformedPacket, False

    def fault_at() -> type | None:
        if qos == 3 or dup and not qos:
            return ProtocolViolation
        if stop is not None and stop < 2 + len(topic):
            return MalformedPacket
        try:
            text = topic.decode()
        except UnicodeDecodeError:
            return MalformedPacket
        if "\x00" in text:
            return MalformedPacket
        if not text or "+" in text or "#" in text:
            return ProtocolViolation
        if stop is not None and qos and stop < len(head):
            return MalformedPacket
        if qos and not packet_id:
            return ProtocolViolation
        if stop is not None:
            return MalformedPacket
        if geo is not None and version == 1:
            if not (-90 <= latitude <= 90 and -180 <= longitude <= 180):
                return InvalidCoordinates
        return None

    fault = fault_at()
    if fault is not None:
        return frame, fault, False
    publish = Publish(topic.decode(), payload, qos, retain, dup, packet_id if qos else None)
    nan = geo is not None and version == 1 and geo.elevation != geo.elevation
    return frame, ControlPacket(publish, geo), minimal and not nan


def located(elevation: bytes) -> tuple[bytes, ControlPacket, bool]:
    """The case of a PUBLISHG to "a" whose version-1 block has this raw
    elevation, a NaN: the packet does not keep its frame."""
    frame = bytes((0xF0, 24)) + b"\x00\x01a" + struct.pack("<Bdd", 1, 45.0, 7.0) + elevation
    geo = GeoLocation(1, 45.0, 7.0, struct.unpack("<f", elevation)[0])
    return frame, ControlPacket(Publish("a"), geo), False


@settings(max_examples=1500, deadline=None)
@given(publish_frames(), st.booleans())
@example((b"\x30\x03\x00\x01a", ControlPacket(Publish("a")), True), True)
@example((b"\x30\x83\x00\x00\x01a", ControlPacket(Publish("a")), False), False)
@example(located(b"\x00\x00\xc0\x7f"), False)
@example(located(b"\x01\x00\x80\x7f"), False)
def test_a_publish_decodes_to_the_packet_of_its_fields(case, as_bytearray):
    """decode_packet gives a hand-assembled PUBLISH or PUBLISHG the packet
    of its fields, or the exception class of its first fault. It keeps the
    frame exactly where encoding those fields gives it back: a ``bytes``
    frame with a minimal remaining length and no NaN elevation in a
    version-1 block."""
    frame, expected, keeps = case
    data = bytearray(frame) if as_bytearray else frame
    try:
        packet = decode_packet(data)
    except CodecError as exc:
        assert exc.__class__ is expected
        return
    assert isinstance(expected, ControlPacket)
    if as_bytearray:  # the payload is sliced from the frame, so it is a bytearray too
        body = expected.body
        payload = bytearray(body.payload)
        expected = ControlPacket(
            Publish(body.topic, payload, body.qos, body.retain, body.dup, body.packet_id),
            expected.geolocation,
        )
    # The same values (a NaN field is unequal to itself, so its repr decides).
    assert packet.__class__ is ControlPacket and repr(packet) == repr(expected)
    assert packet == expected or "nan" in repr(expected)
    encoded = encode_packet(packet)
    assert encoded.__class__ is bytes and encoded == encode_packet(expected)
    if keeps and not as_bytearray:
        assert packet.frame is frame and encoded == frame
    else:
        assert packet.frame is None


# ---------------------------------------------------------------------------
# A fixed-layout packet decoded against the fields it was assembled from
# ---------------------------------------------------------------------------

#: The types whose body is only a packet identifier and the block: type
#: nibble -> (body class, mandated flag nibble, may carry the block, has an id),
#: from MQTT 3.1.1 section 2.2.2 and the README's geo-capable types.
FIXED_LAYOUTS = {
    0x4: (PubAck, 0x0, True, True),
    0x5: (PubRec, 0x0, True, True),
    0x6: (PubRel, 0x2, True, True),
    0x7: (PubComp, 0x0, True, True),
    0xB: (Unsuback, 0x0, False, True),
    0xC: (Pingreq, 0x0, True, False),
    0xD: (Pingresp, 0x0, False, False),
    0xE: (Disconnect, 0x0, True, False),
}


@st.composite
def fixed_layout_frames(draw) -> tuple[bytes, object]:
    """A PUBACK, PUBREC, PUBREL, PUBCOMP, UNSUBACK, PINGREQ, PINGRESP or
    DISCONNECT assembled by hand from drawn fields, valid or not, with what
    decode_packet must make of it: the exception class of its first fault,
    in the order the decoder reads, or the packet of those fields."""
    type_code = draw(st.sampled_from(sorted(FIXED_LAYOUTS)))
    cls, mandated, geo_capable, has_id = FIXED_LAYOUTS[type_code]
    # The mandated nibble, with the geo flag (wrong where the type cannot
    # carry the block), or any nibble at all.
    flags = draw(st.one_of(st.sampled_from((mandated, mandated | 0x04)), st.integers(0, 15)))
    packet_id = draw(st.one_of(st.sampled_from((0, 1, 0xFFFF)), st.integers(1, 0xFFFF)))
    head = struct.pack(">H", packet_id) if has_id else b""
    geo, block = None, b""
    if flags & 0x04:
        version = draw(st.sampled_from((1, 1, 1, 0, 2, 255)))
        edges = st.sampled_from((-0.0, 91.0, 181.0, float("nan"), float("inf")))
        latitude = draw(st.one_of(st.floats(-90, 90), st.floats(-90, 90), edges))
        longitude = draw(st.one_of(st.floats(-180, 180), st.floats(-180, 180), edges))
        elevation = draw(st.one_of(st.sampled_from(ELEVATIONS), st.binary(min_size=4, max_size=4)))
        block = struct.pack("<Bdd", version, latitude, longitude) + elevation
        raw = block if version != 1 else None
        geo = GeoLocation(version, latitude, longitude, struct.unpack("<f", elevation)[0], raw)
    body = head + block
    # A body that stops partway through its packet identifier or block, or
    # one with bytes after them.
    stop, trailing = None, b""
    cut = draw(st.integers(0, 4))
    if cut == 0 and body:
        stop = draw(st.integers(0, len(body) - 1))
        body = body[:stop]
    elif cut == 1:
        trailing = draw(st.binary(min_size=1, max_size=3))
        body += trailing
    length = varint_oracle(len(body))
    if draw(st.booleans()):
        length = length[:-1] + bytes((length[-1] | 0x80, 0))  # as 80 00 is for 0
    frame = bytes((type_code << 4 | flags,)) + length + body

    def fault_at() -> type | None:
        if flags not in (mandated, mandated | 0x04) or flags != mandated and not geo_capable:
            return ProtocolViolation
        if stop is not None and stop < len(head):
            return MalformedPacket
        if has_id and not packet_id:
            return ProtocolViolation
        if stop is not None:
            return MalformedPacket
        if geo is not None and version == 1:
            if not (-90 <= latitude <= 90 and -180 <= longitude <= 180):
                return InvalidCoordinates
        if trailing:
            return MalformedPacket
        return None

    fault = fault_at()
    if fault is not None:
        return frame, fault
    return frame, ControlPacket(cls(packet_id) if has_id else cls(), geo)


@settings(max_examples=1000, deadline=None)
@given(fixed_layout_frames(), st.booleans())
def test_a_fixed_layout_packet_decodes_to_the_packet_of_its_fields(case, as_bytearray):
    """decode_packet gives a hand-assembled fixed-layout packet the packet
    of its fields, or the exception class of its first fault."""
    frame, expected = case
    try:
        packet = decode_packet(bytearray(frame) if as_bytearray else frame)
    except CodecError as exc:
        assert exc.__class__ is expected
        return
    assert isinstance(expected, ControlPacket)
    # The same values (a NaN field is unequal to itself, so its repr decides).
    assert packet.__class__ is ControlPacket and repr(packet) == repr(expected)
    assert packet == expected or "nan" in repr(expected)
    assert packet.frame is None and encode_packet(packet) == encode_packet(expected)
