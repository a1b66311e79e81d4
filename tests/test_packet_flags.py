"""The fixed-header first byte of each non-PUBLISH packet type, and where
the geolocation block goes.

The expected bytes come from MQTT 3.1.1 section 2.2.2 (flag bits 0010 on
PUBREL, SUBSCRIBE and UNSUBSCRIBE, 0000 elsewhere) and from the README's
list of geo-capable types, never from the codec's own table.
"""

import struct

import pytest

from mqttg.codec import (
    Connack,
    Connect,
    ControlPacket,
    Disconnect,
    GeoLocation,
    Pingreq,
    Pingresp,
    PubAck,
    PubComp,
    PubRec,
    PubRel,
    Suback,
    Subscribe,
    TopicFilter,
    Unsuback,
    Unsubscribe,
    decode_packet,
    encode_packet,
)
from mqttg.errors import EncodeError, ProtocolViolation

GEO = GeoLocation(1, 49.85, -99.95, 400.0)
BLOCK = struct.pack("<Bddf", 1, 49.85, -99.95, 400.0)
PID = b"\x00\x07"

# (body, plain first byte, geo-capable, bytes of the leading packet identifier)
CASES = [
    (Connect("c"), 0x10, False, b""),
    (Connack(), 0x20, False, b""),
    (PubAck(7), 0x40, True, PID),
    (PubRec(7), 0x50, True, PID),
    (PubRel(7), 0x62, True, PID),
    (PubComp(7), 0x70, True, PID),
    (Subscribe(7, (TopicFilter("t", 1),)), 0x82, True, PID),
    (Suback(7, (1,)), 0x90, False, PID),
    (Unsubscribe(7, ("t",)), 0xA2, True, PID),
    (Unsuback(7), 0xB0, False, PID),
    (Pingreq(), 0xC0, True, b""),
    (Pingresp(), 0xD0, False, b""),
    (Disconnect(), 0xE0, True, b""),
]


@pytest.mark.parametrize(
    "body, first, geo_capable, pid", CASES, ids=[type(case[0]).__name__ for case in CASES]
)
def test_first_byte_and_geolocation_block(body, first, geo_capable, pid):
    plain = encode_packet(ControlPacket(body))
    assert plain[0] == first
    assert plain[2 : 2 + len(pid)] == pid
    assert decode_packet(plain) == ControlPacket(body)
    if geo_capable:
        data = encode_packet(ControlPacket(body, GEO))
        assert data[0] == first | 0x04
        assert data[1] == plain[1] + len(BLOCK)
        # After the packet identifier, or the whole body when there is none.
        assert data[2:] == pid + BLOCK + plain[2 + len(pid) :]
        assert decode_packet(data) == ControlPacket(body, GEO)
    else:
        with pytest.raises(ProtocolViolation):
            decode_packet(bytes([first | 0x04]) + plain[1:])
        with pytest.raises(EncodeError):
            encode_packet(ControlPacket(body, GEO))
