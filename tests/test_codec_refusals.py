"""CONNECT and SUBSCRIBE refusals, and a CONNECT with every optional
field cut at each length. Frames are assembled with struct, never with
the codec under test."""

from __future__ import annotations

import struct

import pytest

from mqttg.codec import Connect, ControlPacket, Will, decode_packet
from mqttg.errors import MalformedPacket, ProtocolViolation


def string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def binary(data: bytes) -> bytes:
    return struct.pack(">H", len(data)) + data


def frame(first: int, body: bytes) -> bytes:
    assert len(body) < 128  # a one-byte remaining length
    return bytes((first, len(body))) + body


def connect_body(flags: int, payload: bytes) -> bytes:
    """Protocol name and level, ``flags``, keep-alive 30, client id "c1"
    and then ``payload``."""
    return string("MQTT") + bytes((4, flags)) + struct.pack(">H", 30) + string("c1") + payload


WILL = string("w/t") + binary(b"gone")


@pytest.mark.parametrize(
    "flags, payload",
    [
        (0x02 | 0x04 | 3 << 3, WILL),  # will QoS 3
        (0x02 | 1 << 3, b""),  # will QoS without the will flag
        (0x02 | 2 << 3, b""),
        (0x02 | 0x20, b""),  # will retain without the will flag
        (0x02 | 0x40, binary(b"p")),  # a password without a user name
    ],
    ids=["will-qos-3", "will-qos-1-no-will", "will-qos-2-no-will", "will-retain-no-will",
         "password-no-username"],
)
def test_a_connect_with_inconsistent_flags_is_malformed(flags, payload):
    with pytest.raises(MalformedPacket):
        decode_packet(frame(0x10, connect_body(flags, payload)))


def test_a_subscribe_requesting_qos_3_is_a_protocol_violation():
    body = struct.pack(">H", 7) + string("a/b") + bytes((0x03,))
    with pytest.raises(ProtocolViolation):
        decode_packet(frame(0x82, body))


FULL_CONNECT = connect_body(
    0x02 | 0x04 | 1 << 3 | 0x20 | 0x80 | 0x40, WILL + string("user") + binary(b"secret")
)


def test_a_connect_with_a_will_and_credentials_decodes():
    packet = decode_packet(frame(0x10, FULL_CONNECT))
    assert packet == ControlPacket(
        Connect("c1", clean_session=True, keep_alive=30, will=Will("w/t", b"gone", 1, True),
                username="user", password=b"secret")
    )


def outcome(data: bytes) -> str:
    try:
        decode_packet(data)
    except Exception as exc:  # its class is the outcome
        return type(exc).__name__
    return "ok"


def test_every_shorter_connect_body_is_malformed():
    """Each cut, re-framed with its own remaining length, ends inside a
    field or before a field its flags announce."""
    outcomes = [outcome(frame(0x10, FULL_CONNECT[:cut])) for cut in range(len(FULL_CONNECT))]
    assert outcomes == ["MalformedPacket"] * len(FULL_CONNECT)
