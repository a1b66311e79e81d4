"""Every value the wire cannot carry is refused by encode_packet with an
EncodeError that names its own reason: one row per check in the codec's
encoders."""

from __future__ import annotations

import re

import pytest

from mqttg.codec import (
    Connack,
    Connect,
    ConstraintKind,
    ControlPacket,
    GeoConstraint,
    GeoLocation,
    PubAck,
    Publish,
    Suback,
    Subscribe,
    TopicFilter,
    Unsubscribe,
    Will,
    encode_packet,
)
from mqttg.errors import EncodeError

LONG = "x" * 65536
OFF_THE_MAP = GeoConstraint(ConstraintKind.INSIDE_RADIUS, 9.0, 91.0, 0.0)

# (the body, its geolocation, what the refusal says)
REFUSED = [
    (PubAck(1), GeoLocation(2, raw=bytes(20)), "raw geolocation block must be 21 bytes"),
    (PubAck(1), GeoLocation(256), "geolocation version 256 does not fit a byte"),
    (Connect(LONG), None, "string longer than 65535 bytes"),
    (Connect("a\x00b"), None, "string contains U+0000"),
    (Connect("c", will=Will("w", b"x" * 65536)), None, "binary field longer than 65535 bytes"),
    (Connect("c", keep_alive=65536), None, "keep_alive 65536 does not fit 16 bits"),
    (Connect("c", will=Will("w/+")), None, "invalid will topic 'w/+'"),
    (Connect("c", will=Will("w", qos=3)), None, "will QoS 3 not in (0, 1, 2)"),
    (Connect("c", password=b"p"), None, "password requires a username"),
    (Connack(False, 256), None, "CONNACK return code 256 does not fit a byte"),
    (Subscribe(1, (TopicFilter("a", 3),)), None, "requested QoS 3 not in (0, 1, 2)"),
    (Subscribe(1, (TopicFilter("a", 0, OFF_THE_MAP),)), None, "geo filter center out of range"),
    (Suback(1, ()), None, "SUBACK requires at least one return code"),
    (Suback(1, (0, 3)), None, "invalid SUBACK return code 0x03"),
    (Unsubscribe(1, ()), None, "UNSUBSCRIBE requires at least one topic filter"),
    (Unsubscribe(1, ("a", "a/#/b")), None, "invalid topic filter 'a/#/b'"),
    (Publish("t", b"", 3, packet_id=1), None, "QoS 3 not in (0, 1, 2)"),
    (Publish("t", dup=True), None, "DUP must be 0 on a QoS 0 publish"),
    (Publish("t", packet_id=5), None, "packet identifier requires QoS > 0"),
]
IDS = [
    "raw-block-size", "block-version", "string-length", "string-nul", "binary-length",
    "keep-alive", "will-topic", "will-qos", "password-without-username", "connack-code",
    "requested-qos", "filter-centre", "suback-empty", "suback-code", "unsubscribe-empty",
    "unsubscribe-filter", "publish-qos", "publish-dup-qos0", "publish-id-qos0",
]


@pytest.mark.parametrize("body, geo, reason", REFUSED, ids=IDS)
def test_a_value_the_wire_cannot_carry_is_refused(body, geo, reason):
    with pytest.raises(EncodeError, match=re.escape(reason)):
        encode_packet(ControlPacket(body, geo))
