"""Generate decode_corpus.json: wire inputs and what decode_packet makes of them.

Each case holds a frame (hex) and its outcome. An outcome is the name of the
exception class decode_packet raised, or ``ok:`` followed by ``=`` when
re-encoding the decoded packet gives the input back (else the re-encoded
hex), a colon, and the first 16 hex digits of the SHA-256 of its repr. The
inputs are:

- every packet of ``gen.random_packet`` over seeds 0..SEEDS-1, with the
  outcome of each of its prefixes and of each shortened body re-framed
  with a matching remaining length (run-length encoded);
- every single-bit flip of each such packet's first byte, and of the
  geo-filter bit of each SUBSCRIBE entry's QoS byte;
- every value of the first byte of three fixed frames;
- hand-made frames: zero and bad packet ids, version-2 blocks, boundary
  and out-of-range coordinates, special elevations.

The file records the codec's behaviour when it was generated, and
tests/test_decode_corpus.py replays it, so a rewrite of the decoder must
keep every outcome. Run from the repository root:

    PYTHONPATH=src:tests python3 tests/data/make_decode_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path
from random import Random

from gen import random_packet
from mqttg.codec import (
    ControlPacket,
    GeoLocation,
    PubAck,
    Publish,
    Subscribe,
    decode_packet,
    encode_packet,
    encode_remaining_length,
)
from mqttg.errors import MQTTgError

SEEDS = 120
OUT = Path(__file__).resolve().parent / "decode_corpus.json"


def outcome(data: bytes) -> str:
    try:
        packet = decode_packet(data)
    except MQTTgError as exc:
        return type(exc).__name__
    try:
        again = encode_packet(packet)
    except MQTTgError as exc:
        again_text = "encode-" + type(exc).__name__
    else:
        again_text = "=" if again == data else again.hex()
    digest = hashlib.sha256(repr(packet).encode()).hexdigest()[:16]
    return f"ok:{again_text}:{digest}"


def frame(first: int, body: bytes) -> bytes:
    return bytes([first]) + encode_remaining_length(len(body)) + body


def split(data: bytes) -> tuple[int, bytes]:
    """(first byte, body) of a well-formed frame."""
    offset = 1
    while data[offset] & 0x80:
        offset += 1
    return data[0], data[offset + 1 :]


def rle(outcomes: list[str]) -> list[list]:
    runs: list[list] = []
    for item in outcomes:
        if runs and runs[-1][0] == item:
            runs[-1][1] += 1
        else:
            runs.append([item, 1])
    return runs


def geo_block(version: int, lat: float, lon: float, elev: float) -> bytes:
    return struct.pack("<Bddf", version, lat, lon, elev)


def subscribe_qos_offsets(packet: ControlPacket, body: bytes) -> list[int]:
    """Offsets in ``body`` of each SUBSCRIBE entry's QoS byte."""
    pos = 2 + (21 if packet.geolocation is not None else 0)
    offsets = []
    for f in packet.body.filters:
        pos += 2 + len(f.topic.encode("utf-8"))
        offsets.append(pos)
        pos += 1 + (21 if f.constraint is not None else 0)
    return offsets


def hand_made() -> list[bytes]:
    topic = b"\x00\x03a/b"
    frames = [
        b"",
        b"\x00\x00",
        b"\x30",
        b"\x30\x80\x80\x80\x80\x01",
        b"\x30\xff\xff\xff\x7f",
        frame(0x32, topic + b"\x00\x00payload"),  # QoS 1 publish, packet id 0
        frame(0x34, topic + b"\x00\x00"),  # QoS 2 publish, packet id 0
        frame(0x40, b"\x00\x00"),  # PUBACK, packet id 0
        frame(0x62, b"\x00\x00"),  # PUBREL, packet id 0
        frame(0x82, b"\x00\x00\x00\x01a\x00"),  # SUBSCRIBE, packet id 0
        frame(0xA2, b"\x00\x00\x00\x01a"),  # UNSUBSCRIBE, packet id 0
        frame(0xB0, b"\x00\x00"),  # UNSUBACK, packet id 0
        frame(0x90, b"\x00\x00\x00"),  # SUBACK, packet id 0
        frame(0x40, b"\x00"),
        frame(0x44, b"\x00\x01" + b"\x01" * 20),
        frame(0x30, b"\x00\x05a\xc3(bc"),  # invalid UTF-8 topic
        frame(0x30, b"\x00\x03a\x00b"),  # topic with U+0000
        frame(0x30, b"\x00\x03a/+"),  # wildcard in a publish topic
        frame(0x30, b"\x00\x00"),  # empty topic
        frame(0x36, topic + b"\x00\x01"),  # QoS 3
        frame(0x38, topic),  # DUP on QoS 0
    ]
    elevations = (0.0, -0.0, 1.5, float("nan"), float("inf"), float("-inf"), 3.4e38)
    coordinates = (
        (0.0, 0.0),
        (90.0, 180.0),
        (-90.0, -180.0),
        (90.0000001, 0.0),
        (-90.0000001, 0.0),
        (0.0, 180.0000001),
        (0.0, -180.5),
        (float("nan"), 0.0),
        (0.0, float("nan")),
        (float("inf"), 0.0),
        (0.0, float("-inf")),
        (1e308, -1e308),
    )
    for version in (0, 1, 2, 255):
        for lat, lon in coordinates:
            for elev in (0.0, float("nan")):
                block = geo_block(version, lat, lon, elev)
                frames.append(frame(0xF2, topic + b"\x00\x07" + block + b"hi"))
                frames.append(frame(0x44, b"\x12\x34" + block))
                frames.append(frame(0xC4, block))
        for elev in elevations:
            block = geo_block(version, 45.0, 7.0, elev)
            frames.append(frame(0xF0, topic + block))
            frames.append(frame(0x54, b"\x00\x09" + block))
    # A version-2 block whose f32 elevation is a NaN with a payload.
    nan_block = struct.pack("<Bdd", 2, 1.0, 2.0) + b"\x01\x00\xc0\x7f"
    frames.append(frame(0xF0, topic + nan_block))
    frames.append(frame(0x74, b"\x00\x01" + nan_block))
    # SUBSCRIBE radius entries: kinds, radii and centres.
    for kind in (0, 1, 2):
        for radius in (1.0, 0.0, -1.0, float("nan"), float("inf")):
            for lat, lon in ((1.0, 2.0), (91.0, 0.0), (0.0, float("nan"))):
                entry = b"\x00\x01a\x05" + struct.pack("<Bfdd", kind, radius, lat, lon)
                frames.append(frame(0x82, b"\x00\x05" + entry))
    return frames


def cases() -> list[dict]:
    out: list[dict] = []
    packets = [random_packet(Random(seed)) for seed in range(SEEDS)]
    for packet in packets:
        data = encode_packet(packet)
        first, body = split(data)
        out.append(
            {
                "frame": data.hex(),
                "outcome": outcome(data),
                "prefixes": rle([outcome(data[:k]) for k in range(len(data))]),
                "bodies": rle([outcome(frame(first, body[:k])) for k in range(len(body))]),
            }
        )
        flipped = [bytes([first ^ (1 << bit)]) + data[1:] for bit in range(8)]
        if isinstance(packet.body, Subscribe):
            head = len(data) - len(body)
            for pos in subscribe_qos_offsets(packet, body):
                changed = bytearray(data)
                changed[head + pos] ^= 0x04
                flipped.append(bytes(changed))
        out.extend({"frame": f.hex(), "outcome": outcome(f)} for f in flipped)
    fixed = (
        encode_packet(ControlPacket(Publish("a/b", b"xyz", 1, packet_id=7))),
        encode_packet(ControlPacket(PubAck(9), GeoLocation(1, 10.0, 20.0, 5.0))),
        bytes.fromhex("f2") + encode_packet(ControlPacket(PubAck(9)))[1:],
    )
    for data in fixed:
        for value in range(256):
            f = bytes([value]) + data[1:]
            out.append({"frame": f.hex(), "outcome": outcome(f)})
    out.extend({"frame": f.hex(), "outcome": outcome(f)} for f in hand_made())
    return out


def main() -> int:
    lines = ",\n".join(json.dumps(case) for case in cases())
    OUT.write_text('{"cases": [\n' + lines + "\n]}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
