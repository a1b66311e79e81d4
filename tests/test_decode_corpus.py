"""decode_packet against a recorded corpus, and the decoded-geolocation constructor.

tests/data/decode_corpus.json holds wire inputs with what decode_packet
made of each when the corpus was generated (see make_decode_corpus.py
there): an exception class, or the re-encoded bytes and repr of the
packet. Replaying it shows that a faster decoder accepts, refuses and
builds exactly what the old one did.
"""

from __future__ import annotations

import importlib.util
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqttg.codec import GeoLocation, decode_geolocation, encode_geolocation

DATA = Path(__file__).resolve().parent / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_decode_corpus", DATA / "make_decode_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_generator()
CASES = json.loads((DATA / "decode_corpus.json").read_text(encoding="utf-8"))["cases"]


def expand(runs: list[list]) -> list[str]:
    return [item for item, count in runs for _ in range(count)]


def test_corpus_covers_every_outcome():
    kinds = {case["outcome"].split(":")[0] for case in CASES}
    assert kinds == {"ok", "MalformedPacket", "ProtocolViolation", "InvalidCoordinates"}
    assert sum("prefixes" in case for case in CASES) == corpus.SEEDS


@pytest.mark.parametrize("start", range(0, len(CASES), 200))
def test_decode_matches_the_recorded_outcome(start):
    for case in CASES[start : start + 200]:
        data = bytes.fromhex(case["frame"])
        assert corpus.outcome(data) == case["outcome"], case["frame"]
        if "prefixes" in case:
            prefixes = [corpus.outcome(data[:k]) for k in range(len(data))]
            assert prefixes == expand(case["prefixes"]), case["frame"]
            first, body = corpus.split(data)
            bodies = [corpus.outcome(corpus.frame(first, body[:k])) for k in range(len(body))]
            assert bodies == expand(case["bodies"]), case["frame"]


def as_f32(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def same_object(decoded: GeoLocation, built: GeoLocation) -> None:
    assert repr(decoded) == repr(built)
    assert encode_geolocation(decoded) == encode_geolocation(built)
    assert decoded.raw == built.raw
    assert vars(decoded).keys() == vars(built).keys()
    if math.isnan(built.elevation):
        # NaN is unequal to every other NaN, and hashes by identity.
        assert math.isnan(decoded.elevation)
        assert decoded == decoded and decoded != built
    else:
        assert decoded == built and hash(decoded) == hash(built)
        assert math.copysign(1.0, decoded.elevation) == math.copysign(1.0, built.elevation)


@settings(max_examples=400, deadline=None)
@given(
    bits=st.integers(0, 2**32 - 1),
    version=st.sampled_from((1, 0, 2, 255)),
    latitude=st.floats(-90.0, 90.0),
    longitude=st.floats(-180.0, 180.0),
)
def test_decoded_geolocation_is_the_constructed_one(bits, version, latitude, longitude):
    elevation = as_f32(bits)
    block = struct.pack("<Bddf", version, latitude, longitude, elevation)
    raw = None if version == 1 else block
    same_object(decode_geolocation(block), GeoLocation(version, latitude, longitude, elevation, raw))


@pytest.mark.parametrize(
    "bits", [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x7F800001, 0x00000001]
)
def test_special_elevations_decode_like_the_constructor(bits):
    block = struct.pack("<Bdd", 1, 12.5, -7.25) + struct.pack("<I", bits)
    decoded = decode_geolocation(block)
    same_object(decoded, GeoLocation(1, 12.5, -7.25, struct.unpack("<f", block[17:])[0]))
