"""SocketBuffer and read_frame: one recv per chunk, and the same frames
wherever the stream is cut."""

from __future__ import annotations

import time
from random import Random

import pytest

import gen
from mqttg.codec import ControlPacket, Pingreq, Publish, encode_packet, encode_remaining_length
from mqttg.errors import MalformedPacket
from mqttg.netio import CHUNK, SocketBuffer, read_frame


class NeedsRecv(Exception):
    pass


class FakeSocket:
    """Serves ``chunks`` in order, each as a socket would deliver one TCP
    segment: a recv returns at most ``n`` bytes and never crosses into the
    next chunk. Then EOF, or NeedsRecv if ``then_raise``."""

    def __init__(self, chunks, then_raise: bool = False):
        self.chunks = [bytes(c) for c in chunks if c]
        self.then_raise = then_raise
        self.asked: list[int] = []

    def recv(self, n: int) -> bytes:
        self.asked.append(n)
        if not self.chunks:
            if self.then_raise:
                raise NeedsRecv
            return b""
        head = self.chunks[0]
        self.chunks[0] = head[n:]
        if not self.chunks[0]:
            self.chunks.pop(0)
        return head[:n]


class ResettingSocket(FakeSocket):
    """A FakeSocket whose peer resets the connection after the last chunk."""

    def recv(self, n: int) -> bytes:
        if not self.chunks:
            raise ConnectionResetError
        return super().recv(n)


class NonBlockingSocket(FakeSocket):
    """A FakeSocket with nothing to read at each None in ``chunks``: a recv
    there raises BlockingIOError, as a non-blocking socket's does."""

    def __init__(self, chunks):
        super().__init__([])
        self.chunks = list(chunks)

    def recv(self, n: int) -> bytes:
        if self.chunks and self.chunks[0] is None:
            self.chunks.pop(0)
            self.asked.append(n)
            raise BlockingIOError
        return super().recv(n)


def read_counting_blocks(reader) -> tuple[bytes | None, int]:
    """read_frame, called again after each BlockingIOError, as a caller's
    loop does once the socket is readable again: the frame, and how many
    calls raised BlockingIOError before it."""
    blocked = 0
    while True:
        try:
            return read_frame(reader), blocked
        except BlockingIOError:
            blocked += 1


def read_all(source) -> list[bytes]:
    frames = []
    while (frame := read_frame(source)) is not None:
        frames.append(frame)
    return frames


def corpus() -> list[bytes]:
    rng = Random(10)
    frames = [encode_packet(gen.random_packet(rng)) for _ in range(30)]
    frames.append(encode_packet(ControlPacket(Publish("t", bytes(300)))))  # a 2-byte length
    frames.append(encode_packet(ControlPacket(Pingreq())))  # remaining length 0
    return frames


FRAMES = corpus()
STREAM = b"".join(FRAMES)


def test_corpus_has_every_length_form():
    lengths = {len(f) for f in FRAMES}
    assert 2 in lengths and max(lengths) > 130  # 0, 1-byte and 2-byte remaining lengths


@pytest.mark.parametrize("size", [1, 2, 3, 5, 64])
def test_chunks_of_every_size_give_the_same_frames(size):
    chunks = [STREAM[i : i + size] for i in range(0, len(STREAM), size)]
    assert read_all(SocketBuffer(FakeSocket(chunks))) == FRAMES


def test_a_cut_at_every_offset_gives_the_same_frames():
    for cut in range(len(STREAM) + 1):
        sock = FakeSocket([STREAM[:cut], STREAM[cut:]])
        assert read_all(SocketBuffer(sock)) == FRAMES, cut
        assert min(sock.asked) >= CHUNK


def test_frames_that_arrive_together_cost_one_recv():
    frames = [encode_packet(ControlPacket(Publish("plain/bench/t", b"%16d" % i))) for i in range(12)]
    sock = FakeSocket([b"".join(frames)])
    reader = SocketBuffer(sock)
    for frame in frames:
        assert read_frame(reader) == frame
    assert sock.asked == [CHUNK]


def test_a_frame_larger_than_the_chunk_reads_its_body_in_one_piece():
    frame = encode_packet(ControlPacket(Publish("big", bytes(3 * CHUNK + 17))))
    sock = FakeSocket([frame])
    assert read_frame(SocketBuffer(sock)) == frame
    assert sock.asked == [CHUNK, len(frame) - CHUNK]


def test_a_body_cut_by_a_non_blocking_socket_resumes_where_it_stopped():
    frame = encode_packet(ControlPacket(Publish("big", bytes(4 * CHUNK))))
    cuts = (CHUNK + 100, 2 * CHUNK + 300)
    sock = NonBlockingSocket([frame[: cuts[0]], None, frame[cuts[0] : cuts[1]], None, frame[cuts[1] :]])
    reader = SocketBuffer(sock)
    # a call blocks at each None and after each recv that left the body short
    assert read_counting_blocks(reader) == (frame, 2 * len(cuts))
    # each recv of the body asks only for what is still missing
    held = (CHUNK, cuts[0], cuts[0], cuts[1], cuts[1])
    assert sock.asked == [CHUNK, *(len(frame) - h for h in held)]


def test_a_body_in_many_small_recvs_is_copied_in_linear_time():
    frame = encode_packet(ControlPacket(Publish("big", bytes(8 << 20))))
    pieces = [frame[i : i + 1024] for i in range(0, len(frame), 1024)]
    sock = NonBlockingSocket([c for piece in pieces for c in (piece, None)])
    reader = SocketBuffer(sock)
    started = time.perf_counter()
    assert read_counting_blocks(reader) == (frame, 2 * (len(pieces) - 1))
    assert time.perf_counter() - started < 1.0  # a copy of the body per recv takes seconds


def test_an_incomplete_body_costs_one_recv_per_call():
    """A sender that always has more to give holds the caller for one recv
    at a time, so a loop can serve other connections between them."""
    frame = encode_packet(ControlPacket(Publish("big", bytes(8 * CHUNK))))
    sock = FakeSocket([frame[i : i + 1000] for i in range(0, len(frame), 1000)])
    reader = SocketBuffer(sock)
    recvs = []
    while True:
        asked = len(sock.asked)
        try:
            got = read_frame(reader)
        except BlockingIOError:
            got = None
        recvs.append(len(sock.asked) - asked)
        if got is not None:
            break
    assert got == frame
    # the first call's first recv reads the fixed header
    assert recvs == [2, 1, 1, 1]


def test_holds_frame_is_true_exactly_when_read_frame_needs_no_recv():
    first = FRAMES[0]
    refused = b"\x30\xff\xff\xff\xff\x01"  # a remaining length of 5 bytes
    for frame in (*FRAMES, refused):
        for end in range(len(frame) + 1):
            sock = FakeSocket([first + frame[:end]], then_raise=True)
            reader = SocketBuffer(sock)
            assert read_frame(reader) == first
            held = reader.holds_frame()
            asked = len(sock.asked)
            try:
                assert read_frame(reader) == frame[:end]
            except (MalformedPacket, NeedsRecv):
                pass
            assert held is (len(sock.asked) == asked), (frame, end)


def test_eof_at_a_boundary_ends_and_mid_frame_raises():
    frame = FRAMES[-2]
    reader = SocketBuffer(FakeSocket([frame]))
    assert read_frame(reader) == frame
    assert read_frame(reader) is None
    assert read_frame(SocketBuffer(FakeSocket([]))) is None
    for cut in (1, 2, 3, len(frame) - 1):  # in the length, then in the body
        with pytest.raises(ConnectionError):
            read_frame(SocketBuffer(FakeSocket([frame[:cut]])))


def test_a_five_byte_remaining_length_is_malformed():
    with pytest.raises(MalformedPacket):
        read_frame(SocketBuffer(FakeSocket([b"\x30\xff\xff\xff\xff\x01"])))
    with pytest.raises(MalformedPacket):  # known at the fourth continuation byte
        read_frame(SocketBuffer(FakeSocket([b"\x30\xff\xff\xff\xff"], then_raise=True)))


# The largest remaining length of each width and the smallest of the next:
# 1 | 2, 2 | 3 and 3 | 4 bytes.
WIDTH_BOUNDARIES = [127, 128, 16383, 16384, 2097151, 2097152]


def frame_of_length(remaining: int) -> bytes:
    """A QoS 0 PUBLISH whose remaining length is ``remaining``."""
    return encode_packet(ControlPacket(Publish("t", bytes(remaining - 3))))


@pytest.mark.parametrize("remaining", WIDTH_BOUNDARIES)
def test_a_length_at_a_width_boundary_reads_whole_wherever_it_is_cut(remaining):
    frame = frame_of_length(remaining)
    width = len(encode_remaining_length(remaining))
    assert len(frame) == 1 + width + remaining
    ping = encode_packet(ControlPacket(Pingreq()))
    stream = ping + frame + ping
    for cut in range(len(ping), len(ping) + width + 3):  # before, inside and after the length
        assert read_all(SocketBuffer(FakeSocket([stream[:cut], stream[cut:]]))) == [ping, frame, ping]
    assert read_all(SocketBuffer(FakeSocket([stream[:-1], stream[-1:]]))) == [ping, frame, ping]


@pytest.mark.parametrize("remaining", WIDTH_BOUNDARIES)
def test_holds_frame_waits_for_every_length_byte_and_the_body(remaining):
    ping = encode_packet(ControlPacket(Pingreq()))
    frame = frame_of_length(remaining)
    body = len(frame) - remaining
    ends = [*range(1, body + 2)]
    if len(ping + frame) <= CHUNK:
        ends += [len(frame) - 1, len(frame)]
    for end in ends:
        sock = FakeSocket([ping + frame[:end]], then_raise=True)
        reader = SocketBuffer(sock)
        assert read_frame(reader) == ping
        whole = end == len(frame)
        assert reader.holds_frame() is whole, end
        if whole:
            assert read_frame(reader) == frame
        else:
            with pytest.raises(NeedsRecv):
                read_frame(reader)


def test_a_reset_at_a_boundary_reads_as_eof_and_mid_frame_raises():
    frame = FRAMES[-2]
    reader = SocketBuffer(ResettingSocket([frame]))
    assert read_frame(reader) == frame
    assert read_frame(reader) is None
    assert read_frame(SocketBuffer(ResettingSocket([]))) is None
    big = frame_of_length(16384)
    for cut in (frame[:1], frame[:2], frame[:3], frame[:-1], big[: 2 * CHUNK]):
        with pytest.raises(ConnectionError):
            read_counting_blocks(SocketBuffer(ResettingSocket([cut])))
