"""Socket framing helpers shared by the broker and the client."""

from __future__ import annotations

import socket

from .codec import decode_remaining_length
from .errors import MalformedPacket

# Bytes asked of the socket per recv when fewer are wanted: a dozen small
# publishes at once. A recv buffer of up to 479 bytes (512 with the bytes
# object's header) comes from the interpreter's small-object allocator; a
# larger one is a malloc in the calling thread's arena, which raised the
# broker's peak RSS (by 1.5% with 64 KiB chunks, slightly with 4 KiB).
CHUNK = 448


class SocketBuffer:
    """One connection's reader: the bytes received from ``sock`` that
    ``read_frame`` has not returned yet, from ``pos`` on. Frames that
    arrive together cost one ``recv`` between them. Every read of the
    connection must go through ``read_frame``, or bytes held here are
    skipped. ``data`` is a bytearray only while ``recv_exact`` holds part
    of a body."""

    __slots__ = ("sock", "data", "pos")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.data = b""
        self.pos = 0

    def frame_end(self) -> int:
        """Where in ``data`` the next frame ends, or ``len(data) + 1`` while
        its remaining length is incomplete. Raises MalformedPacket for one
        that would use more than four bytes."""
        data, pos = self.data, self.pos
        if len(data) - pos >= 2:
            try:
                remaining, body = decode_remaining_length(data, pos + 1)
                return body + remaining
            except MalformedPacket:
                if len(data) - pos >= 5:
                    raise
        return len(data) + 1

    def holds_frame(self) -> bool:
        """Whether ``read_frame`` can return (or reject) the next frame
        without a recv."""
        try:
            return self.frame_end() <= len(self.data)
        except MalformedPacket:
            return True


def recv_exact(reader: SocketBuffer, n: int) -> bytes:
    """Receive once, asking for what ``reader`` still misses of ``n`` bytes,
    and return the ``n`` bytes consumed once it holds them; BlockingIOError
    while it does not, ConnectionError on EOF. The bytes go to a bytearray
    the reader holds, so a recv that raises loses nothing, and a large body
    holds the caller for one recv at a time."""
    data = reader.data
    if data.__class__ is not bytearray:
        data = reader.data = bytearray(data[reader.pos :])
        reader.pos = 0
    chunk = reader.sock.recv(n - len(data))
    if not chunk:
        raise ConnectionError("connection closed mid-packet")
    data += chunk
    if len(data) < n:
        raise BlockingIOError("the rest of the body has not arrived yet")
    reader.data = b""
    return bytes(data)


def read_frame(reader: SocketBuffer) -> bytes | None:
    """Read one whole control packet: its bytes, fixed header included, or
    None on an EOF or a reset at a packet boundary. A frame the reader
    holds comes back with no recv; otherwise each recv asks for ``CHUNK``
    bytes, and a body that misses more, or one ``recv_exact`` began, goes to
    ``recv_exact``, which raises BlockingIOError after each recv that leaves
    it incomplete. A recv that raises BlockingIOError leaves what came
    before it in ``reader``."""
    while True:
        data, pos = reader.data, reader.pos
        end = reader.frame_end()
        if end <= len(data):
            reader.pos = end
            return data[pos:end]
        if end - len(data) > CHUNK or data.__class__ is bytearray:
            return recv_exact(reader, end - pos)
        try:
            chunk = reader.sock.recv(CHUNK)
        except (ConnectionResetError, BrokenPipeError):
            chunk = b""
        held = data[pos:]
        if not chunk:
            if held:
                raise ConnectionError("connection closed mid-packet")
            return None
        reader.data, reader.pos = held + chunk, 0
