"""Socket framing helpers shared by the broker and the client."""

from __future__ import annotations

import socket

from .errors import MalformedPacket

# Bytes asked of the socket per recv when fewer are wanted: a dozen small
# publishes at once. A recv buffer of up to 479 bytes (512 with the bytes
# object's header) comes from the interpreter's small-object allocator; a
# larger one is a malloc in the calling thread's arena, which raised the
# broker's peak RSS (by 1.5% with 64 KiB chunks, slightly with 4 KiB).
CHUNK = 448


class SocketBuffer:
    """One connection's reader. It asks the socket for a chunk only when
    it holds no bytes, and serves ``recv(n)`` from that chunk, so frames
    that arrive together cost one ``recv`` between them. Give it in place
    of the socket to ``read_frame`` and ``recv_exact``; every read of the
    connection must go through it, or bytes it holds are skipped."""

    __slots__ = ("_sock", "_data", "_pos")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._data = b""
        self._pos = 0

    def recv(self, n: int) -> bytes:
        """Up to ``n`` bytes; b"" only at EOF."""
        data, pos = self._data, self._pos
        if pos == len(data):
            data = self._data = self._sock.recv(max(n, CHUNK))
            pos = 0
        end = min(pos + n, len(data))
        self._pos = end
        return data[pos:end]

    def holds_frame(self) -> bool:
        """Whether ``read_frame`` can return (or reject) the next frame
        without a recv: the whole frame is held, or a first byte and four
        continuation bytes of a remaining length it will refuse."""
        data, pos = self._data, self._pos
        end = len(data)
        remaining, multiplier = 0, 1
        for i in range(pos + 1, min(pos + 5, end)):
            byte = data[i]
            remaining += (byte & 0x7F) * multiplier
            if not byte & 0x80:
                return i + 1 + remaining <= end
            multiplier *= 128
        return end - pos >= 5


def recv_exact(sock: socket.socket | SocketBuffer, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ConnectionError on EOF."""
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise ConnectionError("connection closed mid-packet")
        chunks += chunk
    return bytes(chunks)


def read_frame(sock: socket.socket | SocketBuffer) -> bytes | None:
    """Read one whole control packet off the socket.

    Returns the raw packet bytes (fixed header included), or None on a
    clean EOF at a packet boundary.
    """
    try:
        first = sock.recv(1)
    except (ConnectionResetError, BrokenPipeError):
        return None
    if not first:
        return None
    header = bytearray(first)
    remaining = 0
    multiplier = 1
    for _ in range(4):
        byte = recv_exact(sock, 1)[0]
        header.append(byte)
        remaining += (byte & 0x7F) * multiplier
        multiplier *= 128
        if not byte & 0x80:
            break
    else:
        raise MalformedPacket("remaining length uses more than 4 bytes")
    if remaining:
        header += recv_exact(sock, remaining)
    return bytes(header)
