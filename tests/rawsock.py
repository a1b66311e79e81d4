"""netio.read_frame for tests that speak MQTT over a raw socket."""

from __future__ import annotations

import socket
import weakref

from mqttg import netio

# One reader per socket, so the bytes a read receives past its frame are
# kept for the next read.
_readers: weakref.WeakKeyDictionary[socket.socket, netio.SocketBuffer] = weakref.WeakKeyDictionary()


def read_frame(sock: socket.socket) -> bytes | None:
    reader = _readers.get(sock)
    if reader is None:
        reader = _readers[sock] = netio.SocketBuffer(sock)
    return netio.read_frame(reader)
