"""The broker's socket deadlines.

Accepted sockets stay blocking, so a recv or a send is one syscall; the
deadlines are the kernel's SO_RCVTIMEO and SO_SNDTIMEO. A read that waits
past 1.5 x keep-alive ends the connection as a keep-alive timeout, and a
write has one deadline in total, however many sends it takes.
"""

from __future__ import annotations

import csv
import logging
import socket
import struct
import time

import pytest

import mqttg.broker as broker_module
from mqttg.codec import Connect, ControlPacket, Will, decode_packet, encode_packet

from rawsock import read_frame
from test_network import mk_client

TIMEVAL = struct.Struct("@ll")


def seconds(timeval: bytes) -> float:
    sec, usec = TIMEVAL.unpack(timeval)
    return sec + usec / 1e6


def test_a_silent_client_is_closed_after_its_keep_alive_and_its_will_published(broker, caplog):
    watcher = mk_client(broker, "watcher")
    silent = socket.create_connection(("127.0.0.1", broker.port), timeout=5.0)
    try:
        watcher.subscribe("will/silent")
        connect = Connect(client_id="silent", keep_alive=1, will=Will("will/silent", b"gone"))
        with caplog.at_level(logging.WARNING, logger="mqttg.broker"):
            silent.sendall(encode_packet(ControlPacket(connect)))
            assert decode_packet(read_frame(silent)).body.return_code == 0
            started = time.monotonic()
            with broker._lock:
                accepted = next(c.sock for c in broker._conns if c.addr == silent.getsockname())
            assert accepted.gettimeout() is None  # blocking: no poll() before each recv
            timeval = accepted.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, TIMEVAL.size)
            assert seconds(timeval) == pytest.approx(1.5, abs=0.01)
            assert read_frame(silent) is None  # the broker hangs up
            assert 1.2 <= time.monotonic() - started <= 2.5
            message = watcher.receive(timeout=3.0)
        assert message is not None and message.payload == b"gone"
        assert "keep-alive timeout" in caplog.text
        rows = list(csv.reader(broker.log_buffer.getvalue().splitlines()))
        assert [r[2] for r in rows if r[1] == "silent"] == ["CONNECT", "DISCONNECT"]
    finally:
        silent.close()
        watcher.disconnect()


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now


class TrickleSocket:
    """Takes ``take`` bytes per send, and each send takes ``cost`` seconds
    of the fake clock. Records every SO_SNDTIMEO it is given."""

    def __init__(self, clock: FakeClock, take: int, cost: float) -> None:
        self.clock, self.take, self.cost = clock, take, cost
        self.received = bytearray()
        self.send_timeouts: list[float] = []

    def send(self, data) -> int:
        self.clock.now += self.cost
        chunk = bytes(data[: self.take])
        self.received += chunk
        return len(chunk)

    def setsockopt(self, level, option, value) -> None:
        if option == socket.SO_SNDTIMEO:
            self.send_timeouts.append(seconds(value))


@pytest.fixture
def clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(broker_module, "time", clock)
    return clock


def conn_with_keep_alive(sock: TrickleSocket, keep_alive: int) -> broker_module._Conn:
    conn = broker_module._Conn(sock, ("peer", 1))
    conn.set_timeout(keep_alive * 1.5)
    sock.send_timeouts.clear()
    return conn


def test_a_write_gives_up_once_its_whole_deadline_has_passed(clock):
    sock = TrickleSocket(clock, take=3, cost=0.4)
    conn = conn_with_keep_alive(sock, 1)
    with pytest.raises(TimeoutError):
        conn.send(bytes(100))
    # sends end at 0.4, 0.8, 1.2 and 1.6 s: the fourth passes 1.5 s in total
    assert clock.now == pytest.approx(101.6) and len(sock.received) == 12
    # each send after a short one gets only what is left of the deadline
    assert sock.send_timeouts == pytest.approx([1.1, 0.7, 0.3], abs=1e-5)


def test_a_write_done_in_time_restores_the_full_deadline(clock):
    sock = TrickleSocket(clock, take=3, cost=0.1)
    conn = conn_with_keep_alive(sock, 1)
    conn.send(b"0123456789ab")
    assert bytes(sock.received) == b"0123456789ab"
    assert sock.send_timeouts == pytest.approx([1.4, 1.3, 1.2, 1.5], abs=1e-5)


def test_a_write_that_needs_one_send_sets_no_deadline(clock):
    sock = TrickleSocket(clock, take=100, cost=0.1)
    conn_with_keep_alive(sock, 1).send(bytes(100))
    assert len(sock.received) == 100 and sock.send_timeouts == []


def test_a_write_without_keep_alive_never_gives_up(clock):
    sock = TrickleSocket(clock, take=3, cost=10.0)
    conn = conn_with_keep_alive(sock, 0)
    conn.send(bytes(30))
    assert len(sock.received) == 30 and sock.send_timeouts == []
