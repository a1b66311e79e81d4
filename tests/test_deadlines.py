"""The broker's deadlines.

The loop checks every connection each SWEEP_S. A connection that sent
nothing for 1.5 x keep-alive is closed as a keep-alive timeout, and so is
one whose queued bytes waited that long: one deadline in total for the
queued bytes, however many sends a slow reader makes them take, set
again each time the bytes queued when it was set have all been sent.
"""

from __future__ import annotations

import csv
import logging
import socket
import time
from selectors import EVENT_READ, EVENT_WRITE

import pytest

import mqttg.broker as broker_module
from mqttg.codec import Connect, ControlPacket, Will, decode_packet, encode_packet

from rawsock import read_frame
from test_network import mk_client, unstarted_broker


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
    """Takes at most ``take`` bytes per send."""

    def __init__(self, take: int) -> None:
        self.take = take
        self.received = bytearray()
        self.closed = False

    def send(self, data) -> int:
        chunk = bytes(data[: self.take])
        self.received += chunk
        return len(chunk)

    def shutdown(self, how) -> None:
        pass

    def close(self) -> None:
        self.closed = True


@pytest.fixture
def clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(broker_module, "time", clock)
    return clock


def connection(clock: FakeClock, take: int, keep_alive: int):
    broker = unstarted_broker()
    sock = TrickleSocket(take)
    conn = broker_module._Conn(sock, ("peer", 1), None, None, keep_alive * 1.5, clock.now)
    broker._conns.add(conn)
    return broker, conn, sock


def step(broker, conn, clock: FakeClock, seconds: float) -> None:
    """``seconds`` pass, the peer sends something, its socket drains once
    and the loop sweeps."""
    clock.now += seconds
    conn.heard = clock.now
    ends = []
    broker._drain(conn, clock.now, ends)
    broker._sweep(clock.now, ends)
    broker._write(ends)


def test_a_write_gives_up_once_its_whole_deadline_has_passed(clock):
    broker, conn, sock = connection(clock, take=3, keep_alive=1)
    broker._write([(conn, bytes(100))])
    assert broker._selector.events[sock] == EVENT_READ | EVENT_WRITE
    for _ in range(3):  # drains at 0.4, 0.8 and 1.2 s, each a short send
        step(broker, conn, clock, 0.4)
        assert not sock.closed
    step(broker, conn, clock, 0.4)  # 1.6 s since the bytes were first queued
    assert sock.closed and conn not in broker._conns


def test_a_write_done_in_time_restores_the_full_deadline(clock):
    broker, conn, sock = connection(clock, take=3, keep_alive=1)
    broker._write([(conn, b"0123456789ab")])
    for _ in range(3):
        step(broker, conn, clock, 0.1)
    assert bytes(sock.received) == b"0123456789ab"
    assert broker._selector.events[sock] == EVENT_READ
    step(broker, conn, clock, 1.1)
    broker._write([(conn, bytes(30))])  # 1.4 s after the first write
    step(broker, conn, clock, 0.6)
    assert not sock.closed  # 2.0 s after the first write, 0.6 s after the second


def test_a_write_that_needs_one_send_sets_no_deadline(clock):
    broker, conn, sock = connection(clock, take=100, keep_alive=1)
    broker._write([(conn, bytes(60)), (conn, bytes(40))])
    assert len(sock.received) == 100 and not conn.out
    assert broker._selector.events == {}


def test_a_write_without_keep_alive_never_gives_up(clock):
    broker, conn, sock = connection(clock, take=3, keep_alive=0)
    broker._write([(conn, bytes(30))])
    for _ in range(9):
        clock.now += 1000.0
        ends = []
        broker._sweep(clock.now, ends)
        assert ends == []
        broker._drain(conn, clock.now, ends)
    assert len(sock.received) == 30 and not sock.closed


def test_a_queue_that_never_empties_but_drains_each_write_in_time_stays_open(clock):
    broker, conn, sock = connection(clock, take=10, keep_alive=1)
    broker._write([(conn, bytes(30))])
    for _ in range(10):  # 4 s: a write of 10 bytes and a drain of 10 every 0.4 s
        clock.now += 0.4
        broker._write([(conn, bytes(10))])
        step(broker, conn, clock, 0.0)
        assert conn.out and not sock.closed
    assert len(sock.received) == 110


def test_a_write_larger_than_the_bound_is_queued_whole_but_not_added_to(clock):
    limit = broker_module.OUT_LIMIT
    broker, conn, sock = connection(clock, take=1000, keep_alive=0)
    broker._write([(conn, bytes(limit + 2000))])
    assert conn in broker._conns and len(conn.out) == limit + 1000
    for _ in range(2):
        broker._drain(conn, clock.now, [])
    broker._write([(conn, bytes(1000))])  # fills the queue to the bound
    assert conn in broker._conns and len(conn.out) == limit
    broker._write([(conn, b"x")])  # would pass it: a slow consumer
    assert sock.closed and conn not in broker._conns
