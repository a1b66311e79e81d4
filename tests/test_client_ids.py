"""A client id is one admin token.

The admin socket splits each command on whitespace and ends each reply at
a newline, so an id holding whitespace could not be named by CLEAR-FENCE
or ADD-FENCE, would shift every field of its DUMP-LOCATIONS row, and one
holding ``\\nOK\\n`` would end a dump early. MQTT 3.1.1 section 3.1.3.1
lets a server refuse such ids; [MQTT-3.1.3-9] says it answers CONNACK
0x02 (identifier rejected) and closes the connection.
"""

from __future__ import annotations

import csv
import socket

import pytest

from mqttg.broker import BrokerState
from mqttg.client import ClientConfig, MqttgClient
from mqttg.codec import Connack, Connect, ControlPacket, decode_packet, encode_packet
from mqttg.errors import ConnectRefused

from rawsock import read_frame

BAD_IDS = ["a b", "x\nOK\ny", "t\tab"]


def connect(port: int, client_id: str) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=3.0)
    sock.sendall(encode_packet(ControlPacket(Connect(client_id, keep_alive=5))))
    return sock


def test_an_id_no_admin_command_can_name_is_refused_on_the_wire(broker):
    for client_id in BAD_IDS:
        with connect(broker.port, client_id) as sock:
            assert decode_packet(read_frame(sock)).body == Connack(False, 0x02)
            assert read_frame(sock) is None  # EOF: the broker closed it
    with connect(broker.port, "ok-1") as sock:
        assert decode_packet(read_frame(sock)).body == Connack(False, 0x00)
        # one loop decides the connections in order, so the refused ones are done
        assert set(broker.state.sessions) == {"ok-1"}
        rows = list(csv.reader(broker.log_buffer.getvalue().splitlines()))
        assert [row[1] for row in rows[1:] if row[2] == "CONNECT"] == ["ok-1"]


@pytest.mark.parametrize(
    "client_id", [*BAD_IDS, "", " lead", "trail\r", "a\u00a0b", "a\u2028b"],
    ids=["space", "newline-ok", "tab", "empty", "leading-space", "trailing-cr", "nbsp",
         "line-separator"],
)
def test_the_core_refuses_every_id_that_splits(client_id):
    state = BrokerState()
    writes, keep_open = state.receive("conn", ControlPacket(Connect(client_id)), 0.0)
    assert writes == [("conn", encode_packet(ControlPacket(Connack(False, 0x02))))]
    assert not keep_open
    assert state.sessions == {} and state.clients == {}
    assert state.admin_command("DUMP-LOCATIONS") == ["OK"]


def test_the_client_reports_the_refusal(broker):
    with pytest.raises(ConnectRefused) as refused:
        MqttgClient(ClientConfig(client_id="two words", port=broker.port)).connect()
    assert refused.value.return_code == 0x02
