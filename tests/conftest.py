import io

import pytest

from mqttg.broker import Broker
from mqttg.eventlog import EventLog


@pytest.fixture
def broker():
    log = io.StringIO()
    b = Broker(host="127.0.0.1", port=0, admin_host="127.0.0.1", admin_port=0,
               event_log=EventLog([log]))
    b.start()
    b.log_buffer = log
    yield b
    b.stop()
    assert b._thread is not None and not b._thread.is_alive()
