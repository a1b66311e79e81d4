"""The broker process of the benchmark.

    python3 broker_host.py WORKLOAD SEED OUT_DIR TRACE

Loads the workload's phantom table through the public BrokerState API
(open_session, subscribe, update_last_location) and the fence file that
run.py wrote to OUT_DIR with Broker.load_fences, then starts
mqttg.broker.Broker on an ephemeral loopback port with a CSV event log in
OUT_DIR. With TRACE=1 the layers are wrapped first, so the table load is
traced too. Prints "READY <port> <seconds>", where the seconds are the
benchmark's own share of the start-up (making the inputs), which the
set-up time leaves out. Then it answers commands on stdin: MARK prints
one JSON line of counters, STOP stops the broker, writes the span file
(traced runs) and prints "BYE <n>", where n counts the deliveries that
route() chose for phantom sessions.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def snapshot(tracer) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    snap = {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ctx": usage.ru_nvcsw + usage.ru_nivcsw,
        "threads": len(os.listdir("/proc/self/task")),
    }
    if tracer is not None:
        snap.update(tracer.totals())
    return snap


def watch_phantoms(sids: set[str]) -> list[str]:
    """Record every delivery that route() decides for a phantom session.
    A phantom has no connection, so the broker would drop such a delivery
    without a trace; the oracle says there must be none."""
    from mqttg.broker import BrokerState

    wrong: list[str] = []
    route = BrokerState.route

    def checked_route(self, *args):
        deliveries = route(self, *args)
        wrong.extend(d.client_id for d in deliveries if d.client_id in sids)
        return deliveries

    if sids:
        BrokerState.route = checked_route
    return wrong


def main() -> None:
    name, seed, out, trace = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1"
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from mqttg.broker import Broker
    from mqttg.codec import GeoLocation
    from mqttg.eventlog import EventLog

    t0 = time.perf_counter()
    import workloads
    from loadgen import wire_filter

    w = workloads.build(name, seed)
    phantoms = [(ph.sid, tuple(map(wire_filter, ph.filters)), ph.at) for ph in w.phantoms]
    own_s = time.perf_counter() - t0
    wrong = watch_phantoms({sid for sid, _, _ in phantoms})
    with open(out / f"{name}-events.csv", "w", encoding="utf-8", newline="") as log:
        broker = Broker(host="127.0.0.1", port=0, admin_port=None, event_log=EventLog([log]))
        for sid, filters, at in phantoms:
            broker.state.open_session(sid)
            broker.state.subscribe(sid, filters)
            if at is not None:
                broker.state.update_last_location(sid, GeoLocation(1, *at, workloads.ELEVATION_M), time.monotonic())
        broker.load_fences(str(out / f"{name}-fences.txt"))
        broker.start()
        print(f"READY {broker.port} {own_s!r}", flush=True)
        for line in sys.stdin:
            if line.strip() == "MARK":
                print(json.dumps(snapshot(tracer)), flush=True)
            elif line.strip() == "STOP":
                break
        broker.stop()
    if tracer is not None:
        tracer.dump(out / f"{name}-seed{seed}-spans.jsonl")
    print(f"BYE {len(wrong)}", flush=True)


if __name__ == "__main__":
    main()
