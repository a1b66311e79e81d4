"""Per-layer spans and counts, recorded from outside the program.

Tracer wraps the public functions of each layer as the broker module
sees them (module globals and class attributes) before the broker starts.
A wrapped call records a span (id, parent id, name, start, end) in memory
and adds to per-thread call counts and nanosecond totals; hot predicates
(topic match, radius check, fence resolution) are counted only. Counters
are per thread, so no lost update can make a count inexact; totals()
merges them, which is exact while the broker's threads are idle.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
from time import perf_counter_ns

SPAN_CAP = 200_000  # spans kept for the span file; totals count every call


class _ThreadState:
    __slots__ = ("stack", "calls", "ns", "await_first", "first_ns")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {"root": 0}
        self.await_first = False
        self.first_ns = 0


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int, str, int, int]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    def _record(self, state, sid, parent, name, t0, t1) -> None:
        state.calls[name] = state.calls.get(name, 0) + 1
        state.ns[name] = state.ns.get(name, 0) + (t1 - t0)
        if not parent:
            state.ns["root"] += t1 - t0
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, t0, t1))

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            state = self._state()
            parent = state.stack[-1] if state.stack else 0
            sid = next(self._ids)
            state.stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                state.stack.pop()
                self._record(state, sid, parent, name, t0, t1)

        return wrapper

    def count(self, name: str, fn):
        def wrapper(*args, **kwargs):
            calls = self._state().calls
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def frame_reader(self, fn):
        """read_frame blocks in its first recv until a packet arrives; its
        span starts when that recv returns, so it holds no idle time."""

        def wrapper(sock):
            state = self._state()
            sid = next(self._ids)
            state.stack.append(sid)
            state.await_first = True
            try:
                frame = fn(sock)
            finally:
                t1 = perf_counter_ns()
                state.stack.pop()
                state.await_first = False
            if frame is not None:
                self._record(state, sid, 0, "netio.read_frame", state.first_ns, t1)
            return frame

        return wrapper

    def install(self) -> None:
        """Wrap each layer; call before the broker builds state or starts."""
        import mqttg.broker as broker
        import mqttg.netio as netio
        from mqttg.eventlog import EventLog

        tracer = self
        recv = socket.socket.recv

        def counted_recv(sock, *args):
            data = recv(sock, *args)
            state = tracer._state()
            state.calls["netio.recv"] = state.calls.get("netio.recv", 0) + 1
            if state.await_first:
                state.await_first = False
                state.first_ns = perf_counter_ns()
            return data

        socket.socket.recv = counted_recv
        netio.recv_exact = self.span("netio.recv_exact", netio.recv_exact)
        broker.read_frame = self.frame_reader(broker.read_frame)
        broker.decode_packet = self.span("codec.decode", broker.decode_packet)
        broker.encode_packet = self.span("codec.encode", broker.encode_packet)
        broker.topic_matches = self.count("topics.match", broker.topic_matches)
        broker.inside_radius = self.count("geo.radius", broker.inside_radius)
        broker.resolve_polygon = self.count("geo.resolve", broker.resolve_polygon)
        broker.point_in_polygon = self.span("geo.pip", broker.point_in_polygon)
        state_cls = broker.BrokerState
        for attr, name in (
            ("route", "broker.route"),
            ("subscribe", "broker.subscribe"),
            ("unsubscribe", "broker.unsubscribe"),
            ("update_last_location", "broker.update_location"),
            ("alloc_pid", "broker.alloc_pid"),
        ):
            setattr(state_cls, attr, self.span(name, getattr(state_cls, attr)))
        EventLog.emit = self.span("eventlog.emit", EventLog.emit)

    def totals(self) -> dict:
        calls: dict[str, int] = {}
        ns: dict[str, int] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, value in state.calls.items():
                calls[key] = calls.get(key, 0) + value
            for key, value in state.ns.items():
                ns[key] = ns.get(key, 0) + value
        return {"calls": calls, "ns": ns, "spans": len(self.spans)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1}))
                fh.write("\n")
