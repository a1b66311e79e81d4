"""The names the benchmark's tracer wraps must exist in the broker.

loopbench/tracing.py replaces module globals of mqttg.broker, methods of
BrokerState, netio.recv_exact and EventLog.emit with counting and timing
wrappers. A rename in the broker would break a traced benchmark run
(--trace 1) while every other test stays green, so this test reads the
tracer's source, without importing or running it, and checks each wrapped
name. A wrapped global or method the broker no longer calls would make its
traced metric read zero, so the broker's source is parsed too, to check
that each one is still called.
"""

import ast
from pathlib import Path

import mqttg.broker as broker
import mqttg.netio as netio
from mqttg.broker import BrokerState
from mqttg.eventlog import EventLog

TRACING = Path(__file__).resolve().parent.parent / "loopbench" / "tracing.py"


def function_node(source: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    )


def wrapped_names() -> tuple[set[str], set[str]]:
    """(mqttg.broker globals, BrokerState methods) that Tracer.install wraps."""
    install = function_node(TRACING, "install")
    module_globals: set[str] = set()
    methods: set[str] = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Assign):
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "broker"
            ):
                module_globals.add(target.attr)
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            methods |= {pair.elts[0].value for pair in node.iter.elts}  # ("route", "broker.route")
    return module_globals, methods


def test_wrapped_broker_names_exist():
    module_globals, methods = wrapped_names()
    assert module_globals >= {
        "read_frame",
        "decode_packet",
        "encode_packet",
        "topic_matches",
        "inside_radius",
        "resolve_polygon",
        "point_in_polygon",
    }
    assert methods >= {"route", "subscribe", "unsubscribe", "update_last_location", "alloc_pid"}
    for name in module_globals:
        assert callable(getattr(broker, name, None)), f"mqttg.broker.{name}"
    for name in methods:
        assert callable(getattr(BrokerState, name, None)), f"BrokerState.{name}"


def called_globals(source: Path) -> set[str]:
    """Bare names called from inside some function of ``source``."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return {
        call.func.id
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(func)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


def test_wrapped_broker_globals_are_called():
    module_globals, _ = wrapped_names()
    uncalled = module_globals - called_globals(Path(broker.__file__))
    assert not uncalled, f"mqttg.broker never calls {sorted(uncalled)}"


def called_attributes(source: Path) -> set[str]:
    """Attribute names called (``x.name(...)``) anywhere in ``source``."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return {
        call.func.attr
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
    }


def test_wrapped_broker_methods_are_called():
    _, methods = wrapped_names()
    uncalled = methods - called_attributes(Path(broker.__file__))
    assert not uncalled, f"mqttg.broker never calls the BrokerState methods {sorted(uncalled)}"


def test_wrapped_frame_and_log_names_exist_and_are_called():
    install = function_node(TRACING, "install")
    assigned = {
        (target.value.id, target.attr)
        for node in ast.walk(install)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
    }
    assert {("netio", "recv_exact"), ("EventLog", "emit")} <= assigned
    assert callable(getattr(netio, "recv_exact", None)), "mqttg.netio.recv_exact"
    assert callable(getattr(EventLog, "emit", None)), "EventLog.emit"
    read_frame = function_node(Path(netio.__file__), "read_frame")
    assert any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "recv_exact"
        for call in ast.walk(read_frame)
    ), "netio.read_frame never calls recv_exact"
    assert "emit" in called_attributes(Path(broker.__file__)), "mqttg.broker never calls .emit("


def test_broker_reaches_the_codec_and_log_only_through_traced_names():
    """The codec's and the log's private fast paths run inside
    decode_packet, encode_packet and EventLog.emit. A broker that called
    one of them directly would move that time out of codec.decode_us,
    codec.encode_us or eventlog.emit_us and into the time no wrapper
    attributes."""
    tree = ast.parse(Path(broker.__file__).read_text(encoding="utf-8"))
    own_writes = {
        id(call)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "_write" for f in cls.body)
        for call in ast.walk(cls)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "self"
    }
    bypasses = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if (
            name.startswith(("_decode_", "_encode_"))
            or name == "_decoded"
            or (name == "_write" and id(call) not in own_writes)
        ):
            bypasses.append(f"line {call.lineno}: {name}")
    assert not bypasses, f"mqttg.broker bypasses a traced name: {bypasses}"
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("codec", "eventlog")
        for alias in node.names
    }
    assert not {name for name in imported if name.startswith("_")}, imported
