"""The names the benchmark's tracer wraps must exist in the broker.

loopbench/tracing.py replaces module globals of mqttg.broker and methods
of BrokerState with counting and timing wrappers. A rename in the broker
would break a traced benchmark run (--trace 1) while every other test
stays green, so this test reads the tracer's source, without importing
or running it, and checks each wrapped name. A wrapped global the broker
no longer calls would make its traced metric read zero, so the broker's
source is parsed too, to check that each one is still called.
"""

import ast
from pathlib import Path

import mqttg.broker as broker
from mqttg.broker import BrokerState

TRACING = Path(__file__).resolve().parent.parent / "loopbench" / "tracing.py"


def wrapped_names() -> tuple[set[str], set[str]]:
    """(mqttg.broker globals, BrokerState methods) that Tracer.install wraps."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    install = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
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
