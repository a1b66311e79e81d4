"""The broker routes every publish on one path and keeps what the client sent.

A received PUBLISH and a will are each stored when retained, routed and
queued by ``BrokerState._publish``. A ``route(`` or ``set_retained(``
call anywhere else in the broker would be a second publish loop, free to
drift from the first. A subscription is the ``TopicFilter`` the client
sent, so the broker defines no ``Subscription`` class to copy it into.
"""

import ast
from pathlib import Path

BROKER = Path(__file__).resolve().parent.parent / "src" / "mqttg" / "broker.py"
PUBLISH_PATH = ("route", "set_retained")


def calls(tree: ast.Module, names: tuple[str, ...]):
    """(qualified name of the enclosing function, callee, line) of each
    call to one of ``names``, as a function or as a method."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.append((scope, name, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_publish_routes_and_stores_retained_messages():
    tree = ast.parse(BROKER.read_text(encoding="utf-8"), str(BROKER))
    sites = calls(tree, PUBLISH_PATH)
    assert {(scope, name) for scope, name, _ in sites} == {
        ("BrokerState._publish", "route"),
        ("BrokerState._publish", "set_retained"),
    }, sites


def test_the_broker_defines_no_subscription_copy():
    tree = ast.parse(BROKER.read_text(encoding="utf-8"), str(BROKER))
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert "Subscription" not in classes
    assert "BrokerState" in classes
