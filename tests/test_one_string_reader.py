"""The codec reads MQTT strings in one place.

An MQTT string is a 16-bit length and then that many bytes of UTF-8 with
no U+0000. ``_string_at`` holds that rule; a second ``.decode(`` of bytes
in the codec would be a second copy of it, free to drift from the first.
The one other ``.decode(`` call is ``decode_packet``'s dispatch to the
packet table, ``spec.decode(...)``.
"""

import ast
from pathlib import Path

CODEC = Path(__file__).resolve().parent.parent / "src" / "mqttg" / "codec.py"


def decode_calls(path):
    """(enclosing function, receiver, line) of each ``.decode(`` call in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "decode"
            ):
                yield function.name, ast.unparse(node.func.value), node.lineno


def test_only_string_at_decodes_bytes_to_text():
    calls = list(decode_calls(CODEC))
    # a function nested in another is walked twice; the innermost name counts
    innermost = {line: (name, receiver) for name, receiver, line in calls}
    outside = [
        (name, receiver, line)
        for line, (name, receiver) in sorted(innermost.items())
        if name != "_string_at" and (name, receiver) != ("decode_packet", "spec")
    ]
    assert outside == []
    assert any(name == "_string_at" for name, _ in innermost.values())
