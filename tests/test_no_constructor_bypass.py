"""No value in the package is made past its own constructor.

The constructors hold the validation and the normalising: GeoPoint's
range check, GeoLocation's rounding of the elevation to an f32, a
fence's shape checks. A value made with ``object.__new__`` skips them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mqttg"


def object_new_references(path):
    """The line of each reference to ``object.__new__`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            yield node.lineno


def test_no_module_references_object_new():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    found = [(source.name, line) for source in sources for line in object_new_references(source)]
    assert found == []
