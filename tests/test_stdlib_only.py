"""The package imports only the standard library, so pyproject.toml's
``dependencies = []`` stays true."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mqttg"


def imported_modules(path):
    """The top-level name of each module an absolute import in ``path`` names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_the_standard_library_or_mqttg():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    foreign = {
        (source.name, module)
        for source in sources
        for module in imported_modules(source)
        if module not in sys.stdlib_module_names and module != "mqttg"
    }
    assert foreign == set()
