"""Source layout checks that need no linter: every line of the package
holds to PEP 8's 79 characters, and every module but the package's
__init__ uses each name it imports."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "glmpca").glob("*.py"))


def test_source_lines_fit_79_characters():
    assert SOURCES
    too_long = [f"{path.name}:{n} has {len(line)}"
                for path in SOURCES
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if len(line) > 79]
    assert too_long == []


def test_modules_use_every_import():
    # __init__.py is left out: its imports are the package's exports
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported
                   if name not in used]
    assert unused == []
