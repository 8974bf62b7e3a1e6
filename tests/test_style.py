"""Source layout checks that need no linter: every line of the package
holds to PEP 8's 79 characters, every module but the package's
__init__ uses each name it imports, every private function or method
is referenced somewhere in the package, and the package namespace holds
only what it exports."""

import ast
import types
from pathlib import Path

import glmpca

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


def test_private_functions_are_referenced():
    # a private helper that no module names, as a bare name or as an
    # attribute, is dead code; dunder methods are called by Python
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")
               and not node.name.endswith("__")}
    referenced = {node.id for node in nodes if isinstance(node, ast.Name)}
    referenced |= {node.attr for node in nodes
                   if isinstance(node, ast.Attribute)}
    assert sorted(defined - referenced) == []


def test_package_namespace_is_its_exports():
    # the public names of glmpca are its submodules, __all__ and
    # check_data_matrix, which the benchmark calls: a name dropped from
    # the package cannot come back unnoticed
    names = {name for name in vars(glmpca) if not name.startswith("_")}
    submodules = {name for name in names
                  if isinstance(getattr(glmpca, name), types.ModuleType)}
    assert submodules <= {path.stem for path in SOURCES}
    assert names - submodules == (set(glmpca.__all__) - {"__version__"}
                                  | {"check_data_matrix"})
