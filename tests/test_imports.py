"""The import graph between the modules of the package, read from their source."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "idealfunc"


def _import_graph():
    # each module of the package -> the package modules it imports anywhere
    # in its code, function bodies included
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("idealfunc"):
                rest = node.module.split(".")[1:]
                imported.update(rest[:1] or [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[1] for alias in node.names
                                if alias.name.startswith("idealfunc."))
        graph[path.stem] = imported
    return graph


def test_every_import_names_a_module_of_the_package():
    graph = _import_graph()
    assert {"field", "_sieve", "cli", "__init__"} <= set(graph)
    assert {name for names in graph.values() for name in names} <= set(graph)


def test_import_graph_is_acyclic():
    graph = _import_graph()
    done, path = set(), []

    def visit(module):
        assert module not in path, "import cycle: " + " -> ".join(
            path[path.index(module):] + [module])
        if module not in done:
            path.append(module)
            for name in sorted(graph[module]):
                visit(name)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


def test_field_is_the_bottom_module():
    # the memo of kept arrays lives in `field` so that every other module can
    # reach it without an import cycle
    assert _import_graph()["field"] == set()


def test_the_package_needs_only_numpy_at_run_time():
    # the test oracles, sympy and mpmath serve the tests alone: no module of
    # the package imports them, and numpy is its one declared dependency
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in ("numpy", "idealfunc"), \
                    f"{path.name} imports {name}"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", spec).group() for spec in declared] == ["numpy"]
