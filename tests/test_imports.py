"""The import graph between the modules of the package, read from their source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idealfunc"


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
