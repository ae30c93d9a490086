"""The import graph between the modules of the package, read from their source."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idealfunc
from idealfunc import cli

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


# the package modules in sys.modules after one query of each subcommand in a
# fresh interpreter: a subcommand loads only the modules it calls
_FIELD_SET = ["idealfunc", "idealfunc.cli", "idealfunc.field"]
_LOADED_BY = {
    "field": (["field", "--field", "q"], _FIELD_SET),
    "sum": (["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "1e4"],
            _FIELD_SET + ["idealfunc._sieve", "idealfunc._sublinear", "idealfunc.summatory"]),
    "zeta": (["zeta", "--field", "q", "--s", "2"],
             _FIELD_SET + ["idealfunc._sieve", "idealfunc.analytic"]),
    "constant": (["constant", "--field", "q", "--order", "2"],
                 _FIELD_SET + ["idealfunc._sieve", "idealfunc.analytic"]),
    "enumerate": (["enumerate", "--field", "q", "--xmax", "10"],
                  _FIELD_SET + ["idealfunc._sieve", "idealfunc._sublinear", "idealfunc.ideals"]),
    "eval": (["eval", "--field", "q", "--fn", "mobius", "--order", "1", "--ideal", "6"],
             _FIELD_SET + ["idealfunc._sieve", "idealfunc._sublinear", "idealfunc.arith",
                           "idealfunc.ideals"]),
    "report": (["report", "--field", "q", "--theorem", "0", "--grid", "10:100:2"],
               _FIELD_SET + ["idealfunc._sieve", "idealfunc._sublinear", "idealfunc.analytic",
                             "idealfunc.summatory"]),
    "verify": (["verify", "--field", "q", "--suite", "counting", "--xmax", "100"],
               _FIELD_SET + ["idealfunc._sieve", "idealfunc._sublinear", "idealfunc.arith",
                             "idealfunc.ideals", "idealfunc.verify"]),
}


def _loaded_after(code: str, package: str = "idealfunc") -> list[str]:
    """The sorted modules of the package in sys.modules once `code` ran in a
    fresh interpreter."""
    script = code + ("\nimport sys\nprint(*sorted(m for m in sys.modules "
                     f"if m.partition('.')[0] == {package!r}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return proc.stdout.split()


@pytest.mark.parametrize("name", sorted(_LOADED_BY))
def test_a_subcommand_loads_only_the_modules_it_calls(name):
    argv, loaded = _LOADED_BY[name]
    assert _loaded_after(f"import io\nfrom idealfunc.cli import main\n"
                         f"assert main({argv!r}, out=io.StringIO()) == 0") == sorted(loaded)


def test_no_subcommand_loads_numpy_random():
    # numpy.random adds about 6 MiB of peak RSS to a process that imports
    # numpy alone, and no query needs it: every subcommand runs in turn in
    # one interpreter, which keeps any module one of them loads
    queries = "".join(f"assert main({argv!r}, out=io.StringIO()) == 0\n"
                      for argv, _ in _LOADED_BY.values())
    loaded = _loaded_after("import io\nfrom idealfunc.cli import main\n" + queries, "numpy")
    assert "numpy" in loaded and "numpy.random" not in loaded


def test_the_modules_a_sum_leaves_out():
    loaded = _LOADED_BY["sum"][1]
    assert not {"idealfunc.verify", "idealfunc.analytic", "idealfunc.ideals",
                "idealfunc.arith"} & set(loaded)
    assert set(_LOADED_BY) == set(cli._COMMANDS)


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import idealfunc") == ["idealfunc"]


def test_every_public_name_is_its_home_modules_object():
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            module = importlib.import_module(f"idealfunc.{path.stem}")
            homes.update({name: module for name in getattr(module, "__all__", ())})
    for name in idealfunc.__all__:
        assert getattr(idealfunc, name) is getattr(homes[name], name), name
    star: dict = {}
    exec("from idealfunc import *", star)
    assert {name: star[name] for name in idealfunc.__all__} == \
        {name: getattr(homes[name], name) for name in idealfunc.__all__}
    assert set(star) - {"__builtins__"} == set(idealfunc.__all__)
