"""No function in the modules whose inputs scale calls itself, directly or
through other functions of its module, so input size is never capped by
the Python recursion limit.

The graph joins each function defined in a module (methods and nested
functions included) to the functions of the same module that its body
calls by bare name or as a ``self.`` method. Names are matched, not
bindings, so a call to a parameter that shares a function's name counts
too; that errs towards reporting a cycle.

``trees`` is left out: its one recursion, ``best``, is bounded by the
budget k, not by the size of the input.
"""

import ast
import graphlib
from pathlib import Path

import pytest

import fomc

SCALING_MODULES = [
    "formulas", "evaluator", "graphs", "hardness", "interpret", "kernel", "pebble", "cli",
]


def call_graph(source: str) -> dict[str, set[str]]:
    functions = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    names = {fn.name for fn in functions}
    graph: dict[str, set[str]] = {name: set() for name in names}
    for fn in functions:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                name = callee.attr if callee.value.id == "self" else None
            else:
                name = callee.id if isinstance(callee, ast.Name) else None
            if name in names:
                graph[fn.name].add(name)
    return graph


@pytest.mark.parametrize("module", SCALING_MODULES)
def test_module_has_no_call_cycle(module):
    path = Path(fomc.__file__).with_name(f"{module}.py")
    sorter = graphlib.TopologicalSorter(call_graph(path.read_text(encoding="utf-8")))
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"{module} has a call cycle: {' -> '.join(exc.args[1])}")


def test_call_graph_sees_self_methods_and_bare_names():
    source = (
        "class P:\n"
        "    def a(self):\n        return self.b()\n"
        "    def b(self):\n        return c()\n"
        "def c():\n    return b()\n"
    )
    graph = call_graph(source)
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"b"}}
    with pytest.raises(graphlib.CycleError):
        graphlib.TopologicalSorter(graph).prepare()
