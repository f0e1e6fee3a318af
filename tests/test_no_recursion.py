"""No function in the package's modules calls itself, directly or through
other functions of its module, so input size is never capped by the
Python recursion limit. Every module is scanned except those in
``EXEMPT``, each with the reason its recursion is bounded by a parameter
rather than by the input; an exempt module that loses its cycle fails
too, so the exemption goes with the recursion. A bound that the caller
chooses is no bound: the tree-depth search goes k levels deep for the
caller's k, so its steps are generators that one loop keeps on a list
(``trees._forest``), and ``trees`` is scanned like the rest.

The graph joins each function defined in a module (methods and nested
functions included) to the functions of the same module that its body
calls by bare name or as a ``self.`` method. Names are matched, not
bindings, so a call to a parameter that shares a function's name counts
too; that errs towards reporting a cycle.
"""

import ast
import graphlib
from pathlib import Path

import pytest

import fomc

PACKAGE = Path(fomc.__file__).parent
EXEMPT = {
    "randgen": "``go`` recurses once per formula node, at most the size it is asked for",
}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


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


def call_cycle(module: str) -> list[str] | None:
    """A call cycle of the module's functions, or None when it has none."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    try:
        graphlib.TopologicalSorter(call_graph(source)).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


@pytest.mark.parametrize("module", [m for m in MODULES if m not in EXEMPT])
def test_module_has_no_call_cycle(module):
    cycle = call_cycle(module)
    if cycle is not None:
        pytest.fail(f"{module} has a call cycle: {' -> '.join(cycle)}")


@pytest.mark.parametrize("module", sorted(EXEMPT))
def test_each_exempt_module_still_has_its_cycle(module):
    assert module in MODULES
    assert call_cycle(module) is not None, f"{module} lost its cycle: drop its exemption"


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
