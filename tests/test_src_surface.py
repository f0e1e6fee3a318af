"""The installed package holds only what a production path calls.

Every top-level function of ``src/fomc`` must be referenced by name from
code in ``src/fomc`` or be exported in ``fomc.__all__``, and so must
every method, property and cached property of its classes whose name
does not start with ``__``. Its own body does not count, and neither do
comments, docstrings or imports. CLI commands count through
``set_defaults(func=...)`` and the console script ``fomc.cli:main``
through the module's ``__main__`` guard. Generators, writers, methods and
helpers that only tests use belong in ``tests/``. Likewise every field of
its dataclasses and ``NamedTuple``s must be read as an attribute by code
in ``src/fomc`` or by the benchmark's code in ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import fomc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fomc"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The benchmark's tracer (perfbench/spans.py) wraps these by name in
#: their defining modules, so they stay until the benchmark reads a
#: stats object instead of patching functions.
TRACED = {"substitute_edge_atoms", "depth_edge_interpretation"}

#: Names kept although nothing in the package calls them.
ALLOWED = TRACED | {
    # Public and documented in the README: the extra variables a scheme's
    # translation needs, read off its formulas; the tests check it
    # against its closed forms.
    "variable_overhead",
}


def _references(tree: ast.AST) -> Counter:
    """Names used in code under ``tree``: each bare name as itself, each
    attribute as ``.name``."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used["." + node.attr] += 1
    return used


def _definitions(tree: ast.Module):
    """(qualified name, node, the keys of ``_references`` that name it)
    for each top-level function of ``tree``, named bare or as an
    attribute, and for each function in a class body whose name does not
    start with ``__`` (methods, properties and cached properties), named
    as an attribute."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node, (node.name, "." + node.name)
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member, ("." + member.name,)


def unreferenced_definitions(exempt: set[str]) -> list[str]:
    """``module.name`` (``module.Class.name`` for a class member) for each
    definition outside ``exempt`` that no code in the package names."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used: Counter = Counter()
    for tree in modules.values():
        used += _references(tree)
    missing = []
    for stem, tree in modules.items():
        for name, node, keys in _definitions(tree):
            own = _references(node)
            if node.name not in exempt and sum(used[k] - own[k] for k in keys) <= 0:
                missing.append(f"{stem}.{name}")
    return missing


def test_every_top_level_function_has_a_production_caller():
    missing = unreferenced_definitions(set(fomc.__all__) | ALLOWED)
    assert not missing, "no production caller: " + ", ".join(missing)


def test_allow_list_holds_only_functions_without_a_caller():
    unused = unreferenced_definitions(set(fomc.__all__))
    assert {name.rsplit(".", 1)[1] for name in unused} == ALLOWED


def test_every_function_the_tracer_wraps_is_defined():
    # a missing name used to show only as a benchmark subprocess failing
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"fomc.{module}"), name, None))
    ]
    assert not missing, "the tracer wraps undefined names: " + ", ".join(missing)
    assert TRACED <= {name for _, name, _ in spans.TARGETS}


def _fields(tree: ast.Module):
    """(class, field) for each annotated field of each dataclass or
    ``NamedTuple`` at the top level of ``tree``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
            isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
        ):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield node.name, member.target.id


def test_every_record_field_is_read():
    # a field that nothing reads is computed, stored and carried for nobody;
    # the benchmark's own code counts as a reader, its tests do not
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path for path in sorted((ROOT / "perfbench").glob("*.py")) if not path.name.startswith("test_")]
    used: Counter = Counter()
    for tree in [*modules.values(), *(ast.parse(path.read_text()) for path in bench)]:
        used += _references(tree)
    unread = [
        f"{stem}.{cls}.{field}"
        for stem, tree in modules.items()
        for cls, field in _fields(tree)
        if not used["." + field]
    ]
    assert not unread, "fields nothing reads: " + ", ".join(unread)


#: The only code that may read ``ColoredGraph.edges``: the view itself and
#: the graph's ``repr``.
EDGE_VIEW_READERS = {("graphs.py", "ColoredGraph", "edges"), ("graphs.py", "ColoredGraph", "__repr__")}


def test_no_production_module_reads_the_edge_set_view():
    # ``ColoredGraph.edges`` is a frozenset built on first read; every
    # reader and builder in the package uses the stored arrays
    # ``edge_lo``/``edge_hi``
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for member in cls.body
            if (path.name, cls.name, getattr(member, "name", None)) in EDGE_VIEW_READERS
            for node in ast.walk(member)
        }
        readers += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "edges" and id(node) not in allowed
        ]
    assert not readers, "reads .edges: " + ", ".join(readers)
