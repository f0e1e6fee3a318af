"""The installed package holds only what a production path calls.

Every top-level function of ``src/fomc`` must be referenced by name from
code in ``src/fomc`` or be exported in ``fomc.__all__``. Its own body does
not count, and neither do comments, docstrings or imports. CLI commands
count through ``set_defaults(func=...)`` and the console script
``fomc.cli:main`` through the module's ``__main__`` guard. Generators,
writers and helpers that only tests use belong in ``tests/``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import fomc

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fomc"

#: Names kept although nothing in the package calls them.
ALLOWED = {
    # The benchmark's tracer (perfbench/spans.py) wraps these by name in
    # their defining modules, so they stay until the benchmark reads a
    # stats object instead of patching functions.
    "substitute_edge_atoms",
    "depth_edge_interpretation",
}


def _references(tree: ast.AST) -> Counter:
    """Names used in code under ``tree``: bare names and attributes."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def unreferenced_functions(exempt: set[str]) -> list[str]:
    """``module.name`` for each top-level function outside ``exempt``
    that no code in the package names."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used: Counter = Counter()
    for tree in modules.values():
        used += _references(tree)
    return [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in exempt
        and used[node.name] <= _references(node)[node.name]
    ]


def test_every_top_level_function_has_a_production_caller():
    missing = unreferenced_functions(set(fomc.__all__) | ALLOWED)
    assert not missing, "no production caller: " + ", ".join(missing)


def test_allow_list_holds_only_functions_without_a_caller():
    unused = unreferenced_functions(set(fomc.__all__))
    assert {name.split(".")[1] for name in unused} == ALLOWED
