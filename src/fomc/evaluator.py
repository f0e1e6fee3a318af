"""Bottom-up relational evaluation of first-order formulas on colored graphs.

Each subformula is evaluated to a dense table: a numpy boolean array
with one axis of length n per free variable, in sorted variable order.
Boolean nodes broadcast their children's tables against each other,
negation complements, quantifiers reduce one axis with ``any``/``all``.
A node with q free variables stores n^q cells, so a sentence with s
distinct names costs at most |formula| * n^s cells, and variable reuse
pays off directly. A table above ``pebble.DEFAULT_POSITION_CAP`` cells
is refused with ``ResourceLimitError`` before it is allocated.

Conventions:

* the graph must be nonempty (quantification over an empty universe is
  rejected at the boundary);
* a color atom whose color exceeds the graph's palette is false, not an
  error, so formulas written against a richer palette still evaluate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .formulas import (
    Adj,
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    HasColor,
    Implies,
    Or,
    Var,
    fold,
    require_sentence,
)
from .graphs import ColoredGraph
from .pebble import DEFAULT_POSITION_CAP, ResourceLimitError

Row = tuple[int, ...]


@dataclass(frozen=True)
class SatisfyingSet:
    """The satisfying assignments of a formula over its free variables.

    ``variables`` is sorted by index; each row lists vertices in that
    order. A formula without free variables yields ``variables == ()``
    and either one empty row (true) or no rows (false).
    """

    variables: tuple[Var, ...]
    rows: frozenset[Row]

    @property
    def holds(self) -> bool:
        """For sentences: whether the empty assignment satisfies."""
        if self.variables:
            raise ValueError("not a sentence-level result")
        return bool(self.rows)


@dataclass
class EvalStats:
    """Total number of cells stored across the per-subformula tables."""

    tuples_touched: int = 0


class _Table:
    """Cells with one axis of length n per variable of ``vars`` (sorted);
    never written after construction, so tables may share arrays."""

    __slots__ = ("vars", "cells")

    def __init__(self, vars: tuple[Var, ...], cells: np.ndarray) -> None:
        self.vars = vars
        self.cells = cells


def _require_cells(n: int, width: int) -> None:
    """Refuse a table of ``n ** width`` cells above the position cap."""
    if n**width > DEFAULT_POSITION_CAP:
        raise ResourceLimitError(
            f"evaluator table needs {n}^{width} cells "
            f"(cap {DEFAULT_POSITION_CAP})"
        )


def _adjacency(g: ColoredGraph) -> np.ndarray:
    _require_cells(g.n, 2)
    cells = np.zeros((g.n, g.n), dtype=bool)
    if g.edges:
        u, v = (np.array(list(g.edges)) - 1).T
        cells[u, v] = cells[v, u] = True
    return cells


def _table(
    node: Formula,
    kids: Sequence[_Table],
    g: ColoredGraph,
    adjacency: Callable[[], np.ndarray],
) -> _Table:
    """The table of ``node`` from the tables of its subformulas."""
    n = g.n
    match node:
        case Adj(u, v):
            if u == v:
                return _Table((u,), np.zeros(n, dtype=bool))
            return _Table((u, v) if u < v else (v, u), adjacency())
        case Eq(u, v):
            if u == v:
                return _Table((u,), np.ones(n, dtype=bool))
            _require_cells(n, 2)
            return _Table((u, v) if u < v else (v, u), np.eye(n, dtype=bool))
        case HasColor(color, v):
            return _Table((v,), np.equal(g.colors, color))
        case And() | Or() | Implies():
            out = tuple(sorted(set().union(*(t.vars for t in kids))))
            _require_cells(n, len(out))
            # sorted variables make each child's a subsequence of ``out``
            parts = [
                t.cells.reshape([n if v in t.vars else 1 for v in out])
                for t in kids
            ]
            if isinstance(node, Implies):
                return _Table(out, ~parts[0] | parts[1])
            op = np.logical_and if isinstance(node, And) else np.logical_or
            return _Table(out, functools.reduce(op, parts))
        case Exists(var) | Forall(var):
            t = kids[0]
            if var not in t.vars:
                # vacuous over a nonempty universe
                return t
            axis = t.vars.index(var)
            project = np.any if isinstance(node, Exists) else np.all
            return _Table(t.vars[:axis] + t.vars[axis + 1 :], project(t.cells, axis))
        case _:  # Not
            return _Table(kids[0].vars, ~kids[0].cells)


def evaluate_free_with_stats(
    g: ColoredGraph, f: Formula
) -> tuple[SatisfyingSet, EvalStats]:
    stats = EvalStats()
    adjacency = functools.cache(functools.partial(_adjacency, g))

    def leave(node: Formula, kids: Sequence[_Table], _env: None) -> _Table:
        t = _table(node, kids, g, adjacency)
        stats.tuples_touched += t.cells.size
        return t

    table = fold(f, leave)
    rows = (np.argwhere(table.cells) + 1).tolist()
    return SatisfyingSet(table.vars, frozenset(map(tuple, rows))), stats


def evaluate_free(g: ColoredGraph, f: Formula) -> SatisfyingSet:
    """All assignments of vertices to the free variables of ``f`` that
    satisfy it on ``g``."""
    sat, _ = evaluate_free_with_stats(g, f)
    return sat


def model_check(g: ColoredGraph, sentence: Formula) -> bool:
    """Whether the nonempty colored graph ``g`` satisfies the sentence."""
    require_sentence(sentence)
    return evaluate_free(g, sentence).holds

