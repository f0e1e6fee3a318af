"""Bottom-up relational evaluation of first-order formulas on colored graphs.

Each subformula is evaluated to a dense table, the pair ``(axes, cells)``:
``cells`` is a numpy boolean array with one axis of length n per free
variable, and ``axes`` lists the variables' indices in increasing order,
one per axis. Boolean nodes broadcast their children's
tables against each other, negation complements, quantifiers reduce one
axis with ``logical_or``/``logical_and``. A node with q free variables
stores n^q cells, so a sentence with s distinct names costs at most
|formula| * n^s cells, and variable reuse pays off directly.

The tables come from one ``fold`` of ``_table``, which evaluates each
distinct subformula once. Formula nodes are interned, so equal
subformulas are one object however the formula was built (parsed,
renamed or reduced by ``hardness.reduce_to_path``): a subformula that
occurs under several parents costs one table, and ``EvalStats`` counts
it once. The fold's context holds the adjacency and identity matrices
and the colour array, each built at most once per evaluation, when an
atom first needs them, and counts the cells stored. A table above
``pebble.DEFAULT_POSITION_CAP`` cells is refused with
``ResourceLimitError`` before it is allocated.

The root table's variables are the formula's free variables, so
``model_check`` reads sentence-ness off the evaluation instead of walking
the formula a second time: an open formula is evaluated before its
``ValueError``, unless the evaluation is refused for size, in which case
the ``ValueError`` still comes first.

Conventions:

* the graph must be nonempty (quantification over an empty universe is
  rejected at the boundary);
* a color atom whose color exceeds the graph's palette is false, not an
  error, so formulas written against a richer palette still evaluate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

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
    Not,
    Or,
    Var,
    fold,
    require_sentence,
)
from .graphs import ColoredGraph
from .pebble import DEFAULT_POSITION_CAP, ResourceLimitError

@dataclass(frozen=True, eq=False)
class SatisfyingSet:
    """The satisfying assignments of a formula over its free variables.

    ``variables`` is sorted by index, and ``cells`` is the formula's
    table, one axis per variable in that order. ``rows`` lists the
    satisfying assignments, each giving vertices in that order; it is
    built from ``cells`` when first read, so a caller that needs only the
    variables or the verdict pays for no rows. A formula without free
    variables yields ``variables == ()`` and either one empty row (true)
    or no rows (false).
    """

    variables: tuple[Var, ...]
    cells: np.ndarray

    @functools.cached_property
    def rows(self) -> frozenset[tuple[int, ...]]:
        if not self.variables:
            return frozenset([()] if self.cells else [])
        return frozenset(map(tuple, (np.argwhere(self.cells) + 1).tolist()))

    @property
    def holds(self) -> bool:
        """For sentences: whether the empty assignment satisfies."""
        if self.variables:
            raise ValueError("not a sentence-level result")
        return bool(self.cells)


@dataclass
class EvalStats:
    """Total number of cells stored, one table per distinct subformula."""

    tuples_touched: int


def _require_cells(n: int, width: int) -> None:
    """Refuse a table of ``n ** width`` cells above the position cap."""
    if n**width > DEFAULT_POSITION_CAP:
        raise ResourceLimitError(
            f"evaluator table needs {n}^{width} cells "
            f"(cap {DEFAULT_POSITION_CAP})"
        )


class _Context:
    """One evaluation's context: the graph's arrays that atoms read, each
    built at most once and only when an atom needs it, and the number of
    cells stored so far."""

    def __init__(self, g: ColoredGraph) -> None:
        self.g = g
        self.n = g.n
        self.cells = 0

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        n = self.n
        _require_cells(n, 2)
        cells = np.zeros((n, n), dtype=bool)
        edges = self.g.edges
        if edges:
            ends = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)) - 1
            u, v = ends[0::2], ends[1::2]
            cells[u, v] = cells[v, u] = True
        return cells

    @functools.cached_property
    def identity(self) -> np.ndarray:
        _require_cells(self.n, 2)
        return np.eye(self.n, dtype=bool)

    @functools.cached_property
    def colors(self) -> np.ndarray:
        # int64, uint64 or object, whichever holds every colour exactly
        return np.asarray(self.g.colors)


Table = tuple[tuple[int, ...], np.ndarray]


def _table(node: Formula, kids: Sequence[Table], ctx: _Context) -> Table:
    """The table ``(axes, cells)`` of ``node`` from the tables of its
    subformulas: ``cells`` has one axis of length n per variable index in
    ``axes`` (sorted). Cells are never written after construction, so
    tables may share arrays."""
    n = ctx.n
    kind = type(node)
    if kind is And or kind is Or or kind is Implies:
        axes = tuple(sorted({i for t, _ in kids for i in t}))
        _require_cells(n, len(axes))
        # sorted indices make each child's a subsequence of ``axes``
        parts = [
            cells if t == axes else cells.reshape([n if i in t else 1 for i in axes])
            for t, cells in kids
        ]
        cells = parts[0]
        if kind is Implies:
            cells = ~cells | parts[1]
        elif kind is And:
            for part in parts[1:]:
                cells = cells & part
        else:
            for part in parts[1:]:
                cells = cells | part
    elif kind is Not:
        axes, cells = kids[0]
        cells = ~cells
    elif kind is Exists or kind is Forall:
        axes, cells = kids[0]
        var = node.var.index
        if var in axes:  # else vacuous over a nonempty universe
            axis = axes.index(var)
            reduce = np.logical_or.reduce if kind is Exists else np.logical_and.reduce
            cells = reduce(cells, axis)
            axes = axes[:axis] + axes[axis + 1 :]
    elif kind is HasColor:
        axes, cells = (node.v.index,), np.equal(ctx.colors, node.color)
    else:  # Adj, Eq
        u, v = node.u.index, node.v.index
        if u == v:
            axes, cells = (u,), np.full(n, kind is Eq)
        else:
            axes = (u, v) if u < v else (v, u)
            cells = ctx.adjacency if kind is Adj else ctx.identity
    ctx.cells += cells.size
    return axes, cells


def evaluate_free_with_stats(
    g: ColoredGraph, f: Formula
) -> tuple[SatisfyingSet, EvalStats]:
    ctx = _Context(g)
    axes, cells = fold(f, _table, env=ctx)
    return SatisfyingSet(tuple(map(Var, axes)), cells), EvalStats(ctx.cells)


def evaluate_free(g: ColoredGraph, f: Formula) -> SatisfyingSet:
    """All assignments of vertices to the free variables of ``f`` that
    satisfy it on ``g``."""
    sat, _ = evaluate_free_with_stats(g, f)
    return sat


def model_check(g: ColoredGraph, sentence: Formula) -> bool:
    """Whether the nonempty colored graph ``g`` satisfies the sentence.

    The formula is walked once, to evaluate it: the root table's
    variables are its free variables, so an open formula is evaluated and
    then refused with ``require_sentence``'s ``ValueError``; no rows are
    built for it. When the evaluation is refused for size
    (``ResourceLimitError``), an open formula still gets the
    ``ValueError``, so an input error is reported before a resource
    error."""
    try:
        sat = evaluate_free(g, sentence)
    except ResourceLimitError:
        require_sentence(sentence)
        raise
    if sat.variables:
        require_sentence(sentence)
    return sat.holds

