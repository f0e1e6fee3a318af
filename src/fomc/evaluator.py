"""Bottom-up relational evaluation of first-order formulas on colored graphs.

Each subformula is evaluated to a dense table: a numpy boolean array
with one axis of length n per free variable, keyed by the variable's
index, in increasing order. Boolean nodes broadcast their children's
tables against each other, negation complements, quantifiers reduce one
axis with ``logical_or``/``logical_and``. A node with q free variables
stores n^q cells, so a sentence with s distinct names costs at most
|formula| * n^s cells, and variable reuse pays off directly.

The tables come from one ``fold``, which evaluates each distinct
subformula once. Formula nodes are interned, so equal subformulas are one
object however the formula was built (parsed, renamed or reduced by
``hardness.reduce_to_path``): a subformula that occurs under several
parents costs one table, and ``EvalStats`` counts it once. The adjacency
and identity matrices and the colour array are built at most once per
evaluation, when an atom first needs them. A table above
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

Row = tuple[int, ...]


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
    def rows(self) -> frozenset[Row]:
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

    tuples_touched: int = 0


class _Table:
    """Cells with one axis of length n per variable index in ``vars``
    (sorted); never written after construction, so tables may share
    arrays."""

    __slots__ = ("vars", "cells")

    def __init__(self, vars: tuple[int, ...], cells: np.ndarray) -> None:
        self.vars = vars
        self.cells = cells


def _require_cells(n: int, width: int) -> None:
    """Refuse a table of ``n ** width`` cells above the position cap."""
    if n**width > DEFAULT_POSITION_CAP:
        raise ResourceLimitError(
            f"evaluator table needs {n}^{width} cells "
            f"(cap {DEFAULT_POSITION_CAP})"
        )


class _Atoms:
    """The graph's arrays that atoms read, each built at most once per
    evaluation and only when an atom needs it."""

    def __init__(self, g: ColoredGraph) -> None:
        self.g = g
        self.n = g.n

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


def _table(node: Formula, kids: Sequence[_Table], atoms: _Atoms) -> _Table:
    """The table of ``node`` from the tables of its subformulas."""
    n = atoms.n
    kind = type(node)
    if kind is And or kind is Or or kind is Implies:
        out = tuple(sorted({i for t in kids for i in t.vars}))
        _require_cells(n, len(out))
        # sorted indices make each child's a subsequence of ``out``
        parts = [
            t.cells if t.vars == out
            else t.cells.reshape([n if i in t.vars else 1 for i in out])
            for t in kids
        ]
        if kind is Implies:
            return _Table(out, ~parts[0] | parts[1])
        cells = parts[0]
        if kind is And:
            for part in parts[1:]:
                cells = cells & part
        else:
            for part in parts[1:]:
                cells = cells | part
        return _Table(out, cells)
    if kind is Not:
        return _Table(kids[0].vars, ~kids[0].cells)
    if kind is Exists or kind is Forall:
        t = kids[0]
        var = node.var.index
        if var not in t.vars:
            # vacuous over a nonempty universe
            return t
        axis = t.vars.index(var)
        reduce = np.logical_or.reduce if kind is Exists else np.logical_and.reduce
        cells = reduce(t.cells, axis)
        return _Table(t.vars[:axis] + t.vars[axis + 1 :], cells)
    if kind is HasColor:
        return _Table((node.v.index,), np.equal(atoms.colors, node.color))
    u, v = node.u.index, node.v.index  # Adj, Eq
    if u == v:
        return _Table((u,), np.full(n, kind is Eq))
    cells = atoms.adjacency if kind is Adj else atoms.identity
    return _Table((u, v) if u < v else (v, u), cells)


def evaluate_free_with_stats(
    g: ColoredGraph, f: Formula
) -> tuple[SatisfyingSet, EvalStats]:
    stats = EvalStats()
    atoms = _Atoms(g)

    def leave(node: Formula, kids: Sequence[_Table], _env: None) -> _Table:
        t = _table(node, kids, atoms)
        stats.tuples_touched += t.cells.size
        return t

    table = fold(f, leave)
    return SatisfyingSet(tuple(map(Var, table.vars)), table.cells), stats


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

