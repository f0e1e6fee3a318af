"""Bottom-up relational evaluation of first-order formulas on colored graphs.

Each subformula is evaluated to a dense table, the pair ``(axes, cells)``:
``cells`` is a numpy boolean array with one axis of length n per free
variable, and ``axes`` lists the variables' indices in increasing order,
one per axis. Boolean nodes broadcast their children's tables against
each other (``a -> b`` is ``a <= b``), negation complements, quantifiers
reduce one axis with ``logical_or``/``logical_and``. A node with q free
variables stores n^q cells, so a sentence with s distinct names costs at
most |formula| * n^s cells, and variable reuse pays off directly.

``evaluate_free_with_stats`` is one iterative post-order loop over a stack
of nodes to expand and ``(node, child count)`` frames, each under a
private marker; when a frame comes back up, its children's tables top the
table stack. A table's axes are its node's free variables, which the node
recorded, sorted, when it was built (``formulas.Formula``), so the loop
computes none. Nodes are interned, so an identity memo stores one
table per distinct subformula, and ``EvalStats`` counts each once. The
adjacency and identity matrices, the colour array, each colour value's
vector and the vectors of ``x=x`` and ``adj(x,x)`` are built once per
call, when an atom first needs them; no table is written after it is
built, so atoms share them. The adjacency matrix is filled from the graph's stored edge arrays.
A table above ``pebble.DEFAULT_POSITION_CAP`` cells is refused with
``ResourceLimitError`` before it is allocated, except the one-variable
atom vectors (a colour's, ``x=x``'s and ``adj(x,x)``'s): each holds n
cells, as many as the graph's own colour tuple. Negation and quantifiers
never grow a table.

``model_check`` reads sentence-ness off the root's record too, so an open
formula gets its ``ValueError`` before anything is evaluated, and before
any size refusal.

Conventions:

* the graph must be nonempty (quantification over an empty universe is
  rejected at the boundary);
* a color atom whose color exceeds the graph's palette is false, not an
  error, so formulas written against a richer palette still evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    require_sentence,
)
from .graphs import ColoredGraph
from .pebble import DEFAULT_POSITION_CAP, ResourceLimitError

@dataclass(frozen=True, eq=False)
class SatisfyingSet:
    """The satisfying assignments of a formula over its free variables.

    ``variables`` is sorted by index, and ``cells`` is the formula's
    table, one axis per variable in that order: a cell is true where the
    assignment of vertex k + 1 to the variable of an axis at index k
    satisfies. A formula without free variables yields ``variables == ()``
    and a 0-dimensional table.
    """

    variables: tuple[Var, ...]
    cells: np.ndarray

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


#: The ufunc that combines two tables of each connective; a -> b is a <= b.
_CONNECTIVES = {And: np.logical_and, Or: np.logical_or, Implies: np.less_equal}
#: Marks a frame on the evaluation stack; no formula holds this object.
_LEAVE = object()


def _adjacency(g: ColoredGraph) -> np.ndarray:
    """The n x n adjacency table of ``g``, refused above the cell cap: a
    view that leaves out row and column 0 of a table indexed by vertex id."""
    n = g.n
    _require_cells(n, 2)
    cells = np.zeros((n + 1, n + 1), dtype=bool)
    cells[g.edge_lo, g.edge_hi] = cells[g.edge_hi, g.edge_lo] = True
    return cells[1:, 1:]


def evaluate_free_with_stats(
    g: ColoredGraph, f: Formula
) -> tuple[SatisfyingSet, EvalStats]:
    n = g.n
    adjacency = identity = colors = None
    vectors: dict = {}  # one-variable atom tables, by colour value, or by Eq / Adj for x=x / adj(x,x)
    stored = 0
    memo: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    tables: list[tuple[tuple[int, ...], np.ndarray]] = []
    todo: list = [f]  # nodes to expand, and (node, child count) frames under _LEAVE
    while todo:
        node = todo.pop()
        if node is _LEAVE:
            k, node = todo.pop(), todo.pop()
            kind = type(node)
            axes = node._free
            if k == 1:  # Not, Exists, Forall
                t, cells = tables.pop()
                if kind is Not:
                    cells = ~cells
                elif node.var.index in t:  # else vacuous over a nonempty universe
                    axis = t.index(node.var.index)
                    op = np.logical_or if kind is Exists else np.logical_and
                    if axis and cells.ndim > 2:  # a copy's leading axis reduces faster
                        order = (axis, *range(axis), *range(axis + 1, cells.ndim))
                        cells = op.reduce(np.ascontiguousarray(cells.transpose(order)), 0)
                    else:
                        cells = op.reduce(cells, axis)
            else:  # And, Or, Implies
                kids = tables[-k:]
                del tables[-k:]
                _require_cells(n, len(axes))
                op = _CONNECTIVES[kind]
                cells = None
                for t, part in kids:
                    if t != axes:  # sorted, so ``t`` is a subsequence of ``axes``
                        part = part.reshape([n if i in t else 1 for i in axes])
                    cells = part if cells is None else op(cells, part)
        else:
            kind = type(node)
            table = memo.get(id(node))
            if table is not None:
                tables.append(table)
                continue
            if kind is And or kind is Or or kind is Implies:
                kids = (node.lhs, node.rhs) if kind is Implies else node.children
                todo += (node, len(kids), _LEAVE, *kids[::-1])
                continue
            if kind is Not or kind is Exists or kind is Forall:
                todo += (node, 1, _LEAVE, node.child if kind is Not else node.body)
                continue
            if kind is HasColor:
                cells = vectors.get(node.color)
                if cells is None:
                    if colors is None:  # int64, uint64 or object: every colour exact
                        colors = np.asarray(g.colors)
                    cells = vectors[node.color] = np.equal(colors, node.color)
            elif kind is Adj or kind is Eq:
                if node.u is node.v:
                    cells = vectors.get(kind)
                    if cells is None:
                        cells = vectors[kind] = np.full(n, kind is Eq)
                elif kind is Adj:
                    if adjacency is None:
                        adjacency = _adjacency(g)
                    cells = adjacency
                else:
                    if identity is None:
                        _require_cells(n, 2)
                        identity = np.eye(n, dtype=bool)
                    cells = identity
            else:
                raise TypeError(f"not a formula: {node!r}")
            axes = node._free
        stored += cells.size
        memo[id(node)] = table = (axes, cells)
        tables.append(table)
    axes, cells = tables[0]
    return SatisfyingSet(tuple(map(Var, axes)), cells), EvalStats(stored)


def evaluate_free(g: ColoredGraph, f: Formula) -> SatisfyingSet:
    """All assignments of vertices to the free variables of ``f`` that
    satisfy it on ``g``."""
    sat, _ = evaluate_free_with_stats(g, f)
    return sat


def model_check(g: ColoredGraph, sentence: Formula) -> bool:
    """Whether the nonempty colored graph ``g`` satisfies the sentence.

    An open formula is refused with ``require_sentence``'s ``ValueError``
    before it is evaluated, from the free variables it recorded when it
    was built, so an input error comes before a resource error."""
    require_sentence(sentence)
    sat = evaluate_free(g, sentence)
    return sat.holds
