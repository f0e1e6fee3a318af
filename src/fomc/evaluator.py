"""Bottom-up relational evaluation of first-order formulas on colored graphs.

Each subformula is evaluated to a relation table indexed by exactly its
free variables: boolean nodes join or complement tables, quantifiers
project. That keeps the cost of a formula with q free variables at a
node bounded by n^q tuples, so variable reuse pays off directly.

Conventions:

* the graph must be nonempty (quantification over an empty universe is
  rejected at the boundary);
* a color atom whose color exceeds the graph's palette is false, not an
  error, so formulas written against a richer palette still evaluate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

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
    """Total number of tuples stored across the per-subformula tables."""

    tuples_touched: int = 0


class _Table:
    __slots__ = ("vars", "rows")

    def __init__(self, vars: tuple[Var, ...], rows: set[Row]) -> None:
        self.vars = vars
        self.rows = rows


def _join(a: _Table, b: _Table) -> _Table:
    """Natural join on the shared variables."""
    shared = tuple(v for v in a.vars if v in b.vars)
    out_vars = tuple(sorted(set(a.vars) | set(b.vars)))
    a_pos = {v: i for i, v in enumerate(a.vars)}
    b_pos = {v: i for i, v in enumerate(b.vars)}
    b_only = tuple(v for v in b.vars if v not in a_pos)
    index: dict[Row, list[Row]] = {}
    for row in b.rows:
        key = tuple(row[b_pos[v]] for v in shared)
        index.setdefault(key, []).append(row)
    out_rows: set[Row] = set()
    out_pick = []
    for v in out_vars:
        if v in a_pos:
            out_pick.append((0, a_pos[v]))
        else:
            out_pick.append((1, b_only.index(v)))
    for row in a.rows:
        key = tuple(row[a_pos[v]] for v in shared)
        for other in index.get(key, ()):
            rest = tuple(other[b_pos[v]] for v in b_only)
            out_rows.add(
                tuple(row[i] if side == 0 else rest[i] for side, i in out_pick)
            )
    return _Table(out_vars, out_rows)


def _extend(t: _Table, to_vars: tuple[Var, ...], n: int) -> _Table:
    """Cylindrify a table to a superset of its variables."""
    if t.vars == to_vars:
        return t
    missing = [v for v in to_vars if v not in t.vars]
    pos = {v: i for i, v in enumerate(t.vars)}
    rows: set[Row] = set()
    fill = itertools.product(range(1, n + 1), repeat=len(missing))
    fills = list(fill)
    miss_pos = {v: i for i, v in enumerate(missing)}
    for row in t.rows:
        for extra in fills:
            rows.add(
                tuple(
                    row[pos[v]] if v in pos else extra[miss_pos[v]] for v in to_vars
                )
            )
    return _Table(to_vars, rows)


def _complement(t: _Table, n: int) -> _Table:
    full = set(itertools.product(range(1, n + 1), repeat=len(t.vars)))
    return _Table(t.vars, full - t.rows)


def _table(node: Formula, kids: Sequence[_Table], g: ColoredGraph) -> _Table:
    """The table of ``node`` from the tables of its subformulas."""
    match node:
        case Adj(u, v):
            if u == v:
                return _Table((u,), set())
            rows = {(a, b) for a, b in g.edges} | {(b, a) for a, b in g.edges}
            return _Table((u, v) if u < v else (v, u), rows)
        case Eq(u, v):
            if u == v:
                return _Table((u,), {(a,) for a in g.vertices})
            lo, hi = (u, v) if u < v else (v, u)
            return _Table((lo, hi), {(a, a) for a in g.vertices})
        case HasColor(color, v):
            return _Table((v,), {(a,) for a in g.vertices if g.color_of(a) == color})
        case And():
            acc = kids[0]
            for t in kids[1:]:
                acc = _join(acc, t)
            return acc
        case Or() | Implies():
            if isinstance(node, Implies):
                kids = (_complement(kids[0], g.n), kids[1])
            out_vars = tuple(sorted(set().union(*(t.vars for t in kids))))
            rows: set[Row] = set()
            for t in kids:
                rows |= _extend(t, out_vars, g.n).rows
            return _Table(out_vars, rows)
        case Exists(var) | Forall(var):
            t = kids[0]
            if var not in t.vars:
                # vacuous over a nonempty universe
                return _Table(t.vars, set(t.rows))
            keep = tuple(v for v in t.vars if v != var)
            drop = t.vars.index(var)
            if isinstance(node, Exists):
                return _Table(keep, {row[:drop] + row[drop + 1 :] for row in t.rows})
            counts: dict[Row, int] = {}
            for row in t.rows:
                key = row[:drop] + row[drop + 1 :]
                counts[key] = counts.get(key, 0) + 1
            return _Table(keep, {key for key, cnt in counts.items() if cnt == g.n})
        case _:  # Not
            return _complement(kids[0], g.n)


def evaluate_free_with_stats(
    g: ColoredGraph, f: Formula
) -> tuple[SatisfyingSet, EvalStats]:
    stats = EvalStats()

    def leave(node: Formula, kids: Sequence[_Table], _env: None) -> _Table:
        t = _table(node, kids, g)
        stats.tuples_touched += len(t.rows)
        return t

    table = fold(f, leave)
    return SatisfyingSet(table.vars, frozenset(table.rows)), stats


def evaluate_free(g: ColoredGraph, f: Formula) -> SatisfyingSet:
    """All assignments of vertices to the free variables of ``f`` that
    satisfy it on ``g``."""
    sat, _ = evaluate_free_with_stats(g, f)
    return sat


def model_check(g: ColoredGraph, sentence: Formula) -> bool:
    """Whether the nonempty colored graph ``g`` satisfies the sentence."""
    require_sentence(sentence)
    return evaluate_free(g, sentence).holds


def satisfies(
    g: ColoredGraph, f: Formula, assignment: Mapping[Var, int]
) -> bool:
    """Whether ``assignment`` (covering the free variables) satisfies ``f``."""
    sat = evaluate_free(g, f)
    missing = set(sat.variables) - set(assignment)
    if missing:
        raise ValueError(f"assignment misses {sorted(str(v) for v in missing)}")
    row = tuple(assignment[v] for v in sat.variables)
    return row in sat.rows
