"""Reduction machinery from arbitrary graphs to paths.

The pieces, bottom up:

* ``distance_formula(k)``: on any path, holds of the pairs (x1, x2) at
  distance exactly k. It asserts a length-k walk from x1 to x2 whose
  steps never immediately backtrack; on paths such walks are simple.
  Each step names its two endpoints and the next vertex from a window
  of three variables that rotates by one place per step, so the whole
  family fits in four variable names. Linear size in k.
* ``edge_encoding_formula(g)``: hardcodes the adjacency matrix of g
  against an n-vertex path: with x1 pinned to a path endpoint, vertex i
  of g is represented by the path vertex at distance i-1 from x1. One
  disjunct per ordered adjacent pair, size cubic in n.
* ``reduce_to_path(g, sentence)``: rewrites a sentence about g into one
  about the bare n-vertex path. Quantifiers are renamed so depth d binds
  x_{d+1}, adjacency atoms become renamed copies of the edge encoding,
  color atoms become renamed copies of ``color_encoding_formula`` (a
  disjunction over the path positions whose vertex has the color), and
  the result is wrapped in "there is an endpoint x1" with a
  degree-one guard. The output uses at most max(q+1, 4) variable names,
  where q is the quantifier rank of the input.

Every formula is built by a loop, so no size of g meets the Python
recursion limit here; formulas are immutable, so copies that occur more
than once are built once and shared.

``cross_validate`` runs both sides through the evaluator and reports
whether they agree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .evaluator import model_check
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
    Var,
    canonical_false,
    disjunction,
    fold,
    rebuild,
    rename_variables,
    require_sentence,
)
from .graphs import ColoredGraph, gen_path


def distance_formula(k: int) -> Formula:
    """On any path, satisfied by the vertex pairs (x1, x2) at distance
    exactly ``k``. Uses at most the four variables x1..x4; linear size.

    The formula asserts a walk x1 = w0, w1, ..., wk = x2 with
    w_{i-1} != w_{i+1}. Step i moves from a to b and binds the next
    vertex d, where (a, b, d) is the window (x1, x3, x4) rotated i
    places to the left; the name two steps back is the one reused.
    """
    if k < 0:
        raise ValueError("distance must be nonnegative")
    if k == 0:
        return Eq(Var(1), Var(2))
    window = (Var(1), Var(3), Var(4))

    def step(i: int) -> tuple[Var, Var, Var]:
        return window[i % 3], window[(i + 1) % 3], window[(i + 2) % 3]

    a, b, _ = step(k - 1)
    walk: Formula = And((Adj(a, b), Eq(b, Var(2))))
    for i in reversed(range(k - 1)):
        a, b, d = step(i)
        walk = And((Adj(a, b), Exists(d, And((Not(Eq(a, d)), Adj(b, d), walk)))))
    return Exists(Var(3), walk)


def edge_encoding_formula(g: ColoredGraph) -> Formula:
    """Free variables x1, x2, x3: with x1 a path endpoint, holds of
    (p, u, v) exactly when the vertices encoded by u and v are adjacent
    in ``g``.

    Vertex i is encoded as the path vertex at distance i-1 from the
    endpoint, so vertex 1 is the endpoint itself. An edgeless graph
    yields the canonical false formula.
    """
    if not g.edges:
        return canonical_false(Var(1))
    at_x2 = {v: distance_formula(v - 1) for e in g.edges for v in e}
    swap_23 = {Var(2): Var(3), Var(3): Var(2)}
    at_x3 = {v: rename_variables(f, swap_23) for v, f in at_x2.items()}
    arcs = sorted(arc for u, v in g.edges for arc in ((u, v), (v, u)))
    return disjunction(And((at_x2[u], at_x3[v])) for u, v in arcs)


def color_encoding_formula(g: ColoredGraph, color: int) -> Formula:
    """Free variables x1, x2: with x1 a path endpoint, holds of (p, u)
    exactly when the vertex encoded by u has ``color`` in ``g``.

    The encoding is the one of ``edge_encoding_formula``. When every
    vertex has the color the result is ``x2=x2``; when none has it, the
    canonical false formula.
    """
    positions = [v - 1 for v in g.vertices if g.color_of(v) == color]
    if len(positions) == g.n:
        return Eq(Var(2), Var(2))
    if not positions:
        return canonical_false(Var(2))
    return disjunction(distance_formula(i) for i in positions)


def _index_quantifiers_by_depth(sentence: Formula) -> Formula:
    """Alpha-rename so the quantifier at nesting depth d binds x_{d+1}.

    Every atom then only mentions x2..x_{q+1} for q the quantifier rank.
    Plain simultaneous renaming cannot always reach this form (a rank-q
    sentence may use more than q names across parallel branches), so the
    rewrite walks the tree with an explicit binder environment: the
    nesting depth and the new name of each variable in scope.
    """
    Env = tuple[int, dict[Var, Var]]

    def enter(f: Formula, env: Env) -> Env:
        if not isinstance(f, (Exists, Forall)):
            return env
        depth, names = env
        return depth + 1, {**names, f.var: Var(depth + 2)}

    def leave(f: Formula, parts: Sequence[Formula], env: Env) -> Formula:
        depth, names = env
        match f:
            case Adj(u, v):
                return Adj(names[u], names[v])
            case Eq(u, v):
                return Eq(names[u], names[v])
            case HasColor(color, v):
                return HasColor(color, names[v])
            case Exists() | Forall():
                return type(f)(Var(depth + 2), parts[0])
        return rebuild(f, parts)

    return fold(sentence, leave, enter, (0, {}))


@dataclass(frozen=True)
class ReductionOutput:
    """The path instance equivalent to a graph instance.

    ``ordering`` records which graph vertex each path position encodes.
    """

    path: ColoredGraph
    sentence: Formula
    ordering: tuple[int, ...]


def reduce_to_path(g: ColoredGraph, sentence: Formula) -> ReductionOutput:
    """Build the path-and-sentence instance equivalent to ``g`` and
    ``sentence``. Needs at least three vertices."""
    require_sentence(sentence)
    if g.n < 3:
        raise ValueError("the reduction needs a graph on at least 3 vertices")
    normalized = _index_quantifiers_by_depth(sentence)
    encoding = edge_encoding_formula(g)

    # one renamed copy per distinct atom, shared by all its occurrences
    @functools.cache
    def adjacency(u: Var, v: Var) -> Formula:
        spare = min({2, 3, 4} - {u.index, v.index})
        return rename_variables(encoding, {Var(2): u, Var(3): v, Var(4): Var(spare)})

    @functools.cache
    def coloring(k: int, u: Var) -> Formula:
        a, b = sorted({2, 3, 4} - {u.index})[:2]
        return rename_variables(
            color_encoding_formula(g, k), {Var(2): u, Var(3): Var(a), Var(4): Var(b)}
        )

    def encode_atom(f: Formula, parts: Sequence[Formula], _env: None) -> Formula:
        match f:
            case Adj(u, v):
                if u == v:
                    # adjacency on a repeated variable is false in simple graphs
                    return canonical_false(u)
                return adjacency(u, v)
            case HasColor(k, u):
                return coloring(k, u)
        return rebuild(f, parts)

    body = fold(normalized, encode_atom)
    endpoint_guard = Exists(
        Var(2), Forall(Var(3), Implies(Adj(Var(1), Var(3)), Eq(Var(2), Var(3))))
    )
    psi = Exists(Var(1), And((body, endpoint_guard)))
    return ReductionOutput(
        path=gen_path(g.n), sentence=psi, ordering=tuple(g.vertices)
    )


@dataclass(frozen=True)
class CrossCheck:
    lhs: bool
    rhs: bool

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs


def cross_validate(g: ColoredGraph, sentence: Formula) -> CrossCheck:
    """Evaluate the sentence on the graph and the reduced sentence on
    the path; the two verdicts must match."""
    out = reduce_to_path(g, sentence)
    return CrossCheck(
        lhs=model_check(g, sentence), rhs=model_check(out.path, out.sentence)
    )
