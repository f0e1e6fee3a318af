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
  about the bare n-vertex path, in one fold. Quantifiers are renamed so
  depth d binds x_{d+1}; each adjacency atom becomes the edge encoding
  and each color atom ``color_encoding_formula`` (a disjunction over
  the path positions whose vertex has the color), each built directly
  under the names the atom ends up with, so no encoding is renamed
  after it is built. The result is wrapped in "there is an endpoint x1"
  with a degree-one guard. The output uses at most max(q+1, 4) variable
  names, where q is the quantifier rank of the input.

Every builder takes the variable names it is to use, with x2, x3, x4 as
the defaults. Every formula is built by a loop, so no size of g meets
the Python recursion limit here; formulas are immutable, so a formula
that occurs more than once in an output is built once and shared.

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
    require_sentence,
)
from .graphs import ColoredGraph, _require_integer, gen_path


def distance_formula(
    k: int, target: Var = Var(2), a: Var = Var(3), b: Var = Var(4)
) -> Formula:
    """On any path, satisfied by the vertex pairs (x1, ``target``) at
    distance exactly ``k``. Uses only x1, ``target``, ``a`` and ``b``;
    linear size.

    The formula asserts a walk x1 = w0, w1, ..., wk = target with
    w_{i-1} != w_{i+1}. Step i moves from one vertex to the next and
    binds the one after, named by the window (x1, a, b) rotated i places
    to the left; the name two steps back is the one reused, and ``a`` is
    bound outermost.
    """
    _require_integer("distance", k)
    if k < 0:
        raise ValueError("distance must be nonnegative")
    if k == 0:
        return Eq(Var(1), target)
    window = (Var(1), a, b)

    def step(i: int) -> tuple[Var, Var, Var]:
        return window[i % 3], window[(i + 1) % 3], window[(i + 2) % 3]

    p, q, _ = step(k - 1)
    walk: Formula = And((Adj(p, q), Eq(q, target)))
    for i in reversed(range(k - 1)):
        p, q, d = step(i)
        walk = And((Adj(p, q), Exists(d, And((Not(Eq(p, d)), Adj(q, d), walk)))))
    return Exists(a, walk)


def edge_encoding_formula(
    g: ColoredGraph, u: Var = Var(2), v: Var = Var(3), spare: Var = Var(4)
) -> Formula:
    """Free variables x1, ``u``, ``v``: with x1 a path endpoint, holds of
    (p, u, v) exactly when the vertices encoded by u and v are adjacent
    in ``g``. ``spare`` is the fourth name the distance walks bind.

    Vertex i is encoded as the path vertex at distance i-1 from the
    endpoint, so vertex 1 is the endpoint itself. An edgeless graph
    yields the canonical false formula.
    """
    if not g.edge_lo.size:
        return canonical_false(Var(1))
    lo, hi = g.edge_lo.tolist(), g.edge_hi.tolist()
    ends = {*lo, *hi}
    at_u = {w: distance_formula(w - 1, u, v, spare) for w in ends}
    at_v = {w: distance_formula(w - 1, v, u, spare) for w in ends}
    arcs = sorted([*zip(lo, hi), *zip(hi, lo)])
    return disjunction(And((at_u[s], at_v[t])) for s, t in arcs)


def color_encoding_formula(
    g: ColoredGraph, color: int, u: Var = Var(2), a: Var = Var(3), b: Var = Var(4)
) -> Formula:
    """Free variables x1, ``u``: with x1 a path endpoint, holds of (p, u)
    exactly when the vertex encoded by u has ``color`` in ``g``. The
    distance walks bind ``a`` and ``b``.

    The encoding is the one of ``edge_encoding_formula``. When every
    vertex has the color the result is ``u=u``; when none has it, the
    canonical false formula.
    """
    positions = [v - 1 for v in g.vertices if g.color_of(v) == color]
    if len(positions) == g.n:
        return Eq(u, u)
    if not positions:
        return canonical_false(u)
    return disjunction(distance_formula(i, u, a, b) for i in positions)


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
    ``sentence``. Needs at least three vertices.

    The sentence is walked once, by the renaming fold. A free variable
    shows up there as a name with no binder in scope, and is refused with
    ``require_sentence``'s ``ValueError``; on fewer than three vertices
    that error still comes before the size error."""
    if g.n < 3:
        require_sentence(sentence)
        raise ValueError("the reduction needs a graph on at least 3 vertices")

    # one encoding per distinct atom, shared by all its occurrences; the
    # walks bind the lowest of x2, x3, x4 that the atom leaves free
    @functools.cache
    def adjacency(u: Var, v: Var) -> Formula:
        if u == v:
            # adjacency on a repeated variable is false in simple graphs
            return canonical_false(u)
        spare = min({2, 3, 4} - {u.index, v.index})
        return edge_encoding_formula(g, u, v, Var(spare))

    @functools.cache
    def coloring(k: int, u: Var) -> Formula:
        a, b = sorted({2, 3, 4} - {u.index})[:2]
        return color_encoding_formula(g, k, u, Var(a), Var(b))

    # Quantifiers are renamed so that depth d binds x_{d+1}; every atom
    # then mentions only x2..x_{q+1}. Plain simultaneous renaming cannot
    # always reach this form (a rank-q sentence may use more than q names
    # across parallel branches), so the fold carries the nesting depth and
    # the new name of each variable in scope.
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
                return adjacency(names[u], names[v])
            case Eq(u, v):
                return Eq(names[u], names[v])
            case HasColor(k, v):
                return coloring(k, names[v])
            case Exists() | Forall():
                return type(f)(Var(depth + 2), parts[0])
        return rebuild(f, parts)

    try:
        body = fold(sentence, leave, enter, (0, {}))
    except KeyError:  # a name with no binder in scope
        require_sentence(sentence)
        raise
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
