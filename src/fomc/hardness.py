"""Reduction machinery from arbitrary graphs to paths.

The pieces, bottom up:

* ``walk_formula(k, perm)``: a three-free-variable formula asserting a
  length-k walk from a to c through b whose steps never immediately
  backtrack. It recurses through a fixed rotation of the four variable
  slots so the whole family fits in four variable names.
* ``distance_formula(k)``: on paths, non-backtracking walks are simple,
  so existentially closing the walk's second vertex characterizes "the
  distance between x1 and x2 is exactly k". Linear size in k.
* ``edge_encoding_formula(g, ordering)``: hardcodes the adjacency matrix
  of g against an n-vertex path: with x1 pinned to a path endpoint, the
  i-th vertex of the ordering is represented by the path vertex at
  distance i-1 from x1. One disjunct per ordered adjacent pair, size
  cubic in n.
* ``reduce_to_path(g, sentence)``: rewrites a sentence about g into one
  about the bare n-vertex path. Quantifiers are renamed so depth d binds
  x_{d+1}, adjacency atoms become renamed copies of the edge encoding,
  color atoms become renamed copies of ``color_encoding_formula`` (a
  disjunction over the path positions whose vertex has the color), and
  the result is wrapped in "there is an endpoint x1" with a
  degree-one guard. The output uses at most max(q+1, 4) variable names,
  where q is the quantifier rank of the input.

``cross_validate`` runs both sides through the evaluator and reports
whether they agree.
"""

from __future__ import annotations

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

Perm4 = tuple[int, int, int, int]

IDENTITY: Perm4 = (1, 2, 3, 4)
#: Slot rotation applied at each unfolding step of the walk formula.
STEP_ROTATION: Perm4 = (2, 4, 3, 1)
#: Slot arrangement that turns the walk family into the distance family.
DISTANCE_SLOTS: Perm4 = (1, 3, 2, 4)


def compose(outer: Perm4, inner: Perm4) -> Perm4:
    return tuple(outer[inner[i] - 1] for i in range(4))  # type: ignore[return-value]


def _check_perm(perm: Perm4) -> None:
    if sorted(perm) != [1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 1..4: {perm}")


def walk_formula(k: int, perm: Perm4 = IDENTITY) -> Formula:
    """Free variables x_{perm(1)}, x_{perm(2)}, x_{perm(3)}: there is a
    walk (w0, w1, ..., wk) with w0, w1 at the first two slots and wk at
    the third, never stepping straight back (w_{i-1} != w_{i+1})."""
    _check_perm(perm)
    if k < 1:
        raise ValueError("walk length must be at least 1")
    a, b, c, d = (Var(i) for i in perm)
    if k == 1:
        return And((Adj(a, b), Eq(b, c)))
    inner = walk_formula(k - 1, compose(perm, STEP_ROTATION))
    return And(
        (Adj(a, b), Exists(d, And((Not(Eq(a, d)), Adj(b, d), inner))))
    )


def distance_formula(k: int) -> Formula:
    """On any path, satisfied by the vertex pairs (x1, x2) at distance
    exactly ``k``. Uses at most the four variables x1..x4; linear size."""
    if k < 0:
        raise ValueError("distance must be nonnegative")
    if k == 0:
        return Eq(Var(1), Var(2))
    return Exists(Var(3), walk_formula(k, DISTANCE_SLOTS))


def edge_encoding_formula(
    g: ColoredGraph, ordering: tuple[int, ...] | None = None
) -> Formula:
    """Free variables x1, x2, x3: with x1 a path endpoint, holds of
    (p, u, v) exactly when the vertices encoded by u and v are adjacent
    in ``g``.

    The i-th vertex of ``ordering`` (default: ascending ids) is encoded
    as the path vertex at distance i-1 from the endpoint, so the i=1
    vertex is the endpoint itself. An edgeless graph yields the
    canonical false formula.
    """
    order = ordering if ordering is not None else tuple(g.vertices)
    if sorted(order) != list(g.vertices):
        raise ValueError("ordering must be a permutation of the vertices")
    position = {v: i for i, v in enumerate(order, start=1)}
    swap_23 = {Var(2): Var(3), Var(3): Var(2)}
    disjuncts = []
    for i, u in enumerate(order, start=1):
        for j, v in enumerate(order, start=1):
            if g.has_edge(u, v):
                disjuncts.append(
                    And(
                        (
                            distance_formula(i - 1),
                            rename_variables(distance_formula(j - 1), swap_23),
                        )
                    )
                )
    if not disjuncts:
        return canonical_false(Var(1))
    return disjunction(disjuncts)


def color_encoding_formula(
    g: ColoredGraph, color: int, ordering: tuple[int, ...]
) -> Formula:
    """Free variables x1, x2: with x1 a path endpoint, holds of (p, u)
    exactly when the vertex encoded by u has ``color`` in ``g``.

    The encoding is the one of ``edge_encoding_formula``. When every
    vertex has the color the result is ``x2=x2``; when none has it, the
    canonical false formula.
    """
    positions = [i for i, v in enumerate(ordering) if g.color_of(v) == color]
    if len(positions) == len(ordering):
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
    ordering = tuple(g.vertices)
    encoding = edge_encoding_formula(g, ordering)

    def encode_atom(f: Formula, parts: Sequence[Formula], _env: None) -> Formula:
        match f:
            case Adj(u, v):
                if u == v:
                    # adjacency on a repeated variable is false in simple graphs
                    return canonical_false(u)
                spare = min({2, 3, 4} - {u.index, v.index})
                return rename_variables(
                    encoding, {Var(2): u, Var(3): v, Var(4): Var(spare)}
                )
            case HasColor(k, u):
                a, b = sorted({2, 3, 4} - {u.index})[:2]
                return rename_variables(
                    color_encoding_formula(g, k, ordering),
                    {Var(2): u, Var(3): Var(a), Var(4): Var(b)},
                )
        return rebuild(f, parts)

    body = fold(normalized, encode_atom)
    endpoint_guard = Exists(
        Var(2), Forall(Var(3), Implies(Adj(Var(1), Var(3)), Eq(Var(2), Var(3))))
    )
    psi = Exists(Var(1), And((body, endpoint_guard)))
    return ReductionOutput(path=gen_path(g.n), sentence=psi, ordering=ordering)


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
