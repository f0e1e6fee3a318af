"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own algorithms: the evaluator
oracle expands quantifiers directly instead of building relation
tables, the tree-depth oracle recurses on vertex subsets without
reconstructing a witness, and isomorphism checks are plain backtracking
searches. The pebble game is played over its dense position space,
independently of the type refinement that decides equivalence in
``fomc.pebble``. The decomposition pipelines are refereed by
translating the sentence through the interpretation that recovers the
graph from its tree encoding, where production evaluates the original
sentence on an induced subgraph. The formula reader that builds its whole
token list first referees the streaming one. The evaluator that built its
tables through one ``fold`` of ``_table`` referees the evaluator's own
loop, and the tree-model check that climbs the tree once per leaf pair
referees the one that checks each pair of leaf classes once. The tree
kernel that sorts its vertices by depth and counts each vertex's child
classes in a dict referees the one that visits level buckets, and the
depth pass that climbs from every vertex referees the one that takes one
step when a parent's depth is known. The restriction that rebuilds its
tree from relabelled dicts referees the one that builds the tuples in one
pass. The forest encoding that climbs every vertex's ancestor chain and
asks the graph for each ancestor's edge referees the one that reads its
adjacency bits off the per-edge validation climb. The interpretation
that reads the evaluator's satisfying rows into sets and dicts referees
the one that works on its tables. The type refinement that builds the
contexts of every slot, pads them to the widest graph and interns the
types once more to find them stable referees the one that builds slot
0's contexts alone and stops as soon as its answer is fixed, and the
slot-0 refinement that spreads every key column over all graphs' tuples
and deduplicates each graph's contexts on their own referees, round by
round, the one that refines graphs of one size as one block. The flip and
the recipe build that toggle pairs in a set of edge tuples referee the
ones that XOR edge keys in arrays. The greedy forest pass, which roots
each piece at the middle of its double-sweep path breadth first and never
backtracks, referees the first descent of the tree-depth search.

The module also holds the suite's seeded generators (random trees,
tree-models and graphs of bounded tree-depth), the tree-from-graph
rooting, the forest and tree-model file writers and the sweep that
checks the graph routes' kernels. These are not independent referees:
they build and write inputs or call the package, and they live here
because no production path calls them.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from collections import deque
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Collection, Iterable, NamedTuple, Sequence, TextIO
from unittest import mock

import numpy as np

from fomc.evaluator import EvalStats, SatisfyingSet, _require_cells, evaluate_free, model_check
from fomc.formulas import (
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
    ParseError,
    Var,
    _BINARY,
    _QUANTIFIERS,
    _PREC_UNARY,
    _error,
    canonical_false,
    conjunction,
    disjunction,
    fold,
)
from fomc import interpret, kernel, pebble
from fomc.graphs import ColoredGraph, Edge, PartitionFlip, SCCombine, SCLeaf, SCRecipe
from fomc.interpret import (
    X1,
    X2,
    InterpretationScheme,
    _color_set_atom,
    _encoded_color,
    _encoded_palette_size,
    _tree_model_host,
    backwards_translate,
    depth_edge_interpretation,
    encode_elimination_forest,
    mc_tree,
)
from fomc.kernel import KernelResult, kernel_size_bound_capped
from fomc.randgen import random_formula
from fomc.trees import (
    EliminationForest,
    RootedColoredTree,
    TreeModel,
    _deepest_chain,
    _neighbourhoods,
    _split,
    compute_elimination_forest,
    write_tree,
)


def refusal_path(g: ColoredGraph, k: int, message: str) -> list[int]:
    """The vertices that a tree-depth refusal's ``message`` lists after
    its last colon, checked to be a path of ``g`` on at least 2^k
    distinct vertices, which has tree-depth above k."""
    path = [int(v) for v in message.rsplit(": ", 1)[1].split()]
    nbrs = neighborhoods(g)
    assert all(v in nbrs[u] for u, v in zip(path, path[1:])), path
    assert len(set(path)) == len(path) >= 2**k, path
    return path


def greedy_forest(g: ColoredGraph, k: int) -> EliminationForest | list[int] | None:
    """An elimination forest of height at most k found without search; a
    path of g with at least 2^k vertices, which certifies tree-depth above
    k; or None when the pass gives up.

    Each connected piece, every top-level one first, is rooted at the
    middle of its double-sweep path, and the components it leaves become
    pieces one level down; no root is undone. A path of l vertices needs
    ``l.bit_length()`` levels, so the pass gives up as soon as a piece's
    path needs more levels than are left at its depth. A top-level piece's
    path is a path of g: when it alone needs more than k levels, it is
    returned.
    """
    nb = _neighbourhoods(g, k)
    parents = [0] * (g.n + 1)
    pending = deque((comp, 0, k) for comp in _split((1 << g.n + 1) - 2, nb))
    while pending:
        sub, above, room = pending.popleft()  # room: the levels left for sub
        if sub & (sub - 1) == 0:
            path = [sub.bit_length() - 1]
        else:
            far = _deepest_chain((sub & -sub).bit_length() - 1, sub, nb)[-1]
            path = _deepest_chain(far, sub, nb)
        if len(path).bit_length() > room:
            return path if room == k else None
        root = path[(len(path) - 1) // 2]
        parents[root] = above
        pending.extend((comp, root, room - 1) for comp in _split(sub & ~(1 << root), nb))
    return EliminationForest(parents=tuple(parents[1:]))


def neighborhoods(g: ColoredGraph) -> list[set[int]]:
    """The neighbors of each vertex of ``g``, indexed by vertex (slot 0 unused)."""
    nbrs: list[set[int]] = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def adjacent(g: ColoredGraph, u: int, v: int) -> bool:
    """Whether an edge of ``g`` joins ``u`` and ``v``."""
    return (u, v) in g.edges or (v, u) in g.edges


def recursive_model_check(
    g: ColoredGraph, f: Formula, env: dict[Var, int] | None = None
) -> bool:
    """Naive semantics by direct recursion over the formula."""
    env = env or {}
    match f:
        case Adj(u, v):
            return adjacent(g, env[u], env[v])
        case Eq(u, v):
            return env[u] == env[v]
        case HasColor(color, v):
            return g.color_of(env[v]) == color
        case Not(child):
            return not recursive_model_check(g, child, env)
        case And(children):
            return all(recursive_model_check(g, ch, env) for ch in children)
        case Or(children):
            return any(recursive_model_check(g, ch, env) for ch in children)
        case Implies(lhs, rhs):
            return (not recursive_model_check(g, lhs, env)) or recursive_model_check(
                g, rhs, env
            )
        case Exists(var, body):
            return any(
                recursive_model_check(g, body, {**env, var: a}) for a in g.vertices
            )
        case Forall(var, body):
            return all(
                recursive_model_check(g, body, {**env, var: a}) for a in g.vertices
            )
    raise TypeError(f"not a formula: {f!r}")


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


def fold_evaluate(g: ColoredGraph, f: Formula) -> tuple[SatisfyingSet, EvalStats]:
    """``evaluate_free_with_stats`` as one ``fold`` of ``_table``, whose
    context builds the graph's arrays when an atom first reads them."""
    ctx = _Context(g)
    axes, cells = fold(f, _table, env=ctx)
    return SatisfyingSet(tuple(map(Var, axes)), cells), EvalStats(ctx.cells)


def distinct_subformulas(f) -> list:
    """Node objects reachable from ``f``, each listed once by identity."""
    seen, nodes, stack = set(), [], [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        for field in ("child", "lhs", "rhs", "body"):
            if hasattr(node, field):
                stack.append(getattr(node, field))
        stack.extend(getattr(node, "children", ()))
    return nodes


def distinct_nodes(f) -> int:
    """Node objects reachable from ``f``, each counted once by identity."""
    return len(distinct_subformulas(f))


def bfs_distances(g: ColoredGraph, source: int) -> dict[int, int]:
    adj = neighborhoods(g)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def treedepth_oracle(g: ColoredGraph) -> int:
    """Minimum elimination-forest height by plain subset recursion."""

    adj = neighborhoods(g)

    @lru_cache(maxsize=None)
    def td(vertices: frozenset[int]) -> int:
        if not vertices:
            return 0
        comps = _components(vertices, adj)
        if len(comps) > 1:
            return max(td(c) for c in comps)
        if len(vertices) == 1:
            return 1
        return 1 + min(td(vertices - {v}) for v in vertices)

    return td(frozenset(g.vertices))


def _components(vertices: frozenset[int], adj) -> list[frozenset[int]]:
    left = set(vertices)
    out = []
    while left:
        seed = left.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in left:
                    left.remove(w)
                    comp.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def children(t: RootedColoredTree) -> tuple[tuple[int, ...], ...]:
    """Children lists indexed by vertex (slot 0 unused), ids ascending."""
    kids: list[list[int]] = [[] for _ in range(t.n + 1)]
    for v, p in enumerate(t.parents, start=1):
        if p:
            kids[p].append(v)
    return tuple(map(tuple, kids))


def rooted_trees_isomorphic(a: RootedColoredTree, b: RootedColoredTree) -> bool:
    """Color-preserving rooted isomorphism by backtracking on children."""
    if a.n != b.n:
        return False
    below_a, below_b = children(a), children(b)

    def match(u: int, v: int) -> bool:
        if a.color_of(u) != b.color_of(v):
            return False
        ka, kb = below_a[u], below_b[v]
        if len(ka) != len(kb):
            return False
        return _match_children(list(ka), list(kb), match)

    return match(a.root, b.root)


def _match_children(ka: list[int], kb: list[int], match) -> bool:
    if not ka:
        return True
    head, rest = ka[0], ka[1:]
    for i, cand in enumerate(kb):
        if match(head, cand) and _match_children(rest, kb[:i] + kb[i + 1 :], match):
            return True
    return False


def canonical_code(t: RootedColoredTree) -> bytes:
    """Canonical form: equal codes exactly for color-preserving rooted
    isomorphs. The code of a vertex is its color followed by the sorted
    codes of its children."""
    return _code_below(t, children(t), t.root)


def _code_below(t: RootedColoredTree, below: tuple[tuple[int, ...], ...], v: int) -> bytes:
    kids = sorted(_code_below(t, below, w) for w in below[v])
    return b"(%d:" % t.color_of(v) + b"".join(kids) + b")"


def graphs_isomorphic(a: ColoredGraph, b: ColoredGraph) -> bool:
    """Brute force over vertex bijections; fine for n <= 7."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if sorted(a.colors) != sorted(b.colors):
        return False
    verts = list(b.vertices)
    for perm in itertools.permutations(verts):
        mapping = {u: perm[u - 1] for u in a.vertices}
        if any(a.color_of(u) != b.color_of(mapping[u]) for u in a.vertices):
            continue
        if all(adjacent(b, mapping[u], mapping[v]) for u, v in a.edges):
            return True
    return False


# ---------------------------------------------------------------------------
# The tokenize-then-parse formula reader, the referee of
# ``fomc.formulas.parse_formula``: it builds the whole token list before the
# operator-stack loop reads it, and its ``\d`` also takes non-ASCII digits.

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<adj>adj\b)
    | (?P<exists>exists\b)
    | (?P<forall>forall\b)
    | (?P<var>x\d+)
    | (?P<color>C\d+)
    | (?P<arrow>->)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<not>!)
    | (?P<and>&)
    | (?P<or>\|)
    | (?P<eq>=)
    | (?P<comma>,)
    | (?P<dot>\.)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)
_INDEXED = {"var": "variable", "color": "color"}


def _tokenize(text: str) -> list[tuple[str, int | None, int]]:
    """(kind, index of a variable or color else None, offset) per token,
    ending with an ``eof`` token."""
    tokens: list[tuple[str, int | None, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind == "ws":
            continue
        if kind in _INDEXED:
            value = int(m.group()[1:])
            if not value:
                raise _error(text, pos, f"{_INDEXED[kind]} index 0 is not allowed")
            tokens.append((kind, value, pos))
        elif kind == "bad":
            raise _error(text, pos, f"unexpected character {text[pos]!r}")
        else:
            tokens.append((kind, None, pos))
    tokens.append(("eof", None, len(text)))
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse one formula with an operator-stack loop, so depth costs no stack.

    ``frames`` holds the open constructs as (precedence, index of their
    first operand, builder). Quantifiers (-1) and groups (-2, the whole
    text being one) rank below every operator, so no operator closes them:
    a quantifier body runs to the next unmatched ``)`` or to the end.
    ``&`` and ``|`` extend an open frame of their own precedence, so a
    chain is one n-ary node; ``->`` always opens one, so it nests right.
    """
    tokens = iter(_tokenize(text))
    operands: list[Formula] = []
    frames: list[tuple[int, int, Callable | None]] = [(-2, 0, None)]
    parens = 0

    def expect(kind: str, what: str) -> int | None:
        got, value, pos = next(tokens)
        if got != kind:
            raise _error(text, pos, f"expected {what}")
        return value

    while True:
        # An operand is expected: prefix constructs open frames, an atom ends it.
        kind, value, pos = next(tokens)
        if kind == "not":
            frames.append((_PREC_UNARY, len(operands), Not))
            continue
        if kind in _QUANTIFIERS:
            var = Var(expect("var", "a variable"))
            expect("dot", "'.' after the quantified variable")
            frames.append((-1, len(operands), partial(_QUANTIFIERS[kind], var)))
            continue
        if kind == "lparen":
            frames.append((-2, len(operands), None))
            parens += 1
            continue
        if kind == "adj":
            expect("lparen", "'(' after adj")
            u = Var(expect("var", "a variable"))
            expect("comma", "','")
            operands.append(Adj(u, Var(expect("var", "a variable"))))
            expect("rparen", "')'")
        elif kind == "color":
            expect("lparen", "'(' after the color name")
            operands.append(HasColor(value, Var(expect("var", "a variable"))))
            expect("rparen", "')'")
        elif kind == "var":
            expect("eq", "'='")
            operands.append(Eq(Var(value), Var(expect("var", "a variable"))))
        else:
            raise _error(text, pos, "expected a formula")
        # An operand is complete: close groups until an operator follows.
        while True:
            kind, _, pos = next(tokens)
            if kind in _BINARY:
                prec, build = _BINARY[kind]
            elif kind == ("rparen" if parens else "eof"):
                prec = -2
            else:
                message = "expected ')'" if parens else "trailing input after the formula"
                raise _error(text, pos, message)
            while frames[-1][0] > prec:
                _, start, close = frames.pop()
                operands[start:] = [close(*operands[start:])]
            if prec >= 0:
                if kind == "arrow" or frames[-1][0] != prec:
                    frames.append((prec, len(operands) - 1, build))
                break
            frames.pop()
            if not parens:
                return operands[0]
            parens -= 1


# ---------------------------------------------------------------------------
# The s-pebble game, played over the dense position space

def is_s_partial_isomorphism(
    a: ColoredGraph,
    ta: Sequence[int | None],
    b: ColoredGraph,
    tb: Sequence[int | None],
) -> bool:
    """Blanks on the same indexes and the placed pebbles inducing a
    color- and adjacency-preserving partial isomorphism."""
    if len(ta) != len(tb):
        raise ValueError("pebble tuples must have equal length")
    for x, y in zip(ta, tb):
        if (x is None) != (y is None):
            return False
        if x is not None and not 1 <= x <= a.n:
            raise ValueError(f"vertex {x} outside the first graph")
        if y is not None and not 1 <= y <= b.n:
            raise ValueError(f"vertex {y} outside the second graph")
        if x is not None and a.color_of(x) != b.color_of(y):
            return False
    placed = [(x, y) for x, y in zip(ta, tb) if x is not None]
    for i in range(len(placed)):
        for j in range(i + 1, len(placed)):
            (x1, y1), (x2, y2) = placed[i], placed[j]
            if (x1 == x2) != (y1 == y2):
                return False
            if adjacent(a, x1, x2) != adjacent(b, y1, y2):
                return False
    return True


def _slot_ok(a: ColoredGraph, b: ColoredGraph) -> np.ndarray:
    """(n+1, m+1) mask: blank pairs with blank, colors match otherwise."""
    ok = np.zeros((a.n + 1, b.n + 1), dtype=bool)
    ok[0, 0] = True
    ca = np.asarray(a.colors)
    cb = np.asarray(b.colors)
    ok[1:, 1:] = ca[:, None] == cb[None, :]
    return ok


def _pair_ok(a: ColoredGraph, b: ColoredGraph) -> np.ndarray:
    """(n+1, m+1, n+1, m+1) mask over (a_i, b_i, a_j, b_j): the two
    pebble pairs agree on equality and adjacency. Entries touching a
    blank are vacuously true; slot alignment is handled elsewhere."""
    n, m = a.n, b.n
    eq_a = np.eye(n, dtype=bool)
    eq_b = np.eye(m, dtype=bool)
    adj_a = np.zeros((n, n), dtype=bool)
    for u, v in a.edges:
        adj_a[u - 1, v - 1] = adj_a[v - 1, u - 1] = True
    adj_b = np.zeros((m, m), dtype=bool)
    for u, v in b.edges:
        adj_b[u - 1, v - 1] = adj_b[v - 1, u - 1] = True
    ok = np.ones((n + 1, m + 1, n + 1, m + 1), dtype=bool)
    ok[1:, 1:, 1:, 1:] = (
        eq_a[:, None, :, None] == eq_b[None, :, None, :]
    ) & (adj_a[:, None, :, None] == adj_b[None, :, None, :])
    return ok


def _expand(arr: np.ndarray, axes: tuple[int, ...], ndim: int) -> np.ndarray:
    shape = [1] * ndim
    for size, ax in zip(arr.shape, axes):
        shape[ax] = size
    return arr.reshape(shape)


def pebble_game(
    a: ColoredGraph, b: ColoredGraph, s: int
) -> tuple[bool, int | None]:
    """(start position alive, round in which it died).

    A position is a pair of s-tuples with index 0 for a blank pebble.
    The greatest fixpoint starts from every position whose tuples align
    their blanks and induce a partial isomorphism, then deletes, round
    by round and simultaneously, each position with a spoiler move
    (side, pebble, target vertex) that has no reply inside the surviving
    set. Dense boolean array over ((|A|+1)(|B|+1))^s positions: keep
    the inputs small.
    """
    ndim = 2 * s
    slot = _slot_ok(a, b)
    live = _expand(slot, (0, 1), ndim).copy()
    for i in range(1, s):
        live = live & _expand(slot, (2 * i, 2 * i + 1), ndim)
    if s > 1:
        pair = _pair_ok(a, b)
        for i in range(s):
            for j in range(i + 1, s):
                live = live & _expand(
                    pair, (2 * i, 2 * i + 1, 2 * j, 2 * j + 1), ndim
                )
    live = np.ascontiguousarray(live)

    start = (0,) * ndim
    death_round: int | None = None
    rounds = 0
    while True:
        rounds += 1
        new = live
        for i in range(s):
            a_ax, b_ax = 2 * i, 2 * i + 1
            sl = tuple(
                slice(1, None) if ax in (a_ax, b_ax) else slice(None)
                for ax in range(ndim)
            )
            block = live[sl]
            # spoiler plays pebble i in A: every target needs a reply
            ok_a = block.any(axis=b_ax).all(axis=a_ax)
            # spoiler plays pebble i in B
            ok_b = block.any(axis=a_ax).all(axis=b_ax - 1)
            move_ok = ok_a & ok_b
            keep = [ax for ax in range(ndim) if ax not in (a_ax, b_ax)]
            new = new & _expand(move_ok, tuple(keep), ndim)
        if death_round is None and not new[start]:
            death_round = rounds
        if np.array_equal(new, live):
            break
        live = new
    return bool(live[start]), death_round


# ---------------------------------------------------------------------------
# The column-wise type refinement, the per-round referee of
# ``fomc.pebble._refine``: the same slot-0 rounds, built graph by graph.
# Every key column is spread over all graphs' tuples as one flat array,
# and each graph's contexts are sorted and deduplicated on their own.

#: The column-wise keys are made dense before their bound reaches this.
_COLUMNWISE_KEY_LIMIT = 2**62


def _columnwise_pack(columns) -> tuple[np.ndarray, int]:
    """(an exact int64 key of the rows formed by ``(column, base)`` pairs,
    whose values lie in ``range(base)``, a bound above every key), packed
    in mixed radix and made dense wherever the next radix would take the
    bound to ``_COLUMNWISE_KEY_LIMIT``."""
    columns = iter(columns)
    first, bound = next(columns)
    key = first.astype(np.int64)
    for col, base in columns:
        if bound * base >= _COLUMNWISE_KEY_LIMIT:
            key, bound = pebble._dense(key)
            key = key.astype(np.int64)
        key *= base
        key += col
        bound *= base
    return key, bound


def _spread(blocks, sides: list[int], s: int, dtype, slot: int) -> np.ndarray:
    """One column over all graphs' tuples. Graph after graph, the tuples
    are viewed with one axis of n + 1 per slot and with slots 0 and
    ``slot`` swapped, and the graph's block is broadcast into that view."""
    axes = list(range(s))
    axes[0], axes[slot] = slot, 0
    col = np.empty(sum(m**s for m in sides), dtype)
    lo = 0
    for m, block in zip(sides, blocks):
        col[lo : lo + m**s].reshape((m,) * s).transpose(axes)[...] = block
        lo += m**s
    return col


def _atomic_columns(graphs, sides: list[int], s: int):
    """``(column, base)`` pairs over the tuples of all graphs: per slot the
    color rank (0 for the blank), then per slot pair 2 * equal + adjacent."""
    palette = sorted({col for g in graphs for col in g.colors})
    rank = {col: i for i, col in enumerate(palette, start=1)}
    lead = (-1,) + (1,) * (s - 1)  # a table over slot 0
    colors = [np.array([0, *map(rank.get, g.colors)], np.int32).reshape(lead) for g in graphs]
    for i in range(s):
        yield _spread(colors, sides, s, np.int32, i), len(rank) + 1
    if s == 1:
        return
    pairs = [np.eye(m, dtype=np.int8) * 2 for m in sides]  # equal, never adjacent
    for g, table in zip(graphs, pairs):
        table[g.edge_lo, g.edge_hi] = table[g.edge_hi, g.edge_lo] = 1
    for i, j in itertools.combinations(range(s), 2):
        # a table over slots 0 and j, spread with slots 0 and i swapped
        shapes = ([m if k in (0, j) else 1 for k in range(s)] for m in sides)
        yield _spread(map(np.reshape, pairs, shapes), sides, s, np.int8, i), 3


def _columnwise_rows(types: np.ndarray, sides: list[int], starts: list[int], s: int) -> np.ndarray:
    """One row per slot-0 context, graph after graph in tuple order: the
    distinct type keys of the tuples that put a vertex into slot 0, plus
    one, sorted after a run of zeros, padded to the widest row."""
    blocks = []
    for lo, m in zip(starts, sides):
        rows = types[lo : lo + m**s].reshape(m, -1)[1:].T.copy()
        rows.sort(axis=1)
        repeat = rows[:, 1:] == rows[:, :-1]
        rows += 1
        rows[:, 1:][repeat] = 0
        drop = int(repeat.sum(axis=1).min())
        rows.sort(axis=1)
        blocks.append(rows[:, drop:])
    width = max(block.shape[1] for block in blocks)
    out = np.zeros((sum(map(len, blocks)), width), types.dtype)
    at = 0
    for block in blocks:
        out[at : at + len(block), width - block.shape[1] :] = block
        at += len(block)
    return out


def _slot_sets(sets: list[np.ndarray], nsets: int, sides: list[int], s: int):
    """``(column, base)`` per slot i: the set id of each tuple's slot-i
    context, each graph's slot-0 ids spread with slots 0 and i swapped."""
    ids = [block.reshape((m,) * (s - 1)) for block, m in zip(sets, sides)]
    for i in range(s):
        yield _spread(ids, sides, s, sets[0].dtype, i), nsets


def columnwise_refine(graphs: Sequence[ColoredGraph], s: int):
    """Yield, round after round until the partition is stable, (each
    graph's array of slot-0 context set ids, the number of sets), as
    ``fomc.pebble._refine`` does, with no cap."""
    sides = [g.n + 1 for g in graphs]
    sizes = [m**s for m in sides]
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    contexts = list(itertools.accumulate((m ** (s - 1) for m in sides), initial=0))
    atomic = _columnwise_pack(_atomic_columns(graphs, sides, s))
    types = atomic[0]
    heads = [types[lo : lo + m ** (s - 1)] for lo, m in zip(starts, sides)]
    known = pebble._dense(np.concatenate(heads))[1]
    while True:
        rows = _columnwise_rows(types, sides, starts, s)
        sets, nsets = pebble._dense(rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel())
        sets = [sets[lo:hi] for lo, hi in itertools.pairwise(contexts)]
        yield sets, nsets
        if nsets == known:
            return
        known = nsets
        types = _columnwise_pack(itertools.chain([atomic], _slot_sets(sets, nsets, sides, s)))[0]


# ---------------------------------------------------------------------------
# The all-slot type refinement, the referee of ``fomc.pebble._refine``: each
# round builds the contexts of every slot, pads every row to the widest
# graph, interns every tuple's type as a dense id, and interns the types
# once more in the round that finds them stable. It shares the column-wise
# referee's atomic columns and key packing.

def _intern(columns) -> tuple[np.ndarray, int]:
    """(dense ids of the rows formed by ``(column, base)`` pairs, whose
    values lie in ``range(base)``, the number of distinct rows)."""
    return pebble._dense(_columnwise_pack(columns)[0])


def _all_slot_spread(table: np.ndarray, sides: list[int], s: int, axes) -> np.ndarray:
    """One column over all graphs' tuples. ``table`` holds, graph after
    graph, an array with one axis of n + 1 per slot in ``axes``; each
    tuple reads its graph's at those slots."""
    col = np.empty(sum(m**s for m in sides), table.dtype)
    lo = at = 0
    for m in sides:
        shape = [m if k in axes else 1 for k in range(s)]
        col[lo : lo + m**s].reshape((m,) * s)[...] = table[at : at + m ** len(axes)].reshape(shape)
        lo, at = lo + m**s, at + m ** len(axes)
    return col


def _all_slot_rows(types: np.ndarray, sides: list[int], starts: list[int], s: int) -> np.ndarray:
    """One row per context, slot-major, then graph-minor, then in tuple
    order: the types of the tuples that put each vertex into the open
    slot, padded to the widest graph by repeating the first."""
    rows = np.empty((s * sum(m ** (s - 1) for m in sides), max(sides) - 1), types.dtype)
    at = 0
    for i, (lo, m) in itertools.product(range(s), zip(starts, sides)):
        before, after = m**i, m ** (s - 1 - i)
        block = rows[at : at + before * after]
        lines = types[lo : lo + m**s].reshape(before, m, after)[:, 1:]
        block.reshape(before, after, -1)[..., : m - 1] = lines.transpose(0, 2, 1)
        block[:, m - 1 :] = block[:, :1]
        at += before * after
    return rows


def _all_slot_set_ids(rows: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """(dense ids of the sets of types listed by the rows of ``rows``,
    the number of distinct sets). ``rows`` is overwritten."""
    rows.sort(axis=1)
    repeat = rows[:, 1:] == rows[:, :-1]
    rows += 1
    rows[:, 1:][repeat] = 0
    width = rows.shape[1] - int(repeat.sum(axis=1).min())
    rows.sort(axis=1)
    return _intern((col, count + 1) for col in rows.T[-width:])


def all_slot_refine(
    graphs: Sequence[ColoredGraph], s: int, until_split: bool
) -> tuple[np.ndarray, int]:
    """(class id of each graph's all-blank tuple, rounds run).

    Refines until the partition is stable, or with ``until_split`` until
    the all-blank tuples no longer share one class. Every slot's contexts
    get their set ids, and a round that adds no class ends the loop.
    """
    sides = [g.n + 1 for g in graphs]
    sizes = [m**s for m in sides]
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    others = [set(range(s)) - {i} for i in range(s)]
    types, count = _intern(_atomic_columns(graphs, sides, s))
    for rounds in itertools.count(1):
        sets, nsets = _all_slot_set_ids(_all_slot_rows(types, sides, starts, s), count)
        columns = zip(sets.reshape(s, -1), others)
        slots = ((_all_slot_spread(ids, sides, s, axes), nsets) for ids, axes in columns)
        new, new_count = _intern(itertools.chain([(types, count)], slots))
        blanks = new[starts]
        if new_count == count or until_split and (blanks != blanks[0]).any():
            return blanks, rounds
        types, count = new, new_count


def all_slot_spoiler_distance(a: ColoredGraph, b: ColoredGraph, s: int) -> int | None:
    """The round of the all-slot refinement that separates the all-blank
    tuples of ``a`` and ``b``, or None when they never separate."""
    blanks, rounds = all_slot_refine([a, b], s, until_split=True)
    return None if blanks[0] == blanks[1] else rounds


def all_slot_census(graphs: Sequence[ColoredGraph], s: int) -> list[list[int]]:
    """Input indices grouped by the class of their all-blank tuple at the
    all-slot refinement's fixpoint, blocks in order of their first member."""
    blocks: dict[int, list[int]] = {}
    for idx, blank in enumerate(all_slot_refine(graphs, s, until_split=False)[0]):
        blocks.setdefault(int(blank), []).append(idx)
    return list(blocks.values())


# ---------------------------------------------------------------------------
# Decomposition pipelines by translate-then-evaluate
#
# The production pipelines evaluate the original sentence on the graph's
# induced subgraph on the kernel's kept graph vertices. The referee route
# translates the sentence through the interpretation that recovers the
# graph from its tree encoding and evaluates the translation on the
# kernel at the budget raised by the scheme's overhead.


def treemodel_host_and_scheme(
    g: ColoredGraph, tm: TreeModel
) -> tuple[RootedColoredTree, InterpretationScheme]:
    """The model tree recolored by ``interpret._tree_model_host`` and the
    interpretation that recovers ``g`` from it.

    Every positive rule entry (c1, c2, d) becomes "the two leaves carry
    model colors {c1,c2} and their tree distance is exactly d", where
    distance-d is "some common ancestor at upward distances i+j = d, and
    none closer". Upward chains reuse x4, x5 with the meeting point
    pinned at x3, so the overhead is at most 3.
    """
    host = _tree_model_host(g, tm)
    t = tm.tree
    leaves = t.leaves
    code = {}
    for v in range(1, t.n + 1):
        is_leaf = v in leaves
        comp = (
            1 if is_leaf else 0,
            g.color_of(v) if is_leaf else 0,
            t.color_of(v),
            t.depths[v - 1],
        )
        code[comp] = host.color_of(v)
    palette = sorted(code)
    x1, x2, x3, x4, x5 = (Var(i) for i in range(1, 6))

    def colors_where(pred) -> list[int]:
        return [code[comp] for comp in palette if pred(comp)]

    def at_depth(v: Var, depth: int) -> Formula:
        return _color_set_atom(v, colors_where(lambda cp: cp[3] == depth))

    def up_chain(frm: Var, start_depth: int, steps: int, to: Var) -> Formula:
        """frm sits at start_depth; to is its ancestor ``steps`` up."""
        if steps == 0:
            return Eq(frm, to)
        if steps == 1:
            return conjunction((Adj(frm, to), at_depth(to, start_depth - 1)))
        nxt = x4 if frm != x4 else x5
        return Exists(
            nxt,
            And(
                (
                    Adj(frm, nxt),
                    at_depth(nxt, start_depth - 1),
                    up_chain(nxt, start_depth - 1, steps - 1, to),
                )
            ),
        )

    def ancestor_at(v: Var, steps: int, to: Var) -> Formula:
        options = [
            conjunction((at_depth(v, d), up_chain(v, d, steps, to)))
            for d in range(steps, max(t.depths) + 1)
        ]
        return disjunction(options) if options else canonical_false(v)

    def within_distance(limit: int) -> Formula:
        meets = [
            Exists(x3, And((ancestor_at(x1, i, x3), ancestor_at(x2, total - i, x3))))
            for total in range(1, limit + 1)
            for i in range(total + 1)
        ]
        return disjunction(meets) if meets else canonical_false(x1)

    def distance_exactly(d: int) -> Formula:
        if d < 1:
            return canonical_false(x1)
        if d == 1:
            return within_distance(1)
        return And((within_distance(d), Not(within_distance(d - 1))))

    def model_color_atom(v: Var, mc: int) -> Formula:
        return _color_set_atom(
            v, colors_where(lambda cp: cp[0] == 1 and cp[2] == mc)
        )

    edge_terms = []
    for c1, c2, d, is_edge in tm.rules:
        if not is_edge:
            continue
        pair = And((model_color_atom(x1, c1), model_color_atom(x2, c2)))
        if c1 != c2:
            swapped = And((model_color_atom(x1, c2), model_color_atom(x2, c1)))
            pair = Or((pair, swapped))
        edge_terms.append(And((pair, distance_exactly(d))))
    positive = disjunction(edge_terms) if edge_terms else canonical_false(x1)
    return host, InterpretationScheme(
        domain_formula=_color_set_atom(x1, colors_where(lambda cp: cp[0] == 1)),
        edge_formula=And((Not(Eq(x1, x2)), positive)),
        color_formulas=tuple(
            (
                orig,
                _color_set_atom(
                    x1, colors_where(lambda cp, o=orig: cp[0] == 1 and cp[1] == o)
                ),
            )
            for orig in range(1, g.c + 1)
        ),
    )


def treedepth_host_and_scheme(
    g: ColoredGraph, k: int
) -> tuple[RootedColoredTree, InterpretationScheme]:
    """The encoded elimination forest of height at most k and the
    interpretation that recovers ``g`` from it."""
    ef = compute_elimination_forest(g, k)
    if ef is None:
        raise ValueError(f"the graph has tree-depth larger than {k}")
    return encode_elimination_forest(g, ef), depth_edge_interpretation(ef.height, g.c)


def mc_by_translation(
    host: RootedColoredTree, scheme: InterpretationScheme, sentence: Formula, s: int
) -> bool:
    """Translate the s-variable sentence through the scheme and decide
    the translation on the host's kernel at budget s + overhead."""
    translated = backwards_translate(sentence, scheme)
    return mc_tree(host, translated, s + scheme.variable_overhead)


def satisfying_rows(sat: SatisfyingSet) -> frozenset[tuple[int, ...]]:
    """The satisfying assignments of ``sat``, each giving vertices in the
    order of ``sat.variables``: one empty row (true) or none (false) when
    there are no free variables."""
    if not sat.variables:
        return frozenset([()] if sat.cells else [])
    return frozenset(map(tuple, (np.argwhere(sat.cells) + 1).tolist()))


def row_set_apply_interpretation(
    scheme: InterpretationScheme, g: ColoredGraph
) -> ColoredGraph:
    """The graph the scheme defines inside ``g``, read off the evaluator's
    satisfying rows: a row set per formula, a relabelling dict and a set
    of holders per color. A violation is named in the iteration order of
    those sets, not necessarily the first one in vertex order."""
    dom_sat = evaluate_free(g, And((scheme.domain_formula, Eq(X1, X1))))
    domain = sorted(row[0] for row in satisfying_rows(dom_sat))
    if not domain:
        raise ValueError("the interpretation has an empty domain on this graph")
    edge_sat = evaluate_free(
        g, And((scheme.edge_formula, Eq(X1, X1), Eq(X2, X2)))
    )
    related = {tuple(row) for row in satisfying_rows(edge_sat)}
    for u, v in related:
        if u == v:
            raise ValueError(f"edge formula is reflexive at vertex {u}")
        if (v, u) not in related:
            raise ValueError(f"edge formula is asymmetric on ({u},{v})")
    relabel = {old: new for new, old in enumerate(domain, start=1)}
    edges = {
        (relabel[u], relabel[v])
        for u, v in related
        if u < v and u in relabel and v in relabel
    }
    if scheme.color_formulas is None:
        colors = [g.color_of(v) for v in domain]
        palette = g.c
    else:
        holders: dict[int, set[int]] = {}
        for color, body in scheme.color_formulas:
            sat = evaluate_free(g, And((body, Eq(X1, X1))))
            holders[color] = {row[0] for row in satisfying_rows(sat)}
        colors = []
        for v in domain:
            matches = [color for color in sorted(holders) if v in holders[color]]
            if len(matches) != 1:
                raise ValueError(
                    f"vertex {v} satisfies {len(matches)} color formulas; "
                    "the interpreted coloring must be unambiguous"
                )
            colors.append(matches[0])
        palette = max(holders, default=1)
    return ColoredGraph.build(len(domain), edges, colors, c=palette)


def pairwise_validate_tree_model(g: ColoredGraph, tm: TreeModel) -> bool:
    """``validate_tree_model`` with one verdict per pair of leaves."""
    if tm.tree.leaves != frozenset(g.vertices):
        raise ValueError(
            "tree-model leaves must be exactly the graph vertices 1..n"
        )
    t = tm.tree
    for u in g.vertices:
        for v in range(u + 1, g.n + 1):
            got = tm.verdict(t.color_of(u), t.color_of(v), t.distance(u, v))
            if got != adjacent(g, u, v):
                return False
    return True


def climbing_encode_elimination_forest(
    g: ColoredGraph, ef: EliminationForest
) -> RootedColoredTree:
    """``encode_elimination_forest`` with each vertex's adjacency bits
    found by climbing its ancestor chain and probing ``adjacent`` at
    every ancestor. The forest is valid when these probes find every edge
    of ``g``, each from its lower end."""
    if ef.n != g.n:
        raise ValueError("forest and graph disagree on the vertex count")
    depths = ef.node_depths
    colors: dict[int, int] = {}
    found = 0
    for v in g.vertices:
        bits = 0
        anc = ef.parents[v - 1]
        while anc != 0:
            if adjacent(g, v, anc):
                bits |= 1 << (depths[anc - 1] - 1)
                found += 1
            anc = ef.parents[anc - 1]
        colors[v] = _encoded_color(depths[v - 1], g.color_of(v), bits, g.c)
    if found != len(g.edges):
        raise ValueError("not a valid elimination forest for this graph")
    parents = {v: ef.parents[v - 1] for v in g.vertices}
    roots = [v for v in g.vertices if ef.parents[v - 1] == 0]
    if len(roots) > 1:
        spare = g.n + 1
        for r in roots:
            parents[r] = spare
        parents[spare] = 0
        colors[spare] = 1
    return RootedColoredTree.build(parents, colors, c=_encoded_palette_size(ef.height, g.c))


def climbing_depths_in_vertices(parents: tuple[int, ...]) -> tuple[int, ...]:
    """Per vertex, the number of vertices on its chain of parent links up
    to a root (parent 0), so roots have depth 1; ``parents[v-1]`` is the
    parent of v. Each vertex is climbed over once, and its parent is
    checked to lie in 0..n before it is used as an index."""
    n = len(parents)
    depths = [0] * (n + 1)  # 0: not yet known; slot 0 is "above a root"
    for v in range(1, n + 1):
        chain = []
        u = v
        while u != 0 and not depths[u]:
            chain.append(u)
            depths[u] = -1  # on the chain being climbed
            u = parents[u - 1]
            if not 0 <= u <= n:
                raise ValueError(f"vertex {chain[-1]} has parent {u} out of range")
        if depths[u] < 0:
            raise ValueError("parent links contain a cycle")
        for i, w in enumerate(reversed(chain), start=1):
            depths[w] = depths[u] + i
    return tuple(depths[1:])


def sorting_reduce_tree(t: RootedColoredTree, s: int) -> KernelResult:
    """``kernel.reduce_tree`` with its vertices sorted deepest first and
    each vertex's child classes counted in a dict."""
    if s < 1:
        raise ValueError("the variable budget must be positive")
    # AHU class ids: equal ids exactly for isomorphic reduced subtrees
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    class_of = [0] * (t.n + 1)
    kept_kids: list[list[int]] = [[] for _ in range(t.n + 1)]
    depths, colors, below = t.depths, t.colors, children(t)
    deepest_first = sorted(
        range(1, t.n + 1), key=lambda v: depths[v - 1], reverse=True
    )
    for v in deepest_first:
        copies: dict[int, int] = {}
        kept = kept_kids[v]
        for cls, w in sorted([(class_of[w], w) for w in below[v]]):
            seen = copies.get(cls, 0)
            copies[cls] = seen + 1
            if seen < s:
                kept.append(w)
        key = (colors[v - 1], tuple([class_of[w] for w in kept]))
        class_of[v] = ids.setdefault(key, len(ids))
    kept_all = {t.root}
    for v in reversed(deepest_first):
        if v in kept_all:
            kept_all.update(kept_kids[v])
    bound, exact = kernel_size_bound_capped(s, max(t.depths), t.c)
    return KernelResult(
        tree=t,
        kept=frozenset(kept_all),
        bound=bound,
        bound_exact=exact,
    )


def dict_restrict_tree(t: RootedColoredTree, kept: Iterable[int]) -> RootedColoredTree:
    """``trees.restrict_tree`` through relabelled dicts and ``RootedColoredTree.build``."""
    kept_sorted = sorted(set(kept))
    if t.root not in kept_sorted:
        raise ValueError("the kept set must contain the root")
    relabel = {old: new for new, old in enumerate(kept_sorted, start=1)}
    parents: dict[int, int] = {}
    colors: dict[int, int] = {}
    for old in kept_sorted:
        p = t.parents[old - 1]
        if p != 0 and p not in relabel:
            raise ValueError("the kept set is not closed under parents")
        parents[relabel[old]] = relabel[p] if p != 0 else 0
        colors[relabel[old]] = t.color_of(old)
    return RootedColoredTree.build(parents, colors, c=t.c)


# ---------------------------------------------------------------------------
# Flips and recipes over a set of edge tuples, the referees of
# ``fomc.graphs.apply_flip`` and ``fomc.graphs.build_sc_graph``, which XOR
# edge keys in arrays

def _toggle_pairs(edges: set[Edge], a: Collection[int], b: Collection[int]) -> None:
    """XOR into ``edges`` each unordered pair {u, v} with u != v, u from
    ``a`` and v from ``b``, once. ``a`` and ``b`` are equal or disjoint."""
    edges.symmetric_difference_update(
        {(u, v) if u < v else (v, u) for u in a for v in b if u != v}
    )


def set_apply_flip(g: ColoredGraph, flip: PartitionFlip) -> ColoredGraph:
    """``apply_flip`` on a copy of the edge-set view, one part pair at a time."""
    for part in flip.parts:
        for v in part:
            if not 1 <= v <= g.n:
                raise ValueError(f"part vertex {v} outside the graph")
    edges = set(g.edges)
    for i, j in flip.rel:
        _toggle_pairs(edges, flip.parts[i], flip.parts[j])
    return ColoredGraph(colors=g.colors, c=g.c, edges=frozenset(edges))


def set_build_sc_graph(r: SCRecipe) -> ColoredGraph:
    """``build_sc_graph`` toggling each combine's flip set in one edge set,
    built with ``ColoredGraph.build``."""
    leaves: list[SCLeaf] = []
    closed: list[tuple[SCCombine, int, int]] = []  # post-order, leaves (first, last]
    todo: list = [r]
    while todo:
        item = todo.pop()
        if isinstance(item, SCLeaf):
            leaves.append(item)
        elif isinstance(item, SCCombine):
            todo.append((item, len(leaves)))
            todo += reversed(item.children)
        else:
            node, first = item
            closed.append((node, first, len(leaves)))
    ids = {leaf.name: v for v, leaf in enumerate(leaves, start=1)}
    if len(ids) != len(leaves):
        raise ValueError("leaf names must be unique in a recipe")
    edges: set[Edge] = set()
    for node, first, last in closed:
        missing = [name for name in node.flip_names if not first < ids.get(name, 0) <= last]
        if missing:
            raise ValueError(
                "flip set names unknown below this combine: " + ", ".join(sorted(missing))
            )
        flipped = [ids[name] for name in node.flip_names]
        _toggle_pairs(edges, flipped, flipped)
    return ColoredGraph.build(len(leaves), edges, [leaf.color for leaf in leaves])


# ---------------------------------------------------------------------------
# Seeded generators and file writers
#
# Not referees: these draw and write the suite's inputs. Seeded draws are
# pinned by tests/test_trees.py::test_random_tree_draws_are_unchanged.

def random_tree(
    rng: random.Random, n: int, max_depth: int, colors: int = 1
) -> RootedColoredTree:
    """A rooted tree built by attaching each vertex below a random
    vertex of depth < max_depth."""
    parents = {1: 0}
    depths = {1: 0}
    shallow = [1] if max_depth > 0 else []  # vertices of depth < max_depth, by id
    for v in range(2, n + 1):
        p = rng.choice(shallow)
        parents[v] = p
        depths[v] = depths[p] + 1
        if depths[v] < max_depth:
            shallow.append(v)
    cols = {v: rng.randint(1, colors) for v in parents}
    return RootedColoredTree.build(parents, cols, c=colors)


def random_tree_model(
    rng: random.Random,
    n_leaves: int,
    max_depth: int,
    tree_colors: int = 2,
    graph_colors: int = 2,
) -> tuple[ColoredGraph, TreeModel]:
    """A random model tree over leaves 1..n plus the graph it defines.

    Internal nodes take ids above n. The rule assigns a random verdict
    to every realized (color, color, distance) triple, so the pair
    always validates.
    """
    if n_leaves < 1 or max_depth < 1:
        raise ValueError("need at least one leaf and positive depth")
    parents: dict[int, int] = {}
    depths: dict[int, int] = {}
    root = n_leaves + 1
    parents[root] = 0
    depths[root] = 0
    next_id = root + 1
    internals = [root]
    for _ in range(rng.randrange(0, max(1, n_leaves // 2) + 1)):
        shallow = [u for u in internals if depths[u] < max_depth - 1]
        if not shallow:
            break
        p = rng.choice(shallow)
        parents[next_id] = p
        depths[next_id] = depths[p] + 1
        internals.append(next_id)
        next_id += 1
    for leaf in range(1, n_leaves + 1):
        p = rng.choice(internals)
        parents[leaf] = p
        depths[leaf] = depths[p] + 1
    # internal nodes that stayed childless would count as leaves: give
    # each a leaf child by restealing, or drop it by rerooting leaves
    child_count = {u: 0 for u in internals}
    for v, p in parents.items():
        if v != root and p in child_count:
            child_count[p] += 1
    for u in internals:
        if child_count[u] == 0 and u != root:
            # steal a random leaf so this internal node is not itself a leaf
            leaf = rng.randint(1, n_leaves)
            old = parents[leaf]
            if old in child_count:
                child_count[old] -= 1
            parents[leaf] = u
            depths[leaf] = depths[u] + 1
            child_count[u] += 1
    if child_count[root] == 0:
        parents[1] = root
        depths[1] = 1
    cols = {v: rng.randint(1, tree_colors) for v in parents}
    tree = RootedColoredTree.build(parents, cols, c=tree_colors)
    if tree.leaves != frozenset(range(1, n_leaves + 1)):
        # a rare degenerate shape: fall back to a flat star model
        parents = {root: 0}
        parents.update({leaf: root for leaf in range(1, n_leaves + 1)})
        cols = {v: rng.randint(1, tree_colors) for v in parents}
        tree = RootedColoredTree.build(parents, cols, c=tree_colors)

    rules: dict[tuple[int, int, int], bool] = {}
    edges = []
    for u in range(1, n_leaves + 1):
        for v in range(u + 1, n_leaves + 1):
            key = (
                min(tree.color_of(u), tree.color_of(v)),
                max(tree.color_of(u), tree.color_of(v)),
                tree.distance(u, v),
            )
            if key not in rules:
                rules[key] = rng.random() < 0.5
            if rules[key]:
                edges.append((u, v))
    g = ColoredGraph.build(
        n_leaves,
        edges,
        [rng.randint(1, graph_colors) for _ in range(n_leaves)],
        c=graph_colors,
    )
    tm = TreeModel.build(tree, [(c1, c2, d, e) for (c1, c2, d), e in rules.items()])
    return g, tm


def random_treedepth_graph(
    rng: random.Random, n: int, depth: int, keep: float, colors: int
) -> ColoredGraph:
    """A graph of tree-depth at most ``depth + 1``: the edges of a
    ``random_tree`` of that depth, plus each pair of a vertex and a
    further ancestor with probability ``keep``, on vertices relabelled
    at random and coloured from 1..``colors``."""
    parents = random_tree(rng, n, depth).parents
    edges = []
    for v, p in enumerate(parents, start=1):
        a = p
        while a:
            if a == p or rng.random() < keep:
                edges.append((v, a))
            a = parents[a - 1]
    label = rng.sample(range(1, n + 1), n)
    return ColoredGraph.build(
        n,
        [(label[u - 1], label[v - 1]) for u, v in edges],
        [rng.randint(1, colors) for _ in range(n)],
        c=colors,
    )


def tree_from_graph(g: ColoredGraph, root: int) -> RootedColoredTree:
    """The tree ``g`` rooted at ``root``; colors and the palette are kept."""
    if not 1 <= root <= g.n:
        raise ValueError("root out of range")
    if len(g.edges) != g.n - 1:
        raise ValueError("not a tree: wrong edge count")
    adj = neighborhoods(g)
    parents = {root: 0}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w not in parents:
                parents[w] = u
                frontier.append(w)
    if len(parents) != g.n:
        raise ValueError("not a tree: graph is disconnected")
    return RootedColoredTree.build(
        parents, {v: g.color_of(v) for v in g.vertices}, c=g.c
    )


def write_tree_model(tm: TreeModel, stream: TextIO) -> None:
    write_tree(tm.tree, stream)
    for c1, c2, d, edge in tm.rules:
        stream.write(f"rule {c1} {c2} {d} {1 if edge else 0}\n")


def write_forest(ef: EliminationForest, stream: TextIO) -> None:
    stream.write(f"p forest {ef.n}\n")
    for v in range(1, ef.n + 1):
        stream.write(f"t {v} {ef.parents[v - 1]}\n")


# ---------------------------------------------------------------------------
# Corpora

def all_labeled_graphs(n: int, colors: int = 1) -> list[ColoredGraph]:
    """Every labeled graph on exactly n vertices, all of color 1 under a
    palette of ``colors``."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = []
    for bits in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        out.append(ColoredGraph.build(n, edges, c=colors))
    return out


def all_colored_labeled_graphs(n: int, colors: int) -> list[ColoredGraph]:
    """Every labeled graph on exactly n vertices under every coloring of
    its vertices from 1..colors."""
    return [
        ColoredGraph.build(n, g.edges, coloring, c=colors)
        for g in all_labeled_graphs(n)
        for coloring in itertools.product(range(1, colors + 1), repeat=n)
    ]


def all_colored_rooted_trees(
    max_n: int, max_depth: int, colors: int
) -> list[RootedColoredTree]:
    """All rooted colored trees with at most max_n nodes and bounded
    depth, one representative per isomorphism class."""

    @lru_cache(maxsize=None)
    def shapes(n: int, depth: int) -> tuple:
        # canonical nested form: (color, sorted tuple of child shapes)
        if n == 1:
            return tuple((c, ()) for c in range(1, colors + 1))
        if depth == 0:
            return ()
        catalog: list[tuple[int, tuple]] = []
        for m in range(1, n):
            for t in shapes(m, depth - 1):
                catalog.append((m, t))
        catalog.sort(key=lambda mt: (mt[0], mt[1]))

        def multisets(remaining: int, start: int):
            if remaining == 0:
                yield ()
                return
            for idx in range(start, len(catalog)):
                m, t = catalog[idx]
                if m <= remaining:
                    for rest in multisets(remaining - m, idx):
                        yield (t,) + rest

        out = []
        for kids in multisets(n - 1, 0):
            for c in range(1, colors + 1):
                out.append((c, tuple(sorted(kids))))
        return tuple(out)

    def realize(shape) -> RootedColoredTree:
        parents: dict[int, int] = {}
        cols: dict[int, int] = {}
        counter = itertools.count(1)

        def place(node, parent: int) -> None:
            vid = next(counter)
            parents[vid] = parent
            cols[vid] = node[0]
            for child in node[1]:
                place(child, vid)

        place(shape, 0)
        return RootedColoredTree.build(parents, cols, c=colors)

    out = []
    for n in range(1, max_n + 1):
        out.extend(realize(s) for s in shapes(n, max_depth))
    return out


class PipelineFixtures(NamedTuple):
    sentences: tuple[Formula, ...]
    trees: tuple[RootedColoredTree, ...]
    treedepth_graphs: tuple[ColoredGraph, ...]
    tree_models: tuple[tuple[ColoredGraph, TreeModel], ...]


@lru_cache(maxsize=None)
def pipeline_fixtures() -> PipelineFixtures:
    """The inputs of acceptance criterion 3: 100 sentences with 3
    variables, 120 random trees, every atlas graph of tree-depth at most
    3, and 100 random tree-models."""
    from networkx.generators.atlas import graph_atlas_g

    rng = random.Random(31337)
    sentences = tuple(random_formula(rng, 3, 2, 4) for _ in range(100))
    trees = tuple(random_tree(rng, rng.randint(1, 25), 3, colors=3) for _ in range(120))
    graphs = []
    for G in graph_atlas_g():
        if G.number_of_nodes() == 0:
            continue
        g = ColoredGraph.build(
            G.number_of_nodes(), [(u + 1, v + 1) for u, v in G.edges()]
        )
        if compute_elimination_forest(g, 3) is not None:
            graphs.append(g)
    tree_models = tuple(
        random_tree_model(rng, rng.randint(1, 8), 2, tree_colors=2, graph_colors=2)
        for _ in range(100)
    )
    return PipelineFixtures(sentences, trees, tuple(graphs), tree_models)


def kernel_budget_sweep(seed: int, draws: int) -> dict[str, int]:
    """Check the graph routes' kernels at budget s on seeded draws, and
    count per route the cores strictly smaller than at the earlier
    budgets, s + min(2, max(0, h - 2)) for a forest of height h and
    s + min(3, depth) for a tree-model.

    Each route gets ``draws`` draws at s = 1, 2, 3 in turn: for
    ``mc_treedepth``, ``random_treedepth_graph`` with 6-40 vertices,
    depth 2 or 3, ``keep`` in {0, 0.3, 0.6, 1} and 1-2 colours; for
    ``mc_treemodel``, ``random_tree_model`` with 2-30 leaves and depth
    1-3. The route decides a random s-variable sentence as
    ``model_check`` does, the kernel it reduced at budget s keeps no more
    graph vertices than the earlier budget's, and the induced subgraph
    on them is FO^s-equivalent to the graph (``fo_s_equivalent``). The
    first failure raises ``AssertionError``.
    """
    rng = random.Random(seed)
    reductions = []

    def spy(host: RootedColoredTree, budget: int) -> KernelResult:
        result = kernel.reduce_tree(host, budget)
        reductions.append((budget, result))
        return result

    def check(route: str, g: ColoredGraph, decide, s: int, earlier: int) -> bool:
        phi = random_formula(rng, s, g.c, 4)
        assert decide(phi) == model_check(g, phi), (route, g, phi)
        budget, result = reductions.pop()
        assert budget == s, (route, budget, s)
        kept, before = (
            [v for v in res.kept if v <= g.n]
            for res in (result, kernel.reduce_tree(result.tree, earlier))
        )
        assert len(kept) <= len(before), (route, g)
        assert pebble.fo_s_equivalent(g, g.induced_subgraph(kept), s), (route, g, s)
        return len(kept) < len(before)

    smaller = {"forest": 0, "tree-model": 0}
    with mock.patch.object(interpret, "reduce_tree", spy):
        for i in range(draws):
            s = 1 + i % 3
            depth = rng.choice((2, 3))
            g = random_treedepth_graph(
                rng, rng.randint(6, 40), depth, rng.choice((0, 0.3, 0.6, 1)), rng.randint(1, 2)
            )
            h = compute_elimination_forest(g, depth + 1).height
            smaller["forest"] += check(
                "forest", g, lambda phi: interpret.mc_treedepth(g, phi, depth + 1, s),
                s, s + min(2, max(0, h - 2)),
            )
            g, tm = random_tree_model(rng, rng.randint(2, 30), rng.randint(1, 3))
            smaller["tree-model"] += check(
                "tree-model", g, lambda phi: interpret.mc_treemodel(g, tm, phi, s),
                s, s + min(3, max(tm.tree.depths)),
            )
    return smaller
