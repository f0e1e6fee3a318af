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
token list first referees the streaming one.

The module also holds the suite's seeded generators (random trees and
tree-models), the tree-from-graph rooting and the forest and tree-model
file writers. These are not independent referees: they only build and
write inputs, and they live here because no production path calls them.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

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
)
from fomc.graphs import ColoredGraph
from fomc.interpret import (
    InterpretationScheme,
    _color_set_atom,
    _tree_model_host,
    backwards_translate,
    depth_edge_interpretation,
    encode_elimination_forest,
    mc_tree,
)
from fomc.randgen import random_formula
from fomc.trees import (
    EliminationForest,
    RootedColoredTree,
    TreeModel,
    compute_elimination_forest,
    write_tree,
)


def recursive_model_check(
    g: ColoredGraph, f: Formula, env: dict[Var, int] | None = None
) -> bool:
    """Naive semantics by direct recursion over the formula."""
    env = env or {}
    match f:
        case Adj(u, v):
            return g.has_edge(env[u], env[v])
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


def distinct_nodes(f) -> int:
    """Node objects reachable from ``f``, each counted once by identity."""
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for field in ("child", "lhs", "rhs", "body"):
            if hasattr(node, field):
                stack.append(getattr(node, field))
        stack.extend(getattr(node, "children", ()))
    return len(seen)


def bfs_distances(g: ColoredGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def treedepth_oracle(g: ColoredGraph) -> int:
    """Minimum elimination-forest height by plain subset recursion."""

    adj = g.adj

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


def rooted_trees_isomorphic(a: RootedColoredTree, b: RootedColoredTree) -> bool:
    """Color-preserving rooted isomorphism by backtracking on children."""
    if a.n != b.n:
        return False

    def match(u: int, v: int) -> bool:
        if a.color_of(u) != b.color_of(v):
            return False
        ka, kb = a.children[u], b.children[v]
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
    return _code_below(t, t.root)


def _code_below(t: RootedColoredTree, v: int) -> bytes:
    kids = sorted(_code_below(t, w) for w in t.children[v])
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
        if all(b.has_edge(mapping[u], mapping[v]) for u, v in a.edges):
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
            if a.has_edge(x1, x2) != b.has_edge(y1, y2):
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
            t.depth_of(v),
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
            for d in range(steps, t.depth + 1)
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


def tree_from_graph(g: ColoredGraph, root: int) -> RootedColoredTree:
    """The tree ``g`` rooted at ``root``; colors and the palette are kept."""
    if not 1 <= root <= g.n:
        raise ValueError("root out of range")
    if len(g.edges) != g.n - 1:
        raise ValueError("not a tree: wrong edge count")
    parents = {root: 0}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for w in g.adj[u]:
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
    """Every labeled graph on exactly n vertices (single coloring)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = []
    for bits in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        out.append(ColoredGraph.build(n, edges, c=colors))
    return out


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
