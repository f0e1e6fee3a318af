"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own algorithms: the evaluator
oracle expands quantifiers directly instead of building relation
tables, the tree-depth oracle recurses on vertex subsets without
reconstructing a witness, and isomorphism checks are plain backtracking
searches.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache

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
    Var,
)
from fomc.graphs import ColoredGraph
from fomc.trees import RootedColoredTree


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
# Exhaustive corpora

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
