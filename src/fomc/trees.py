"""Rooted colored trees, elimination forests, tree-models, and their files.

Conventions:

* ``RootedColoredTree.depth`` counts edges, so a single vertex has depth 0.
* ``EliminationForest.height`` counts vertices along a root-to-node path,
  so a single vertex has height 1. A graph has tree-depth at most k
  exactly when it has an elimination forest of height at most k.

Tree file format (ASCII, ``#`` comments):

    p tree <n> <c>
    r <root>
    t <v> <parent> [<color>]      # parent 0 marks the root; color defaults to 1

Forest files are the same minus colors and the root line:

    p forest <n>
    t <v> <parent>                # parent 0 marks a root

Tree-model files are tree files with extra rule lines:

    rule <c1> <c2> <d> <0|1>
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, TextIO

from .graphs import ColoredGraph, _data_lines, _natural


def _depths_in_vertices(parents: tuple[int, ...]) -> tuple[int, ...]:
    """Per vertex, the number of vertices on its chain of parent links up
    to a root (parent 0), so roots have depth 1; ``parents[v-1]`` is the
    parent of v. Each vertex is climbed over once."""
    depths = [0] * (len(parents) + 1)  # 0: not yet known; slot 0 is "above a root"
    for v in range(1, len(parents) + 1):
        chain = []
        u = v
        while u != 0 and not depths[u]:
            chain.append(u)
            depths[u] = -1  # on the chain being climbed
            u = parents[u - 1]
        if depths[u] < 0:
            raise ValueError("parent links contain a cycle")
        for i, w in enumerate(reversed(chain), start=1):
            depths[w] = depths[u] + i
    return tuple(depths[1:])


@dataclass(frozen=True)
class RootedColoredTree:
    n: int
    root: int
    parents: tuple[int, ...]  # parents[v-1]; 0 for the root
    colors: tuple[int, ...]
    c: int

    def __post_init__(self) -> None:
        if not 1 <= self.root <= self.n:
            raise ValueError("root out of range")
        if len(self.parents) != self.n or len(self.colors) != self.n:
            raise ValueError("parents and colors must cover every vertex")
        if self.parents[self.root - 1] != 0:
            raise ValueError("the root must have parent 0")
        if self.c < 1:
            raise ValueError("color count must be positive")
        for v in range(1, self.n + 1):
            col = self.colors[v - 1]
            if not 1 <= col <= self.c:
                raise ValueError(f"vertex {v} has color {col} outside 1..{self.c}")
            p = self.parents[v - 1]
            if v != self.root and not 1 <= p <= self.n:
                raise ValueError(f"vertex {v} has parent {p} out of range")
            if p == v:
                raise ValueError(f"vertex {v} is its own parent")
        self.depths  # forces the cycle/connectivity check

    @staticmethod
    def build(
        parents: dict[int, int],
        colors: dict[int, int] | None = None,
        c: int | None = None,
    ) -> "RootedColoredTree":
        """From a child-to-parent map over 1..n (root mapped to 0)."""
        n = len(parents)
        roots = [v for v, p in parents.items() if p == 0]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        cols = {v: 1 for v in parents}
        if colors:
            cols.update(colors)
        palette = c if c is not None else max(cols.values(), default=1)
        return RootedColoredTree(
            n=n,
            root=roots[0],
            parents=tuple(parents[v] for v in range(1, n + 1)),
            colors=tuple(cols[v] for v in range(1, n + 1)),
            c=palette,
        )

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Distance in edges from the root, per vertex."""
        return tuple(d - 1 for d in _depths_in_vertices(self.parents))

    @property
    def depth(self) -> int:
        return max(self.depths)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children lists indexed by vertex (slot 0 unused), ids ascending."""
        kids: list[list[int]] = [[] for _ in range(self.n + 1)]
        for v in range(1, self.n + 1):
            p = self.parents[v - 1]
            if p != 0:
                kids[p].append(v)
        return tuple(tuple(sorted(k)) for k in kids)

    @cached_property
    def leaves(self) -> frozenset[int]:
        return frozenset(v for v in range(1, self.n + 1) if not self.children[v])

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def depth_of(self, v: int) -> int:
        return self.depths[v - 1]

    def to_graph(self) -> ColoredGraph:
        edges = [
            (v, self.parents[v - 1])
            for v in range(1, self.n + 1)
            if self.parents[v - 1] != 0
        ]
        return ColoredGraph.build(self.n, edges, self.colors, c=self.c)

    def distance(self, u: int, v: int) -> int:
        """Edges on the tree path between ``u`` and ``v``, counted while
        climbing from the deeper of the two until they meet."""
        depths, parents = self.depths, self.parents
        steps = 0
        while u != v:
            if depths[u - 1] < depths[v - 1]:
                u, v = v, u
            u = parents[u - 1]
            steps += 1
        return steps


def restrict_tree(t: RootedColoredTree, kept: Iterable[int]) -> RootedColoredTree:
    """Induced subtree on ``kept``, relabeled to 1..m in ascending id order.

    ``kept`` must contain the root and be closed under taking parents.
    """
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
# Elimination forests and exact tree-depth

@dataclass(frozen=True)
class EliminationForest:
    n: int
    parents: tuple[int, ...]  # parents[v-1]; 0 for roots

    def __post_init__(self) -> None:
        if len(self.parents) != self.n:
            raise ValueError("parents must cover every vertex")
        for v in range(1, self.n + 1):
            p = self.parents[v - 1]
            if p != 0 and not 1 <= p <= self.n:
                raise ValueError(f"vertex {v} has parent {p} out of range")
        self.node_depths  # cycle check

    @cached_property
    def node_depths(self) -> tuple[int, ...]:
        """Depth counted in vertices: roots have depth 1."""
        return _depths_in_vertices(self.parents)

    @property
    def height(self) -> int:
        return max(self.node_depths)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.parents[v - 1] == 0)

    def ancestors(self, v: int) -> Iterable[int]:
        """Proper ancestors of ``v``, nearest first."""
        p = self.parents[v - 1]
        while p != 0:
            yield p
            p = self.parents[p - 1]


def validate_elimination_forest(g: ColoredGraph, ef: EliminationForest) -> bool:
    """True when every edge of ``g`` joins an ancestor-descendant pair."""
    if ef.n != g.n:
        raise ValueError("forest and graph disagree on the vertex count")
    depths, parents = ef.node_depths, ef.parents
    for u, v in g.edges:
        if depths[u - 1] < depths[v - 1]:
            u, v = v, u
        for _ in range(depths[u - 1] - depths[v - 1]):
            u = parents[u - 1]
        if u != v:
            return False
    return True


def _members(mask: int) -> Iterator[int]:
    """The vertices of a mask (bit v is vertex v), ascending."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _split(sub: int, nb: list[int]) -> list[int]:
    """The components of the vertex mask ``sub``; ``nb[v]`` masks N(v)."""
    comps = []
    while sub:
        comp = frontier = sub & -sub
        while frontier:
            reach = 0
            for v in _members(frontier):
                reach |= nb[v]
            frontier = reach & sub & ~comp
            comp |= frontier
        comps.append(comp)
        sub &= ~comp
    return comps


def _deepest_chain(start: int, sub: int, nb: list[int]) -> list[int]:
    """The longest root-to-leaf chain, a path, of a DFS tree of ``sub`` from ``start``."""
    stack, unseen, longest = [start], sub & ~(1 << start), []
    while stack:
        fresh = nb[stack[-1]] & unseen
        if fresh:
            unseen ^= fresh & -fresh
            stack.append((fresh & -fresh).bit_length() - 1)
        else:
            if len(stack) > len(longest):
                longest = stack.copy()
            stack.pop()
    return longest


def compute_elimination_forest(
    g: ColoredGraph, k: int
) -> EliminationForest | None:
    """Exact minimum-height elimination forest, or None when tree-depth > k.

    Memoized recursion on connected vertex masks: a connected piece needs
    1 plus, over root choices, the worst of its remaining components. A
    double-sweep depth-first search (from the lowest vertex, then from
    the end of the longest chain found) gives a path P of l vertices, so
    the piece needs ``low = l.bit_length()``; it is refused at once when
    that exceeds its budget. Roots on P are tried first, from its middle
    outwards; a root off P leaves P whole, so it is tried only while
    ``low + 1`` beats the best found, and a root reaching ``low`` ends
    the search. Dense graphs and graphs of high tree-depth still cost
    time exponential in n.
    """
    if k < 1:
        raise ValueError("the height budget must be positive")
    nb = [sum(1 << w for w in ws) for ws in g.adj]  # slot 0 is empty
    known: dict[int, tuple[int, int]] = {}  # (height, root); root 0: height exceeds it

    def best(sub: int, budget: int) -> tuple[int, int] | None:
        """(minimal height, a root for it) of a connected mask; None above ``budget``."""
        if sub & (sub - 1) == 0:
            return (1, sub.bit_length() - 1) if budget >= 1 else None
        h, root = known.get(sub, (0, 0))
        if root or h >= budget:
            return (h, root) if root and h <= budget else None
        far = _deepest_chain((sub & -sub).bit_length() - 1, sub, nb)[-1]
        path = _deepest_chain(far, sub, nb)
        low = len(path).bit_length()
        if low > budget:
            known[sub] = (low - 1, 0)
            return None
        outwards = sorted(range(len(path)), key=lambda i: abs(2 * i + 1 - len(path)))
        off_path = sub & ~sum(1 << v for v in path)
        best_h, best_root = min(budget, sub.bit_count()) + 1, 0
        roots = itertools.chain((path[j] for j in outwards), _members(off_path))
        for i, v in enumerate(roots):
            if i >= len(path) and low >= best_h - 1:
                break
            worst = 0
            for comp in _split(sub & ~(1 << v), nb):
                found = best(comp, best_h - 2)
                if found is None:
                    break
                worst = max(worst, found[0])
            else:
                best_h, best_root = 1 + worst, v
                if best_h <= low:
                    break
        known[sub] = (best_h, best_root) if best_root else (budget, 0)
        return known[sub] if best_root else None

    parents = [0] * (g.n + 1)
    pending = [(comp, 0) for comp in _split(sum(1 << v for v in g.vertices), nb)]
    if any(best(comp, k) is None for comp, _ in pending):
        return None
    while pending:
        sub, above = pending.pop()
        _, root = best(sub, k)
        parents[root] = above
        pending.extend((comp, root) for comp in _split(sub & ~(1 << root), nb))
    return EliminationForest(n=g.n, parents=tuple(parents[1:]))


# ---------------------------------------------------------------------------
# Tree-models

@dataclass(frozen=True)
class TreeModel:
    """A colored rooted tree whose leaves are a graph's vertices, plus a
    rule mapping (color, color, leaf distance) to edge/non-edge.

    Rule keys are stored with the color pair sorted; ``verdict`` looks
    them up symmetrically.
    """

    tree: RootedColoredTree
    rules: tuple[tuple[int, int, int, bool], ...]

    def __post_init__(self) -> None:
        seen = set()
        for c1, c2, d, _ in self.rules:
            if c1 > c2:
                raise ValueError("rule colors must be stored sorted")
            if (c1, c2, d) in seen:
                raise ValueError(f"duplicate rule for {(c1, c2, d)}")
            seen.add((c1, c2, d))

    @staticmethod
    def build(
        tree: RootedColoredTree, rules: Iterable[tuple[int, int, int, bool]]
    ) -> "TreeModel":
        normalized = sorted(
            (min(c1, c2), max(c1, c2), d, bool(edge)) for c1, c2, d, edge in rules
        )
        return TreeModel(tree=tree, rules=tuple(normalized))

    @cached_property
    def _table(self) -> dict[tuple[int, int, int], bool]:
        return {(c1, c2, d): edge for c1, c2, d, edge in self.rules}

    def verdict(self, c1: int, c2: int, d: int) -> bool | None:
        return self._table.get((min(c1, c2), max(c1, c2), d))


def validate_tree_model(g: ColoredGraph, tm: TreeModel) -> bool:
    """True when the rule reproduces the adjacency of ``g`` exactly.

    The leaves of the tree must be exactly the vertex ids 1..n of ``g``;
    a realized color/distance triple missing from the rule counts as a
    mismatch.
    """
    if tm.tree.leaves != frozenset(g.vertices):
        raise ValueError(
            "tree-model leaves must be exactly the graph vertices 1..n"
        )
    t = tm.tree
    for u in g.vertices:
        for v in range(u + 1, g.n + 1):
            got = tm.verdict(t.color_of(u), t.color_of(v), t.distance(u, v))
            if got != g.has_edge(u, v):
                return False
    return True


# ---------------------------------------------------------------------------
# File I/O

def write_tree(t: RootedColoredTree, stream: TextIO) -> None:
    stream.write(f"p tree {t.n} {t.c}\n")
    stream.write(f"r {t.root}\n")
    for v in range(1, t.n + 1):
        stream.write(f"t {v} {t.parents[v - 1]} {t.color_of(v)}\n")


def _read_tree_records(
    stream: TextIO,
) -> tuple[int, int, int, dict[int, int], dict[int, int], list[tuple[int, int, int, bool]]]:
    n = c = root = None
    parents: dict[int, int] = {}
    colors: dict[int, int] = {}
    rules: list[tuple[int, int, int, bool]] = []
    for lineno, fields in _data_lines(stream):
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(fields) != 4 or fields[1] != "tree":
                raise ValueError(f"line {lineno}: malformed header, want 'p tree <n> <c>'")
            n, c = _natural(fields[2], lineno), _natural(fields[3], lineno)
        elif kind == "r":
            if root is not None:
                raise ValueError(f"line {lineno}: duplicate root line")
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: malformed root line")
            root = _natural(fields[1], lineno)
        elif kind == "t":
            if len(fields) not in (3, 4):
                raise ValueError(f"line {lineno}: want 't <v> <parent> [<color>]'")
            v, p = _natural(fields[1], lineno), _natural(fields[2], lineno)
            if v in parents:
                raise ValueError(f"line {lineno}: duplicate record for vertex {v}")
            parents[v] = p
            colors[v] = _natural(fields[3], lineno) if len(fields) == 4 else 1
        elif kind == "rule":
            if len(fields) != 5:
                raise ValueError(f"line {lineno}: want 'rule <c1> <c2> <d> <0|1>'")
            c1, c2, d, bit = (_natural(x, lineno) for x in fields[1:])
            if bit not in (0, 1):
                raise ValueError(f"line {lineno}: rule verdict must be 0 or 1")
            rules.append((c1, c2, d, bool(bit)))
        else:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
    if n is None or root is None:
        raise ValueError("tree file needs a 'p tree' header and an 'r' line")
    return n, c, root, parents, colors, rules


def read_tree(stream: TextIO) -> RootedColoredTree:
    n, c, root, parents, colors, rules = _read_tree_records(stream)
    if rules:
        raise ValueError("unexpected rule lines in a plain tree file")
    return _assemble_tree(n, c, root, parents, colors)


def _assemble_tree(n, c, root, parents, colors) -> RootedColoredTree:
    parents.setdefault(root, 0)
    colors.setdefault(root, 1)
    if parents[root] != 0:
        raise ValueError(f"declared root {root} has a nonzero parent")
    _require_records(n, parents)
    return RootedColoredTree.build(parents, colors, c=c)


def _require_records(n: int, parents: dict[int, int]) -> None:
    """Refuse unless ``parents`` holds one record for each vertex 1..n."""
    for v in range(1, n + 1):
        if v not in parents:
            raise ValueError(f"vertex {v} has no 't' record")
    if len(parents) != n:
        raise ValueError("'t' records mention vertices outside 1..n")


def read_tree_model(stream: TextIO) -> TreeModel:
    n, c, root, parents, colors, rules = _read_tree_records(stream)
    tree = _assemble_tree(n, c, root, parents, colors)
    return TreeModel.build(tree, rules)


def read_forest(stream: TextIO) -> EliminationForest:
    n = None
    parents: dict[int, int] = {}
    for lineno, fields in _data_lines(stream):
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(fields) != 3 or fields[1] != "forest":
                raise ValueError(f"line {lineno}: malformed header, want 'p forest <n>'")
            n = _natural(fields[2], lineno)
        elif kind == "t":
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: want 't <v> <parent>'")
            v, p = _natural(fields[1], lineno), _natural(fields[2], lineno)
            if v in parents:
                raise ValueError(f"line {lineno}: duplicate record for vertex {v}")
            parents[v] = p
        else:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
    if n is None:
        raise ValueError("missing 'p forest' header")
    _require_records(n, parents)
    return EliminationForest(n=n, parents=tuple(parents[v] for v in range(1, n + 1)))
