"""Rooted colored trees, elimination forests, tree-models, and their files.

Conventions:

* ``RootedColoredTree.depths`` count edges, so a single vertex has depth 0.
* ``EliminationForest.height`` counts vertices along a root-to-node path,
  so a single vertex has height 1. A graph has tree-depth at most k
  exactly when it has an elimination forest of height at most k.

Tree file format (ASCII, ``#`` comments, lines in any order):

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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Collection, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .graphs import (
    ColoredGraph,
    _by_vertex,
    _inferred_palette,
    _records,
    _require_integer,
    _require_palette,
    _sized_header,
    _sorted_ids,
)
from .pebble import ResourceLimitError

#: Refuse a tree-depth search once the vertex masks it has split into
#: components hold more vertices than this, summed over every split.
FOREST_WORK_CAP = 4_000_000


def _depths(parents: tuple[int, ...], top: int) -> tuple[int, ...]:
    """Per vertex, its depth along its chain of parent links, where a root
    (parent 0) has depth ``top``; ``parents[v-1]`` is the parent of v. A
    vertex whose parent's depth is known takes one step; otherwise the
    chain above it is climbed, once per vertex, and each parent is
    checked to lie in 0..n before it is used as an index. A parent that is
    not an integer is refused first."""
    n = len(parents)
    if type(sum(parents)) is not int:
        for v, p in enumerate(parents, start=1):
            if not isinstance(p, Integral):
                raise ValueError(f"vertex {v} has parent {p!r}, not an integer")
    unknown, climbing = top - 2, top - 3  # both below every depth
    depths = [unknown] * (n + 1)
    depths[0] = top - 1  # slot 0 is "above a root"
    for v, p in enumerate(parents, start=1):
        if depths[v] != unknown:
            continue
        if 0 <= p <= n and depths[p] != unknown:
            depths[v] = depths[p] + 1
            continue
        chain = []
        u = v
        while depths[u] == unknown:
            chain.append(u)
            depths[u] = climbing
            u = parents[u - 1]
            if not 0 <= u <= n:
                raise ValueError(f"vertex {chain[-1]} has parent {u} out of range")
        if depths[u] == climbing:
            raise ValueError("parent links contain a cycle")
        for i, w in enumerate(reversed(chain), start=1):
            depths[w] = depths[u] + i
    del depths[0]
    return tuple(depths)


@dataclass(frozen=True)
class RootedColoredTree:
    """A tree on the vertices 1..n, vertex v coloured ``colors[v-1]`` from
    1..c below its parent ``parents[v-1]``; the root has parent 0.

    ``RootedColoredTree(parents, colors, c)`` takes the per-vertex data
    alone: n is ``len(parents)`` and ``root`` the one vertex with parent
    0, both read off ``parents`` once the colours are checked to number n
    and the root to be unique. ``build`` takes dicts by vertex.
    """

    parents: tuple[int, ...]  # parents[v-1]; 0 for the root
    colors: tuple[int, ...]
    c: int
    n: int = field(init=False)
    root: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.parents)
        if len(self.colors) != n:
            raise ValueError("parents and colors must cover every vertex")
        if self.parents.count(0) != 1:
            raise ValueError(f"expected exactly one root, found {self.parents.count(0)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "root", self.parents.index(0) + 1)
        object.__setattr__(self, "c", _require_palette(self.colors, self.c))
        self.depths  # forces the parent range and cycle checks

    @staticmethod
    def build(
        parents: dict[int, int],
        colors: dict[int, int] | None = None,
        c: int | None = None,
    ) -> "RootedColoredTree":
        """From a child-to-parent map over 1..n (root mapped to 0) and
        colors of some of its vertices (default 1)."""
        n = len(parents)
        _require_records(n, parents)
        vertices = range(1, n + 1)
        if colors:
            if not colors.keys() <= parents.keys():
                raise ValueError(f"colors given for non-vertices {sorted(colors - parents.keys())}")
            cols = tuple(map(colors.get, vertices, itertools.repeat(1, n)))
        else:
            cols = (1,) * n
        links = tuple(map(parents.__getitem__, vertices))
        return RootedColoredTree(links, cols, c if c is not None else _inferred_palette(cols))

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Distance in edges from the root, per vertex."""
        return _depths(self.parents, top=0)

    @cached_property
    def leaves(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)).difference(self.parents)

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def to_graph(self) -> ColoredGraph:
        """The tree as a graph on the same vertices and colours."""
        return _link_graph(np.array(self.parents, np.intp), self.colors, self.c)

    def distance(self, u: int, v: int) -> int:
        """Edges on the tree path between ``u`` and ``v``, counted while
        climbing from the deeper of the two until they meet."""
        for w in (u, v):
            _require_integer("vertex", w)
            if not 1 <= w <= self.n:
                raise ValueError(f"vertex {w} is not in 1..{self.n}")
        depths, parents = self.depths, self.parents
        steps = 0
        while u != v:
            if depths[u - 1] < depths[v - 1]:
                u, v = v, u
            u = parents[u - 1]
            steps += 1
        return steps


def _link_graph(links: np.ndarray, colors: tuple[int, ...], c: int) -> ColoredGraph:
    """The graph of a tree given by its parent links as an ``np.intp``
    array, ``links[v-1]`` the parent of v and 0 at the one root. The
    edge {v, p} of vertex v and its parent p has key ``min * (n + 1) +
    max``, that is ``min * n + v + p``; the root's pair with slot 0 has
    key ``root``, below every edge's, so it sorts first and is dropped."""
    n = len(links)
    ids = np.arange(1, n + 1, dtype=np.intp)
    keys = np.minimum(links, ids) * n + (links + ids)
    keys.sort()
    return ColoredGraph._of_arrays(colors, c, *np.divmod(keys[1:], n + 1))


def _kept_parents(t: RootedColoredTree, kept: frozenset[int]) -> tuple[list[int], Sequence[int]]:
    """The kept ids in ascending order and the parent of each (0 at the
    root), ``t.parents`` itself when every vertex is kept. Refused with
    ``ValueError``: an id that is not an integer or not in 1..n, and a
    set not closed under parents (a set without the root is not)."""
    ids = _sorted_ids(kept, t.n)
    if len(ids) == t.n:
        return ids, t.parents
    parents = t.parents
    ups = [parents[v - 1] for v in ids]
    # the root's parent 0 is passed over; a set without the root fails at
    # its highest vertex, whose parent is not kept
    if not kept.issuperset(filter(None, ups)):
        raise ValueError("the kept set is not closed under parents")
    return ids, ups


def restrict_tree(t: RootedColoredTree, kept: Iterable[int]) -> RootedColoredTree:
    """Induced subtree on ``kept``, relabeled to 1..m in ascending id
    order; ``t`` itself when every vertex is kept.

    ``kept`` must contain the root, lie in 1..n and be closed under taking
    parents (``_kept_parents`` checks it). Such a set keeps every vertex's
    colour and depth, so the cut is built from ``t``'s checked data and
    not checked again; its depths are computed on first read.
    """
    kept = frozenset(kept)
    if t.root not in kept:
        raise ValueError("the kept set must contain the root")
    ids, ups = _kept_parents(t, kept)
    if len(ids) == t.n:
        return t
    place = dict(zip(ids, range(1, len(ids) + 1)))
    place[0] = 0
    colors = t.colors
    cut = object.__new__(RootedColoredTree)  # its fields set as __post_init__ would
    vars(cut).update(
        parents=tuple(map(place.__getitem__, ups)), colors=tuple([colors[v - 1] for v in ids]),
        c=t.c, n=len(ids), root=place[t.root],
    )
    return cut


# ---------------------------------------------------------------------------
# Elimination forests and exact tree-depth

@dataclass(frozen=True)
class EliminationForest:
    """A forest on the vertices 1..n, vertex v below ``parents[v-1]`` and
    each root below 0. ``EliminationForest(parents)`` takes the parents
    alone: n is ``len(parents)``."""

    parents: tuple[int, ...]  # parents[v-1]; 0 for roots
    n: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", len(self.parents))
        self.node_depths  # parent range and cycle checks

    @cached_property
    def node_depths(self) -> tuple[int, ...]:
        """Depth counted in vertices: roots have depth 1."""
        return _depths(self.parents, top=1)

    @property
    def height(self) -> int:
        return max(self.node_depths)


def _edge_ancestry(g: ColoredGraph, ef: EliminationForest) -> Iterator[tuple[int, int] | None]:
    """Per edge of ``g``, its deeper end in ``ef`` and the depth of its other
    end, or None, a miss, when climbing from the deeper end by the depth
    difference does not reach the other end. Nothing is stored per vertex."""
    if ef.n != g.n:
        raise ValueError("forest and graph disagree on the vertex count")
    depths, parents = ef.node_depths, ef.parents
    for u, v in zip(g.edge_lo.tolist(), g.edge_hi.tolist()):
        du, dv = depths[u - 1], depths[v - 1]
        if du < dv:
            u, v, du, dv = v, u, dv, du
        w = u
        while du > dv:
            w, du = parents[w - 1], du - 1
        yield (u, dv) if w == v else None


def validate_elimination_forest(g: ColoredGraph, ef: EliminationForest) -> bool:
    """True when every edge of ``g`` joins an ancestor-descendant pair."""
    return all(_edge_ancestry(g, ef))


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


def _forest_refusal(cap: int, n: int, k: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"the tree-depth search split more than {cap} vertices into components "
        f"(cap {cap}): {n} vertices, height budget {k}"
    )


def _neighbourhoods(g: ColoredGraph, k: int) -> list[int]:
    """Per vertex v, the mask of N(v), slot 0 empty, once the height
    budget ``k`` is checked to be a positive integer."""
    _require_integer("height budget", k)
    if k < 1:
        raise ValueError("the height budget must be positive")
    nb = [0] * (g.n + 1)
    for u, v in zip(g.edge_lo.tolist(), g.edge_hi.tolist()):
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


def _path(sub: int, nb: list[int]) -> list[int]:
    """A path of the connected mask ``sub``: the deepest chain of a DFS
    tree grown from the end of the deepest chain of one grown from its
    lowest vertex (a double sweep)."""
    far = _deepest_chain((sub & -sub).bit_length() - 1, sub, nb)[-1]
    return _deepest_chain(far, sub, nb)


def _roots(path: list[int], sub: int, off_path: bool) -> Iterator[int]:
    """The roots to try for the connected mask ``sub``: its ``path`` from
    the middle outwards, the lower index first between two as far from the
    middle, then, with ``off_path``, its other vertices ascending. Each
    part is ordered only once it is reached."""
    yield path[(len(path) - 1) // 2]
    for i in sorted(range(len(path)), key=lambda i: abs(2 * i + 1 - len(path)))[1:]:
        yield path[i]
    if off_path:
        yield from _members(sub & ~sum(1 << v for v in path))


def _forest(g: ColoredGraph, k: int, shallowest: bool) -> EliminationForest | list[int] | None:
    """An elimination forest of height at most k, a shallowest one when
    ``shallowest`` is set; a path of g with at least 2^k vertices, which
    certifies tree-depth above k; or None when tree-depth exceeds k.

    ``fit`` roots a connected piece in at most ``budget`` levels. A path of
    l vertices needs ``l.bit_length()`` levels, so a piece whose
    double-sweep path needs more fails at once. Roots on that path are
    tried from its middle outwards; a root off it leaves the path whole,
    so those are tried only while the path needs fewer levels than the
    budget. The first root whose components all fit one level down is
    kept, so with no failure the first descent roots every piece at the
    middle of its path. Only failures are memoized, as the largest
    budget a mask failed. ``fit`` is a generator, and one loop keeps the
    fits under way on a list, so a search k levels deep nests no calls and
    never meets the recursion limit. A lone vertex is a root and enters no
    mask. A top-level piece's path is a path of g: when one alone needs
    more than k levels, it is returned before any root is tried.

    For the shallowest forest each top-level piece is fitted again one
    level below the height it took, until its path bound or the first
    failure, whose writes are undone from the piece's members. Dense
    graphs and graphs of high tree-depth still cost time exponential in
    n, so the search counts its work, the vertices of every mask it splits
    into components, and refuses with ``ResourceLimitError`` once that
    passes ``FOREST_WORK_CAP``.
    """
    nb = _neighbourhoods(g, k)
    parents = [0] * (g.n + 1)
    failed: dict[int, int] = {}  # mask -> the largest budget it did not fit
    cap, work = FOREST_WORK_CAP, g.n  # vertices in the masks handed to _split, n for the first

    def fit(sub: int, above: int, budget: int, path: list[int] | None = None):
        """A generator of the levels, at most ``budget``, that the connected
        mask ``sub`` of two or more vertices takes rooted below ``above``,
        its parents written; 0 when it does not fit. It yields the
        arguments of ``fit`` for each component it needs fitted and is sent
        that component's levels back."""
        nonlocal work
        if failed.get(sub, 0) >= budget:
            return 0
        path = path or _path(sub, nb)
        low = len(path).bit_length()
        if low > budget:
            failed[sub] = low - 1
            return 0
        size = sub.bit_count()
        for v in _roots(path, sub, low < budget):
            work += size - 1  # the vertices of the mask split below
            if work > cap:
                raise _forest_refusal(cap, g.n, k)
            height = 1
            for comp in _split(sub & ~(1 << v), nb):
                if comp & (comp - 1) == 0:
                    parents[comp.bit_length() - 1] = v
                elif not (below := (yield comp, v, budget - 1)):
                    break
                elif below > height:
                    height = below
            else:
                parents[v] = above
                return height + 1
        failed[sub] = budget
        return 0

    def levels(sub: int, budget: int, path: list[int]) -> int:
        """``fit`` of a top-level piece run to its end, the fits it asks
        for held on one stack, so no depth of the search nests a call."""
        stack, got = [fit(sub, 0, budget, path)], None
        while stack:
            try:
                stack.append(fit(*stack[-1].send(got)))
                got = None
            except StopIteration as done:
                stack.pop()
                got = done.value
        return got

    # bit v set when v has a neighbour: a lone vertex is a root and enters no mask
    touched = int("".join(["1" if m else "0" for m in reversed(nb)]), 2)
    pieces = [(comp, _path(comp, nb)) for comp in _split(touched, nb)]
    for _, path in pieces:
        if len(path).bit_length() > k:
            return path
    for comp, path in pieces:
        height = levels(comp, k, path)
        if not height:
            return None
        while shallowest and height > len(path).bit_length():
            members = list(_members(comp))
            kept = [parents[v] for v in members]
            height = levels(comp, height - 1, path)
            if not height:
                for v, p in zip(members, kept):
                    parents[v] = p
                break
    return EliminationForest(tuple(parents[1:]))


def compute_elimination_forest(
    g: ColoredGraph, k: int
) -> EliminationForest | None:
    """Exact minimum-height elimination forest, or None when tree-depth > k.

    ``_forest`` fits each connected piece of g within k levels, then one
    level lower each time, until its double-sweep path rules out a lower
    height or a fit fails. A fit is exhaustive below its root choices, with
    failures memoized, so the last height found is the piece's minimum.
    Dense graphs and graphs of high tree-depth still cost time exponential
    in n; past ``FOREST_WORK_CAP`` vertices split into components the search
    is refused with ``ResourceLimitError``.
    """
    found = _forest(g, k, shallowest=True)
    return None if type(found) is list else found


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

    Leaves with one parent and one colour are alike: two distinct leaves
    are 2 plus the distance between their parents apart. So the tree is
    climbed once per pair of these classes, for the pair's verdict. The
    graph then matches when every edge lies in a class pair whose verdict
    is an edge, and the edges number the vertex pairs of those class pairs.
    The first is one gather over the class-pair table, by the classes of
    the graph's stored edge ends.
    """
    if tm.tree.leaves != frozenset(g.vertices):
        raise ValueError(
            "tree-model leaves must be exactly the graph vertices 1..n"
        )
    t = tm.tree
    ids: dict[tuple[int, int], int] = {}  # (parent, colour) -> class
    leaves = zip(t.parents[: g.n], t.colors[: g.n])  # the leaves are 1..n
    of = [ids.setdefault(key, len(ids)) for key in leaves]
    sizes = Counter(of)
    classes = list(ids)
    k = len(classes)
    adjacent = bytearray(k * k)  # by class pair, row-major
    expected = 0
    for i, (p, c1) in enumerate(classes):
        for j in range(i, k):
            pairs = sizes[i] * sizes[j] if j > i else sizes[i] * (sizes[i] - 1) // 2
            if pairs:
                q, c2 = classes[j]
                edge = tm.verdict(c1, c2, 2 + t.distance(p, q))
                if edge is None:
                    return False
                if edge:
                    adjacent[i * k + j] = adjacent[j * k + i] = 1
                    expected += pairs
    if g.edge_lo.size != expected:
        return False
    table = np.frombuffer(adjacent, np.bool_).reshape(k, k)
    cls = np.array([0, *of], np.intp)  # by vertex; slot 0 is unused
    return bool(table[cls[g.edge_lo], cls[g.edge_hi]].all())


# ---------------------------------------------------------------------------
# File I/O

def write_tree(t: RootedColoredTree, stream: TextIO) -> None:
    stream.write(f"p tree {t.n} {t.c}\n")
    stream.write(f"r {t.root}\n")
    for v in range(1, t.n + 1):
        stream.write(f"t {v} {t.parents[v - 1]} {t.color_of(v)}\n")


_TREE = {"p": "p tree <n> <c>", "r": "r <root>", "t": "t <v> <parent> [<color>]"}


def read_tree(stream: TextIO) -> RootedColoredTree:
    return _read_tree(_records(stream, _TREE)).tree


def read_tree_model(stream: TextIO) -> TreeModel:
    return _read_tree(_records(stream, {**_TREE, "rule": "rule <c1> <c2> <d> <0|1>"}))


def _read_tree(found: dict[str, list[tuple[int, list[int]]]]) -> TreeModel:
    """The tree and rules of a tree or tree-model file's records; the root needs no 't' record."""
    n, c = _sized_header(found)
    roots = found["r"]
    if len(roots) != 1:
        raise ValueError(
            f"line {roots[1][0]}: duplicate root line" if roots else "missing 'r' line"
        )
    lineno, (root,) = roots[0]
    if not 1 <= root <= n:
        raise ValueError(f"line {lineno}: root {root} out of range")
    records = _by_vertex(found["t"])
    records.setdefault(root, [root, 0])
    _require_records(n, records)
    if records[root][1] != 0:
        raise ValueError(f"declared root {root} has a nonzero parent")
    _require_parents(n, found["t"])
    for lineno, (v, _, *color) in found["t"]:
        if color and not 1 <= color[0] <= c:
            raise ValueError(f"line {lineno}: vertex {v} has color {color[0]} outside 1..{c}")
    vertices = [records[v] for v in range(1, n + 1)]
    parents = tuple(numbers[1] for numbers in vertices)
    colors = tuple(numbers[2] if len(numbers) > 2 else 1 for numbers in vertices)
    keys = set()
    for lineno, (c1, c2, d, bit) in found.get("rule", []):
        key = (min(c1, c2), max(c1, c2), d)
        if bit > 1:
            raise ValueError(f"line {lineno}: rule verdict must be 0 or 1")
        if key in keys:
            raise ValueError(f"line {lineno}: duplicate rule for {key}")
        keys.add(key)
    rules = (numbers for _, numbers in found.get("rule", []))
    return TreeModel.build(RootedColoredTree(parents, colors, c), rules)


def _require_records(n: int, records: Collection[int]) -> None:
    """Refuse unless ``records`` (of 't' lines, by vertex) holds one for each vertex 1..n."""
    if not all(map(records.__contains__, range(1, n + 1))):
        for v in range(1, n + 1):
            if v not in records:
                raise ValueError(f"vertex {v} has no 't' record")
    if len(records) != n:
        raise ValueError("'t' records mention vertices outside 1..n")


def _require_parents(n: int, lines: list[tuple[int, list[int]]]) -> None:
    """Refuse, naming its line, a 't' record whose parent lies outside 0..n."""
    for lineno, (v, parent, *_) in lines:
        if parent > n:
            raise ValueError(f"line {lineno}: vertex {v} has parent {parent} out of range")


def read_forest(stream: TextIO) -> EliminationForest:
    found = _records(stream, {"p": "p forest <n>", "t": "t <v> <parent>"})
    (n,) = found["p"][0][1]
    records = _by_vertex(found["t"])
    _require_records(n, records)
    _require_parents(n, found["t"])
    return EliminationForest(tuple(records[v][1] for v in range(1, n + 1)))
