"""Colored graphs, partition flips, generators, and graph file I/O.

Vertices are the dense 1-based integers ``1..n``. Every vertex carries a
color from ``1..c``. Graphs are simple: no loops, no multi-edges.

Graph file format (ASCII, newline-delimited, ``#`` starts a comment):

    p graph <n> <c>
    v <id> <color>      # optional; color defaults to 1
    e <u> <v>

Partition files hold one part per line: ``part <k> <id> <id> ...``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, TextIO

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    colors: tuple[int, ...]
    c: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graphs must have at least one vertex")
        if len(self.colors) != self.n:
            raise ValueError("colors must assign exactly one color per vertex")
        if self.c < 1:
            raise ValueError("color count must be positive")
        for v, col in enumerate(self.colors, start=1):
            if not 1 <= col <= self.c:
                raise ValueError(f"vertex {v} has color {col} outside 1..{self.c}")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u},{v}) on {self.n} vertices")

    @staticmethod
    def build(
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        colors: Sequence[int] | None = None,
        c: int | None = None,
    ) -> "ColoredGraph":
        cols = tuple(colors) if colors is not None else (1,) * n
        palette = c if c is not None else max(cols, default=1)
        return ColoredGraph(
            n=n,
            colors=cols,
            c=palette,
            edges=frozenset(_norm_edge(u, v) for u, v in edges),
        )

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Neighborhoods, indexed by vertex (slot 0 unused)."""
        nbrs: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return _norm_edge(u, v) in self.edges

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def induced_subgraph(self, vertices: Iterable[int]) -> "ColoredGraph":
        """The subgraph induced on ``vertices``, relabeled to 1..m in
        ascending id order; colors and the palette ``c`` are kept."""
        kept = sorted(set(vertices))
        if not kept:
            raise ValueError("an induced subgraph needs at least one vertex")
        if not (1 <= kept[0] and kept[-1] <= self.n):
            raise ValueError(f"vertices must lie in 1..{self.n}")
        relabel = {old: new for new, old in enumerate(kept, start=1)}
        return ColoredGraph(
            n=len(kept),
            colors=tuple(self.color_of(v) for v in kept),
            c=self.c,
            edges=frozenset(
                (relabel[u], relabel[v])
                for u, v in self.edges
                if u in relabel and v in relabel
            ),
        )


# ---------------------------------------------------------------------------
# Partition flips

@dataclass(frozen=True)
class PartitionFlip:
    """A symmetric relation on the parts of a partial vertex partition.

    Applying the flip toggles adjacency between (and inside) related
    parts; vertices outside the partition are untouched.
    """

    parts: tuple[frozenset[int], ...]
    rel: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for part in self.parts:
            if part & seen:
                raise ValueError("partition parts overlap")
            seen |= part
        for i, j in self.rel:
            if not (0 <= i < len(self.parts) and 0 <= j < len(self.parts)):
                raise ValueError(f"flip relation mentions unknown part ({i},{j})")
            if i > j:
                raise ValueError("flip relation pairs must be stored as (i,j), i<=j")

    @staticmethod
    def build(
        parts: Sequence[Iterable[int]], rel: Iterable[tuple[int, int]]
    ) -> "PartitionFlip":
        return PartitionFlip(
            parts=tuple(frozenset(p) for p in parts),
            rel=frozenset((min(i, j), max(i, j)) for i, j in rel),
        )

    def flips(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.rel


def apply_flip(g: ColoredGraph, flip: PartitionFlip) -> ColoredGraph:
    """XOR the flip relation into the adjacency of ``g``.

    Involution: applying the same flip twice restores ``g``.
    """
    part_of: dict[int, int] = {}
    for idx, part in enumerate(flip.parts):
        for v in part:
            if not 1 <= v <= g.n:
                raise ValueError(f"part vertex {v} outside the graph")
            part_of[v] = idx
    edges = set(g.edges)
    covered = sorted(part_of)
    for u, v in itertools.combinations(covered, 2):
        if flip.flips(part_of[u], part_of[v]):
            e = (u, v)
            if e in edges:
                edges.remove(e)
            else:
                edges.add(e)
    return ColoredGraph(n=g.n, colors=g.colors, c=g.c, edges=frozenset(edges))


# ---------------------------------------------------------------------------
# Generators

def gen_path(n: int) -> ColoredGraph:
    """The path ``1 - 2 - ... - n``, all vertices colored 1."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return ColoredGraph.build(n, ((i, i + 1) for i in range(1, n)))


def gen_half_graph(t: int) -> tuple[ColoredGraph, frozenset[int], frozenset[int]]:
    """Half-graph of order ``t`` plus its two designated sides.

    Side A is ``1..t``, side B is ``t+1..2t``; ``a_i`` and ``b_j`` are
    adjacent exactly when ``i <= j``.
    """
    if t < 1:
        raise ValueError("order must be positive")
    edges = [(i, t + j) for i in range(1, t + 1) for j in range(i, t + 1)]
    g = ColoredGraph.build(2 * t, edges)
    return g, frozenset(range(1, t + 1)), frozenset(range(t + 1, 2 * t + 1))


#: All eight symmetric relations on the two half-graph sides, in binary
#: order over the pair set {(A,A), (A,B), (B,B)}. None is singled out as
#: canonical.
ALL_HALF_GRAPH_FLIP_RELATIONS: tuple[frozenset[tuple[str, str]], ...] = tuple(
    frozenset(combo)
    for size in range(4)
    for combo in itertools.combinations((("A", "A"), ("A", "B"), ("B", "B")), size)
)


def gen_flipped_half_graph(
    t: int, rel: Iterable[tuple[str, str]]
) -> ColoredGraph:
    """A flip of the half-graph along its sides.

    ``rel`` lists side pairs from {"A", "B"}, e.g. ``[("A","B")]`` flips
    all edges between the two sides.
    """
    g, side_a, side_b = gen_half_graph(t)
    index = {"A": 0, "B": 1}
    pairs = []
    for x, y in rel:
        if x not in index or y not in index:
            raise ValueError(f"unknown side in flip relation: ({x},{y})")
        pairs.append((index[x], index[y]))
    flip = PartitionFlip.build([side_a, side_b], pairs)
    return apply_flip(g, flip)


def gen_disjoint_paths(
    k: int, t: int
) -> tuple[ColoredGraph, tuple[frozenset[int], ...]]:
    """``k`` disjoint ``t``-vertex paths plus their common layering.

    Path ``a`` occupies vertices ``(a-1)*t+1 .. a*t``; layer ``i`` holds
    the i-th vertex of every path.
    """
    if k < 1 or t < 1:
        raise ValueError("both path count and path length must be positive")
    edges = [
        ((a - 1) * t + b, (a - 1) * t + b + 1)
        for a in range(1, k + 1)
        for b in range(1, t)
    ]
    g = ColoredGraph.build(k * t, edges)
    layers = tuple(
        frozenset((a - 1) * t + i for a in range(1, k + 1)) for i in range(1, t + 1)
    )
    return g, layers


def gen_layer_flipped_paths(
    k: int, t: int, rel: Iterable[tuple[int, int]]
) -> ColoredGraph:
    """Flip ``k`` disjoint paths along their layering.

    ``rel`` holds pairs of 1-based layer indices.
    """
    g, layers = gen_disjoint_paths(k, t)
    pairs = []
    for i, j in rel:
        if not (1 <= i <= t and 1 <= j <= t):
            raise ValueError(f"layer index out of range in ({i},{j})")
        pairs.append((i - 1, j - 1))
    return apply_flip(g, PartitionFlip.build(layers, pairs))


# ---------------------------------------------------------------------------
# Single-vertex/union/flip recipes

@dataclass(frozen=True)
class SCLeaf:
    """A single vertex; ``name`` identifies it in enclosing flip sets."""

    name: str
    color: int = 1


@dataclass(frozen=True)
class SCCombine:
    children: tuple["SCRecipe", ...]
    flip_names: frozenset[str]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("combine needs at least one child")


SCRecipe = SCLeaf | SCCombine


def build_sc_graph(r: SCRecipe) -> ColoredGraph:
    """Evaluate a recipe: leaves become single vertices, each combine
    takes the disjoint union of its children and toggles adjacency
    inside its flip set. Leaf names must be unique; flip sets may only
    name leaves below the combine. Vertex ids follow leaf order.

    A combine's leaves are consecutive in that order, so one pass notes
    each combine's range of leaf positions as it closes, and its flip
    set's pairs are toggled in one edge set.
    """
    leaves: list[SCLeaf] = []
    closed: list[tuple[SCCombine, int, int]] = []  # post-order, leaves (first, last]
    todo: list = [r]  # recipe nodes to open, (combine, first) pairs to close
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
                "flip set names unknown below this combine: "
                + ", ".join(sorted(missing))
            )
        flipped = sorted(ids[name] for name in node.flip_names)
        edges.symmetric_difference_update(itertools.combinations(flipped, 2))
    return ColoredGraph.build(len(leaves), edges, [leaf.color for leaf in leaves])


# ---------------------------------------------------------------------------
# Graph file I/O

def write_graph(g: ColoredGraph, stream: TextIO) -> None:
    stream.write(f"p graph {g.n} {g.c}\n")
    for v in g.vertices:
        if g.color_of(v) != 1:
            stream.write(f"v {v} {g.color_of(v)}\n")
    for u, v in sorted(g.edges):
        stream.write(f"e {u} {v}\n")


def _data_lines(stream: TextIO) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text.split()


def _natural(field: str, lineno: int) -> int:
    """``field`` read as an ASCII decimal natural number, else a ``ValueError``
    that names the line."""
    if field.isascii() and field.isdigit():
        try:
            return int(field)
        except ValueError:  # more digits than ``int`` reads
            pass
    raise ValueError(f"line {lineno}: expected a natural number, got {field!r}")


def read_graph(stream: TextIO) -> ColoredGraph:
    n = c = None
    colors: dict[int, int] = {}
    edges: set[Edge] = set()
    for lineno, fields in _data_lines(stream):
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(fields) != 4 or fields[1] != "graph":
                raise ValueError(f"line {lineno}: malformed header, want 'p graph <n> <c>'")
            n, c = _natural(fields[2], lineno), _natural(fields[3], lineno)
        elif kind == "v":
            if n is None:
                raise ValueError(f"line {lineno}: vertex line before header")
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: malformed vertex line")
            v, col = _natural(fields[1], lineno), _natural(fields[2], lineno)
            if not 1 <= v <= n:
                raise ValueError(f"line {lineno}: vertex {v} out of range")
            colors[v] = col
        elif kind == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge line before header")
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: malformed edge line")
            u, v = _natural(fields[1], lineno), _natural(fields[2], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"line {lineno}: edge endpoint out of range")
            if u == v:
                raise ValueError(f"line {lineno}: loop at vertex {u}")
            e = _norm_edge(u, v)
            if e in edges:
                raise ValueError(f"line {lineno}: duplicate edge {e}")
            edges.add(e)
        else:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
    if n is None:
        raise ValueError("missing 'p graph' header")
    return ColoredGraph.build(
        n, edges, [colors.get(v, 1) for v in range(1, n + 1)], c=c
    )


def read_partition(stream: TextIO) -> dict[int, frozenset[int]]:
    parts: dict[int, frozenset[int]] = {}
    for lineno, fields in _data_lines(stream):
        if fields[0] != "part" or len(fields) < 3:
            raise ValueError(f"line {lineno}: expected 'part <k> <id...>'")
        k = _natural(fields[1], lineno)
        if k in parts:
            raise ValueError(f"line {lineno}: duplicate part {k}")
        parts[k] = frozenset(_natural(v, lineno) for v in fields[2:])
    return parts
