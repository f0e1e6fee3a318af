"""Colored graphs, partition flips, generators, and graph file I/O.

Vertices are the dense 1-based integers ``1..n``. Every vertex carries a
color from ``1..c``. Graphs are simple: no loops, no multi-edges.

A ``ColoredGraph`` stores its edges once, when it is built, as two
read-only ``np.intp`` arrays ``edge_lo < edge_hi``, sorted by (lo, hi)
with no repeats: 16 bytes per edge. Every reader in the package uses them,
and every graph the package makes from its own data is built as arrays,
never as Python tuples; flips and recipes keep the keys ``lo * (n + 1) +
hi`` that occur an odd number of times. Edges given as pairs are checked
all at once; a per-edge loop runs only to name a fault.
``edges``, a frozenset of (lo, hi) tuples, is a view for callers that want
a set: it is built on first read and kept, at about 0.1–0.4 µs and 80–150
bytes per edge (2 cores), so nothing in the package reads it.

Graph file format (ASCII, newline-delimited, ``#`` starts a comment, lines
in any order):

    p graph <n> <c>
    v <id> <color>      # optional; color defaults to 1
    e <u> <v>

Partition files hold one part per line: ``part <k> <id> <id> ...``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from typing import Collection, Iterable, Sequence, TextIO

import numpy as np

Edge = tuple[int, int]


def _require_integer(name: str, value: object) -> int:
    """Refuse a count that is not an integer, under the rule colors follow,
    and return it as an int (a numpy integer has no ``bit_length``); an
    int passes without the slower ``Integral`` check."""
    if type(value) is int:
        return value
    if not isinstance(value, Integral):
        raise ValueError(f"{name} {value!r} is not an integer")
    return operator.index(value)


def _require_ids(name: str, ids: Collection[int]) -> None:
    """Refuse the first of ``ids`` that is not an integer; a sum of ints
    is an int, so the loop runs only to name the fault."""
    try:
        exact = type(sum(ids)) is int
    except TypeError:  # a value that is not a number
        exact = False
    if not exact:
        for v in ids:
            _require_integer(name, v)


def _inferred_palette(colors: Sequence[int]) -> int:
    """The palette of ``colors`` when none is given: their largest, or 1 when
    that is not a positive integer, so ``_require_palette`` names the vertex."""
    top = max(colors, default=1)
    return top if isinstance(top, Integral) and top >= 1 else 1


def _require_palette(colors: Sequence[int], c: int) -> int:
    """Refuse a palette size ``c`` that is not an integer or lies below 1,
    or a color of vertex v (``colors[v-1]``) that is not an integer or lies
    outside 1..c, and return c as an int. A sum of ints is an int, and a
    float, NaN included, makes it a float."""
    c = _require_integer("color count", c)
    if c < 1:
        raise ValueError("color count must be positive")
    if colors and not (type(sum(colors)) is int and 1 <= min(colors) <= max(colors) <= c):
        for v, col in enumerate(colors, start=1):
            if not isinstance(col, Integral):
                raise ValueError(f"vertex {v} has color {col!r}, not an integer")
            if not 1 <= col <= c:
                raise ValueError(f"vertex {v} has color {col} outside 1..{c}")
    return c


def _name_bad_edge(n: int, pairs: Iterable[Edge]) -> None:
    """Refuse the first of ``pairs`` that is not an edge u < v of 1..n with
    integer ends; the loop that names it runs only when a check over all
    of them has failed."""
    for u, v in pairs:
        if not (1 <= u < v <= n and type(u) is type(v) is int):
            if not (isinstance(u, Integral) and isinstance(v, Integral)):
                raise ValueError(f"edge ({u!r},{v!r}) has an endpoint that is not an integer")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed in a simple graph")
            if not 1 <= u < v <= n:
                raise ValueError(f"bad edge ({u},{v}) on {n} vertices")


def _edge_arrays(n: int, edges: Iterable[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """The ends (lo, hi) of the pairs of ``edges``, each u < v in 1..n with
    integer ends, sorted by the key ``lo * (n + 1) + hi``, with repeats
    merged. The pairs are split into their first and second ends in one
    pass, which refuses pairs of other lengths; a sum of ints is an int,
    and the range and order checks run at builtin speed over all ends at
    once. When a check fails, ``_name_bad_edge`` names the first fault."""
    pairs = frozenset(edges)  # a frozenset is not copied
    m = len(pairs)
    try:
        us, vs = zip(*pairs, strict=True) if m else ((), ())
        exact = (
            type(sum(us) + sum(vs)) is int
            and (not m or 1 <= min(us) and max(vs) <= n)
            and all(map(operator.lt, us, vs))
        )
    except (TypeError, ValueError):
        exact = False
    if not exact:
        _name_bad_edge(n, pairs)  # raises, unless the ends are integers of another type
    ends = np.fromiter(chain(us, vs), np.intp, 2 * m)
    keys = ends[:m] * (n + 1)
    keys += ends[m:]
    keys.sort()
    return np.divmod(keys, n + 1)


class ColoredGraph:
    """A simple graph on the vertices 1..n, vertex v coloured ``colors[v-1]``
    from 1..c; n is ``len(colors)``, read off the colours, never given.

    The edges are stored once, as two read-only ``np.intp`` arrays: edge i
    joins ``edge_lo[i] < edge_hi[i]``, and the edges are sorted by (lo, hi)
    without repeats. ``==`` and ``hash`` read (colors, c) and these
    arrays. ``edges``, a frozenset of (lo, hi) tuples, is a view built on
    first read and kept.

    ``ColoredGraph(colors, c, edges)`` takes pairs u < v and merges
    repeats; ``build`` takes n and either orientation, fills in the
    colours and refuses colours that do not number n.
    """

    __slots__ = ("n", "colors", "c", "edge_lo", "edge_hi", "_edges")

    n: int
    colors: tuple[int, ...]
    c: int
    edge_lo: np.ndarray
    edge_hi: np.ndarray

    def __init__(self, colors: tuple[int, ...], c: int, edges: Iterable[Edge]) -> None:
        if not colors:
            raise ValueError("graphs must have at least one vertex")
        c = _require_palette(colors, c)
        self._fill(colors, c, *_edge_arrays(len(colors), edges))

    def _fill(self, colors: tuple[int, ...], c: int, lo: np.ndarray, hi: np.ndarray) -> None:
        lo.setflags(write=False)
        hi.setflags(write=False)
        fill = object.__setattr__
        fill(self, "n", len(colors))
        fill(self, "colors", colors)
        fill(self, "c", c)
        fill(self, "edge_lo", lo)
        fill(self, "edge_hi", hi)
        fill(self, "_edges", None)

    @classmethod
    def _of_arrays(
        cls, colors: tuple[int, ...], c: int, lo: np.ndarray, hi: np.ndarray
    ) -> "ColoredGraph":
        """The graph whose fields these are, unchecked: the caller derives
        them from a checked graph or tree, ``lo`` and ``hi`` as the class
        stores them. The arrays are made read-only."""
        g = object.__new__(cls)
        g._fill(colors, c, lo, hi)
        return g

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: a ColoredGraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: a ColoredGraph is immutable")

    def __reduce__(self):
        return ColoredGraph._of_arrays, (self.colors, self.c, self.edge_lo, self.edge_hi)

    def __eq__(self, other: object) -> bool:
        if type(other) is not ColoredGraph:
            return NotImplemented
        return (
            self.c == other.c
            and self.colors == other.colors
            and self.edge_lo.tobytes() == other.edge_lo.tobytes()
            and self.edge_hi.tobytes() == other.edge_hi.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.colors, self.c, self.edge_lo.tobytes(), self.edge_hi.tobytes()))

    def __repr__(self) -> str:
        return f"ColoredGraph(colors={self.colors!r}, c={self.c!r}, edges={self.edges!r})"

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as (lo, hi) tuples: built on first read, O(m) Python
        objects, for callers that want a set."""
        if self._edges is None:
            view = frozenset(zip(self.edge_lo.tolist(), self.edge_hi.tolist()))
            object.__setattr__(self, "_edges", view)
        return self._edges

    @staticmethod
    def build(
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        colors: Sequence[int] | None = None,
        c: int | None = None,
    ) -> "ColoredGraph":
        n = _require_integer("vertex count", n)
        cols = tuple(colors) if colors is not None else (1,) * n
        if len(cols) != n:
            raise ValueError("colors must assign exactly one color per vertex")
        palette = c if c is not None else _inferred_palette(cols)
        return ColoredGraph(cols, palette, frozenset((u, v) if u < v else (v, u) for u, v in edges))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def induced_subgraph(self, vertices: Iterable[int]) -> "ColoredGraph":
        """The subgraph induced on ``vertices``, relabeled to 1..m in
        ascending id order; colors and the palette ``c`` are kept. The
        relabelling is monotone, so the kept edges stay sorted; on every
        vertex it is the identity, and the graph itself is returned."""
        kept = sorted(set(vertices))
        _require_ids("vertex", kept)
        if not kept:
            raise ValueError("an induced subgraph needs at least one vertex")
        if not (1 <= kept[0] and kept[-1] <= self.n):
            raise ValueError(f"vertices must lie in 1..{self.n}")
        if len(kept) == self.n:
            return self
        relabel = np.zeros(self.n + 1, np.intp)
        relabel[np.array(kept, np.intp)] = np.arange(1, len(kept) + 1)
        lo, hi = relabel[self.edge_lo], relabel[self.edge_hi]
        inside = np.logical_and(lo, hi)
        lo, hi = lo[inside], hi[inside]
        colors = self.colors
        return ColoredGraph._of_arrays(tuple([colors[v - 1] for v in kept]), self.c, lo, hi)


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
            _require_ids("part vertex", part)
            if part & seen:
                raise ValueError("partition parts overlap")
            seen |= part
        for i, j in self.rel:
            _require_ids("flip relation part", (i, j))
            if not (0 <= i < len(self.parts) and 0 <= j < len(self.parts)):
                raise ValueError(f"flip relation mentions unknown part ({i},{j})")
            if i > j:
                raise ValueError("flip relation pairs must be stored as (i,j), i<=j")

    @staticmethod
    def build(
        parts: Sequence[Iterable[int]], rel: Iterable[tuple[int, int]]
    ) -> "PartitionFlip":
        rel = [tuple(pair) for pair in rel]
        _require_ids("flip relation part", [part for pair in rel for part in pair])
        return PartitionFlip(
            parts=tuple(frozenset(p) for p in parts),
            rel=frozenset((min(i, j), max(i, j)) for i, j in rel),
        )


def _toggled(n: int, keys: np.ndarray, pairs: Iterable[tuple[np.ndarray, np.ndarray]]):
    """The edges (lo, hi) whose keys ``lo * (n + 1) + hi`` occur an odd number
    of times in ``keys`` and in the pairs {u, v}, u in ``a`` and v in ``b``, of
    each (a, b) of ``pairs``: each pair of ``a`` once if ``a is b``, else all."""
    keys = [keys]
    for a, b in pairs:
        i, j = np.triu_indices(len(a), 1) if a is b else np.indices((len(a), len(b))).reshape(2, -1)
        keys.append(np.minimum(a[i], b[j]) * (n + 1) + np.maximum(a[i], b[j]))
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    return np.divmod(keys[counts % 2 == 1], n + 1)


def apply_flip(g: ColoredGraph, flip: PartitionFlip) -> ColoredGraph:
    """XOR the flip relation into the adjacency of ``g``: each related pair
    of parts costs the pairs of its vertices, and a sort of the m edge keys
    follows. Of the part vertices outside 1..n, the least is named.

    Involution: applying the same flip twice restores ``g``.
    """
    parts = [part for part in flip.parts if part]
    if parts and not (1 <= min(map(min, parts)) and max(map(max, parts)) <= g.n):
        outside = min(v for part in parts for v in part if not 1 <= v <= g.n)
        raise ValueError(f"part vertex {outside} outside the graph")
    ends = {i: np.fromiter(flip.parts[i], np.intp) for pair in flip.rel for i in pair}
    lo, hi = _toggled(g.n, g.edge_lo * (g.n + 1) + g.edge_hi, [(ends[i], ends[j]) for i, j in flip.rel])
    return ColoredGraph._of_arrays(g.colors, g.c, lo, hi)


# ---------------------------------------------------------------------------
# Generators

def gen_path(n: int) -> ColoredGraph:
    """The path ``1 - 2 - ... - n``, all vertices colored 1."""
    _require_integer("vertex count", n)
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    lo, hi = np.arange(1, n, dtype=np.intp), np.arange(2, n + 1, dtype=np.intp)
    return ColoredGraph._of_arrays((1,) * n, 1, lo, hi)


def gen_half_graph(t: int) -> tuple[ColoredGraph, frozenset[int], frozenset[int]]:
    """Half-graph of order ``t`` plus its two designated sides.

    Side A is ``1..t``, side B is ``t+1..2t``; ``a_i`` and ``b_j`` are
    adjacent exactly when ``i <= j``.
    """
    _require_integer("order", t)
    if t < 1:
        raise ValueError("order must be positive")
    i, j = np.triu_indices(t)  # i <= j, sorted by (i, j)
    g = ColoredGraph._of_arrays((1,) * (2 * t), 1, i + 1, j + (t + 1))
    return g, frozenset(range(1, t + 1)), frozenset(range(t + 1, 2 * t + 1))


def gen_disjoint_paths(
    k: int, t: int
) -> tuple[ColoredGraph, tuple[frozenset[int], ...]]:
    """``k`` disjoint ``t``-vertex paths plus their common layering.

    Path ``a`` occupies vertices ``(a-1)*t+1 .. a*t``; layer ``i`` holds
    the i-th vertex of every path.
    """
    _require_integer("path count", k)
    _require_integer("path length", t)
    if k < 1 or t < 1:
        raise ValueError("both path count and path length must be positive")
    lo = np.arange(1, k * t + 1, dtype=np.intp).reshape(k, t)[:, :-1].ravel()
    g = ColoredGraph._of_arrays((1,) * (k * t), 1, lo, lo + 1)
    return g, tuple(frozenset(range(i, k * t + 1, t)) for i in range(1, t + 1))


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
    each combine's range of leaf positions as it closes, and the pairs of
    all flip sets are toggled at once, as edge keys.
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
    flips = []
    for node, first, last in closed:
        missing = [name for name in node.flip_names if not first < ids.get(name, 0) <= last]
        if missing:
            raise ValueError(
                "flip set names unknown below this combine: "
                + ", ".join(sorted(missing))
            )
        flipped = np.fromiter(map(ids.__getitem__, node.flip_names), np.intp)
        flips.append((flipped, flipped))
    colors = tuple(leaf.color for leaf in leaves)
    c = _require_palette(colors, _inferred_palette(colors))  # as ``ColoredGraph.build`` does
    lo, hi = _toggled(len(leaves), np.empty(0, np.intp), flips)
    return ColoredGraph._of_arrays(colors, c, lo, hi)


# ---------------------------------------------------------------------------
# Graph file I/O

def write_graph(g: ColoredGraph, stream: TextIO) -> None:
    stream.write(f"p graph {g.n} {g.c}\n")
    for v in g.vertices:
        if g.color_of(v) != 1:
            stream.write(f"v {v} {g.color_of(v)}\n")
    for u, v in zip(g.edge_lo.tolist(), g.edge_hi.tolist()):
        stream.write(f"e {u} {v}\n")


def _data_lines(stream: TextIO) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text.split()


def _natural(field: str, where: int | str) -> int:
    """``field`` read as an ASCII decimal natural number, else a ``ValueError``
    that names where it was read: a file's line number, or another place."""
    if field.isascii() and field.isdigit():
        try:
            return int(field)
        except ValueError:  # more digits than ``int`` reads
            pass
    place = f"line {where}" if isinstance(where, int) else where
    raise ValueError(f"{place}: expected a natural number, got {field!r}")


def _records(stream: TextIO, shapes: dict[str, str]) -> dict[str, list[tuple[int, list[int]]]]:
    """The data lines of ``stream`` by kind, each as (line number, its
    numbers), after one ``p`` header.

    ``shapes`` maps each kind to its usage text: in it a plain word must
    match, each ``<...>`` is read as a natural, and a trailing ``[...]``
    may be left out. Ranges, and repeats of other kinds, are left to the
    caller.
    """
    usages = {kind: usage.split() for kind, usage in shapes.items()}
    found: dict[str, list[tuple[int, list[int]]]] = {kind: [] for kind in shapes}
    for lineno, fields in _data_lines(stream):
        kind = fields[0]
        if kind not in usages:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
        words = usages[kind]
        if not len(words) - words[-1].startswith("[") <= len(fields) <= len(words) or any(
            word != field for word, field in zip(words, fields) if word[0] not in "<["
        ):
            raise ValueError(f"line {lineno}: want '{shapes[kind]}'")
        if kind == "p" and found["p"]:
            raise ValueError(f"line {lineno}: duplicate header")
        numbers = [_natural(field, lineno) for word, field in zip(words, fields) if word[0] in "<["]
        found[kind].append((lineno, numbers))
    if not found["p"]:
        raise ValueError(f"missing header '{shapes['p']}'")
    return found


def _by_vertex(lines: list[tuple[int, list[int]]]) -> dict[int, list[int]]:
    """The numbers of ``lines`` keyed by their first, a vertex; a second
    line for one vertex is refused, naming its line."""
    by_vertex: dict[int, list[int]] = {}
    for lineno, numbers in lines:
        if numbers[0] in by_vertex:
            raise ValueError(f"line {lineno}: duplicate record for vertex {numbers[0]}")
        by_vertex[numbers[0]] = numbers
    return by_vertex


def _sized_header(found: dict[str, list[tuple[int, list[int]]]]) -> tuple[int, int]:
    """(n, c) of a graph or tree header; a palette below 1 is refused, naming its line."""
    lineno, (n, c) = found["p"][0]
    if c < 1:
        raise ValueError(f"line {lineno}: color count must be positive")
    return n, c


def read_graph(stream: TextIO) -> ColoredGraph:
    """The graph of a graph file. A header that declares more vertices
    than ``pebble.DEFAULT_POSITION_CAP``, the evaluator's largest table, is
    refused with ``ResourceLimitError``, naming its line, before anything
    is built per vertex."""
    from .pebble import DEFAULT_POSITION_CAP, ResourceLimitError  # pebble imports this module

    found = _records(stream, {"p": "p graph <n> <c>", "v": "v <id> <color>", "e": "e <u> <v>"})
    n, c = _sized_header(found)
    if n > DEFAULT_POSITION_CAP:
        raise ResourceLimitError(
            f"line {found['p'][0][0]}: the header declares {n} vertices, more than "
            f"the limit of {DEFAULT_POSITION_CAP}"
        )
    for lineno, (v, col) in found["v"]:
        if not 1 <= v <= n:
            raise ValueError(f"line {lineno}: vertex {v} out of range")
        if not 1 <= col <= c:
            raise ValueError(f"line {lineno}: vertex {v} has color {col} outside 1..{c}")
    colors = {v: col for v, col in _by_vertex(found["v"]).values()}
    edges: set[Edge] = set()
    for lineno, (u, v) in found["e"]:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {lineno}: edge endpoint out of range")
        if u == v:
            raise ValueError(f"line {lineno}: loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise ValueError(f"line {lineno}: duplicate edge {e}")
        edges.add(e)
    return ColoredGraph.build(n, edges, [colors.get(v, 1) for v in range(1, n + 1)], c=c)


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
