"""Equivalence of colored graphs under s-variable first-order logic,
decided by refining the types of s-tuples.

A tuple is an s-tuple over the vertices plus a blank (index 0, a
variable that holds no vertex). Its atomic type lists, per slot, the
vertex color or the blank, and per pair of slots, equality and
adjacency. One refinement round gives each tuple a new type: its old
type plus, for each slot i, the *set* of old types of the tuples that
replace slot i by a vertex, over every vertex. Sets, not counts: the
logic cannot count.

Types are interned exactly and jointly over all input graphs, as dense
int32 ids. Each interning packs its columns into one int64 key in mixed
radix (the radices are class counts, known in advance) and ranks the
keys by one argsort and a running count of the steps between sorted
neighbours; where the product of radices would reach 2^62 the key is
ranked first and packing goes on from the ranks. A set of types is
packed as its sorted distinct members.

Each round refines the last, so once the number of classes stops
growing the partition is stable. Two graphs agree on every sentence
with at most s variables exactly when their all-blank tuples end in one
class (Immerman & Lander 1990). Round r keeps two tuples together
exactly when the s-pebble game from that pair of positions survives r
rounds, so ``spoiler_distance`` is the round that separates the
all-blank tuples. The work is (n+1)^s tuples per graph, not the game's
((|A|+1)(|B|+1))^s positions per pair.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .graphs import ColoredGraph, _require_integer

#: Refuse instances that would store more tuples (or table cells) than this.
DEFAULT_POSITION_CAP = 10_000_000

#: Packed type keys are made dense before their bound reaches this, so
#: they stay exact in int64.
_KEY_LIMIT = 2**62


class ResourceLimitError(RuntimeError):
    """An instance would exceed the configured cap."""


def _require_pebbles(s: int, cap: int) -> None:
    # checked before any shortcut, so equal graphs get no answer either
    _require_integer("pebble count", s)
    _require_integer("tuple cap", cap)
    if s < 1:
        raise ValueError("the pebble count must be positive")
    if cap < 1:
        raise ValueError(f"the tuple cap must be positive, got {cap}")


def _dense(key: np.ndarray) -> tuple[np.ndarray, int]:
    """(dense ids of the values of ``key``, in the values' order, the
    number of distinct values), by one argsort and a running count of
    the steps between neighbours in sorted order."""
    order = np.argsort(key)
    ordered = key[order]
    rank = np.empty(len(key), np.int32 if len(key) < 2**31 else np.int64)
    rank[0] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=rank[1:])
    del ordered
    np.cumsum(rank, out=rank)
    ids = np.empty_like(rank)
    ids[order] = rank
    return ids, int(rank[-1]) + 1


def _intern(columns) -> tuple[np.ndarray, int]:
    """(dense ids of the rows formed by ``(column, base)`` pairs, whose
    values lie in ``range(base)``, the number of distinct rows).

    Exact: the columns are packed into one int64 key in mixed radix, and
    the key is made dense again wherever the next radix would take its
    bound to ``_KEY_LIMIT``.
    """
    columns = iter(columns)
    first, bound = next(columns)
    key = first.astype(np.int64)
    for col, base in columns:
        if bound * base >= _KEY_LIMIT:
            key, bound = _dense(key)
            key = key.astype(np.int64)
        key *= base
        key += col
        bound *= base
    return _dense(key)


def _set_ids(rows: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """(dense ids of the sets of types listed by the rows of ``rows``,
    the number of distinct sets). Each set is written as its sorted
    distinct members plus one, after a run of zeros, and packed in radix
    ``count + 1``. ``rows`` is overwritten."""
    rows.sort(axis=1)
    repeat = rows[:, 1:] == rows[:, :-1]
    rows += 1
    rows[:, 1:][repeat] = 0
    width = rows.shape[1] - int(repeat.sum(axis=1).min())
    del repeat
    rows.sort(axis=1)
    return _intern((col, count + 1) for col in rows.T[-width:])


def _spread(table: np.ndarray, sides: list[int], s: int, axes) -> np.ndarray:
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


def _atomic_columns(graphs, sides: list[int], s: int):
    """``(column, base)`` pairs over the tuples of all graphs: per slot
    the color (0 for the blank), then per slot pair 2 * equal + adjacent.
    Colors are replaced by their rank among the colors of all graphs, so
    any color value fits the packed keys of ``_intern``."""
    palette = sorted({col for g in graphs for col in g.colors})
    rank = {col: i for i, col in enumerate(palette, start=1)}
    colors = np.array([r for g in graphs for r in [0, *map(rank.get, g.colors)]], np.int32)
    for i in range(s):
        yield _spread(colors, sides, s, {i}), len(rank) + 1
    if s == 1:
        return  # no slot pairs, whose (n+1) x (n+1) tables may outgrow the tuples
    pairs = [np.eye(m, dtype=np.int8) * 2 for m in sides]  # equal, never adjacent
    for g, table in zip(graphs, pairs):
        u, v = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp).reshape(-1, 2).T
        table[u, v] = table[v, u] = 1
    pairs = np.concatenate(pairs, axis=None)
    for ij in itertools.combinations(range(s), 2):
        yield _spread(pairs, sides, s, ij), 3


def _rows(types: np.ndarray, sides: list[int], starts: list[int], s: int) -> np.ndarray:
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


def _refine(
    graphs: Sequence[ColoredGraph], s: int, cap: int, until_split: bool
) -> tuple[np.ndarray, int]:
    """(class id of each graph's all-blank tuple, rounds run).

    Refines until the partition is stable, or with ``until_split`` until
    the all-blank tuples no longer share one class. Viewed with one axis
    of n + 1 per slot, a graph's types hold one context (a tuple with
    slot i left open) per line along axis i: its set is the line minus
    the blank, and its id goes back to every tuple on the line.
    """
    sides = [g.n + 1 for g in graphs]
    sizes = [m**s for m in sides]
    if sum(sizes) > cap:
        raise ResourceLimitError(
            f"type refinement needs {sum(sizes)} tuples (cap {cap}): "
            f"vertex counts {[g.n for g in graphs]}, s={s}"
        )
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    others = [set(range(s)) - {i} for i in range(s)]
    types, count = _intern(_atomic_columns(graphs, sides, s))
    for rounds in itertools.count(1):
        sets, nsets = _set_ids(_rows(types, sides, starts, s), count)  # joint over all slots
        columns = zip(sets.reshape(s, -1), others)
        slots = ((_spread(ids, sides, s, axes), nsets) for ids, axes in columns)
        new, new_count = _intern(itertools.chain([(types, count)], slots))
        blanks = new[starts]
        if new_count == count or until_split and (blanks != blanks[0]).any():
            return blanks, rounds
        types, count = new, new_count


def _run_game(
    a: ColoredGraph, b: ColoredGraph, s: int, cap: int
) -> tuple[bool, int | None]:
    """(the s-pebble game's start position survives, the round in which
    it dies), read off the refinement of both graphs' tuple types."""
    blanks, rounds = _refine([a, b], s, cap, until_split=True)
    alive = bool(blanks[0] == blanks[1])
    return alive, None if alive else rounds


def fo_s_equivalent(
    a: ColoredGraph, b: ColoredGraph, s: int, cap: int = DEFAULT_POSITION_CAP
) -> bool:
    """Whether ``a`` and ``b`` satisfy the same sentences with at most
    ``s`` distinct variables."""
    return spoiler_distance(a, b, s, cap) is None


def spoiler_distance(
    a: ColoredGraph, b: ColoredGraph, s: int, cap: int = DEFAULT_POSITION_CAP
) -> int | None:
    """The refinement round that separates the all-blank tuples, or None
    when the graphs are equivalent. This is the number of rounds in which
    the spoiler wins the s-pebble game."""
    _require_pebbles(s, cap)
    if a == b:
        return None
    alive, death_round = _run_game(a, b, s, cap)
    return None if alive else death_round


def type_census(
    graphs: Sequence[ColoredGraph], s: int, cap: int = DEFAULT_POSITION_CAP
) -> list[list[int]]:
    """Partition input indices into equivalence classes, blocks in order
    of their first member.

    Equal graphs share a block without refinement; the distinct ones are
    refined together, once, and grouped by their all-blank tuple's class.
    """
    _require_pebbles(s, cap)
    first: dict[ColoredGraph, int] = {}
    rep = [first.setdefault(g, len(first)) for g in graphs]
    classes = _refine(list(first), s, cap, until_split=False)[0] if len(first) > 1 else [0]
    blocks: dict[int, list[int]] = {}
    for idx, r in enumerate(rep):
        blocks.setdefault(int(classes[r]), []).append(idx)
    return list(blocks.values())
