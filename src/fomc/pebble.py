"""Equivalence of colored graphs under s-variable first-order logic,
decided by refining the types of s-tuples.

A tuple is an s-tuple over the vertices plus a blank (index 0, a
variable that holds no vertex). Its atomic type lists, per slot, the
vertex color or the blank, and per pair of slots, equality and
adjacency. One refinement round gives each tuple a new type: its old
type plus, for each slot i, the *set* of old types of the tuples that
replace slot i by a vertex, over every vertex (the tuple's slot-i
context). Sets, not counts: the logic cannot count.

Only slot 0's contexts are built. The refinement commutes with
permuting the slots: atomic types permute with them, and equality and
adjacency are symmetric. So a tuple's slot-i set partitions the tuples
exactly as the slot-0 set of the tuple with slots 0 and i swapped does,
and slot i's column is slot 0's set ids read with those two axes
swapped. A round builds sum (n+1)^(s-1) contexts, not s times that.
Each graph's contexts are sorted and deduplicated at its own width, so
one large graph does not pad the rows of many small ones.

Types are interned exactly and jointly over all input graphs, as dense
int32 ids. Each interning packs its columns into one int64 key in mixed
radix (the radices are class counts, known in advance) and ranks the
keys by one argsort and a running count of the steps between sorted
neighbours; where the product of radices would reach 2^62 the key is
ranked first and packing goes on from the ranks. A set of types is
packed as its sorted distinct members.

Each round's context partition refines the last one; round 0's is the
atomic type of the tuple with slot 0 blank. The types a round adds are
read off its contexts, so a round whose set count does not grow would
add nothing: the partition is stable, and the refinement stops before
interning that round's types. Two graphs agree on every sentence with
at most s variables exactly when their all-blank tuples end in one class
(Immerman & Lander 1990). Round r keeps two tuples together exactly when
the s-pebble game from that pair of positions survives r rounds.

``fo_s_equivalent`` answers False at the first round in which one graph
realises a type that the other does not: the spoiler pebbles such a
tuple in at most s moves and wins from there. ``spoiler_distance`` is
the round that separates the all-blank tuples, so it refines until they
split (or the partition is stable); an earlier difference of realised
types only bounds it, from below by that round and from above by s more.
The work is (n+1)^s tuples per graph, not the game's
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
    """(dense ids of the sets of types written by the rows of ``rows``,
    the number of distinct sets). Each row holds its set's sorted
    distinct members plus one after a run of zeros, as ``_rows`` writes
    them, and is packed in radix ``count + 1``."""
    return _intern((col, count + 1) for col in rows.T)


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
    """``(column, base)`` pairs over the tuples of all graphs: per slot
    the color (0 for the blank), then per slot pair 2 * equal + adjacent.
    Colors are replaced by their rank among the colors of all graphs, so
    any color value fits the packed keys of ``_intern``."""
    palette = sorted({col for g in graphs for col in g.colors})
    rank = {col: i for i, col in enumerate(palette, start=1)}
    lead = (-1,) + (1,) * (s - 1)  # a table over slot 0
    colors = [np.array([0, *map(rank.get, g.colors)], np.int32).reshape(lead) for g in graphs]
    for i in range(s):
        yield _spread(colors, sides, s, np.int32, i), len(rank) + 1
    if s == 1:
        return  # no slot pairs, whose (n+1) x (n+1) tables may outgrow the tuples
    pairs = [np.eye(m, dtype=np.int8) * 2 for m in sides]  # equal, never adjacent
    for g, table in zip(graphs, pairs):
        u, v = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp).reshape(-1, 2).T
        table[u, v] = table[v, u] = 1
    for i, j in itertools.combinations(range(s), 2):
        # a table over slots 0 and j, spread with slots 0 and i swapped
        shapes = ([m if k in (0, j) else 1 for k in range(s)] for m in sides)
        yield _spread(map(np.reshape, pairs, shapes), sides, s, np.int8, i), 3


def _rows(types: np.ndarray, sides: list[int], starts: list[int], s: int) -> np.ndarray:
    """One row per slot-0 context (a tuple with slot 0 left open), graph
    after graph in tuple order: the distinct types of the tuples that put
    a vertex into slot 0, plus one, sorted after a run of zeros. Each
    graph's rows are sorted and deduplicated at its own width, and all are
    padded only to the most distinct members of any row."""
    blocks = []
    for lo, m in zip(starts, sides):
        rows = types[lo : lo + m**s].reshape(m, -1)[1:].T.copy()
        rows.sort(axis=1)
        repeat = rows[:, 1:] == rows[:, :-1]
        rows += 1
        rows[:, 1:][repeat] = 0
        drop = int(repeat.sum(axis=1).min())
        del repeat
        rows.sort(axis=1)
        blocks.append(rows[:, drop:].copy() if drop else rows)
    width = max(block.shape[1] for block in blocks)
    out = np.zeros((sum(map(len, blocks)), width), types.dtype)
    at = 0
    for block in blocks:
        out[at : at + len(block), width - block.shape[1] :] = block
        at += len(block)
    return out


def _slot_sets(sets: np.ndarray, nsets: int, sides: list[int], s: int):
    """``(column, base)`` per slot i: the set id of each tuple's slot-i
    context. That is the slot-0 set id of the tuple with slots 0 and i
    swapped, so each graph's slot-0 ids, whose axes are slots 1 .. s-1,
    are spread with slots 0 and i swapped."""
    ids, at = [], 0
    for m in sides:
        ids.append(sets[at : at + m ** (s - 1)].reshape((m,) * (s - 1)))
        at += m ** (s - 1)
    for i in range(s):
        yield _spread(ids, sides, s, sets.dtype, i), nsets


def _refine(graphs: Sequence[ColoredGraph], s: int, cap: int):
    """Yield, round after round from the atomic types (round 0) until the
    partition is stable, (each graph's array of tuple types, the number
    of types).

    Viewed with one axis of n + 1 per slot, a graph's types hold one
    slot-0 context per line along axis 0: its set is the line minus the
    blank. Each round's set partition refines the last one, so the first
    round whose set count does not grow leaves the types as they are,
    and the refinement stops before interning them again.
    """
    sides = [g.n + 1 for g in graphs]
    sizes = [m**s for m in sides]
    if sum(sizes) > cap:
        raise ResourceLimitError(
            f"type refinement needs {sum(sizes)} tuples (cap {cap}): "
            f"vertex counts {[g.n for g in graphs]}, s={s}"
        )
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    types, count = _intern(_atomic_columns(graphs, sides, s))
    # round 0's context partition: the atomic types of the tuples with slot 0 blank
    heads = np.concatenate([types[lo : lo + m ** (s - 1)] for lo, m in zip(starts, sides)])
    known = _dense(heads)[1]
    while True:
        yield [types[lo : lo + size] for lo, size in zip(starts, sizes)], count
        sets, nsets = _set_ids(_rows(types, sides, starts, s), count)
        if nsets == known:
            return
        known = nsets
        slots = _slot_sets(sets, nsets, sides, s)
        types, count = _intern(itertools.chain([(types, count)], slots))


def _run_game(
    a: ColoredGraph, b: ColoredGraph, s: int, cap: int, *, first_separation: bool = False
) -> tuple[bool, int | None]:
    """(the s-pebble game's start position survives, the round in which
    it dies), read off the refinement of both graphs' tuple types.

    With ``first_separation`` the verdict is the same, but the round
    reported is the first in which the two graphs realise different sets
    of types (0 when their atomic types differ), which may come before
    the start position dies."""
    for rounds, (types, count) in enumerate(_refine([a, b], s, cap)):
        if first_separation:
            seen = np.zeros((2, count), bool)
            seen[0, types[0]] = seen[1, types[1]] = True
            apart = (seen[0] != seen[1]).any()
        else:
            apart = types[0][0] != types[1][0]
        if apart:
            return False, rounds
    return True, None


def fo_s_equivalent(
    a: ColoredGraph, b: ColoredGraph, s: int, cap: int = DEFAULT_POSITION_CAP
) -> bool:
    """Whether ``a`` and ``b`` satisfy the same sentences with at most
    ``s`` distinct variables."""
    _require_pebbles(s, cap)
    return a == b or _run_game(a, b, s, cap, first_separation=True)[0]


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
    classes = [0]
    if len(first) > 1:
        for types, _ in _refine(list(first), s, cap):
            classes = [t[0] for t in types]
    blocks: dict[int, list[int]] = {}
    for idx, r in enumerate(rep):
        blocks.setdefault(int(classes[r]), []).append(idx)
    return list(blocks.values())
