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

Each round's context partition refines the last one (round -1's is
the atomic type of the tuple with slot 0 blank), so tuple types need no
dense ids. Round r + 1's type of a tuple is (round r's type, round r's
set ids of its s contexts), and round r's type is (atomic type, round
r - 1's set ids). Round r's set ids determine round r - 1's, so round
r + 1's type partitions the tuples exactly as (atomic type, round r's
set ids) does. Each round therefore packs the atomic key and the s
set-id columns, jointly over all input graphs, into one exact int64 key
in mixed radix (the radices, the atomic bound and the set count, are
known in advance). Only where the product of radices would reach 2^62
is the key ranked, by one argsort, and packing goes on from the ranks.

A context's row holds its set's distinct member keys plus one, sorted
after a run of zeros, and each row is ranked whole as one byte string.
Two rows hold the same set exactly when their bytes are equal. On a
little-endian host byte order is not numeric order, but ranking needs
only an order that keeps equal rows together, so the set ids are exact.

A round whose set count does not grow leaves the partition stable, and
the refinement stops. Two graphs agree on every sentence with at most
s variables exactly when their all-blank tuples end in one class
(Immerman & Lander 1990). Round r keeps two tuples together exactly when
the s-pebble game from that pair of positions survives r rounds.

Each answer reads the rounds of ``_refine`` with its own stopping rule.
``fo_s_equivalent`` answers False at the first round in which one graph
realises a context set that the other does not. Every tuple with that
context has a next-round type realised in that graph alone, and the
spoiler pebbles such a tuple in at most s moves and wins from there.
This also covers the all-blank contexts: a set of tuples blank in every
slot but 0 is realised by the all-blank context alone, so when the
all-blank contexts differ, so do the realised sets.
``spoiler_distance`` is one more than the first round whose all-blank
contexts differ, so it refines until they split (or the partition is
stable); an earlier difference of realised sets only bounds it.
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


def _require_pebbles(s: int, cap: int) -> tuple[int, int]:
    """``(s, cap)`` as ints, checked before any shortcut, so equal graphs
    get no answer either."""
    s = _require_integer("pebble count", s)
    cap = _require_integer("tuple cap", cap)
    if s < 1:
        raise ValueError("the pebble count must be positive")
    if cap < 1:
        raise ValueError(f"the tuple cap must be positive, got {cap}")
    return s, cap


def _dense(key: np.ndarray) -> tuple[np.ndarray, int]:
    """(dense ids of the values of ``key``, in the values' order, the
    number of distinct values), by one argsort and a running count of
    the steps between neighbours in sorted order. Only equality matters,
    so any total order that keeps equal values together will do."""
    order = np.argsort(key)
    ordered = key[order]
    rank = np.empty(len(key), np.int32 if len(key) < 2**31 else np.int64)
    rank[0] = 0
    rank[1:] = ordered[1:] != ordered[:-1]
    del ordered
    np.cumsum(rank, out=rank)
    ids = np.empty_like(rank)
    ids[order] = rank
    return ids, int(rank[-1]) + 1


def _pack(columns) -> tuple[np.ndarray, int]:
    """(an exact int64 key of the rows formed by ``(column, base)`` pairs,
    whose values lie in ``range(base)``, a bound above every key).

    The columns are packed in mixed radix, and the key is made dense
    first wherever the next radix would take its bound to ``_KEY_LIMIT``.
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
    return key, bound


def _set_ids(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(dense ids of the sets written by the rows of ``rows``, the number
    of distinct sets). Each row holds its set's distinct members plus
    one, sorted after a run of zeros, as ``_rows`` writes them, and is
    ranked whole as one byte string."""
    return _dense(rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel())


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
    any color value fits the packed keys of ``_pack``."""
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
        table[g.edge_lo, g.edge_hi] = table[g.edge_hi, g.edge_lo] = 1
    for i, j in itertools.combinations(range(s), 2):
        # a table over slots 0 and j, spread with slots 0 and i swapped
        shapes = ([m if k in (0, j) else 1 for k in range(s)] for m in sides)
        yield _spread(map(np.reshape, pairs, shapes), sides, s, np.int8, i), 3


def _rows(types: np.ndarray, sides: list[int], starts: list[int], s: int) -> np.ndarray:
    """One row per slot-0 context (a tuple with slot 0 left open), graph
    after graph in tuple order: the distinct type keys of the tuples that
    put a vertex into slot 0, plus one, sorted after a run of zeros. Each
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


def _slot_sets(sets: list[np.ndarray], nsets: int, sides: list[int], s: int):
    """``(column, base)`` per slot i: the set id of each tuple's slot-i
    context. That is the slot-0 set id of the tuple with slots 0 and i
    swapped, so each graph's slot-0 ids, whose axes are slots 1 .. s-1,
    are spread with slots 0 and i swapped."""
    ids = [block.reshape((m,) * (s - 1)) for block, m in zip(sets, sides)]
    for i in range(s):
        yield _spread(ids, sides, s, sets[0].dtype, i), nsets


def _refine(graphs: Sequence[ColoredGraph], s: int, cap: int):
    """Yield, round after round until the partition is stable, (each
    graph's array of slot-0 context set ids, the number of sets).

    Viewed with one axis of n + 1 per slot, a graph's tuple keys hold one
    slot-0 context per line along axis 0: its set is the line minus the
    blank. Round r's sets give round r + 1's tuple keys, packed from the
    atomic key and the set ids of each slot's context. Each round's set
    partition refines the last one, so the first round whose set count
    does not grow is the last.
    """
    sides = [g.n + 1 for g in graphs]
    if s > cap.bit_length():  # every side is at least 2, so m**s > cap
        raise ResourceLimitError(
            f"type refinement needs more than {cap} tuples (cap {cap}): "
            f"vertex counts {[g.n for g in graphs]}, more than {cap.bit_length()} pebbles"
        )
    sizes = [m**s for m in sides]
    if sum(sizes) > cap:
        raise ResourceLimitError(
            f"type refinement needs {sum(sizes)} tuples (cap {cap}): "
            f"vertex counts {[g.n for g in graphs]}, s={s}"
        )
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    contexts = list(itertools.accumulate((m ** (s - 1) for m in sides), initial=0))
    atomic = _pack(_atomic_columns(graphs, sides, s))
    types = atomic[0]
    # round -1's sets: the atomic types of the tuples with slot 0 blank
    heads = [types[lo : lo + m ** (s - 1)] for lo, m in zip(starts, sides)]
    known = _dense(np.concatenate(heads))[1]
    while True:
        sets, nsets = _set_ids(_rows(types, sides, starts, s))
        sets = [sets[lo:hi] for lo, hi in itertools.pairwise(contexts)]
        yield sets, nsets
        if nsets == known:
            return
        known = nsets
        types = _pack(itertools.chain([atomic], _slot_sets(sets, nsets, sides, s)))[0]


def _run_game(a: ColoredGraph, b: ColoredGraph, s: int, cap: int) -> tuple[bool, int | None]:
    """(the s-pebble game's start position survives, one more than the
    first round in which the two graphs realise different context sets)."""
    for rounds, (sets, nsets) in enumerate(_refine([a, b], s, cap), start=1):
        seen = np.zeros((2, nsets), bool)
        seen[0, sets[0]] = seen[1, sets[1]] = True
        if (seen[0] != seen[1]).any():
            return False, rounds
    return True, None


def fo_s_equivalent(
    a: ColoredGraph, b: ColoredGraph, s: int, cap: int = DEFAULT_POSITION_CAP
) -> bool:
    """Whether ``a`` and ``b`` satisfy the same sentences with at most
    ``s`` distinct variables."""
    s, cap = _require_pebbles(s, cap)
    return a == b or _run_game(a, b, s, cap)[0]


def spoiler_distance(
    a: ColoredGraph, b: ColoredGraph, s: int, cap: int = DEFAULT_POSITION_CAP
) -> int | None:
    """The refinement round that separates the all-blank tuples, or None
    when the graphs are equivalent. This is the number of rounds in which
    the spoiler wins the s-pebble game."""
    s, cap = _require_pebbles(s, cap)
    if a != b:
        for rounds, (sets, _) in enumerate(_refine([a, b], s, cap), start=1):
            if sets[0][0] != sets[1][0]:
                return rounds
    return None


def type_census(
    graphs: Sequence[ColoredGraph], s: int, cap: int = DEFAULT_POSITION_CAP
) -> list[list[int]]:
    """Partition input indices into equivalence classes, blocks in order
    of their first member.

    Equal graphs share a block without refinement; the distinct ones are
    refined together, once, and grouped by the final set of their
    all-blank tuple's context.
    """
    s, cap = _require_pebbles(s, cap)
    first: dict[ColoredGraph, int] = {}
    rep = [first.setdefault(g, len(first)) for g in graphs]
    classes = [0]
    if len(first) > 1:
        for sets, _ in _refine(list(first), s, cap):
            classes = [ids[0] for ids in sets]
    blocks: dict[int, list[int]] = {}
    for idx, r in enumerate(rep):
        blocks.setdefault(int(classes[r]), []).append(idx)
    return list(blocks.values())
