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

The input graphs are refined in blocks, one per vertex count: a block
of G graphs with n + 1 = m holds its tuple keys as one (G, m, ..., m)
array, slot 0 on the last axis, so each slot-0 context is one line of
it, and every step of a round is one array operation per block, not one
per graph. Each size's contexts are sorted and deduplicated at its own
width, in place in the round's keys, which are read no more, so one large
graph does not pad the rows of many small ones. The keys are built by
broadcasting each block's (G, m) colors, (G, m, m) equality and
adjacency tables and (G, m, ..., m) slot-0 set ids over its tuples; no
column is spread over all tuples.

Each round's context partition refines the last one (round -1's is
the atomic type of the tuple with slot 0 blank), so tuple types need no
dense ids. Round r + 1's type of a tuple is (round r's type, round r's
set ids of its s contexts), and round r's type is (atomic type, round
r - 1's set ids). Round r's set ids determine round r - 1's, so round
r + 1's type partitions the tuples exactly as (atomic type, round r's
set ids) does. The set ids fix most of the atomic type: every member
of a slot-i context (there is one, as n >= 1) has the tuple's atomic
type off slot i. So only what touches every slot is packed beside them:
at s = 1 the color of slot 0, at s = 2 the equality and adjacency of
slots 0 and 1, and from s = 3 on nothing, as each slot and each pair of
slots lies off some third slot. Each round packs these columns, jointly
over all blocks, into one exact int64 key in mixed radix (the radices,
the set count and the color count or 3, are known in advance). Only
where the product of radices would reach 2^62 is the key ranked, by one
argsort, and packing goes on from the ranks.

A context's row holds its set's distinct member keys, sorted after a
run of -1, and each row is ranked whole as one byte string. Two rows
hold the same set exactly when their bytes are equal. On a
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
import math
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


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """``flat`` cut into consecutive blocks, each viewed with its shape."""
    views, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        views.append(flat[lo:hi].reshape(shape))
        lo = hi
    return views


def _pack(columns) -> tuple[np.ndarray, int]:
    """(an exact int64 key of the tuples of all blocks, a bound above
    every key). The first item of ``columns`` is the blocks' shapes, and
    the key holds the blocks one after another; each later item is an
    ``(arrays, base)`` column: one array per block, with values in
    ``range(base)``, broadcast over the block's tuples.

    The columns are packed in mixed radix, and the key is made dense,
    jointly over all blocks, first wherever the next radix would take
    its bound to ``_KEY_LIMIT``. Between two such steps each column is
    added once, scaled by the radices after it, so the key is written
    once per column.
    """
    columns = iter(columns)
    shapes = next(columns)
    key = np.empty(sum(map(math.prod, shapes)), np.int64)
    views = _views(key, shapes)
    head, bound, run = None, 1, []
    for blocks, base in columns:
        if bound * base >= _KEY_LIMIT and bound > 1:
            _write(views, head, run)
            key, bound = _dense(key)
            key = key.astype(np.int64)
            views = _views(key, shapes)
            head, run = views, []
        run.append((blocks, base))
        bound *= base
    _write(views, head, run)
    return key, bound


def _write(views: list[np.ndarray], head: list[np.ndarray] | None, run) -> None:
    """Write into ``views`` the ``head`` arrays (none: zeros) followed, in
    mixed radix, by the ``(arrays, base)`` columns of ``run``; ``head``
    may be ``views``. Without a head, the first two columns are summed
    into the key by one broadcast."""
    total = 1
    for _, base in run:
        total *= base
    terms, weight = [], total  # (arrays, weight) per column
    for blocks, base in run:
        weight //= base
        terms.append((blocks, np.int64(weight)))
    if head is not None:
        for view, block in zip(views, head):
            np.multiply(block, total, out=view)
    elif len(terms) > 1:
        (first, a), (second, b) = terms[:2]
        for view, x, y in zip(views, first, second):
            np.add(x * a, y * b, out=view)
        terms = terms[2:]
    else:
        for view, block in zip(views, terms[0][0]):
            np.multiply(block, terms[0][1], out=view)
        terms = terms[1:]
    for blocks, weight in terms:
        for view, block in zip(views, blocks):
            view += block * weight


def _set_ids(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(dense ids of the sets written by the rows of ``rows``, the number
    of distinct sets). Each row holds its set's distinct members, sorted
    after a run of -1, as ``_rows`` writes them, and is ranked whole as
    one byte string."""
    return _dense(rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel())


def _by_size(graphs: Sequence[ColoredGraph]) -> list[list[int]]:
    """The input indices grouped by vertex count, groups in order of
    their first member."""
    groups: dict[int, list[int]] = {}
    for idx, g in enumerate(graphs):
        groups.setdefault(g.n, []).append(idx)
    return list(groups.values())


def _atomic_parts(groups: list[list[ColoredGraph]], s: int):
    """(each block's (G, m) colors, m = n + 1, 0 for the blank, as int32
    at s = 1; from s = 2 on each block's (G, m, m) int8 table of
    2 * equal + adjacent, else none; the number of color values). Colors
    are replaced by their rank among the colors of all graphs, so any
    color value fits the packed keys of ``_pack``."""
    # the blank's 0 sorts below every color, so it ranks 0 and a color c
    # ranks one more than the number of smaller colors
    palette = sorted(set().union([0], *(g.colors for group in groups for g in group)))
    dtype = np.int64 if palette[-1] < 2**63 else object  # a dtype that holds every color
    palette = np.array(palette, dtype)
    colors, rels = [], []
    for group in groups:
        size, m = len(group), group[0].n + 1
        blank_first = itertools.chain.from_iterable(itertools.chain((0,), g.colors) for g in group)
        values = np.fromiter(blank_first, dtype, size * m)
        ranks = np.searchsorted(palette, values).reshape(size, m)
        del values
        if s == 1:  # the colors are read every round, and there are no slot
            # pairs, whose (n+1) x (n+1) tables may outgrow the tuples
            colors.append(ranks.astype(np.int32))
            continue
        colors.append(ranks)
        rel = np.zeros((size, m, m), np.int8)
        rel.reshape(size, m * m)[:, :: m + 1] = 2  # equal, never adjacent
        which = np.repeat(np.arange(size), [len(g.edge_lo) for g in group])
        lo = np.concatenate([g.edge_lo for g in group])
        hi = np.concatenate([g.edge_hi for g in group])
        rel[which, lo, hi] = rel[which, hi, lo] = 1
        rels.append(rel)
    return colors, rels, len(palette)


def _atomic(colors: list[np.ndarray], rels: list[np.ndarray], palette: int, s: int):
    """The blocks' (G, m, ..., m) tuple shapes, then the ``(arrays, base)``
    columns of the atomic key, as ``_pack`` reads them, from the parts of
    ``_atomic_parts``. At s = 1 the column is the colors. Otherwise there
    is one column per pair of tuple axes a < b, read off a (G, m, m)
    table: 2 * equal + adjacent, plus the color at b when a is the first
    axis, plus the color at a too when b is the second; so every axis's
    color is read once."""
    yield [c.shape + c.shape[1:] * (s - 1) for c in colors]
    if s == 1:
        yield colors, palette
    for a, b in itertools.combinations(range(s), 2):  # tuple axes a + 1 < b + 1
        tables, base = rels, 3
        if a == 0:  # the color at b, and at a too for the first pair
            tables = [c[:, None, :] * base + rel for c, rel in zip(colors, rels)]
            base *= palette
            if b == 1:
                for c, t in zip(colors, tables):
                    t += c[:, :, None] * base
                base *= palette
        yield [t.reshape(t.shape[:1] + (1,) * a + t.shape[1:2] + (1,) * (b - a - 1) + t.shape[2:] + (1,) * (s - 1 - b)) for t in tables], base


def _rows(views: list[np.ndarray]) -> np.ndarray:
    """One row per slot-0 context (a tuple with slot 0 left open), block
    after block in tuple order: the distinct type keys of the tuples that
    put a vertex into slot 0, sorted after a run of -1. Each block's rows
    are sorted and deduplicated at its own width, in place in its keys,
    and all are copied out padded only to the most distinct members of
    any row."""
    blocks = [_block_rows(types) for types in views]
    if len(blocks) == 1:
        rows, drop = blocks[0]
        return rows[:, drop:].copy()
    width = max([rows.shape[1] - drop for rows, drop in blocks])
    out = np.full((sum([len(rows) for rows, _ in blocks]), width), -1, np.int64)
    at = 0
    for rows, drop in blocks:
        out[at : at + len(rows), width - rows.shape[1] + drop :] = rows[:, drop:]
        at += len(rows)
    return out


def _block_rows(types: np.ndarray) -> tuple[np.ndarray, int]:
    """One block's rows of ``_rows``, sorted in place in its tuple keys,
    whose last axis puts the blank and then each vertex into slot 0, and
    the number of leading -1 in every row."""
    rows = types.reshape(-1, types.shape[-1])
    rows[:, 0] = -1  # the blank is no member
    rows.sort(axis=1)
    repeat = rows[:, 1:] == rows[:, :-1]
    np.copyto(rows[:, 1:], -1, where=repeat)
    drop = int(repeat.sum(axis=1).min()) + 1
    del repeat
    rows.sort(axis=1)
    return rows, drop


def _slot_columns(blocks: list[np.ndarray], nsets: int, s: int):
    """``(arrays, base)`` per slot i: the set id of each tuple's slot-i
    context. That is the slot-0 set id of the tuple with slots 0 and i
    swapped, so each block's (G, m, ..., m) slot-0 ids, whose axes after
    the first are slots 1 .. s-1, are read with slot i's axis moved last,
    where the tuple keys hold slot 0, and a unit axis in its place."""
    yield [ids[..., None] for ids in blocks], nsets
    for i in range(1, s):
        order = (0, *range(1, i), *range(i + 1, s), i)
        spot = (slice(None),) * i + (None,)
        yield [ids.transpose(order)[spot] for ids in blocks], nsets


def _refine(graphs: Sequence[ColoredGraph], s: int, cap: int):
    """Yield, round after round until the partition is stable, (each
    graph's array of slot-0 context set ids, the number of sets).

    The graphs are refined in blocks, one per vertex count in order of
    first appearance. A block of G graphs with m = n + 1 holds its tuple
    keys as one (G, m, ..., m) array, slots 1 .. s-1 on the middle axes
    and slot 0 on the last, so each line along the last axis is one
    slot-0 context: its set is the line minus the blank. Round r's sets
    give round r + 1's tuple keys, packed from the set ids of each slot's
    context and, below s = 3, the part of the atomic type that no slot
    context fixes. Each round's set partition refines the last one, so
    the first round whose set count does not grow is the last.
    """
    sides = [g.n + 1 for g in graphs]
    if s > cap.bit_length():  # every side is at least 2, so m**s > cap
        raise ResourceLimitError(
            f"type refinement needs more than {cap} tuples (cap {cap}): "
            f"vertex counts {[g.n for g in graphs]}, more than {cap.bit_length()} pebbles"
        )
    tuples = sum(m**s for m in sides)
    if tuples > cap:
        raise ResourceLimitError(
            f"type refinement needs {tuples} tuples (cap {cap}): "
            f"vertex counts {[g.n for g in graphs]}, s={s}"
        )
    groups = _by_size(graphs)
    shapes, spans, lo = [], [None] * len(graphs), 0  # spans: each graph's slot-0 contexts
    for group in groups:
        m = sides[group[0]]
        shapes.append((len(group),) + (m,) * s)
        for idx in group:
            spans[idx] = lo, lo + m ** (s - 1)
            lo += m ** (s - 1)
    contexts = [shape[:-1] for shape in shapes]
    colors, rels, palette = _atomic_parts([[graphs[i] for i in group] for group in groups], s)
    types = _views(_pack(_atomic(colors, rels, palette, s))[0], shapes)
    # round -1's sets: the atomic types of the tuples with slot 0 blank
    known = _dense(np.concatenate([block[..., 0] for block in types], axis=None))[1]
    # the part of the atomic type that no slot context fixes
    unfixed = [(colors, palette)] if s == 1 else [(rels, 3)] if s == 2 else []
    del colors, rels
    while True:
        rows = _rows(types)
        del types  # sorted in place, and read no more
        ids, nsets = _set_ids(rows)
        del rows
        yield [ids[lo:hi] for lo, hi in spans], nsets
        if nsets == known:
            return
        known = nsets
        blocks = _views(ids, contexts)
        columns = itertools.chain([shapes], _slot_columns(blocks, nsets, s), unfixed)
        types = _views(_pack(columns)[0], shapes)


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
