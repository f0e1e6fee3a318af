"""Equivalence of colored graphs under s-variable first-order logic,
decided by refining types: of vertices at s <= 2, of s-tuples from s = 3.

One variable sees a vertex's color and nothing else, so at s = 1 two
graphs agree exactly when they have the same set of colors: the answers
compare those sets and build no array.

Two variables need no pair table either. By the normal form of FO^2
(Grädel & Otto, TCS 1999), a formula phi(x, y) of quantifier rank r is a
boolean combination of atoms in x and y and of rank-r formulas with one
free variable. So a pair's rank-r type is its atomic type (equal,
adjacent or neither) plus the rank-r 1-types of its two vertices, and a
vertex's rank-(r + 1) 1-type is its rank-r type plus the set of (atomic
type, rank-r type) over every vertex w. The equal pair gives the vertex's
own type; the adjacent pairs give its neighbours' types; a non-adjacent
vertex of type T exists exactly when count_T - |N(v) ∩ T| - [type(v) = T]
> 0 in v's graph. So a vertex's next type is fixed, within its graph, by
its type, whether it is the only vertex of its type, and for each
distinct type T of its neighbours whether T is *full* (every other
vertex of type T is a neighbour), written as the code 2 * T + full.
``_type_rounds`` ranks these rows, jointly over all graphs, by one sort
of the arcs per round, so a round stores O(n + m), not (n+1)^2 tuples.
The cap counts those cells, n + 2m per graph. A sentence of rank r + 1
is a boolean combination of sentences "some vertex has rank-r type T",
so a sentence of rank r + 1 tells two graphs apart exactly when their
sets of rank-r types differ. The answers count the colors (rank 0) as
round 1, so the first round whose realised sets differ is the spoiler's
distance, and both ``fo_s_equivalent`` and ``spoiler_distance`` stop
there.
The rows hold no graph id, though the non-adjacent part of a type reads
the set of types its graph realises. Two graphs that realise the same
types in every round so far read the same sets, so within them the
joint ranking is exact; once two graphs realise different types, every
later round keeps them apart, because each round's type holds the last
one. A census therefore groups the graphs by their final realised sets.

From s = 3 on a tuple is an s-tuple over the vertices plus a blank (index
0, a variable that holds no vertex). Its atomic type lists, per slot, the
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
set ids) does. The set ids fix the whole atomic type: every member of a
slot-i context (there is one, as n >= 1) has the tuple's atomic type
off slot i, and from s = 3 on each slot and each pair of slots lies off
some third slot. So a round's key packs the s slots' set ids alone, jointly
over all blocks, into one exact int64 key in mixed radix (the radix, the
set count, is known in advance). Only where the product of radices would
reach 2^62 is the key ranked, by one argsort, and packing goes on from
the ranks.

A context's row holds its set's distinct member keys, sorted after a
run of -1, and each row is ranked whole as one byte string. Two rows
hold the same set exactly when their bytes are equal. On a
little-endian host byte order is not numeric order, but ranking needs
only an order that keeps equal rows together, so the set ids are exact.
Its members are packed keys of up to 62 bits, so a chunk key of the
kind below would hold one member alone.

The 1-type rows hold values below 2n, and they are ranked by exact
int64 keys instead. A pass cuts every row into chunks of as many places
as one key below 2^62 holds, writing a value v as the digit v + 1 and a
place past the row's end as 0, so chunks of different lengths get
different keys. It ranks all chunks together, and the rows of chunk ids
are ranked the same way until every row is one chunk. A graph's set of
stable types is one more such row.

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


def _refusal(need: str, cap: int, sizes: list[int], rest: str) -> ResourceLimitError:
    """``need`` against ``cap``, then the vertex counts and ``rest``. Past
    eight graphs only their count and the four largest counts are named,
    so a refused census stays one short line."""
    counts = f"vertex counts {sizes}"
    if len(sizes) > 8:
        top = sorted(sizes, reverse=True)[:4]
        counts = f"{len(sizes)} graphs of up to {top[0]} vertices, the largest vertex counts {top}"
    return ResourceLimitError(f"{need} (cap {cap}): {counts}, {rest}")


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
    order = key.argsort()
    ordered = key[order]
    rank = np.empty(len(key), np.int32 if len(key) < 2**31 else np.int64)
    rank[0] = 0
    rank[1:] = ordered[1:] != ordered[:-1]
    del ordered
    rank.cumsum(out=rank)
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


def _atomic_parts(groups: list[list[ColoredGraph]]):
    """(each block's (G, m) colors, m = n + 1, 0 for the blank; each
    block's (G, m, m) int8 table of 2 * equal + adjacent; the number of
    color values). Colors are replaced by their rank among the colors of
    all graphs, so any color value fits the packed keys of ``_pack``."""
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
        colors.append(np.searchsorted(palette, values).reshape(size, m))
        del values
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
    ``_atomic_parts``: one column per pair of tuple axes a < b, read off a
    (G, m, m) table: 2 * equal + adjacent, plus the color at b when a is
    the first axis, plus the color at a too when b is the second; so every
    axis's color is read once."""
    yield [c.shape + c.shape[1:] * (s - 1) for c in colors]
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
    context alone (s >= 3). Each round's set partition refines the last
    one, so the first round whose set count does not grow is the last.
    """
    sides = [g.n + 1 for g in graphs]
    if s > cap.bit_length():  # every side is at least 2, so m**s > cap
        need = f"type refinement needs more than {cap} tuples"
        raise _refusal(need, cap, [g.n for g in graphs], f"more than {cap.bit_length()} pebbles")
    tuples = sum(m**s for m in sides)
    if tuples > cap:
        raise _refusal(f"type refinement needs {tuples} tuples", cap, [g.n for g in graphs], f"s={s}")
    groups = _by_size(graphs)
    shapes, spans, lo = [], [None] * len(graphs), 0  # spans: each graph's slot-0 contexts
    for group in groups:
        m = sides[group[0]]
        shapes.append((len(group),) + (m,) * s)
        for idx in group:
            spans[idx] = lo, lo + m ** (s - 1)
            lo += m ** (s - 1)
    contexts = [shape[:-1] for shape in shapes]
    colors, rels, palette = _atomic_parts([[graphs[i] for i in group] for group in groups])
    types = _views(_pack(_atomic(colors, rels, palette, s))[0], shapes)
    # round -1's sets: the atomic types of the tuples with slot 0 blank
    known = _dense(np.concatenate([block[..., 0] for block in types], axis=None))[1]
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
        columns = itertools.chain([shapes], _slot_columns(blocks, nsets, s))
        types = _views(_pack(columns)[0], shapes)


def _type_rounds(graphs: Sequence[ColoredGraph], cap: int):
    """Yield, round after round until the partition is stable, (each
    vertex's 1-type, the graphs' vertices one after another, the number
    of types, the number of distinct (graph, type) pairs).

    Round 0's types are the colors; round r + 1 ranks each vertex's row
    with ``_rank_rows``, by int64 chunk keys: 2 * its type + whether it
    is the only vertex of its type in its graph, then the sorted codes
    2 * T + full over the distinct types T of its neighbours. A round
    stores O(n + m), and the cap counts its cells, n + 2m per graph, once
    before the first.
    """
    sizes = [g.n for g in graphs]
    n, edges = sum(sizes), sum([len(g.edge_lo) for g in graphs])
    if n + 2 * edges > cap:
        raise _refusal(f"1-type refinement needs {n + 2 * edges} cells", cap, sizes, f"{edges} edges, s=2")
    dtype = np.int32 if n < 2**30 else np.int64  # codes and heads lie below 2n
    ends = list(itertools.accumulate(sizes, initial=-1))  # each graph's 1-based ids made global, from 0
    lo = np.concatenate([g.edge_lo + at for g, at in zip(graphs, ends)])
    hi = np.concatenate([g.edge_hi + at for g, at in zip(graphs, ends)])
    tail, head = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    del lo, hi
    order = tail.argsort(kind="stable")
    tail, head = tail[order], head[order]  # the arcs by tail
    del order
    graph = np.repeat(np.arange(len(graphs)), sizes)
    top = max(max(g.colors) for g in graphs)
    colors = itertools.chain.from_iterable(g.colors for g in graphs)
    types, ntypes = _dense(np.fromiter(colors, np.int64 if top < 2**63 else object, n))
    while True:
        joint = graph * ntypes
        joint += types
        ranked, pairs = _dense(joint)
        del joint
        yield types, ntypes, pairs
        members = np.bincount(ranked).take(ranked)  # of each vertex's type in its graph
        del ranked
        # the arcs by (tail, head's type): each run is one tail's neighbours
        # of one type, and the tails stay in place
        key = tail * ntypes
        key += types[head]
        order = key.argsort(kind="stable")
        key = key[order]
        step = np.empty(len(key) + 1, bool)
        step[0] = step[-1] = True
        np.not_equal(key[1:], key[:-1], out=step[1:-1])
        del key
        runs = step.nonzero()[0]  # each run's first arc, then the end
        del step
        owner, near = tail[runs[:-1]], head[order[runs[:-1]]]
        del order
        kind = types[near]
        # full: every other vertex of the type is a neighbour
        full = members[near] - (runs[1:] - runs[:-1]) == (types[owner] == kind)
        del runs
        codes = np.multiply(kind, 2, dtype=dtype)
        codes += full
        del kind, full, near
        heads = np.multiply(types, 2, dtype=dtype)
        heads += members == 1
        del members
        types, count = _rank_rows(heads, owner, codes)
        if count == ntypes:
            return
        ntypes = count


def _rank_rows(heads: np.ndarray, owner: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, int]:
    """(dense ids of the rows (``heads[v]``, then the ``codes`` whose
    ``owner`` is v, in order), the number of distinct rows); ``owner`` is
    sorted.

    The rows lie one after another in one int64 array. Each pass cuts
    every row into chunks of as many places as one key below 2^62 holds
    in base r, one more than the largest digit: a value v is the digit
    v + 1 and a place past the row's end the digit 0, so chunks of
    different lengths get different keys. The pass ranks all chunks
    together, and each row's chunk ids are its values in the next pass,
    until every row is one chunk. A value of 2^31 - 2 or more leaves one
    place per key, so a pass that would have to shorten a row then is
    refused; the values are below 2n and then below the cells of a
    round, so only past 2^30 vertices or 2^31 - 2 cells.
    """
    n = len(heads)
    lengths = np.bincount(owner, minlength=n)
    lengths += 1
    starts = np.cumsum(lengths) - lengths  # each row's head
    values = np.empty(n + len(codes), np.int64)
    values[starts] = heads
    values[np.arange(1, len(codes) + 1) + owner] = codes  # code i goes to i + owner[i] + 1
    while True:
        values += 1  # the digits
        radix = int(values.max()) + 1
        width = 62 // radix.bit_length()
        if width < 2 and len(values) > n:
            raise ResourceLimitError(f"1-type rows hold a value of {radix - 2}, past 2^31 - 3")
        place = np.arange(len(values))
        place -= np.repeat(starts, lengths)
        place %= width
        firsts = (place == 0).nonzero()[0]  # each chunk's first place
        terms = (radix ** np.arange(width - 1, -1, -1, dtype=np.int64))[place]
        del place
        terms *= values
        del values
        values, count = _dense(np.add.reduceat(terms, firsts))
        if len(values) == n:
            return values, count
        del terms, firsts
        lengths = -(-lengths // width)
        starts = np.cumsum(lengths) - lengths


def _run_game(a: ColoredGraph, b: ColoredGraph, s: int, cap: int) -> tuple[bool, int | None]:
    """(the s-pebble game's start position survives, one more than the
    first round, from 0, in which the two graphs realise different context
    sets, or below s = 3 different 1-types; there that is the spoiler's
    distance)."""
    if s == 1:
        return (True, None) if set(a.colors) == set(b.colors) else (False, 1)
    if s == 2:
        for rounds, (_, ntypes, pairs) in enumerate(_type_rounds([a, b], cap), start=1):
            if pairs < 2 * ntypes:  # a type realised in one graph alone
                return False, rounds
        return True, None
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
    """The refinement round that separates the all-blank tuples (below
    s = 3, the first round whose realised 1-types differ), or None when
    the graphs are equivalent. This is the number of rounds in which the
    spoiler wins the s-pebble game."""
    s, cap = _require_pebbles(s, cap)
    if a == b:
        return None
    if s <= 2:
        return _run_game(a, b, s, cap)[1]
    for rounds, (sets, _) in enumerate(_refine([a, b], s, cap), start=1):
        if sets[0][0] != sets[1][0]:
            return rounds
    return None


def _final_types(graphs: Sequence[ColoredGraph], cap: int) -> list[int]:
    """Each graph's set of stable 1-types, as an id: ``_rank_rows`` ranks
    one row per graph, 0 and then the graph's sorted types."""
    for types, ntypes, _ in _type_rounds(graphs, cap):
        pass
    graph = np.repeat(np.arange(len(graphs)), [g.n for g in graphs])
    pairs = np.unique(graph * ntypes + types)  # by graph, then type
    return _rank_rows(np.zeros(len(graphs), np.int64), pairs // ntypes, pairs % ntypes)[0].tolist()


def type_census(
    graphs: Sequence[ColoredGraph], s: int, cap: int = DEFAULT_POSITION_CAP
) -> list[list[int]]:
    """Partition input indices into equivalence classes, blocks in order
    of their first member.

    Equal graphs share a block without refinement; the distinct ones are
    refined together, once, and grouped by the final set of their
    all-blank tuple's context: at s = 1 their set of colors, at s = 2
    the id ``_rank_rows`` gives their set of stable 1-types.
    """
    s, cap = _require_pebbles(s, cap)
    first: dict[ColoredGraph, int] = {}
    rep = [first.setdefault(g, len(first)) for g in graphs]
    classes: list = [0]
    if len(first) > 1:
        if s == 1:
            classes = [frozenset(g.colors) for g in first]
        elif s == 2:
            classes = _final_types(list(first), cap)
        else:
            for sets, _ in _refine(list(first), s, cap):
                classes = [int(ids[0]) for ids in sets]
    blocks: dict[object, list[int]] = {}
    for idx, r in enumerate(rep):
        blocks.setdefault(classes[r], []).append(idx)
    return list(blocks.values())
