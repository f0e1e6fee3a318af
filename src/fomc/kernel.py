"""Shrink a colored bounded-depth rooted tree to a small equivalent core.

The reduction works bottom-up. At every vertex the already-reduced child
subtrees are grouped by class id (rooted colored isomorphism); of
each group only the first ``s`` representatives are kept, the rest are
deleted wholesale. Keeping s copies per class is enough for the tree and
its core to agree on every sentence with at most s variables: with only
s pebbles in play, the spoiler side can never pin down more than s siblings
of one isomorphism class at a time.

The size guarantee is the recurrence

    bound(s, 0, c) = 1
    bound(s, k, c) = 1 + s * p * bound(s, k-1, c+1),
    p = (2c * bound(s, k-1, c+1)) ** bound(s, k-1, c+1)

where p over-counts the possible child classes: children are classified
as if the root's neighbors carried a palette doubled by marking, hence
the c+1 and 2c. The value explodes for k >= 3, so results carry a
saturated bound (capped at BOUND_CAP) together with an exactness flag.

Determinism: one pass visits the vertices deepest level first, ids
ascending within a level, so the pass reaches a vertex after all its
children, and the children of one parent in id order. A leaf's class is
its colour; an inner vertex's class is interned Aho-Hopcroft-Ullman
style from (colour, sorted classes of its kept children), numbered past
the palette in pass order. Equal classes mean isomorphic reduced
subtrees. A vertex is kept by its parent when it is among the first s
of its class there, so a parent keeps the s smallest ids of each child
class. Only the kept set and the bound are pinned, not the class
numbers. Re-reducing a reduced tree keeps everything, and the kept set
only grows with s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import ColoredGraph, _require_ids, _require_integer
from .pebble import DEFAULT_POSITION_CAP, ResourceLimitError, fo_s_equivalent
from .trees import RootedColoredTree, _link_graph, restrict_tree

#: Saturation threshold for the size bound carried in results.
BOUND_CAP = 10**30
#: The most bits an exact size bound may have.
BOUND_BITS = 4096


def kernel_size_bound(s: int, k: int, c: int) -> int:
    """Exact value of the size recurrence, refused with
    ``ResourceLimitError`` when it has more than 4096 bits (``BOUND_BITS``).

    The value is astronomical for k >= 3: (1, 3, 1) alone would need
    about 3.5 * 10^12 bits. Use ``kernel_size_bound_capped`` when only a
    comparison is needed.
    """
    value = _bound(s, k, c, BOUND_BITS)
    if value is None:
        raise ResourceLimitError(
            f"the kernel size bound at s={s}, k={k}, c={c} has more than {BOUND_BITS} bits"
        )
    return value


def kernel_size_bound_capped(s: int, k: int, c: int) -> tuple[int, bool]:
    """(min(bound, BOUND_CAP), whether the returned value is exact)."""
    value = _bound(s, k, c, BOUND_CAP.bit_length())
    if value is None or value > BOUND_CAP:
        return BOUND_CAP, False
    return value, True


def _bound(s: int, k: int, c: int, bits: int) -> int | None:
    """The value of the recurrence, or None when it has more than
    ``bits`` bits; no power of more than 2 * ``bits`` bits is computed."""
    s = _require_integer("variable budget", s)
    k = _require_integer("depth", k)
    c = _require_integer("color count", c)
    if s < 1 or c < 1 or k < 0:
        raise ValueError("need s >= 1, c >= 1, k >= 0")
    value = 1  # bound(s, 0, c + k)
    for j in reversed(range(k)):
        # value is bound(s, k-j-1, c+j+1); step to bound(s, k-j, c+j)
        base = 2 * (c + j) * value
        # base ** value has more than (bit_length(base) - 1) * value bits
        if (base.bit_length() - 1) * value >= bits:
            return None
        value = 1 + s * base**value * value
        if value.bit_length() > bits:
            return None
    return value


@dataclass(frozen=True)
class KernelResult:
    """Outcome of a reduction.

    ``tree`` is the input and ``kept`` the vertices of it that the kernel
    keeps: the root and, below each kept vertex, the first ``s`` children
    of each child class. ``bound`` is the size guarantee, saturated at
    BOUND_CAP when ``bound_exact`` is false. The kernel tree itself is
    built from ``tree`` and ``kept`` on first use.
    """

    tree: RootedColoredTree
    kept: frozenset[int]
    bound: int
    bound_exact: bool

    @cached_property
    def kernel(self) -> RootedColoredTree:
        """``tree`` restricted to ``kept``, relabeled 1..m in id order."""
        return restrict_tree(self.tree, self.kept)


def reduce_tree(t: RootedColoredTree, s: int) -> KernelResult:
    s = _require_integer("variable budget", s)
    if s < 1:
        raise ValueError("the variable budget must be positive")
    colors, parents, depths = t.colors, t.parents, t.depths
    levels: list[list[int]] = [[] for _ in range(max(depths) + 1)]
    for v, level in enumerate(depths, start=1):
        levels[level].append(v)
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    first = t.c + 1  # the first inner class; leaves are classed by colour
    kids: dict[int, list[int]] = {}  # each parent's kept children, ids ascending
    kinds: dict[int, list[int]] = {}  # their classes, sorted when the pass reaches the parent
    copies: dict[int, int] = {}  # by class * (n + 1) + parent
    stride = t.n + 1
    for level in reversed(levels):
        for v in level:
            classes = kinds.get(v)
            if classes is None:
                cls = colors[v - 1]
            else:
                classes.sort()
                key = (colors[v - 1], tuple(classes))
                cls = ids.get(key)
                if cls is None:
                    cls = ids[key] = first + len(ids)
            p = parents[v - 1]
            slot = cls * stride + p
            seen = copies.get(slot, 0)
            if seen < s:
                copies[slot] = seen + 1
                if seen or p in kids:
                    kids[p].append(v)
                    kinds[p].append(cls)
                else:
                    kids[p] = [v]
                    kinds[p] = [cls]
    kept = [t.root]
    for v in kept:  # grows as it is walked: each kept vertex brings its kept children
        kept.extend(kids.get(v, ()))
    bound, exact = kernel_size_bound_capped(s, len(levels) - 1, t.c)
    return KernelResult(tree=t, kept=frozenset(kept), bound=bound, bound_exact=exact)


def _core_graph(t: RootedColoredTree, kept: frozenset[int]) -> ColoredGraph:
    """``t``'s graph induced on ``kept``, relabelled 1..m in id order and
    read off the kept vertices' own parent links; ``kept`` must hold the
    root. Refused with ``ValueError``: an id that is not an integer or
    not in 1..n, and a set not closed under parents, where a kept
    vertex's parent relabels to 0."""
    ids = sorted(kept)
    _require_ids("vertex", ids)
    if not (1 <= ids[0] and ids[-1] <= t.n):
        raise ValueError(f"vertices must lie in 1..{t.n}")
    if len(ids) == t.n:  # every vertex: the relabelling is the identity
        return t.to_graph()
    parents, colors = t.parents, t.colors
    relabel = np.zeros(t.n + 1, np.intp)
    relabel[ids] = np.arange(1, len(ids) + 1)
    above = relabel[[parents[v - 1] for v in ids]]
    if np.count_nonzero(above) != len(ids) - 1:  # the root alone has parent 0
        raise ValueError("the kept set is not closed under parents")
    return _link_graph(above, tuple([colors[v - 1] for v in ids]), t.c)


def verify_kernel(
    t: RootedColoredTree,
    result: KernelResult,
    s: int,
    cap: int = DEFAULT_POSITION_CAP,
) -> bool:
    """Check a reduction against an independent referee.

    Structural checks first (the result is a reduction of ``t``, its kept
    set contains the root, and it honors the size bound), then
    ``fo_s_equivalent`` decides FO^s equivalence of original and kernel.
    The kernel is read as the tree's graph induced on the kept set
    (``_core_graph``), which is the kernel tree read as a graph once the
    set is closed under parents; a set that is not is refused with
    ``ValueError``.
    """
    kept = result.kept
    if result.tree != t or t.root not in kept:
        return False
    if len(kept) > result.bound:
        return False
    core = _core_graph(t, kept)
    whole = core if len(kept) == t.n else t.to_graph()  # every vertex kept: the core is the tree
    return fo_s_equivalent(whole, core, s, cap)
