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

Determinism: children are ordered by (class id of the reduced subtree,
vertex id), where class ids are interned Aho-Hopcroft-Ullman style from
(color, class ids of the kept children) with vertices visited deepest
first. Re-reducing a reduced tree keeps everything, and the kept set
only grows with s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pebble import DEFAULT_POSITION_CAP, fo_s_equivalent
from .trees import RootedColoredTree, restrict_tree

#: Saturation threshold for the size bound carried in results.
BOUND_CAP = 10**30


def kernel_size_bound(s: int, k: int, c: int) -> int:
    """Exact value of the size recurrence.

    Beware: the value is astronomical for k >= 3; use
    ``kernel_size_bound_capped`` when only a comparison is needed.
    """
    value = _bound(s, k, c, cap=None)
    assert value is not None
    return value


def kernel_size_bound_capped(
    s: int, k: int, c: int, cap: int = BOUND_CAP
) -> tuple[int, bool]:
    """(min(bound, cap), whether the returned value is exact)."""
    value = _bound(s, k, c, cap=cap)
    if value is None:
        return cap, False
    return value, True


def _bound(s: int, k: int, c: int, cap: int | None) -> int | None:
    if s < 1 or c < 1 or k < 0:
        raise ValueError("need s >= 1, c >= 1, k >= 0")
    value = 1  # bound(s, 0, c + k)
    for j in reversed(range(k)):
        # value is bound(s, k-j-1, c+j+1); step to bound(s, k-j, c+j)
        if cap is not None:
            # (2c * value) ** value overflows any budget once value is large
            if value.bit_length() * value > 4 * cap.bit_length():
                return None
        p = (2 * (c + j) * value) ** value
        value = 1 + s * p * value
        if cap is not None and value > cap:
            return None
    return value


@dataclass(frozen=True)
class KernelResult:
    """Outcome of a reduction.

    ``kernel`` is the input restricted to ``kept`` (relabeled to 1..m in
    ascending id order), ``bound`` the size guarantee (saturated at
    BOUND_CAP when ``bound_exact`` is false), and ``stats`` records, per
    tree level, how many distinct child classes were seen across that
    level.
    """

    kernel: RootedColoredTree
    kept: frozenset[int]
    bound: int
    bound_exact: bool
    stats: tuple[tuple[int, int], ...]


def reduce_tree(t: RootedColoredTree, s: int) -> KernelResult:
    if s < 1:
        raise ValueError("the variable budget must be positive")
    class_counts: dict[int, int] = {}
    # AHU class ids: equal ids exactly for isomorphic reduced subtrees
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    class_of = [0] * (t.n + 1)
    kept_kids: list[list[int]] = [[] for _ in range(t.n + 1)]
    deepest_first = sorted(range(1, t.n + 1), key=t.depth_of, reverse=True)
    for v in deepest_first:
        copies: dict[int, int] = {}
        for w in sorted(t.children[v], key=lambda w: (class_of[w], w)):
            seen = copies.get(class_of[w], 0)
            copies[class_of[w]] = seen + 1
            if seen < s:
                kept_kids[v].append(w)
        if copies:
            level = t.depth_of(v)
            class_counts[level] = class_counts.get(level, 0) + len(copies)
        key = (t.color_of(v), tuple(class_of[w] for w in kept_kids[v]))
        class_of[v] = ids.setdefault(key, len(ids))
    kept_all = {t.root}
    for v in reversed(deepest_first):
        if v in kept_all:
            kept_all.update(kept_kids[v])
    bound, exact = kernel_size_bound_capped(s, t.depth, t.c)
    return KernelResult(
        kernel=restrict_tree(t, kept_all),
        kept=frozenset(kept_all),
        bound=bound,
        bound_exact=exact,
        stats=tuple(sorted(class_counts.items())),
    )


def verify_kernel(
    t: RootedColoredTree,
    result: KernelResult,
    s: int,
    cap: int = DEFAULT_POSITION_CAP,
) -> bool:
    """Check a reduction against an independent referee.

    Structural checks first (the kernel really is the restriction to the
    kept set, contains the root, and honors the size bound), then the
    pebble game decides equivalence of the original and the kernel.
    """
    if t.root not in result.kept:
        return False
    if len(result.kept) > result.bound:
        return False
    if restrict_tree(t, result.kept) != result.kernel:
        return False
    return fo_s_equivalent(t.to_graph(), result.kernel.to_graph(), s, cap)
