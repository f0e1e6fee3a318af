import random

import pytest

from fomc import kernel
from fomc.formulas import parse_formula
from fomc.graphs import gen_path
from fomc.interpret import mc_tree, mc_treedepth, mc_treemodel
from fomc.kernel import (
    BOUND_CAP,
    kernel_size_bound,
    kernel_size_bound_capped,
    reduce_tree,
    verify_kernel,
)
from fomc.pebble import ResourceLimitError
from fomc.trees import RootedColoredTree, TreeModel, restrict_tree

from .oracles import (
    all_colored_rooted_trees,
    canonical_code,
    random_tree,
    rooted_trees_isomorphic,
)


def star(leaves: int, leaf_color: int = 1) -> RootedColoredTree:
    parents = {1: 0}
    colors = {1: 1}
    for v in range(2, leaves + 2):
        parents[v] = 1
        colors[v] = leaf_color
    return RootedColoredTree.build(parents, colors)


# ---------------------------------------------------------------------------
# Size bound recurrence

def test_bound_base_case():
    for s in range(1, 6):
        for c in range(1, 6):
            assert kernel_size_bound(s, 0, c) == 1


def test_bound_hand_values():
    # inner value 1, p = (2*1*1)**1 = 2, result 1 + 1*2*1
    assert kernel_size_bound(1, 1, 1) == 3
    assert kernel_size_bound(2, 1, 1) == 5
    # depth 1: p enumerates the 2c marked leaf colors
    for s in range(1, 4):
        for c in range(1, 4):
            assert kernel_size_bound(s, 1, c) == 1 + 2 * s * c


def test_bound_monotone():
    values = {
        (s, k, c): kernel_size_bound(s, k, c)
        for s in range(1, 4)
        for k in range(0, 3)
        for c in range(1, 4)
    }
    for (s, k, c), val in values.items():
        if (s + 1, k, c) in values:
            assert values[(s + 1, k, c)] >= val
        if (s, k + 1, c) in values:
            assert values[(s, k + 1, c)] >= val
        if (s, k, c + 1) in values:
            assert values[(s, k, c + 1)] >= val


def test_bound_capped():
    exact, is_exact = kernel_size_bound_capped(1, 2, 1)
    assert is_exact
    assert exact == kernel_size_bound(1, 2, 1) == 500001
    for args in ((3, 2, 4), (3, 3, 3)):
        capped, is_exact = kernel_size_bound_capped(*args)
        assert not is_exact and capped == BOUND_CAP


# ---------------------------------------------------------------------------
# Canonical codes (the referee in tests/oracles.py)

def test_canonical_code_relabeling_invariant():
    a = RootedColoredTree.build({1: 0, 2: 1, 3: 1, 4: 2, 5: 2}, {4: 2})
    b = RootedColoredTree.build({1: 0, 2: 1, 3: 1, 4: 3, 5: 3}, {4: 2})
    assert canonical_code(a) == canonical_code(b)


def test_canonical_code_color_sensitive():
    a = star(2)
    b = star(2, leaf_color=2)
    assert canonical_code(a) != canonical_code(b)


def test_canonical_code_agrees_with_backtracking_isomorphism():
    trees = all_colored_rooted_trees(5, 4, 2)
    codes = [canonical_code(t) for t in trees]
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            same_code = codes[i] == codes[j]
            assert same_code == rooted_trees_isomorphic(trees[i], trees[j])


# ---------------------------------------------------------------------------
# Reduction

def test_star_reduction_examples():
    r1 = reduce_tree(star(5), 1)
    assert len(r1.kept) == 2
    assert r1.bound == 3
    assert r1.kernel.n == 2
    r3 = reduce_tree(star(5), 3)
    assert len(r3.kept) == 4


def test_reduction_stats_class_counts():
    # the root sits at level 0 and its five leaves form one class
    assert reduce_tree(star(5), 1).stats == ((0, 1),)
    two_classes = RootedColoredTree.build(
        {1: 0, 2: 1, 3: 1, 4: 1}, {2: 1, 3: 2, 4: 2}, c=2
    )
    assert reduce_tree(two_classes, 1).stats == ((0, 2),)


def test_deep_path_is_not_capped_by_the_recursion_limit():
    path = RootedColoredTree.build({v: v - 1 for v in range(1, 5001)})
    assert reduce_tree(path, 2).kept == frozenset(range(1, 5001))
    assert kernel_size_bound_capped(2, path.depth, 1) == (BOUND_CAP, False)
    assert mc_tree(path, parse_formula("forall x1. C1(x1)"), 2)
    total = parse_formula("forall x1. exists x2. adj(x1,x2)")
    # 5000^2 adjacency cells exceed the evaluator's cap, 3000^2 do not
    with pytest.raises(ResourceLimitError):
        mc_tree(path, total, 2)
    prefix = RootedColoredTree.build({v: v - 1 for v in range(1, 3001)})
    assert mc_tree(prefix, total, 2)


def test_single_vertex_fixed():
    k1 = RootedColoredTree.build({1: 0})
    for s in (1, 2, 5):
        res = reduce_tree(k1, s)
        assert res.kernel == k1
        assert res.kept == {1}
        assert res.bound == 1


def test_reduction_keeps_distinct_classes():
    # two leaf colors: one representative of each survives at s=1
    parents = {1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
    colors = {2: 1, 3: 1, 4: 2, 5: 2}
    t = RootedColoredTree.build(parents, colors, c=2)
    res = reduce_tree(t, 1)
    kept_colors = sorted(t.color_of(v) for v in res.kept if v != 1)
    assert kept_colors == [1, 2]


def test_kernel_is_restriction_and_within_bound():
    rng = random.Random(17)
    for _ in range(80):
        t = random_tree(rng, rng.randint(1, 30), 3, colors=2)
        for s in (1, 2, 3):
            res = reduce_tree(t, s)
            assert t.root in res.kept
            assert len(res.kept) <= res.bound
            assert res.kernel == restrict_tree(t, res.kept)


def test_fixed_point():
    rng = random.Random(18)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 25), 3, colors=3)
        for s in (1, 2):
            core = reduce_tree(t, s).kernel
            again = reduce_tree(core, s)
            assert again.kept == frozenset(range(1, core.n + 1))
            assert again.kernel == core


def test_determinism():
    rng = random.Random(19)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 25), 3, colors=3)
        assert reduce_tree(t, 2) == reduce_tree(t, 2)


def test_monotone_in_s():
    rng = random.Random(20)
    for _ in range(80):
        t = random_tree(rng, rng.randint(1, 30), 3, colors=2)
        kept_by_s = [reduce_tree(t, s).kept for s in (1, 2, 3, 4)]
        for small, big in zip(kept_by_s, kept_by_s[1:]):
            assert small <= big


def test_verify_kernel_accepts_reductions():
    rng = random.Random(21)
    for _ in range(25):
        t = random_tree(rng, rng.randint(1, 12), 3, colors=2)
        for s in (1, 2):
            res = reduce_tree(t, s)
            assert verify_kernel(t, res, s)


def test_verify_kernel_rejects_overpruned():
    t = star(5)
    res = reduce_tree(t, 2)  # keeps the root and two leaves
    pruned = frozenset(sorted(res.kept)[:-1])  # drop one kept leaf
    broken = type(res)(
        tree=t,
        kept=pruned,
        bound=res.bound,
        bound_exact=res.bound_exact,
        stats=res.stats,
    )
    # two pebbles tell one leaf apart from two
    assert not verify_kernel(t, broken, 2)


def test_verify_kernel_rejects_wrong_restriction():
    t = star(3)
    res = reduce_tree(t, 1)
    tampered = type(res)(
        tree=star(2),
        kept=res.kept,
        bound=res.bound,
        bound_exact=res.bound_exact,
        stats=res.stats,
    )
    assert not verify_kernel(t, tampered, 1)


def test_kernel_tree_is_built_only_when_read(monkeypatch):
    calls = []

    def counting(t, kept):
        calls.append(t)
        return restrict_tree(t, kept)

    monkeypatch.setattr(kernel, "restrict_tree", counting)
    t = star(5)
    two_leaves = parse_formula("exists x1. exists x2. adj(x1,x2) & !x1=x2")
    assert mc_tree(t, two_leaves, 2)
    assert mc_treedepth(gen_path(4), two_leaves, 3, 2)
    tm = TreeModel.build(RootedColoredTree.build({1: 3, 2: 3, 3: 0}), [(1, 1, 2, True)])
    assert mc_treemodel(gen_path(2), tm, two_leaves, 2)
    assert calls == []
    res = reduce_tree(t, 2)
    assert res.kernel is res.kernel
    assert res.kernel.n == 3
    assert calls == [t]


def test_exhaustive_small_corpus_class_multiplicity():
    # inside a kernel every sibling class appears at most s times
    for t in all_colored_rooted_trees(6, 3, 2):
        for s in (1, 2):
            core = reduce_tree(t, s).kernel
            for v in range(1, core.n + 1):
                codes = {}
                for w in core.children[v]:
                    code = canonical_code(restrict_subtree(core, w))
                    codes[code] = codes.get(code, 0) + 1
                assert all(cnt <= s for cnt in codes.values())


def restrict_subtree(t: RootedColoredTree, v: int) -> RootedColoredTree:
    sub = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in t.children[u]:
            sub.add(w)
            stack.append(w)
    parents = {u: (t.parents[u - 1] if u != v else 0) for u in sub}
    relabel = {old: new for new, old in enumerate(sorted(sub), start=1)}
    return RootedColoredTree.build(
        {relabel[u]: (relabel[p] if p != 0 else 0) for u, p in parents.items()},
        {relabel[u]: t.color_of(u) for u in sub},
        c=t.c,
    )
