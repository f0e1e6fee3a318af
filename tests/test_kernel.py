import random
import re

import numpy as np
import pytest

from fomc import kernel
from fomc.formulas import parse_formula
from fomc.graphs import ColoredGraph, gen_path
from fomc.interpret import mc_tree, mc_treedepth, mc_treemodel
from fomc.kernel import (
    BOUND_CAP,
    kernel_size_bound,
    kernel_size_bound_capped,
    reduce_tree,
    verify_kernel,
)
from fomc.pebble import ResourceLimitError, fo_s_equivalent, type_census
from fomc.trees import (
    EliminationForest,
    RootedColoredTree,
    TreeModel,
    compute_elimination_forest,
    restrict_tree,
)

from .oracles import (
    all_colored_rooted_trees,
    canonical_code,
    children,
    dict_restrict_tree,
    random_tree,
    rooted_trees_isomorphic,
    sorting_reduce_tree,
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
    # a power small enough to compute, times a budget of 201 bits, is over the cap
    assert kernel_size_bound_capped(2**200, 1, 1) == (BOUND_CAP, False)


def test_an_exact_bound_above_4096_bits_is_refused():
    # (1, 3, 1) would raise about 9.4 * 10^10 to its own power
    message = "^the kernel size bound at s=1, k=3, c=1 has more than 4096 bits$"
    with pytest.raises(ResourceLimitError, match=message):
        kernel_size_bound(1, 3, 1)
    with pytest.raises(ResourceLimitError):
        kernel_size_bound(20, 2, 20)  # about 12,600 bits
    inner = kernel_size_bound(10, 1, 11)
    assert inner == 1 + 2 * 10 * 11
    assert kernel_size_bound(10, 2, 10) == 1 + 10 * (2 * 10 * inner) ** inner * inner
    assert kernel_size_bound(10, 2, 10).bit_length() == 2688
    assert kernel_size_bound_capped(1, 3, 1) == (BOUND_CAP, False)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: kernel_size_bound(0, 1, 1), "need s >= 1, c >= 1, k >= 0"),
        (lambda: kernel_size_bound(1, -1, 1), "need s >= 1, c >= 1, k >= 0"),
        (lambda: kernel_size_bound_capped(1, 1, 0), "need s >= 1, c >= 1, k >= 0"),
        (lambda: reduce_tree(star(2), 0), "the variable budget must be positive"),
    ],
    ids=["bound-s", "bound-k", "bound-c", "reduce-s"],
)
def test_a_budget_out_of_range_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


P4 = gen_path(4)
TWO = parse_formula("exists x1. exists x2. adj(x1,x2)")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: reduce_tree(star(3), 1.5), "variable budget 1.5"),
        (lambda: mc_tree(star(3), TWO, 2.5), "variable budget 2.5"),
        (lambda: mc_treedepth(P4, TWO, 3.5, 2), "height budget 3.5"),
        (lambda: mc_treedepth(P4, TWO, 3, 2.5), "variable budget 2.5"),
        (lambda: mc_treemodel(ColoredGraph.build(1), None, TWO, 2.5), "variable budget 2.5"),
        (lambda: compute_elimination_forest(P4, 2.5), "height budget 2.5"),
        (lambda: fo_s_equivalent(P4, gen_path(5), 1.5), "pebble count 1.5"),
        (lambda: fo_s_equivalent(P4, P4, 2, cap=1e7), "tuple cap 10000000.0"),
        (lambda: type_census([P4, gen_path(5)], 1.5), "pebble count 1.5"),
        (lambda: verify_kernel(star(3), reduce_tree(star(3), 1), 1.5), "pebble count 1.5"),
        (lambda: kernel_size_bound(1, 1.0, 1), "depth 1.0"),
        (lambda: kernel_size_bound_capped(1, 1, 2.0), "color count 2.0"),
    ],
    ids=[
        "reduce-s", "tree-s", "treedepth-k", "treedepth-s", "treemodel-s", "forest-k",
        "equivalent-s", "equivalent-cap", "census-s", "verify-s", "bound-k", "bound-c",
    ],
)
def test_a_budget_or_height_that_is_not_an_integer_is_refused(make, message):
    # reduce_tree at 1.5 used to keep what s = 2 keeps, the pipelines and the
    # forest search answered, and the pebble game escaped with a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        make()


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


def test_deep_path_is_not_capped_by_the_recursion_limit():
    path = RootedColoredTree.build({v: v - 1 for v in range(1, 5001)})
    assert reduce_tree(path, 2).kept == frozenset(range(1, 5001))
    assert kernel_size_bound_capped(2, max(path.depths), 1) == (BOUND_CAP, False)
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


def test_two_pebble_kernel_of_a_20000_vertex_tree_is_verified():
    # the s = 2 tuple refinement needed over 20001^2 tuples here and refused
    t = random_tree(random.Random(5), 20_000, 3, colors=2)
    assert verify_kernel(t, reduce_tree(t, 2), 2)


def test_verify_kernel_refuses_a_cap_below_1():
    t = star(3)
    with pytest.raises(ValueError, match="tuple cap must be positive"):
        verify_kernel(t, reduce_tree(t, 1), 1, cap=0)


def test_verify_kernel_rejects_overpruned():
    t = star(5)
    res = reduce_tree(t, 2)  # keeps the root and two leaves
    pruned = frozenset(sorted(res.kept)[:-1])  # drop one kept leaf
    broken = type(res)(
        tree=t,
        kept=pruned,
        bound=res.bound,
        bound_exact=res.bound_exact,
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
    )
    assert not verify_kernel(t, tampered, 1)


def test_verify_kernel_rejects_a_kept_set_above_its_bound():
    t = star(3)
    res = reduce_tree(t, 1)
    tight = type(res)(
        tree=t,
        kept=res.kept,
        bound=len(res.kept) - 1,
        bound_exact=res.bound_exact,
    )
    assert verify_kernel(t, res, 1)
    assert not verify_kernel(t, tight, 1)


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


def relabelled(t: RootedColoredTree, rng: random.Random) -> RootedColoredTree:
    """``t`` under a random permutation of its vertex ids."""
    ids = list(range(1, t.n + 1))
    rng.shuffle(ids)
    new = dict(zip(range(1, t.n + 1), ids))
    new[0] = 0
    return RootedColoredTree.build(
        {new[v]: new[p] for v, p in enumerate(t.parents, start=1)},
        {new[v]: col for v, col in enumerate(t.colors, start=1)},
        c=t.c,
    )


def _kernel_referee_cases():
    rng = random.Random(25)
    for _ in range(150):
        n, depth, colors = rng.randint(1, 400), rng.randint(1, 3), rng.randint(1, 3)
        t = random_tree(rng, n, depth, colors)
        yield t
        yield relabelled(t, rng)
    for n in (1, 2, 3, 7, 40):
        path = RootedColoredTree.build({v: v - 1 for v in range(1, n + 1)})
        yield path
        yield relabelled(path, rng)
    for leaves in (1, 2, 5, 30):
        yield star(leaves)
        yield star(leaves, leaf_color=2)
        yield relabelled(star(leaves), rng)


def test_reduce_tree_matches_the_sorting_referee():
    for t in _kernel_referee_cases():
        for s in (1, 2, 3):
            got, want = reduce_tree(t, s), sorting_reduce_tree(t, s)
            assert got.kept == want.kept
            assert (got.bound, got.bound_exact) == (want.bound, want.bound_exact)
            assert got.kernel == dict_restrict_tree(t, want.kept)


def test_reduce_tree_matches_the_sorting_referee_on_a_seeded_sweep():
    # the referee sorts each parent's children by (class, id); the pass
    # meets them level by level in id order, which relabelling shuffles
    rng = random.Random(4545)
    for _ in range(2000):
        n, depth, colors = rng.randint(1, 200), rng.randint(1, 5), rng.randint(1, 4)
        t = relabelled(random_tree(rng, n, depth, colors), rng)
        for s in (1, 2, 3, 4):
            got, want = reduce_tree(t, s), sorting_reduce_tree(t, s)
            assert got.kept == want.kept, (t, s)
            assert (got.bound, got.bound_exact) == (want.bound, want.bound_exact), (t, s)
            assert got.kernel == dict_restrict_tree(t, want.kept), (t, s)


def test_exhaustive_small_corpus_class_multiplicity():
    # inside a kernel every sibling class appears at most s times
    for t in all_colored_rooted_trees(6, 3, 2):
        for s in (1, 2):
            core = reduce_tree(t, s).kernel
            below = children(core)
            for v in range(1, core.n + 1):
                codes = {}
                for w in below[v]:
                    code = canonical_code(restrict_subtree(core, w))
                    codes[code] = codes.get(code, 0) + 1
                assert all(cnt <= s for cnt in codes.values())


def restrict_subtree(t: RootedColoredTree, v: int) -> RootedColoredTree:
    sub = {v}
    stack = [v]
    below = children(t)
    while stack:
        u = stack.pop()
        for w in below[u]:
            sub.add(w)
            stack.append(w)
    parents = {u: (t.parents[u - 1] if u != v else 0) for u in sub}
    relabel = {old: new for new, old in enumerate(sorted(sub), start=1)}
    return RootedColoredTree.build(
        {relabel[u]: (relabel[p] if p != 0 else 0) for u, p in parents.items()},
        {relabel[u]: t.color_of(u) for u in sub},
        c=t.c,
    )


def test_a_numpy_integer_budget_is_read_as_an_int():
    # each call raised AttributeError: numpy integers have no bit_length
    t = random_tree(random.Random(3), 40, 3, colors=2)
    g = t.to_graph()
    phi = parse_formula("forall x1. exists x2. adj(x1,x2) & exists x3. adj(x2,x3) & !x1=x3")
    three, two = np.int64(3), np.int64(2)
    assert mc_tree(t, phi, three) == mc_tree(t, phi, 3)
    assert mc_treedepth(g, phi, 4, three) == mc_treedepth(g, phi, 4, 3)
    res, ref = reduce_tree(t, two), reduce_tree(t, 2)
    assert (res.kept, res.bound, res.bound_exact) == (ref.kept, ref.bound, ref.bound_exact)
    assert kernel_size_bound(two, 2, 2) == kernel_size_bound(2, 2, 2)


def test_a_numpy_integer_vertex_count_is_stored_as_an_int():
    # mc_treedepth raised AttributeError: the graph kept n as a numpy
    # integer, which has no bit_length
    edges = [(v, v + 1) for v in range(1, 70)]
    g, ref = ColoredGraph.build(np.int64(70), edges, c=np.int64(2)), ColoredGraph.build(70, edges, c=2)
    assert type(g.n) is type(g.c) is int and g == ref
    phi = parse_formula("exists x1. exists x2. adj(x1,x2) & forall x1. (adj(x2,x1) -> x1=x1)")
    assert mc_treedepth(g, phi, 7, 2) == mc_treedepth(ref, phi, 7, 2)
    assert compute_elimination_forest(g, 7) == compute_elimination_forest(ref, 7)
    t = RootedColoredTree((0, 1), (1, 1), np.int64(1))
    assert (type(t.n), type(t.root), type(t.c)) == (int, int, int)
    assert type(EliminationForest((0, 1)).n) is int


def test_the_induced_graph_on_the_kept_set_is_the_kernel_read_as_a_graph():
    # what verify_kernel compares with the tree, read without restrict_tree
    rng = random.Random(77)
    for _ in range(80):
        t = random_tree(rng, rng.randint(1, 60), 3, colors=2)
        res = reduce_tree(t, rng.randint(1, 3))
        assert t.to_graph().induced_subgraph(res.kept) == res.kernel.to_graph()


def test_verify_kernel_refuses_a_kept_set_not_closed_under_parents():
    t = RootedColoredTree.build({1: 0, 2: 1, 3: 2})
    res = reduce_tree(t, 1)
    gap = type(res)(
        tree=t,
        kept=frozenset({1, 3}),
        bound=res.bound,
        bound_exact=res.bound_exact,
    )
    with pytest.raises(ValueError, match="^the kept set is not closed under parents$"):
        verify_kernel(t, gap, 1)


@pytest.mark.parametrize(
    "forged, message",
    [
        ({0, 1, 2}, "vertices must lie in 1..4"),
        ({1, 2, 5}, "vertices must lie in 1..4"),
        ({1, 2, 2.5}, "vertex 2.5 is not an integer"),
    ],
    ids=["id-0", "id-n+1", "id-not-an-integer"],
)
def test_verify_kernel_refuses_a_kept_id_that_is_not_a_vertex(forged, message):
    t = star(3)
    res = reduce_tree(t, 1)
    assert len(forged) <= res.bound
    bad = type(res)(tree=t, kept=frozenset(forged), bound=res.bound, bound_exact=res.bound_exact)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_kernel(t, bad, 1)
