import io
import random
import tracemalloc

import pytest

from fomc.graphs import ColoredGraph, gen_path
from fomc.trees import (
    EliminationForest,
    RootedColoredTree,
    TreeModel,
    compute_elimination_forest,
    read_forest,
    read_tree,
    read_tree_model,
    restrict_tree,
    validate_elimination_forest,
    validate_tree_model,
    write_tree,
)
from fomc import trees
from fomc.randgen import random_graph

from .oracles import (
    bfs_distances,
    random_tree,
    random_tree_model,
    tree_from_graph,
    treedepth_oracle,
    write_forest,
    write_tree_model,
)


def star(leaves: int) -> RootedColoredTree:
    parents = {1: 0}
    parents.update({v: 1 for v in range(2, leaves + 2)})
    return RootedColoredTree.build(parents)


def test_tree_basics():
    t = star(3)
    assert t.depth == 1
    assert t.leaves == {2, 3, 4}
    assert t.children[1] == (2, 3, 4)
    chain = RootedColoredTree.build({1: 0, 2: 1, 3: 2})
    assert chain.depth == 2
    assert chain.depth_of(3) == 2
    assert chain.distance(1, 3) == chain.distance(3, 1) == 2
    assert chain.distance(2, 3) == 1
    assert chain.distance(2, 2) == 0
    rng = random.Random(5)
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 25), 4)
        as_graph = t.to_graph()
        for u in range(1, t.n + 1):
            dist = bfs_distances(as_graph, u)
            assert all(t.distance(u, v) == dist[v] for v in range(1, t.n + 1))


def _random_tree_rebuilding_its_list(rng, n, max_depth, colors=1):
    """The draw of ``random_tree`` as first written: the list of shallow
    vertices is rebuilt for every vertex."""
    parents = {1: 0}
    depths = {1: 0}
    for v in range(2, n + 1):
        shallow = [u for u in parents if depths[u] < max_depth]
        p = rng.choice(shallow)
        parents[v] = p
        depths[v] = depths[p] + 1
    cols = {v: rng.randint(1, colors) for v in parents}
    return RootedColoredTree.build(parents, cols, c=colors)


def test_random_tree_draws_are_unchanged():
    for seed in range(50):
        rng = random.Random(seed)
        n, max_depth, colors = rng.randint(1, 60), rng.randint(1, 5), rng.randint(1, 3)
        args = (n, max_depth, colors)
        assert random_tree(random.Random(seed), *args) == _random_tree_rebuilding_its_list(
            random.Random(seed), *args
        )


def test_random_tree_draws_a_large_tree():
    t = random_tree(random.Random(7), 100_000, 3)
    assert t.n == 100_000 and t.depth == 3


def test_tree_validation():
    with pytest.raises(ValueError):
        RootedColoredTree.build({1: 2, 2: 1})  # no root
    with pytest.raises(ValueError):
        RootedColoredTree(n=2, root=1, parents=(0, 2), colors=(1, 1), c=1)
    with pytest.raises(ValueError):
        RootedColoredTree(n=3, root=1, parents=(0, 3, 2), colors=(1, 1, 1), c=1)


def test_depths_of_a_long_path_rooted_at_its_largest_id():
    # vertex 1 climbs through every other vertex; the cycle check on that
    # chain must not cost a scan per step
    n = 20000
    path = RootedColoredTree.build({v: v + 1 if v < n else 0 for v in range(1, n + 1)})
    assert path.depths == tuple(n - v for v in range(1, n + 1))


def test_node_depths_of_a_long_forest_path_rooted_at_its_largest_id():
    n = 20000
    # the same chain as above; depths count vertices, so they start at 1
    parents = tuple(v + 1 if v < n else 0 for v in range(1, n + 1))
    path = EliminationForest(n=n, parents=parents)
    assert path.node_depths == tuple(n + 1 - v for v in range(1, n + 1))
    assert path.height == n


def test_forest_parent_cycle_refused():
    with pytest.raises(ValueError, match="cycle"):
        EliminationForest(n=3, parents=(0, 3, 2))


def test_tree_graph_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        t = random_tree(rng, rng.randint(1, 15), 4, colors=3)
        back = tree_from_graph(t.to_graph(), t.root)
        assert back == t


def test_restrict_tree():
    t = star(4)
    sub = restrict_tree(t, {1, 3, 5})
    assert sub.n == 3
    assert sub.children[1] == (2, 3)
    with pytest.raises(ValueError):
        restrict_tree(t, {2, 3})  # root missing


# ---------------------------------------------------------------------------
# Elimination forests

def test_validate_elimination_forest_star():
    g = ColoredGraph.build(4, [(1, 2), (1, 3), (1, 4)])
    ef = EliminationForest(n=4, parents=(0, 1, 1, 1))
    assert validate_elimination_forest(g, ef)


def test_validate_elimination_forest_crossing_edge():
    # path 1-2-3 with 2 below 1 and 3 a separate root: edge 2-3 crosses
    g = gen_path(3)
    ef = EliminationForest(n=3, parents=(0, 1, 0))
    assert not validate_elimination_forest(g, ef)


def test_validate_elimination_forest_chain_dominates():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), colors=1)
        parents = tuple(v - 1 for v in g.vertices)  # 1 <- 2 <- 3 ...
        assert validate_elimination_forest(g, EliminationForest(g.n, parents))


def test_validate_elimination_forest_memory_stays_flat():
    # no ancestor set per vertex: a 4000-vertex chain over a path stores
    # nothing that grows with its height
    n = 4000
    g = gen_path(n)
    ef = EliminationForest(n=n, parents=tuple(range(n)))
    tracemalloc.start()
    try:
        assert validate_elimination_forest(g, ef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # vertex 3 moved under vertex 1: the edge 3-4 still climbs to 3, but
    # the edge 2-3 now joins two siblings
    moved = EliminationForest(n=n, parents=(0, 1, 1) + tuple(range(3, n)))
    assert not validate_elimination_forest(g, moved)


def test_compute_elimination_forest_examples():
    k1 = gen_path(1)
    ef = compute_elimination_forest(k1, 1)
    assert ef is not None and ef.height == 1

    p7 = gen_path(7)
    ef = compute_elimination_forest(p7, 3)
    assert ef is not None
    assert ef.height == 3
    assert validate_elimination_forest(p7, ef)

    c4 = ColoredGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert compute_elimination_forest(c4, 2) is None
    ef = compute_elimination_forest(c4, 3)
    assert ef is not None and ef.height == 3


def test_compute_elimination_forest_matches_oracle_random():
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(
            rng, rng.randint(1, 12), colors=1, edge_prob=rng.uniform(0.15, 0.5)
        )
        td = treedepth_oracle(g)
        for k in range(1, td + 2):
            ef = compute_elimination_forest(g, k)
            if k < td:
                assert ef is None
            else:
                assert ef is not None
                assert ef.height == td
                assert validate_elimination_forest(g, ef)


def test_compute_elimination_forest_matches_oracle_exhaustive():
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for G in graph_atlas_g():
        if G.number_of_nodes() == 0:
            continue
        g = ColoredGraph.build(
            G.number_of_nodes(), [(u + 1, v + 1) for u, v in G.edges()]
        )
        td = treedepth_oracle(g)
        ef = compute_elimination_forest(g, td)
        assert ef is not None and ef.height == td
        for k in range(1, td):
            assert compute_elimination_forest(g, k) is None


@pytest.fixture
def split_calls(monkeypatch):
    """A one-item list counting the search's component splits."""
    calls = [0]
    split = trees._split

    def counting(*args):
        calls[0] += 1
        return split(*args)

    monkeypatch.setattr(trees, "_split", counting)
    return calls


def test_compute_elimination_forest_prunes_with_its_budget(split_calls):
    # the exact search on this graph makes over 300000 component splits;
    # a budget of 2 rules out every root choice at once
    g = random_graph(random.Random(16), 16, colors=1, edge_prob=0.5)
    assert compute_elimination_forest(g, 2) is None
    assert split_calls[0] < 2000


def test_compute_elimination_forest_splits_a_shallow_tree_linearly(split_calls):
    g = random_tree(random.Random(2000), 2000, 3).to_graph()
    ef = compute_elimination_forest(g, 4)
    assert ef is not None and ef.height == 4
    assert validate_elimination_forest(g, ef)
    assert split_calls[0] < 8000
    assert compute_elimination_forest(g, 3) is None


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_compute_elimination_forest_refuses_a_long_path_at_once(split_calls, k):
    # a path on 2^k vertices has tree-depth k + 1
    assert compute_elimination_forest(gen_path(2**k), k) is None
    assert split_calls[0] <= 2


def test_compute_elimination_forest_on_a_long_path_needs_no_deep_recursion():
    g = gen_path(1200)
    ef = compute_elimination_forest(g, 1200)
    assert ef is not None and ef.height == 11
    assert validate_elimination_forest(g, ef)


def test_compute_elimination_forest_matches_oracle_on_shallow_trees(split_calls):
    # a tree's longest path bounds its tree-depth from below, and the
    # search refuses a budget under that bound before its first root
    rng = random.Random(314)
    for _ in range(150):
        g = random_tree(rng, rng.randint(1, 14), rng.randint(1, 3)).to_graph()
        td = treedepth_oracle(g)
        far = max(bfs_distances(g, 1).items(), key=lambda item: item[1])[0]
        low = (max(bfs_distances(g, far).values()) + 1).bit_length()
        for k in range(1, td + 2):
            split_calls[0] = 0
            ef = compute_elimination_forest(g, k)
            if k < td:
                assert ef is None
            else:
                assert ef is not None and ef.height == td
                assert validate_elimination_forest(g, ef)
            if k < low:
                assert split_calls[0] == 1


def test_forest_file_round_trip():
    ef = EliminationForest(n=4, parents=(0, 1, 1, 0))
    buf = io.StringIO()
    write_forest(ef, buf)
    buf.seek(0)
    assert read_forest(buf) == ef


@pytest.mark.parametrize(
    "text, message",
    [
        ("p forest 3\nt 9 1\n", "vertex 1 has no 't' record"),
        ("p forest 2\nt 1 0\nt 2 1\nt 3 1\n", "outside 1..n"),
        ("p forest 3\np forest 2\nt 1 0\nt 2 1\n", "line 2: duplicate header"),
    ],
    ids=["missing", "outside", "second-header"],
)
def test_forest_file_refuses_bad_records(text, message):
    with pytest.raises(ValueError, match=message):
        read_forest(io.StringIO(text))


def test_forest_file_numbers_are_ascii_naturals():
    with pytest.raises(ValueError, match="line 3: expected a natural number, got '\\+1'"):
        read_forest(io.StringIO("p forest 2\nt 1 0\nt 2 +1\n"))


# ---------------------------------------------------------------------------
# Tree models

def test_tree_model_k2():
    # root 3 with leaves 1, 2 of equal color at mutual distance 2
    tree = RootedColoredTree.build({3: 0, 1: 3, 2: 3})
    k2 = gen_path(2)
    tm_edge = TreeModel.build(tree, [(1, 1, 2, True)])
    assert validate_tree_model(k2, tm_edge)
    tm_nonedge = TreeModel.build(tree, [(1, 1, 2, False)])
    assert not validate_tree_model(k2, tm_nonedge)


def test_tree_model_leaf_mismatch():
    tree = RootedColoredTree.build({3: 0, 1: 3, 2: 3})
    with pytest.raises(ValueError):
        validate_tree_model(gen_path(3), TreeModel.build(tree, []))


def test_tree_model_missing_rule_is_mismatch():
    tree = RootedColoredTree.build({3: 0, 1: 3, 2: 3})
    assert not validate_tree_model(gen_path(2), TreeModel.build(tree, []))


def test_tree_model_validation_memory_stays_flat():
    # no table over all node pairs: a 400-leaf star stores nothing per pair
    n = 400
    tree = RootedColoredTree.build({**{v: n + 1 for v in range(1, n + 1)}, n + 1: 0})
    tm = TreeModel.build(tree, [(1, 1, 2, False)])
    g = ColoredGraph.build(n, [])
    tracemalloc.start()
    try:
        assert validate_tree_model(g, tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_random_tree_models_validate_and_break_under_mutation():
    rng = random.Random(21)
    for _ in range(40):
        g, tm = random_tree_model(rng, rng.randint(1, 8), 2)
        assert validate_tree_model(g, tm)
        realized = [
            (c1, c2, d)
            for c1, c2, d, _ in tm.rules
        ]
        if not realized or g.n == 1:
            continue
        # flip one realized rule entry: some pair must now disagree
        idx = rng.randrange(len(tm.rules))
        c1, c2, d, edge = tm.rules[idx]
        mutated_rules = list(tm.rules)
        mutated_rules[idx] = (c1, c2, d, not edge)
        mutated = TreeModel(tree=tm.tree, rules=tuple(mutated_rules))
        assert not validate_tree_model(g, mutated)


def test_tree_file_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 12), 3, colors=3)
        buf = io.StringIO()
        write_tree(t, buf)
        buf.seek(0)
        assert read_tree(buf) == t


def test_tree_model_file_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        _, tm = random_tree_model(rng, rng.randint(1, 6), 2)
        buf = io.StringIO()
        write_tree_model(tm, buf)
        buf.seek(0)
        assert read_tree_model(buf) == tm


def test_tree_file_defaults_and_errors():
    assert read_tree(io.StringIO("p tree 1 1\nr 1\n")).n == 1
    t = read_tree(io.StringIO("p tree 2 2\nr 1\nt 2 1\n"))
    assert t.color_of(2) == 1
    with pytest.raises(ValueError):
        read_tree(io.StringIO("p tree 2 1\nr 1\n"))  # vertex 2 unknown
    with pytest.raises(ValueError):
        read_tree(io.StringIO("p tree 2 1\nt 2 1\n"))  # no root line


#: A second header or root line would otherwise silently replace the first.
REPEATED_TREE_LINES = pytest.mark.parametrize(
    "text, message",
    [
        ("p tree 3 1\np tree 2 1\nr 1\nt 2 1\n", "line 2: duplicate header"),
        ("p tree 2 1\nr 1\nr 2\nt 1 2\n", "line 3: duplicate root line"),
    ],
    ids=["second-header", "second-root"],
)


@REPEATED_TREE_LINES
def test_tree_file_refuses_repeated_lines(text, message):
    with pytest.raises(ValueError, match=message):
        read_tree(io.StringIO(text))


@REPEATED_TREE_LINES
def test_tree_model_file_refuses_repeated_lines(text, message):
    with pytest.raises(ValueError, match=message):
        read_tree_model(io.StringIO(text + "rule 1 1 2 1\n"))


def test_tree_file_numbers_are_ascii_naturals():
    with pytest.raises(ValueError, match="line 3: expected a natural number, got '\u0661'"):
        read_tree(io.StringIO("p tree 2 1\nr 1\nt 2 \u0661\n"))


def test_tree_model_file_numbers_are_ascii_naturals():
    text = "p tree 2 1\nr 1\nt 2 1\nrule 1 1 1_0 1\n"
    with pytest.raises(ValueError, match="line 4: expected a natural number, got '1_0'"):
        read_tree_model(io.StringIO(text))
