import io
import itertools
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from fomc.graphs import ColoredGraph, gen_path
from fomc.pebble import ResourceLimitError
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
    children,
    climbing_depths_in_vertices,
    dict_restrict_tree,
    pairwise_validate_tree_model,
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
    assert max(t.depths) == 1
    assert t.leaves == {2, 3, 4}
    assert children(t)[1] == (2, 3, 4)
    partial = RootedColoredTree.build({1: 0, 2: 1, 3: 1}, {3: 2})
    assert partial.colors == (1, 1, 2) and partial.c == 2
    chain = RootedColoredTree.build({1: 0, 2: 1, 3: 2})
    assert max(chain.depths) == 2
    assert chain.depths[3 - 1] == 2
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
    assert t.n == 100_000 and max(t.depths) == 3


def test_tree_validation():
    with pytest.raises(ValueError):
        RootedColoredTree.build({1: 2, 2: 1})  # no root
    with pytest.raises(ValueError):
        RootedColoredTree(parents=(0, 2), colors=(1, 1), c=1)
    with pytest.raises(ValueError):
        RootedColoredTree(parents=(0, 3, 2), colors=(1, 1, 1), c=1)


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
    path = EliminationForest(parents=parents)
    assert path.node_depths == tuple(n + 1 - v for v in range(1, n + 1))
    assert path.height == n


def test_forest_parent_cycle_refused():
    with pytest.raises(ValueError, match="cycle"):
        EliminationForest(parents=(0, 3, 2))


@pytest.mark.parametrize("parent", [-1, 4])
def test_parent_outside_0_to_n_refused(parent):
    # a negative parent would index from the end of the list
    message = f"vertex 2 has parent {parent} out of range"
    with pytest.raises(ValueError, match=message):
        RootedColoredTree(parents=(0, parent, 1), colors=(1, 1, 1), c=1)
    with pytest.raises(ValueError, match=message):
        EliminationForest(parents=(0, parent, 1))


def test_tree_refuses_a_second_root_and_a_self_parent():
    with pytest.raises(ValueError, match="^expected exactly one root, found 2$"):
        RootedColoredTree(parents=(0, 0, 1), colors=(1, 1, 1), c=1)
    with pytest.raises(ValueError, match="^expected exactly one root, found 2$"):
        RootedColoredTree.build({1: 0, 2: 0, 3: 1})
    with pytest.raises(ValueError, match="cycle"):
        RootedColoredTree(parents=(0, 2, 1), colors=(1, 1, 1), c=1)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: RootedColoredTree(parents=(0,), colors=(1, 1), c=1),
            "parents and colors must cover every vertex",
        ),
        (lambda: compute_elimination_forest(gen_path(2), 0), "the height budget must be positive"),
    ],
    ids=["tree-short", "search-budget-0"],
)
def test_a_tree_or_forest_that_does_not_fit_its_count_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_build_refuses_a_gap_in_the_vertices_and_colors_of_non_vertices():
    with pytest.raises(ValueError, match="^vertex 2 has no 't' record$"):
        RootedColoredTree.build({1: 0, 3: 1})
    with pytest.raises(ValueError, match=r"^colors given for non-vertices \[7\]$"):
        RootedColoredTree.build({1: 0, 2: 1}, {2: 2, 7: 5})


def _build_referee(parents: dict) -> tuple[int, ...] | str:
    """The depths of ``RootedColoredTree.build(parents)``, or the message
    it refuses with: records first, then the root count, then the parent
    links as the climbing referee reads them."""
    n = len(parents)
    for v in range(1, n + 1):
        if v not in parents:
            return f"vertex {v} has no 't' record"
    links = tuple(parents[v] for v in range(1, n + 1))
    if links.count(0) != 1:
        return f"expected exactly one root, found {links.count(0)}"
    try:
        return tuple(d - 1 for d in climbing_depths_in_vertices(links))
    except ValueError as e:
        return str(e)


def _faulty_parent_map(rng: random.Random) -> dict[int, int]:
    """A random tree over 1..n, relabelled, with up to three faults."""
    n = rng.randint(1, 30)
    t = random_tree(rng, n, rng.randint(1, 4))
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    new = dict(zip(range(1, n + 1), ids))
    new[0] = 0
    parents = {new[v]: new[p] for v, p in enumerate(t.parents, start=1)}
    for _ in range(rng.randint(0, 3)):
        v = rng.randint(1, n)
        fault = rng.choice(["cycle", "self-loop", "out-of-range", "root", "missing"])
        if fault == "cycle" and n > 1:
            loop = rng.sample(range(1, n + 1), rng.randint(2, min(n, 4)))
            for a, b in zip(loop, loop[1:] + loop[:1]):
                parents[a] = b
        elif fault == "self-loop":
            parents[v] = v
        elif fault == "out-of-range":
            parents[v] = rng.choice([-2, -1, n + 1, n + 5])
        elif fault == "root":
            parents[v] = 0
        elif fault == "missing" and v in parents:
            del parents[v]
    return parents


def test_depths_and_refusals_match_the_climbing_referee():
    rng = random.Random(11)
    kinds = ("no 't' record", "exactly one root", "out of range", "cycle")
    refused = set()
    for _ in range(3000):
        parents = _faulty_parent_map(rng)
        want = _build_referee(parents)
        try:
            got = RootedColoredTree.build(parents).depths
        except ValueError as e:
            got = str(e)
            refused.update(kind for kind in kinds if kind in got)
        assert got == want, parents
        n = len(parents)
        if set(parents) == set(range(1, n + 1)):
            links = tuple(parents[v] for v in range(1, n + 1))
            try:
                want = climbing_depths_in_vertices(links)
            except ValueError as e:
                want = str(e)
            try:
                got = EliminationForest(parents=links).node_depths
            except ValueError as e:
                got = str(e)
            assert got == want, links
    assert refused == set(kinds)


def test_the_first_of_two_faults_is_named():
    # two bad colours: the lower vertex
    with pytest.raises(ValueError, match=r"^vertex 2 has color 0 outside 1\.\.2$"):
        RootedColoredTree.build({1: 0, 2: 1, 3: 1}, {2: 0, 3: 9}, c=2)
    with pytest.raises(ValueError, match=r"^vertex 2 has color 5 outside 1\.\.2$"):
        ColoredGraph(colors=(1, 5, 0), c=2, edges=frozenset())
    # a missing record and colours for non-vertices: the record
    with pytest.raises(ValueError, match="^vertex 2 has no 't' record$"):
        RootedColoredTree.build({1: 0, 3: 1}, {3: 2, 7: 5})
    # two roots and a bad colour: the roots
    with pytest.raises(ValueError, match="^expected exactly one root, found 2$"):
        RootedColoredTree.build({1: 0, 2: 0, 3: 1}, {3: 9}, c=2)
    # a colour that is not an integer and one out of range: the lower vertex
    with pytest.raises(ValueError, match="^vertex 2 has color nan, not an integer$"):
        ColoredGraph(colors=(1, math.nan, 0), c=2, edges=frozenset())
    with pytest.raises(ValueError, match=r"^vertex 2 has color 0 outside 1\.\.2$"):
        ColoredGraph(colors=(1, 0, 1.5), c=2, edges=frozenset())
    # a bad colour and a cycle: the colour
    with pytest.raises(ValueError, match=r"^vertex 3 has color 9 outside 1\.\.2$"):
        RootedColoredTree.build({1: 0, 2: 3, 3: 2}, {3: 9}, c=2)
    # a cycle met before an out-of-range parent, climbing from vertex 1 up
    for make in (
        lambda parents: RootedColoredTree.build(dict(enumerate(parents, start=1))),
        lambda parents: EliminationForest(parents=parents),
    ):
        with pytest.raises(ValueError, match="^parent links contain a cycle$"):
            make((0, 3, 2, 5))
        with pytest.raises(ValueError, match="^vertex 2 has parent 5 out of range$"):
            make((0, 5, 4, 3))
        # the climb from vertex 2 reaches vertex 3's parent before vertex 4's cycle
        with pytest.raises(ValueError, match="^vertex 3 has parent -1 out of range$"):
            make((0, 3, -1, 4))


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: ColoredGraph.build(2, [(1, 2)], [1, 1.5], c=2),
            "vertex 2 has color 1.5, not an integer",
        ),
        (
            lambda: RootedColoredTree.build({1: 0, 2: 1, 3: 1}, {2: 1.5}, c=2),
            "vertex 2 has color 1.5, not an integer",
        ),
        (
            lambda: ColoredGraph.build(3, [(1, 2.5), (2, 3)]),
            "edge (1,2.5) has an endpoint that is not an integer",
        ),
        (
            lambda: ColoredGraph.build(3, [], [1, math.nan, 1], c=1),
            "vertex 2 has color nan, not an integer",
        ),
        (
            lambda: RootedColoredTree.build({1: 0, 2: 1.0}),
            "vertex 2 has parent 1.0, not an integer",
        ),
        (
            lambda: EliminationForest(parents=(0, 1.0)),
            "vertex 2 has parent 1.0, not an integer",
        ),
    ],
    ids=[
        "graph-color", "tree-color", "graph-edge", "graph-nan-color", "tree-parent",
        "forest-parent",
    ],
)
def test_a_non_integer_is_refused_naming_its_vertex_or_edge(make, message):
    # each used to be accepted, or to escape as a TypeError: a colour 1.5
    # satisfied neither C1 nor C2, and the edge (1, 2.5) was read as 1-2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ColoredGraph.build(2, [(1, 2)], [1, 2], c=2.5), "color count 2.5"),
        (lambda: RootedColoredTree.build({1: 0, 2: 1}, {2: 2}, c=2.5), "color count 2.5"),
        (lambda: ColoredGraph.build(2, c=math.nan), "color count nan"),
        (lambda: ColoredGraph.build(2.0, [(1, 2)]), "vertex count 2.0"),
        (lambda: restrict_tree(star(2), [1, 2.5]), "kept id 2.5"),
        (lambda: star(2).distance(1.5, 2), "vertex 1.5"),
    ],
    ids=[
        "graph-palette", "tree-palette", "graph-nan-palette", "graph-build-n", "restrict-id",
        "distance-id",
    ],
)
def test_a_count_that_is_not_an_integer_is_refused(make, message):
    # a palette of 2.5 used to be accepted, and mc_treedepth then named an
    # encoded colour 5.5; a vertex count of 2.0 matched two colours, and
    # build escaped with a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        make()


def test_an_inferred_palette_names_the_vertex_whose_color_is_at_fault():
    # it used to say "color count must be positive"
    with pytest.raises(ValueError, match=r"^vertex 1 has color 0 outside 1\.\.1$"):
        RootedColoredTree.build({1: 0}, {1: 0})


def test_restrict_tree_refuses_ids_outside_the_tree():
    t = RootedColoredTree.build({1: 0, 2: 1, 3: 1}, {3: 2})
    for kept, bad in (([0, 1, 2], 0), ([-1, 1], -1), ([1, 2, 5], 5)):
        with pytest.raises(ValueError, match=f"^kept id {bad} is not a vertex of the tree$"):
            restrict_tree(t, kept)


def test_distance_refuses_ids_outside_the_tree():
    t = RootedColoredTree.build({1: 0, 2: 1, 3: 1}, {3: 2})
    for u, v, bad in ((0, 1, 0), (-1, 2, -1), (1, 4, 4)):
        with pytest.raises(ValueError, match=f"^vertex {bad} is not in 1\\.\\.3$"):
            t.distance(u, v)


def test_restrict_tree_matches_the_dict_referee():
    rng = random.Random(12)
    for _ in range(300):
        t = random_tree(rng, rng.randint(1, 40), 3, colors=3)
        kept = {t.root}
        for v in rng.sample(range(1, t.n + 1), rng.randint(0, t.n)):
            while v not in kept:
                kept.add(v)
                v = t.parents[v - 1] or t.root
        assert restrict_tree(t, kept) == dict_restrict_tree(t, kept)
        orphans = [w for w in range(1, t.n + 1) if t.parents[w - 1] not in kept | {0}]
        if orphans:
            with pytest.raises(ValueError, match="^the kept set is not closed under parents$"):
                restrict_tree(t, kept | {orphans[0]})


def test_tree_graph_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        t = random_tree(rng, rng.randint(1, 15), 4, colors=3)
        back = tree_from_graph(t.to_graph(), t.root)
        assert back == t
    # parents with larger ids than their children
    upward = RootedColoredTree.build({3: 0, 1: 3, 2: 1})
    assert upward.to_graph().edges == {(1, 2), (1, 3)}


def test_restrict_tree():
    t = star(4)
    sub = restrict_tree(t, {1, 3, 5})
    assert sub.n == 3
    assert children(sub)[1] == (2, 3)
    with pytest.raises(ValueError):
        restrict_tree(t, {2, 3})  # root missing


# ---------------------------------------------------------------------------
# Elimination forests

def test_validate_elimination_forest_star():
    g = ColoredGraph.build(4, [(1, 2), (1, 3), (1, 4)])
    ef = EliminationForest(parents=(0, 1, 1, 1))
    assert validate_elimination_forest(g, ef)


def test_validate_elimination_forest_crossing_edge():
    # path 1-2-3 with 2 below 1 and 3 a separate root: edge 2-3 crosses
    g = gen_path(3)
    ef = EliminationForest(parents=(0, 1, 0))
    assert not validate_elimination_forest(g, ef)


def test_validate_elimination_forest_chain_dominates():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), colors=1)
        parents = tuple(v - 1 for v in g.vertices)  # 1 <- 2 <- 3 ...
        assert validate_elimination_forest(g, EliminationForest(parents))


def test_validate_elimination_forest_memory_stays_flat():
    # no ancestor set per vertex: a 4000-vertex chain over a path stores
    # nothing that grows with its height
    n = 4000
    g = gen_path(n)
    ef = EliminationForest(parents=tuple(range(n)))
    tracemalloc.start()
    try:
        assert validate_elimination_forest(g, ef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # vertex 3 moved under vertex 1: the edge 3-4 still climbs to 3, but
    # the edge 2-3 now joins two siblings
    moved = EliminationForest(parents=(0, 1, 1) + tuple(range(3, n)))
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


def test_lone_vertices_enter_no_mask(split_calls, monkeypatch):
    # the search split all n vertices as its first mask, quadratic in n
    # when most of them are lone
    handed = []
    counting = trees._split  # the fixture's counter
    monkeypatch.setattr(trees, "_split", lambda sub, nb: handed.append(sub) or counting(sub, nb))
    assert compute_elimination_forest(ColoredGraph.build(20_000), 1).parents == (0,) * 20_000
    assert split_calls[0] == 1 and [sub.bit_count() for sub in handed] == [0]
    handed.clear()
    ef = compute_elimination_forest(ColoredGraph.build(20_000, [(7, 9)]), 2)
    assert ef.height == 2 and ef.parents.count(0) == 19_999
    assert [sub.bit_count() for sub in handed] == [2, 1]


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_compute_elimination_forest_refuses_a_long_path_at_once(split_calls, k):
    # a path on 2^k vertices has tree-depth k + 1
    assert compute_elimination_forest(gen_path(2**k), k) is None
    assert split_calls[0] <= 2


def test_forest_search_under_the_work_cap_keeps_its_heights():
    # the exact searches on these graphs split 0.86M-1.85M vertices into
    # components, under FOREST_WORK_CAP
    for seed, height in ((0, 10), (1, 11), (2, 10)):
        g = random_graph(random.Random(seed), 16, edge_prob=0.5)
        ef = compute_elimination_forest(g, 16)
        assert ef is not None and ef.height == height, seed
        assert validate_elimination_forest(g, ef)


def test_forest_search_past_the_work_cap_is_refused(monkeypatch):
    # no bound settles k = 8 here: the search would split 25.8M vertices
    # (1.66M at k = 7), past FOREST_WORK_CAP, and ran about 20 s on 2 cores
    # to answer None before the cap; a lower cap refuses it sooner, on the
    # same count
    monkeypatch.setattr(trees, "FOREST_WORK_CAP", 100_000)
    g = random_graph(random.Random(60), 60, edge_prob=3 / 60)
    with pytest.raises(ResourceLimitError, match="more than 100000 vertices"):
        compute_elimination_forest(g, 8)


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
    ef = EliminationForest(parents=(0, 1, 1, 0))
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


@pytest.mark.parametrize(
    "rules, message",
    [
        (((2, 1, 2, True),), "rule colors must be stored sorted"),
        (((1, 1, 2, True), (1, 1, 2, False)), "duplicate rule for (1, 1, 2)"),
    ],
    ids=["unsorted", "duplicate"],
)
def test_tree_model_refuses_unsorted_and_duplicate_rule_keys(rules, message):
    tree = RootedColoredTree.build({3: 0, 1: 3, 2: 3}, {2: 2})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TreeModel(tree=tree, rules=rules)


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


def test_tree_model_validation_matches_the_pairwise_check():
    # each model as drawn, with one vertex pair flipped, with one edge moved
    # to a non-adjacent pair (so the edge count holds), and with one rule
    # dropped: about 3600 cases in all
    rng = random.Random(24)
    verdicts = []
    for _ in range(1000):
        g, tm = random_tree_model(
            rng, rng.randint(1, 30), rng.randint(1, 3), tree_colors=rng.randint(1, 3)
        )
        cases = [(g, tm)]
        pairs = list(itertools.combinations(g.vertices, 2))
        if pairs:
            flipped = g.edges ^ {rng.choice(pairs)}
            cases.append((ColoredGraph.build(g.n, flipped, g.colors, c=g.c), tm))
        non_edges = [pair for pair in pairs if pair not in g.edges]
        if g.edges and non_edges:
            moved = g.edges - {rng.choice(sorted(g.edges))} | {rng.choice(non_edges)}
            cases.append((ColoredGraph.build(g.n, moved, g.colors, c=g.c), tm))
        if tm.rules:
            rules = list(tm.rules)
            del rules[rng.randrange(len(rules))]
            cases.append((g, TreeModel(tree=tm.tree, rules=tuple(rules))))
        for graph, model in cases:
            want = pairwise_validate_tree_model(graph, model)
            assert validate_tree_model(graph, model) == want
            verdicts.append(want)
    assert len(verdicts) >= 3000 and verdicts.count(False) >= 2000


def _wide_tree_model(leaves: int, parents: int, seed: int) -> tuple[ColoredGraph, TreeModel]:
    """A depth-2 model: a root, ``parents`` children of it, and ``leaves``
    leaves under them, with two tree colours and a random rule."""
    rng = random.Random(seed)
    root = leaves + 1
    tree_parents = {root: 0, **{p: root for p in range(root + 1, root + 1 + parents)}}
    tree_parents.update({v: rng.randint(root + 1, root + parents) for v in range(1, root)})
    colors = {v: rng.randint(1, 2) for v in tree_parents}
    tree = RootedColoredTree.build(tree_parents, colors, c=2)
    rule = {(c1, c2, d): rng.random() < 0.5 for c1 in (1, 2) for c2 in range(c1, 3) for d in (2, 4)}
    # leaves under one parent are 2 apart, any other two 4
    up, col = np.array(tree.parents[:leaves]), np.array(tree.colors[:leaves])
    far = up[:, None] != up[None, :]
    table = np.zeros((3, 3, 2), dtype=bool)
    for (c1, c2, d), edge in rule.items():
        table[c1, c2, d // 4] = table[c2, c1, d // 4] = edge
    adjacent = np.triu(table[col[:, None], col[None, :], far.astype(int)], 1)
    g = ColoredGraph.build(leaves, (np.argwhere(adjacent) + 1).tolist())
    return g, TreeModel.build(tree, [(*key, edge) for key, edge in rule.items()])


def test_a_wide_tree_model_validates_in_time(monkeypatch):
    # 2000 leaves under 39 parents fall in 78 (parent, colour) classes: the
    # tree is climbed once per pair of classes, not once per pair of leaves
    g, tm = _wide_tree_model(2000, 39, seed=6)
    assert len(g.edges) == 525_943
    times = []
    for _ in range(5):
        # this thread's CPU time: time spent descheduled on a busy host does not count
        start = time.thread_time()
        assert validate_tree_model(g, tm)
        times.append(time.thread_time() - start)
    assert min(times) < 0.3
    climbs = []
    distance = RootedColoredTree.distance
    monkeypatch.setattr(
        RootedColoredTree, "distance", lambda t, u, v: climbs.append(1) or distance(t, u, v)
    )
    assert validate_tree_model(g, tm)
    assert len(climbs) == 78 * 79 // 2
    u, v = next(iter(g.edges))
    assert not validate_tree_model(ColoredGraph.build(g.n, g.edges - {(u, v)}), tm)


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
