import io
import itertools
import random
from typing import Iterable, Mapping, Sequence, TextIO

import pytest

from fomc.graphs import (
    ALL_HALF_GRAPH_FLIP_RELATIONS,
    ColoredGraph,
    Edge,
    PartitionFlip,
    SCCombine,
    SCLeaf,
    SCRecipe,
    apply_flip,
    build_sc_graph,
    gen_disjoint_paths,
    gen_flipped_half_graph,
    gen_half_graph,
    gen_layer_flipped_paths,
    gen_path,
    read_graph,
    read_partition,
    write_graph,
)
from fomc.randgen import random_graph

from .oracles import graphs_isomorphic


def test_graph_validation():
    with pytest.raises(ValueError):
        ColoredGraph.build(0)
    with pytest.raises(ValueError):
        ColoredGraph.build(2, [(1, 1)])
    with pytest.raises(ValueError):
        ColoredGraph.build(2, [(1, 3)])
    with pytest.raises(ValueError):
        ColoredGraph.build(2, colors=[1, 5], c=2)


def test_gen_path():
    k1 = gen_path(1)
    assert (k1.n, k1.edges) == (1, frozenset())
    k2 = gen_path(2)
    assert k2.edges == {(1, 2)}
    p5 = gen_path(5)
    assert len(p5.edges) == 4
    assert sum(1 for v in p5.vertices if len(p5.adj[v]) == 1) == 2
    with pytest.raises(ValueError):
        gen_path(0)


def test_induced_subgraph():
    # path 1-2-3-4-5 colored 1,2,1,3,1 over a palette of 4
    g = ColoredGraph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [1, 2, 1, 3, 1], c=4)
    sub = g.induced_subgraph([5, 2, 4, 2])
    # 2, 4, 5 relabeled to 1, 2, 3; only edge 4-5 lies inside the set
    assert sub == ColoredGraph(n=3, colors=(2, 3, 1), c=4, edges=frozenset({(2, 3)}))
    assert g.induced_subgraph(g.vertices) == g
    for bad in ([], [0, 1], [6], [2, 6]):
        with pytest.raises(ValueError):
            g.induced_subgraph(bad)


def test_half_graph():
    g1, a1, b1 = gen_half_graph(1)
    assert g1.edges == {(1, 2)}
    g2, _, _ = gen_half_graph(2)
    # a1b1, a1b2, a2b2
    assert g2.edges == {(1, 3), (1, 4), (2, 4)}
    g4, a4, b4 = gen_half_graph(4)
    assert len(g4.edges) == 4 * 5 // 2
    assert a4 == frozenset(range(1, 5))
    assert b4 == frozenset(range(5, 9))


def test_half_graph_edge_count_formula():
    for t in range(1, 8):
        g, _, _ = gen_half_graph(t)
        assert len(g.edges) == t * (t + 1) // 2


def test_flipped_half_graph():
    t = 3
    base, side_a, _ = gen_half_graph(t)
    assert gen_flipped_half_graph(t, []) == base
    within_a = gen_flipped_half_graph(t, [("A", "A")])
    expected = set(base.edges) | set(
        itertools.combinations(sorted(side_a), 2)
    )
    assert within_a.edges == frozenset(expected)


def test_flipped_half_graph_hand_xor_table():
    # order 2, flip everything: complement within and between the sides
    g = gen_flipped_half_graph(2, [("A", "A"), ("B", "B"), ("A", "B")])
    base_edges = {(1, 3), (1, 4), (2, 4)}
    all_pairs = set(itertools.combinations(range(1, 5), 2))
    assert g.edges == frozenset(all_pairs - base_edges)


def test_all_half_graph_flips_enumerated():
    assert len(ALL_HALF_GRAPH_FLIP_RELATIONS) == 8
    seen = {
        frozenset(gen_flipped_half_graph(3, rel).edges)
        for rel in ALL_HALF_GRAPH_FLIP_RELATIONS
    }
    assert len(seen) == 8


def test_disjoint_paths():
    g, layers = gen_disjoint_paths(1, 4)
    assert g == gen_path(4)
    g31, layers31 = gen_disjoint_paths(3, 1)
    assert g31.n == 3 and not g31.edges
    g23, layers23 = gen_disjoint_paths(2, 3)
    assert len(g23.edges) == 2 * (3 - 1)
    assert all(len(layer) == 2 for layer in layers23)
    assert layers23[0] == frozenset({1, 4})


def test_disjoint_paths_edge_count():
    for k in range(1, 4):
        for t in range(1, 5):
            g, _ = gen_disjoint_paths(k, t)
            assert len(g.edges) == k * (t - 1)


def test_layer_flipped_paths():
    base, _ = gen_disjoint_paths(2, 2)
    assert gen_layer_flipped_paths(2, 2, []) == base
    flipped = gen_layer_flipped_paths(2, 2, [(1, 1)])
    # layer 1 holds vertices 1 and 3: the flip adds that edge
    assert flipped.edges == base.edges | {(1, 3)}


def test_apply_flip_identity_and_involution():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 8), colors=2)
        verts = list(g.vertices)
        rng.shuffle(verts)
        cut = rng.randint(0, len(verts))
        chunk = verts[:cut]
        split = rng.randint(0, len(chunk))
        parts = [p for p in (chunk[:split], chunk[split:]) if p]
        rel = [
            (i, j)
            for i in range(len(parts))
            for j in range(i, len(parts))
            if rng.random() < 0.5
        ]
        flip = PartitionFlip.build(parts, rel)
        once = apply_flip(g, flip)
        assert apply_flip(once, flip) == g
        assert once.colors == g.colors
        empty = PartitionFlip.build(parts, [])
        assert apply_flip(g, empty) == g


def test_flip_on_half_graph_between_sides():
    t = 3
    g, side_a, side_b = gen_half_graph(t)
    flip = PartitionFlip.build([side_a, side_b], [(0, 1)])
    flipped = apply_flip(g, flip)
    # a_i b_j adjacent exactly when i > j after the flip
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            assert flipped.has_edge(i, t + j) == (i > j)


def test_overlapping_parts_rejected():
    with pytest.raises(ValueError):
        PartitionFlip.build([[1, 2], [2, 3]], [])


def test_sc_leaf_and_pair():
    assert build_sc_graph(SCLeaf("a")).n == 1
    k2 = build_sc_graph(
        SCCombine((SCLeaf("a"), SCLeaf("b")), frozenset({"a", "b"}))
    )
    assert k2.edges == {(1, 2)}


def test_sc_recipe_depth2_path3():
    # combine K2 (from flipping two leaves) with a third leaf, then flip
    # the third leaf together with one endpoint
    inner = SCCombine((SCLeaf("a"), SCLeaf("b")), frozenset({"a", "b"}))
    recipe = SCCombine((inner, SCLeaf("c")), frozenset({"b", "c"}))
    g = build_sc_graph(recipe)
    assert graphs_isomorphic(g, gen_path(3))


def test_sc_vertex_count_is_leaf_count():
    recipe = SCCombine(
        (
            SCCombine((SCLeaf("a"), SCLeaf("b"), SCLeaf("c")), frozenset({"a", "b"})),
            SCLeaf("d"),
        ),
        frozenset({"c", "d"}),
    )
    assert build_sc_graph(recipe).n == 4


def test_sc_dangling_name_rejected():
    with pytest.raises(ValueError):
        build_sc_graph(SCCombine((SCLeaf("a"),), frozenset({"zz"})))
    with pytest.raises(ValueError):
        build_sc_graph(SCCombine((SCLeaf("a"), SCLeaf("a")), frozenset()))


def test_sc_dangling_name_is_reported_at_its_combine():
    # "a" is below the outer combine but not below the inner one
    inner = SCCombine((SCLeaf("b"), SCLeaf("c")), frozenset({"a", "b"}))
    with pytest.raises(ValueError, match="unknown below this combine: a$"):
        build_sc_graph(SCCombine((SCLeaf("a"), inner), frozenset()))


def disjoint_union(parts: Sequence[ColoredGraph]) -> ColoredGraph:
    """Union with the vertex blocks laid out in order; colors preserved."""
    if not parts:
        raise ValueError("empty union")
    offset = 0
    colors: list[int] = []
    edges: set[Edge] = set()
    for g in parts:
        colors.extend(g.colors)
        edges.update((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return ColoredGraph.build(
        offset, edges, colors, c=max(g.c for g in parts)
    )


def recipe_leaf_names(r: SCRecipe) -> list[str]:
    out: list[str] = []
    todo = [r]
    while todo:
        node = todo.pop()
        if isinstance(node, SCLeaf):
            out.append(node.name)
        else:
            todo += reversed(node.children)
    return out


def _union_then_flip(r):
    """Reference: each combine builds the disjoint union of its children
    and applies its flip set as a partition flip."""
    if isinstance(r, SCLeaf):
        return ColoredGraph.build(1, colors=[r.color]), [r.name]
    built = [_union_then_flip(ch) for ch in r.children]
    names = [name for _, sub in built for name in sub]
    part = [names.index(name) + 1 for name in r.flip_names]
    g = disjoint_union([sub for sub, _ in built])
    return apply_flip(g, PartitionFlip.build([part], [(0, 0)] if part else [])), names


def test_sc_recipes_agree_with_union_then_flip():
    rng = random.Random(13)
    for _ in range(200):
        count = 0

        def draw(depth):
            nonlocal count
            if depth == 0 or rng.random() < 0.3:
                count += 1
                return SCLeaf(f"v{count}", rng.randint(1, 3))
            children = tuple(draw(depth - 1) for _ in range(rng.randint(1, 3)))
            below = recipe_leaf_names(SCCombine(children, frozenset()))
            flip = rng.sample(below, rng.randint(0, len(below)))
            return SCCombine(children, frozenset(flip))

        recipe = draw(4)
        expected, names = _union_then_flip(recipe)
        assert recipe_leaf_names(recipe) == names
        assert build_sc_graph(recipe) == expected


def test_sc_recipe_nesting_has_no_recursion_cap():
    # a 1500-level chain whose every combine flips its two newest leaves
    # builds the path on 1501 vertices
    recipe = SCLeaf("v1")
    for v in range(2, 1502):
        recipe = SCCombine((recipe, SCLeaf(f"v{v}")), frozenset({f"v{v - 1}", f"v{v}"}))
    assert recipe_leaf_names(recipe) == [f"v{v}" for v in range(1, 1502)]
    assert build_sc_graph(recipe) == gen_path(1501)


def test_graph_file_round_trip_random():
    rng = random.Random(77)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), colors=3)
        buf = io.StringIO()
        write_graph(g, buf)
        buf.seek(0)
        assert read_graph(buf) == g


def test_graph_file_fixture():
    from pathlib import Path

    fixture = Path(__file__).parent / "golden" / "p5.g"
    with open(fixture, encoding="utf-8") as fh:
        assert read_graph(fh) == gen_path(5)


def test_graph_file_errors():
    with pytest.raises(ValueError):
        read_graph(io.StringIO("p graph 2 1\ne 1 1\n"))
    with pytest.raises(ValueError):
        read_graph(io.StringIO("p graph 2 1\ne 1 2\ne 2 1\n"))
    with pytest.raises(ValueError):
        read_graph(io.StringIO("p graph 2 1\ne 1 5\n"))
    with pytest.raises(ValueError):
        read_graph(io.StringIO("e 1 2\n"))
    with pytest.raises(ValueError):
        read_graph(io.StringIO("p graph x y\n"))



@pytest.mark.parametrize(
    "text, message",
    [
        ("p graph 2 1\ne 1 \u0662\n", "line 2: expected a natural number, got '\u0662'"),
        ("p graph 1_0 1\n", "line 1: expected a natural number, got '1_0'"),
        ("p graph 2 1\ne 1 +2\n", "line 2: expected a natural number, got '\\+2'"),
        ("p graph x 2\n", "line 1: expected a natural number, got 'x'"),
        ("p graph 2 1\nv 1 " + "1" * 5000 + "\n", "line 2: expected a natural number"),
    ],
    ids=["arabic-digit", "underscore", "plus-sign", "letter", "5000-digits"],
)
def test_graph_file_numbers_are_ascii_naturals(text, message):
    with pytest.raises(ValueError, match=message):
        read_graph(io.StringIO(text))


def write_partition(parts: Mapping[int, Iterable[int]], stream: TextIO) -> None:
    for k in sorted(parts):
        ids = " ".join(str(v) for v in sorted(parts[k]))
        stream.write(f"part {k} {ids}\n")


def test_partition_file_round_trip():
    parts = {1: frozenset({1, 2}), 2: frozenset({5})}
    buf = io.StringIO()
    write_partition(parts, buf)
    buf.seek(0)
    assert read_partition(buf) == parts


def test_partition_file_numbers_are_ascii_naturals():
    with pytest.raises(ValueError, match="line 2: expected a natural number, got '\u0665'"):
        read_partition(io.StringIO("part 1 1 2\npart 2 3 \u0665\n"))
