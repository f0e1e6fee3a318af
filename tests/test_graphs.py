import io
import itertools
import operator
import random
import re
import time
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np
import pytest

from fomc.graphs import (
    ColoredGraph,
    Edge,
    PartitionFlip,
    SCCombine,
    SCLeaf,
    SCRecipe,
    apply_flip,
    build_sc_graph,
    gen_disjoint_paths,
    gen_half_graph,
    gen_path,
    read_graph,
    read_partition,
    write_graph,
)
from fomc.randgen import random_graph

from .oracles import adjacent, graphs_isomorphic, neighborhoods, set_apply_flip, set_build_sc_graph

#: All eight symmetric relations on the two half-graph sides, A as part 0
#: and B as part 1, in binary order over the pair set {(A,A), (A,B), (B,B)}.
#: None is singled out as canonical.
ALL_HALF_GRAPH_FLIP_RELATIONS: tuple[frozenset[tuple[int, int]], ...] = tuple(
    frozenset(combo)
    for size in range(4)
    for combo in itertools.combinations(((0, 0), (0, 1), (1, 1)), size)
)


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
    adj = neighborhoods(p5)
    assert sum(1 for v in p5.vertices if len(adj[v]) == 1) == 2
    with pytest.raises(ValueError):
        gen_path(0)


def test_induced_subgraph():
    # path 1-2-3-4-5 colored 1,2,1,3,1 over a palette of 4
    g = ColoredGraph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [1, 2, 1, 3, 1], c=4)
    sub = g.induced_subgraph([5, 2, 4, 2])
    # 2, 4, 5 relabeled to 1, 2, 3; only edge 4-5 lies inside the set
    assert sub == ColoredGraph(colors=(2, 3, 1), c=4, edges=frozenset({(2, 3)}))
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
    base, side_a, side_b = gen_half_graph(t)
    assert apply_flip(base, PartitionFlip.build([side_a, side_b], [])) == base
    within_a = apply_flip(base, PartitionFlip.build([side_a, side_b], [(0, 0)]))
    expected = set(base.edges) | set(
        itertools.combinations(sorted(side_a), 2)
    )
    assert within_a.edges == frozenset(expected)


def test_flipped_half_graph_hand_xor_table():
    # order 2, flip everything: complement within and between the sides
    base, side_a, side_b = gen_half_graph(2)
    g = apply_flip(base, PartitionFlip.build([side_a, side_b], [(0, 0), (1, 1), (0, 1)]))
    base_edges = {(1, 3), (1, 4), (2, 4)}
    all_pairs = set(itertools.combinations(range(1, 5), 2))
    assert g.edges == frozenset(all_pairs - base_edges)


def test_all_half_graph_flips_enumerated():
    assert len(ALL_HALF_GRAPH_FLIP_RELATIONS) == 8
    base, side_a, side_b = gen_half_graph(3)
    seen = {
        apply_flip(base, PartitionFlip.build([side_a, side_b], rel)).edges
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
    base, layers = gen_disjoint_paths(2, 2)
    assert apply_flip(base, PartitionFlip.build(layers, [])) == base
    flipped = apply_flip(base, PartitionFlip.build(layers, [(0, 0)]))
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


def _brute_force_flip(g: ColoredGraph, parts, rel) -> frozenset[Edge]:
    """Every pair of vertices tested against the relation of its parts."""
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    related = {(min(i, j), max(i, j)) for i, j in rel}
    edges = set(g.edges)
    for u, v in itertools.combinations(g.vertices, 2):
        if u in part_of and v in part_of:
            i, j = sorted((part_of[u], part_of[v]))
            if (i, j) in related:
                edges ^= {(u, v)}
    return frozenset(edges)


def test_apply_flip_matches_pairwise_xor():
    rng = random.Random(20)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), colors=2)
        verts = list(g.vertices)
        rng.shuffle(verts)
        covered = verts[: rng.randint(0, len(verts))]  # the rest stay outside
        parts: list[list[int]] = []
        for v in covered:
            if not parts or rng.random() < 0.4:
                parts.append([])
            parts[-1].append(v)
        rel = [
            (rng.randrange(len(parts)), rng.randrange(len(parts)))
            for _ in range(rng.randint(0, 2 * len(parts)))
        ]
        if parts:
            i = rng.randrange(len(parts))
            rel.append((i, i))
        flipped = apply_flip(g, PartitionFlip.build(parts, rel))
        assert flipped.edges == _brute_force_flip(g, parts, rel)
        assert flipped.colors == g.colors and flipped.c == g.c


def test_apply_flip_costs_only_the_related_parts():
    g = gen_path(6000)
    parts = [range(60 * k + 1, 60 * k + 61) for k in range(100)]
    flip = PartitionFlip.build(parts, [(0, 1), (5, 5)])
    # this thread's CPU time: time spent descheduled on a busy host does not count
    start = time.thread_time()
    flipped = apply_flip(g, flip)
    assert time.thread_time() - start < 1.0
    # 60 * 60 pairs between parts 0 and 1 (one of them the path edge
    # 60-61), 60 * 59 / 2 inside part 5 (59 of them path edges)
    assert len(flipped.edges) == 5999 + (3600 - 2) + (1770 - 2 * 59)  # 11,249


def test_flip_on_half_graph_between_sides():
    t = 3
    g, side_a, side_b = gen_half_graph(t)
    flip = PartitionFlip.build([side_a, side_b], [(0, 1)])
    flipped = apply_flip(g, flip)
    # a_i b_j adjacent exactly when i > j after the flip
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            assert adjacent(flipped, i, t + j) == (i > j)


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


def random_recipe(rng: random.Random, depth: int) -> SCRecipe:
    """A seeded recipe nested at most ``depth`` combines deep, its leaves
    v1, v2, ... in leaf order coloured from 1..3. Each combine flips a
    random subset of the leaves below it, so nested flip sets overlap."""
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

    return draw(depth)


def test_sc_recipes_agree_with_union_then_flip():
    rng = random.Random(13)
    for _ in range(200):
        recipe = random_recipe(rng, 4)
        expected, names = _union_then_flip(recipe)
        assert recipe_leaf_names(recipe) == names
        assert build_sc_graph(recipe) == expected


def test_flips_and_recipes_match_the_set_xor_referees():
    # a seeded sweep: 1-4 parts, some empty, under empty, self-only,
    # cross-only and mixed relations, and recipes up to 3 combines deep
    rng = random.Random(35)
    kinds = {"empty": lambda i, j: False, "self": operator.eq, "cross": operator.lt, "mixed": operator.le}
    for kind in itertools.islice(itertools.cycle(kinds), 1200):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, colors=2)
        parts: list[list[int]] = [[] for _ in range(rng.randint(1, 4))]
        for v in rng.sample(range(1, n + 1), rng.randint(0, n)):
            rng.choice(parts).append(v)
        pairs = [(i, j) for i in range(len(parts)) for j in range(len(parts)) if kinds[kind](i, j)]
        flip = PartitionFlip.build(parts, rng.sample(pairs, rng.randint(min(1, len(pairs)), len(pairs))))
        once = apply_flip(g, flip)
        assert once == set_apply_flip(g, flip)
        assert apply_flip(once, flip) == g
    for _ in range(300):
        recipe = random_recipe(rng, 3)
        assert build_sc_graph(recipe) == set_build_sc_graph(recipe)


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("part 1\n", "line 1: expected 'part <k> <id...>'"),
        ("part 1 2\ncell 2 3\n", "line 2: expected 'part <k> <id...>'"),
        ("part 1 2\npart 1 3\n", "line 2: duplicate part 1"),
    ],
    ids=["no-ids", "wrong-word", "duplicate"],
)
def test_partition_file_refuses_malformed_and_duplicate_parts(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_partition(io.StringIO(text))


def test_partition_file_numbers_are_ascii_naturals():
    with pytest.raises(ValueError, match="line 2: expected a natural number, got '\u0665'"):
        read_partition(io.StringIO("part 1 1 2\npart 2 3 \u0665\n"))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ColoredGraph.build(2, c=0), "color count must be positive"),
        (
            lambda: ColoredGraph.build(2, [], [1]),
            "colors must assign exactly one color per vertex",
        ),
        (
            lambda: PartitionFlip.build([[1], [2]], [(0, 2)]),
            "flip relation mentions unknown part (0,2)",
        ),
        (
            lambda: PartitionFlip(parts=(frozenset({1}), frozenset({2})), rel=frozenset({(1, 0)})),
            "flip relation pairs must be stored as (i,j), i<=j",
        ),
        (
            lambda: apply_flip(gen_path(2), PartitionFlip.build([[3]], [(0, 0)])),
            "part vertex 3 outside the graph",
        ),
        (lambda: gen_half_graph(0), "order must be positive"),
        (
            # a third side beside the half-graph's two, A as part 0 and B as part 1
            lambda: PartitionFlip.build(gen_half_graph(2)[1:], [(0, 2)]),
            "flip relation mentions unknown part (0,2)",
        ),
        (lambda: gen_disjoint_paths(0, 3), "both path count and path length must be positive"),
        (
            lambda: SCCombine(children=(), flip_names=frozenset()),
            "combine needs at least one child",
        ),
        (
            lambda: ColoredGraph.build(2, [(1, 1)]),
            "loop at vertex 1 is not allowed in a simple graph",
        ),
        (
            lambda: ColoredGraph(colors=(1, 1, 1), c=1, edges=frozenset({(2, 2)})),
            "loop at vertex 2 is not allowed in a simple graph",
        ),
        (
            lambda: ColoredGraph.build(3, [(1.0, 1.0)]),
            "edge (1.0,1.0) has an endpoint that is not an integer",
        ),
        # an inferred palette used to hide the colour at fault behind
        # "color count must be positive" or "color count 1.5 is not an integer"
        (lambda: ColoredGraph.build(1, [], [0]), "vertex 1 has color 0 outside 1..1"),
        (lambda: ColoredGraph.build(2, [], [1, 1.5]), "vertex 2 has color 1.5, not an integer"),
        (lambda: build_sc_graph(SCLeaf("a", color=0)), "vertex 1 has color 0 outside 1..1"),
        # each used to escape as a TypeError
        (lambda: gen_path(3).induced_subgraph([1.5, 2]), "vertex 1.5 is not an integer"),
        (lambda: gen_path(2.5), "vertex count 2.5 is not an integer"),
        (lambda: gen_half_graph(2.5), "order 2.5 is not an integer"),
        (lambda: gen_disjoint_paths(2, 1.5), "path length 1.5 is not an integer"),
        # each used to be accepted: the relation part then escaped from
        # apply_flip as a TypeError, and a vertex of an unrelated part was
        # never read, where an array would truncate 1.5 to 1
        (lambda: PartitionFlip.build([[1], [2]], [(0.5, 1)]), "flip relation part 0.5 is not an integer"),
        (
            lambda: apply_flip(gen_path(3), PartitionFlip.build([[1.5], [3]], [])),
            "part vertex 1.5 is not an integer",
        ),
        (lambda: PartitionFlip.build([[1], ["2"]], []), "part vertex '2' is not an integer"),
        # of the part vertices outside the graph, the least is named
        (
            lambda: apply_flip(gen_path(2), PartitionFlip.build([[5], [1, 4], [3]], [(0, 1)])),
            "part vertex 3 outside the graph",
        ),
        (
            lambda: apply_flip(gen_path(2), PartitionFlip.build([[4], [2, 0]], [])),
            "part vertex 0 outside the graph",
        ),
    ],
    ids=[
        "palette-0", "colors-short", "flip-unknown-part", "flip-pair-order", "flip-vertex-outside",
        "half-graph-0", "half-graph-side", "paths-0", "combine-empty", "loop-build", "loop-constructor",
        "loop-non-integer", "inferred-color-0", "inferred-color-1.5", "recipe-color-0",
        "induced-non-integer", "path-non-integer", "half-graph-non-integer", "paths-non-integer",
        "flip-rel-non-integer", "flip-vertex-non-integer", "flip-vertex-not-a-number",
        "flip-vertex-outside-least", "flip-vertex-below-1",
    ],
)
def test_the_graph_api_refuses_malformed_arguments(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_graph_semantics_do_not_depend_on_how_the_edges_are_given(monkeypatch):
    # a seeded sweep over edge order, orientation and repeated edges: the
    # graphs are equal, hash alike, pickle and write alike, and are one
    # dict key, so type_census puts them in one block without refining
    import pickle

    from fomc import pebble

    refined = []
    refine = pebble._type_rounds  # the census refines 1-types at s = 2
    monkeypatch.setattr(pebble, "_type_rounds", lambda gs, cap: refined.append(len(gs)) or refine(gs, cap))
    rng = random.Random(33)
    for _ in range(150):
        n = rng.randint(1, 10)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
        colors = [rng.randint(1, 3) for _ in range(n)]
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        given += rng.sample(given, len(given) // 2)
        rng.shuffle(given)
        g = ColoredGraph.build(n, pairs, colors, c=3)
        same = [
            ColoredGraph.build(n, given, colors, c=3),
            ColoredGraph.build(n, iter(given), tuple(colors), c=3),
            ColoredGraph(colors=tuple(colors), c=3, edges=frozenset(pairs)),
        ]
        same += [pickle.loads(pickle.dumps(g, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        texts = set()
        for h in same:
            assert h == g and not h != g and hash(h) == hash(g)
            assert h.edges == frozenset(pairs)
            buf = io.StringIO()
            write_graph(h, buf)
            texts.add(buf.getvalue())
            buf.seek(0)
            assert read_graph(buf) == g
        assert len(texts) == 1 and len({g, *same}) == 1 and {g: 1}[same[0]] == 1
        refined.clear()
        assert pebble.type_census([g, *same], 2) == [list(range(len(same) + 1))]
        assert not refined
        others = [
            ColoredGraph.build(n, pairs, colors, c=4),
            ColoredGraph.build(n, pairs, [colors[0] % 3 + 1, *colors[1:]], c=3),
        ]
        if n > 1:
            u, v = rng.sample(range(1, n + 1), 2)
            flipped = set(pairs) ^ {(min(u, v), max(u, v))}
            others.append(ColoredGraph.build(n, flipped, colors, c=3))
        for h in others:
            assert h != g and not h == g
        if pairs:
            assert ColoredGraph.build(n, pairs[1:], colors, c=3) != g


def _edge_arrays_of(g: ColoredGraph) -> list[tuple[int, int]]:
    """The stored edge arrays of ``g``, checked to be read-only index
    arrays of pairs lo < hi in 1..n, strictly increasing by (lo, hi)."""
    lo, hi = g.edge_lo, g.edge_hi
    assert lo.dtype == hi.dtype == np.intp and lo.shape == hi.shape == (len(lo),)
    assert not lo.flags.writeable and not hi.flags.writeable
    pairs = list(zip(lo.tolist(), hi.tolist()))
    assert all(1 <= u < v <= g.n for u, v in pairs)
    assert all(a < b for a, b in zip(pairs, pairs[1:]))
    return pairs


def test_every_way_of_making_a_graph_stores_sorted_read_only_edge_arrays():
    from fomc.interpret import apply_interpretation, complement_interpretation
    from fomc.trees import RootedColoredTree

    from .oracles import random_tree

    rng = random.Random(34)
    made = []
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), colors=2)
        t = random_tree(rng, rng.randint(1, 12), 3, colors=2)
        buf = io.StringIO()
        write_graph(g, buf)
        buf.seek(0)
        kept = rng.sample(range(1, g.n + 1), rng.randint(1, g.n))
        parts = [rng.sample(range(1, g.n + 1), rng.randint(0, g.n))]
        made += [
            g,
            read_graph(buf),
            g.induced_subgraph(kept),
            t.to_graph(),
            t.to_graph().induced_subgraph(rng.sample(range(1, t.n + 1), rng.randint(1, t.n))),
            apply_flip(g, PartitionFlip.build(parts, [(0, 0)])),
            apply_interpretation(complement_interpretation(), g),
            build_sc_graph(random_recipe(rng, 3)),
        ]
    made += [gen_path(n) for n in (1, 2, 7)] + [gen_half_graph(3)[0], gen_disjoint_paths(3, 4)[0]]
    made.append(RootedColoredTree.build({1: 0}).to_graph())
    for g in made:
        assert _edge_arrays_of(g) == sorted(g.edges)
    g = gen_path(4)
    with pytest.raises(ValueError):
        g.edge_lo[0] = 2
    for name in ("n", "edge_lo", "edges"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)


@pytest.mark.parametrize("pair", [(0, "x"), ("x", 1), ("x", "y")])
def test_a_flip_relation_pair_that_mixes_types_is_refused(pair):
    # a pair of an int and a str used to escape from min/max as a TypeError
    with pytest.raises(ValueError, match="^flip relation part 'x' is not an integer$"):
        PartitionFlip.build([[1], [2]], [pair])
