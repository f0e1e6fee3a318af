import itertools
import os
import random
import resource
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fomc import pebble
from fomc.evaluator import model_check
from fomc.graphs import ColoredGraph, gen_path
from fomc.pebble import (
    ResourceLimitError,
    fo_s_equivalent,
    spoiler_distance,
    type_census,
)
from fomc.randgen import random_formula, random_graph

from .oracles import (
    all_labeled_graphs,
    all_slot_census,
    all_slot_refine,
    all_slot_spoiler_distance,
    columnwise_refine,
    graphs_isomorphic,
    is_s_partial_isomorphism,
    pebble_game,
    random_tree,
)


def relabel(rng: random.Random, g: ColoredGraph) -> ColoredGraph:
    perm = list(g.vertices)
    rng.shuffle(perm)
    mapping = {v: perm[v - 1] for v in g.vertices}
    colors = [0] * g.n
    for v in g.vertices:
        colors[mapping[v] - 1] = g.color_of(v)
    return ColoredGraph.build(
        g.n, [(mapping[u], mapping[v]) for u, v in g.edges], colors, c=g.c
    )


def test_s_partial_isomorphism_blank_alignment():
    a = gen_path(3)
    b = gen_path(3)
    assert is_s_partial_isomorphism(a, (None, None), b, (None, None))
    assert not is_s_partial_isomorphism(a, (1, None), b, (1, 2))


def test_s_partial_isomorphism_edges_and_colors():
    a = gen_path(3)
    b = gen_path(3)
    # edge against non-edge
    assert is_s_partial_isomorphism(a, (1, 2), b, (2, 3))
    assert not is_s_partial_isomorphism(a, (1, 2), b, (1, 3))
    # equality pattern both ways
    assert not is_s_partial_isomorphism(a, (1, 1), b, (1, 2))
    assert not is_s_partial_isomorphism(a, (1, 2), b, (1, 1))
    colored = ColoredGraph.build(2, [(1, 2)], colors=[1, 2], c=2)
    plain = gen_path(2)
    assert is_s_partial_isomorphism(colored, (1,), plain, (1,))
    assert not is_s_partial_isomorphism(colored, (2,), plain, (1,))


def test_reflexive():
    for g in (gen_path(1), gen_path(4), random_graph(random.Random(1), 6, 2)):
        for s in (1, 2, 3):
            assert fo_s_equivalent(g, g, s)
            assert spoiler_distance(g, g, s) is None


def test_one_pebble_cannot_see_an_edge():
    k2_k1 = ColoredGraph.build(3, [(1, 2)])
    three_k1 = ColoredGraph.build(3, [])
    # a single reusable variable cannot express adjacency, so these two
    # agree on every one-variable sentence
    assert fo_s_equivalent(k2_k1, three_k1, 1)
    assert not fo_s_equivalent(k2_k1, three_k1, 2)
    assert spoiler_distance(k2_k1, three_k1, 2) == 2
    assert fo_s_equivalent(gen_path(2), ColoredGraph.build(2, []), 1)


def test_color_mismatch_dies_at_first_placement():
    a = ColoredGraph.build(1, colors=[1], c=2)
    b = ColoredGraph.build(1, colors=[2], c=2)
    assert spoiler_distance(a, b, 1) == 1


def test_paths_of_distinct_lengths_differ_at_three_pebbles():
    assert not fo_s_equivalent(gen_path(5), gen_path(6), 3)


def test_spoiler_distance_regression_p5_p6():
    # frozen after the first computation; a change means the round
    # structure of the pruning moved
    assert spoiler_distance(gen_path(5), gen_path(6), 3) == 3


def test_symmetry_and_monotonicity_in_s():
    rng = random.Random(6)
    for _ in range(40):
        a = random_graph(rng, rng.randint(1, 5), colors=2)
        b = random_graph(rng, rng.randint(1, 5), colors=2)
        verdicts = [fo_s_equivalent(a, b, s) for s in (1, 2, 3)]
        assert verdicts == [fo_s_equivalent(b, a, s) for s in (1, 2, 3)]
        # once inequivalent, more pebbles keep it inequivalent
        for s_small, s_big in ((0, 1), (1, 2)):
            if not verdicts[s_small]:
                assert not verdicts[s_big]


def test_transitive_on_sampled_triples():
    rng = random.Random(60)
    pool = [random_graph(rng, rng.randint(1, 4), colors=2) for _ in range(12)]
    for a, b, c in itertools.combinations(pool, 3):
        for s in (1, 2):
            if fo_s_equivalent(a, b, s) and fo_s_equivalent(b, c, s):
                assert fo_s_equivalent(a, c, s)


def test_isomorphic_relabelings_equivalent():
    rng = random.Random(61)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), colors=2)
        h = relabel(rng, g)
        for s in (1, 2, 3):
            assert fo_s_equivalent(g, h, s)


def test_agreement_with_evaluator():
    # equivalent graphs must agree on every sentence within the pebble
    # budget; any violation is a hard failure
    rng = random.Random(62)
    pool = []
    for n in range(1, 5):
        pool.extend(all_labeled_graphs(n))
    formulas = [random_formula(rng, 3, 1, 3) for _ in range(500)]
    from fomc.formulas import variable_count

    by_budget = {
        s: [f for f in formulas if variable_count(f) <= s] for s in (1, 2, 3)
    }
    verdicts: dict[tuple[int, int], bool] = {}

    def verdict(gi: int, fi: int) -> bool:
        key = (gi, fi)
        if key not in verdicts:
            verdicts[key] = model_check(pool[gi], formulas[fi])
        return verdicts[key]

    index = {id(f): i for i, f in enumerate(formulas)}
    for (ia, a), (ib, b) in itertools.combinations(enumerate(pool), 2):
        for s in (1, 2, 3):
            if not fo_s_equivalent(a, b, s):
                continue
            for f in by_budget[s]:
                fi = index[id(f)]
                assert verdict(ia, fi) == verdict(ib, fi), (a, b, s, f)


def test_census_blocks():
    paths = [gen_path(i) for i in range(1, 9)]
    assert type_census(paths, 3) == [[i] for i in range(8)]
    g = gen_path(4)
    assert type_census([g, g, g], 2) == [[0, 1, 2]]


def test_census_four_vertex_graphs_with_four_pebbles():
    labeled = all_labeled_graphs(4)
    reps: list[ColoredGraph] = []
    for g in labeled:
        if not any(graphs_isomorphic(g, h) for h in reps):
            reps.append(g)
    assert len(reps) == 11
    blocks = type_census(reps, 4)
    assert len(blocks) == 11


def test_refinement_matches_the_referee_game():
    # verdicts and death rounds of the dense s-pebble game, on random
    # pairs with and without equal vertex counts
    rng = random.Random(63)
    separated = 0
    for _ in range(400):
        s = rng.randint(1, 3)
        colors = rng.randint(1, 2)
        n = rng.randint(1, 6)
        m = n if rng.random() < 0.4 else rng.randint(1, 6)
        a = random_graph(rng, n, colors=colors, edge_prob=rng.uniform(0.1, 0.7))
        b = random_graph(rng, m, colors=colors, edge_prob=rng.uniform(0.1, 0.7))
        alive, death_round = pebble_game(a, b, s)
        assert fo_s_equivalent(a, b, s) == alive, (a, b, s)
        assert spoiler_distance(a, b, s) == death_round, (a, b, s)
        separated += not alive
    # both verdicts occur often enough to matter
    assert 100 < separated < 350


def test_four_pebbles_on_graphs_of_unequal_size_match_the_referee_game():
    # with s = 4 every open slot has slots on both sides of it; unequal
    # vertex counts pad the shorter graph's contexts.
    rng = random.Random(66)
    separated = 0
    for _ in range(30):
        n, m = rng.sample(range(1, 5), 2)
        a = random_graph(rng, n, colors=2, edge_prob=rng.uniform(0.2, 0.7))
        b = random_graph(rng, m, colors=2, edge_prob=rng.uniform(0.2, 0.7))
        if rng.random() < 0.5:
            b = relabel(rng, a)
        alive, death_round = pebble_game(a, b, 4)
        assert fo_s_equivalent(a, b, 4) == alive
        assert spoiler_distance(a, b, 4) == death_round, (a, b)
        separated += not alive
    assert 5 < separated < 25


def test_census_matches_pairwise_referee_games():
    rng = random.Random(64)
    graphs = [gen_path(n) for n in range(1, 6)]
    graphs += [random_graph(rng, rng.randint(1, 5), colors=2) for _ in range(8)]
    graphs += [relabel(rng, g) for g in rng.sample(graphs, 5)]
    rng.shuffle(graphs)
    for s in (1, 2, 3):
        blocks: list[list[int]] = []
        for idx, g in enumerate(graphs):
            for block in blocks:
                if pebble_game(g, graphs[block[0]], s)[0]:
                    block.append(idx)
                    break
            else:
                blocks.append([idx])
        assert type_census(graphs, s) == blocks, s


@pytest.mark.parametrize("big", [2**62, 10**20])
def test_huge_colors_decide_as_small_ones(big):
    rng = random.Random(41)
    small = [random_graph(rng, rng.randint(1, 4), colors=2) for _ in range(12)]
    huge = [
        ColoredGraph.build(g.n, g.edges, [big if col == 2 else col for col in g.colors], c=big)
        for g in small
    ]
    assert any(2 in g.colors for g in small)
    for i, j in itertools.combinations(range(len(small)), 2):
        for s in (1, 2):
            a, b = small[i], small[j]
            assert fo_s_equivalent(huge[i], huge[j], s) == fo_s_equivalent(a, b, s)
            assert spoiler_distance(huge[i], huge[j], s) == spoiler_distance(a, b, s)
    assert type_census(huge, 2) == type_census(small, 2)


def test_resource_refusal():
    big = gen_path(60)
    # the cap counts the (n+1)^s tuples refinement stores per graph
    with pytest.raises(ResourceLimitError):
        fo_s_equivalent(big, gen_path(59), 3, cap=61**3 + 60**3 - 1)
    with pytest.raises(ResourceLimitError):
        fo_s_equivalent(gen_path(5), gen_path(6), 3, cap=6**3 + 7**3 - 1)
    assert not fo_s_equivalent(gen_path(5), gen_path(6), 3, cap=6**3 + 7**3)
    # identical graphs short-circuit before the cap check
    assert fo_s_equivalent(big, big, 3, cap=10)
    assert type_census([big, big], 3, cap=10) == [[0, 1]]


@pytest.mark.parametrize("s", [0, -3])
def test_nonpositive_pebble_count_is_refused_even_for_equal_graphs(s):
    p4, p5 = gen_path(4), gen_path(5)
    for a, b in ((p4, p4), (p4, p5)):
        with pytest.raises(ValueError, match="pebble count"):
            fo_s_equivalent(a, b, s)
        with pytest.raises(ValueError, match="pebble count"):
            spoiler_distance(a, b, s)
        with pytest.raises(ValueError, match="pebble count"):
            type_census([a, b], s)
    with pytest.raises(ValueError, match="pebble count"):
        type_census([p4], s)


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_1_is_refused_even_for_equal_graphs(cap):
    p4, p5 = gen_path(4), gen_path(5)
    message = f"^the tuple cap must be positive, got {cap}$"
    for a, b in ((p4, p4), (p4, p5)):
        with pytest.raises(ValueError, match=message):
            fo_s_equivalent(a, b, 2, cap=cap)
        with pytest.raises(ValueError, match=message):
            spoiler_distance(a, b, 2, cap=cap)
        with pytest.raises(ValueError, match=message):
            type_census([a, b], 2, cap=cap)


def test_paths_beyond_the_dense_game_are_decided():
    # the dense game needed 9.8e7 positions here and was refused
    p20 = gen_path(20)
    assert not fo_s_equivalent(p20, gen_path(21), 3)
    assert fo_s_equivalent(p20, relabel(random.Random(65), p20), 3)


def test_keys_split_below_the_limit_decide_as_whole_ones(monkeypatch):
    # with a tiny limit the packed keys are made dense between most of
    # their columns; the referee sweeps must come out the same
    calls = []
    dense = pebble._dense

    def counting(key):
        calls.append(len(key))
        return dense(key)

    monkeypatch.setattr(pebble, "_dense", counting)
    assert spoiler_distance(gen_path(5), gen_path(6), 3) == 3
    whole = len(calls)
    monkeypatch.setattr(pebble, "_KEY_LIMIT", 2**10)
    calls.clear()
    assert spoiler_distance(gen_path(5), gen_path(6), 3) == 3
    assert len(calls) > whole
    test_refinement_matches_the_referee_game()
    test_census_matches_pairwise_referee_games()
    for limit in (2**10, 2**6):
        monkeypatch.setattr(pebble, "_KEY_LIMIT", limit)
        test_slot_zero_refinement_matches_the_all_slot_referee()


def test_refinement_peak_memory_per_tuple():
    # refinement keeps the tuple keys, the atomic keys and one round's
    # buffers, about 32 bytes per stored tuple at s = 3
    a, b = gen_path(60), gen_path(61)
    tracemalloc.start()
    try:
        assert spoiler_distance(a, b, 3) == 6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (61**3 + 62**3) <= 48


def test_one_pebble_on_long_paths_stores_no_vertex_pair_table():
    # at s = 1 there are n + 1 tuples per graph and no slot pairs, so an
    # (n+1) x (n+1) adjacency table (hundreds of MB here) must never be built
    a, b = gen_path(20_000), gen_path(20_001)
    tracemalloc.start()
    try:
        assert fo_s_equivalent(a, b, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (20_001 + 20_002) <= 48


def test_one_pebble_census_of_mixed_sizes_stays_within_the_tuple_bound():
    # context rows are deduplicated at each graph's own width, so one long
    # path among many tiny graphs does not pad every row to its length
    rng = random.Random(67)
    tiny: dict[ColoredGraph, None] = {}
    while len(tiny) < 300:
        g = random_graph(rng, rng.randint(1, 4), colors=3, edge_prob=0.5)
        tiny.setdefault(g)
    graphs = [gen_path(20_000), *tiny]
    tracemalloc.start()
    try:
        blocks = type_census(graphs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == all_slot_census(graphs, 1)
    assert peak / sum(g.n + 1 for g in graphs) <= 48


def test_three_pebble_census_of_mixed_sizes_stays_within_the_tuple_bound():
    # blocks of one and two graphs of three sizes; refining them one graph
    # at a time, with columns spread over all tuples, peaked at 34.1 bytes
    # per stored tuple here
    rng = random.Random(71)
    p60, p30, p12 = gen_path(60), gen_path(30), gen_path(12)
    graphs = [p60, p30, p12, relabel(rng, p60), relabel(rng, p30)]
    tracemalloc.start()
    try:
        blocks = type_census(graphs, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [[0, 3], [1, 4], [2]]
    assert peak / sum((g.n + 1) ** 3 for g in graphs) <= 34


def _colored_star(n: int, swap: bool) -> ColoredGraph:
    """Vertex 1 joined to every other vertex, each vertex of its own color;
    with ``swap`` two leaves trade colors, which gives an isomorphic copy."""
    colors = list(range(1, n + 1))
    if swap:
        colors[1], colors[2] = colors[2], colors[1]
    return ColoredGraph.build(n, [(1, v) for v in range(2, n + 1)], colors, c=n)


def test_two_pebble_peak_memory_per_vertex_and_edge_does_not_grow_with_a_wide_row():
    # the hub's neighbours realise n - 1 distinct types, so its row holds
    # n - 1 codes; padding every row to it would store n^2 cells. The tuple
    # refinement refused these pairs at (n+1)^2 tuples per graph
    per_item = []
    for n in (10_000, 40_000):
        a, b = _colored_star(n, False), _colored_star(n, True)
        tracemalloc.start()
        try:
            assert fo_s_equivalent(a, b, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_item.append(peak / (2 * (n + n - 1)))
    assert per_item[1] <= 1.1 * per_item[0] and per_item[1] <= 128, per_item


def test_a_pass_of_the_row_ranking_ranks_only_the_rows_left(monkeypatch):
    # every leaf's row is one chunk after the first pass, so later passes
    # rank the two hubs' chunks alone; each ranked all 80,000 rows again,
    # 88,888 keys down to 80,000 in passes 2-10
    a, b = _colored_star(40_000, False), _colored_star(40_000, True)
    passes: list[list[int]] = []  # per _rank_rows call, the keys each pass ranks
    inside = []
    dense, rank_rows = pebble._dense, pebble._rank_rows

    def ranking(*args):
        passes.append([])
        inside.append(True)
        try:
            return rank_rows(*args)
        finally:
            inside.pop()

    def counting(key):
        if inside:
            passes[-1].append(len(key))
        return dense(key)

    monkeypatch.setattr(pebble, "_rank_rows", ranking)
    monkeypatch.setattr(pebble, "_dense", counting)
    assert fo_s_equivalent(a, b, 2)  # isomorphic copies
    wide = [p for p in passes if len(p) > 1]
    assert len(wide) == 1, passes
    first, *later = wide[0]
    # the first pass ranks every row: 79,998 leaves, each hub 13,334 chunks
    # of three places; each later pass ranks at most half the hubs' last
    assert first == 79_998 + 2 * 13_334
    hubs = [2 * 13_334, *later]
    assert all(x <= y / 2 for x, y in zip(hubs[1:], hubs)), hubs


def _mixed_census() -> tuple[list[ColoredGraph], list[ColoredGraph]]:
    """A 20,000-vertex path and 2,000 distinct graphs of 1-5 vertices, and
    the tiny graphs alone."""
    rng = random.Random(74)
    tiny: dict[ColoredGraph, None] = {}
    while len(tiny) < 2000:
        tiny.setdefault(random_graph(rng, rng.randint(1, 5), colors=6, edge_prob=0.5))
    return [gen_path(20_000), *tiny], list(tiny)


def test_two_pebble_census_of_mixed_sizes_stores_no_graphs_by_types_table():
    # 2,000 small graphs realise about 5,000 types between them: a table of
    # graphs by types would hold about 10^7 cells, some 1,500 bytes per
    # vertex and edge here
    graphs, tiny = _mixed_census()
    tracemalloc.start()
    try:
        blocks = type_census(graphs, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # paths of four or more vertices share one FO^2 class, so P6 stands in
    # for the long path before the referee
    assert blocks == all_slot_census([gen_path(6), *tiny], 2)
    assert peak / sum(g.n + len(g.edge_lo) for g in graphs) <= 128


def test_a_refused_census_of_many_graphs_names_their_count_not_every_size():
    # a refused census of thousands of graphs stays one readable line
    graphs, _ = _mixed_census()
    cells = sum(g.n + 2 * len(g.edge_lo) for g in graphs)
    with pytest.raises(ResourceLimitError, match=f"^1-type refinement needs {cells} cells") as refused:
        type_census(graphs, 2, cap=cells - 1)
    message = str(refused.value)
    assert len(message) < 200
    assert "2001 graphs" in message and "20000 vertices" in message


def test_two_pebble_cap_counts_vertices_and_arcs():
    # at s = 2 a round stores n + 2m cells per graph, checked before the
    # first round; at s = 1 the cap is only validated
    a, b = gen_path(60), gen_path(59)
    cells = (60 + 2 * 59) + (59 + 2 * 58)
    calls = (fo_s_equivalent, spoiler_distance, lambda a, b, s, cap: type_census([a, b], s, cap))
    for call in calls:
        with pytest.raises(ResourceLimitError, match=f"^1-type refinement needs {cells} cells \\(cap {cells - 1}\\)"):
            call(a, b, 2, cap=cells - 1)
        call(a, b, 2, cap=cells)
        call(a, b, 1, cap=1)
    # far below the (n+1)^2 tuples per graph the refinement stored before
    assert fo_s_equivalent(a, b, 2, cap=cells)
    assert not fo_s_equivalent(a, gen_path(3), 2, cap=cells)


def _sweep_pairs(rng: random.Random, count: int):
    """Seeded (a, b, s) over s = 1-4, equal and unequal vertex counts,
    1-3 colors and relabelled copies."""
    for _ in range(count):
        s = rng.randint(1, 4)
        top = (8, 8, 6, 4)[s - 1]
        colors = rng.randint(1, 3)
        n = rng.randint(1, top)
        m = n if rng.random() < 0.4 else rng.randint(1, top)
        a = random_graph(rng, n, colors=colors, edge_prob=rng.uniform(0.1, 0.7))
        b = random_graph(rng, m, colors=colors, edge_prob=rng.uniform(0.1, 0.7))
        if rng.random() < 0.25:
            b = relabel(rng, a)
        yield a, b, s


def test_slot_zero_refinement_matches_the_all_slot_referee():
    rng = random.Random(68)
    separated = 0
    for a, b, s in _sweep_pairs(rng, 500):
        expected = all_slot_spoiler_distance(a, b, s)
        assert spoiler_distance(a, b, s) == expected, (a, b, s)
        assert fo_s_equivalent(a, b, s) == (expected is None), (a, b, s)
        separated += expected is not None
    assert 150 < separated < 450
    for _ in range(60):
        s = rng.randint(1, 3)
        colors = rng.randint(1, 3)
        graphs = [random_graph(rng, rng.randint(1, 6 - s), colors=colors) for _ in range(8)]
        graphs += [relabel(rng, g) for g in rng.sample(graphs, 3)]
        rng.shuffle(graphs)
        distinct = list(dict.fromkeys(graphs))
        if len(distinct) > 1:
            assert all_slot_census(distinct, s) == type_census(distinct, s), (distinct, s)


HUGE = (1, 2**63, 2**64 + 5)


def _huge(g: ColoredGraph) -> ColoredGraph:
    """``g`` with colors 1-3 moved past int64."""
    return ColoredGraph.build(g.n, g.edges, [HUGE[col - 1] for col in g.colors], c=HUGE[-1])


def _one_type_pair(rng: random.Random) -> tuple[ColoredGraph, ColoredGraph]:
    """Two random graphs of 1-8 vertices and 1-3 colors, a graph and a
    relabelled copy, or the graphs of two random trees of one depth (1-3),
    whose FO^2 types often agree without isomorphism."""
    if rng.random() < 0.3:
        depth, colors = rng.randint(1, 3), rng.randint(1, 2)
        return tuple(random_tree(rng, rng.randint(1, 10), depth, colors).to_graph() for _ in "ab")
    colors = rng.randint(1, 3)
    a, b = (random_graph(rng, rng.randint(1, 8), colors, rng.uniform(0.1, 0.7)) for _ in "ab")
    return (a, relabel(rng, a)) if rng.random() < 0.25 else (a, b)


def test_one_and_two_pebbles_match_the_all_slot_referee():
    # at s <= 2 the answers read colour sets and 1-type rounds, not tuples;
    # the all-slot tuple refinement is their referee
    rng = random.Random(73)
    separated = equivalent_apart = 0
    for _ in range(3000):
        s = rng.randint(1, 2)
        a, b = _one_type_pair(rng)
        if rng.random() < 0.2:
            a, b = _huge(a), _huge(b)
        expected = all_slot_spoiler_distance(a, b, s)
        assert spoiler_distance(a, b, s) == expected, (a, b, s)
        assert fo_s_equivalent(a, b, s) == (expected is None), (a, b, s)
        separated += expected is not None
        # FO^2-equivalent, and of different sizes, so not isomorphic
        equivalent_apart += s == 2 and expected is None and (a.n, len(a.edge_lo)) != (b.n, len(b.edge_lo))
    assert 1000 < separated < 2000
    assert equivalent_apart > 80
    for _ in range(300):
        s = rng.randint(1, 2)
        graphs = [g for _ in range(rng.randint(1, 4)) for g in _one_type_pair(rng)]
        graphs += [relabel(rng, g) for g in rng.sample(graphs, rng.randint(0, len(graphs) // 2))]
        if rng.random() < 0.2:
            graphs = [_huge(g) for g in graphs]
        rng.shuffle(graphs)
        assert type_census(graphs, s) == all_slot_census(graphs, s), (graphs, s)


def _hub_graph(rng: random.Random) -> ColoredGraph:
    """A graph of 20-40 vertices whose vertex 1 is joined to 16 or more
    others of 9 or more colors, plus sparse random edges: its row holds 9
    or more codes."""
    n = rng.randint(20, 40)
    spokes = rng.sample(range(2, n + 1), rng.randint(16, n - 1))
    colors = [rng.randint(1, 30) for _ in range(n)]
    while len({colors[v - 1] for v in spokes}) < 9:
        colors[rng.choice(spokes) - 1] = rng.randint(1, 30)
    edges = {(1, v) for v in spokes}
    edges |= {(u, v) for u in range(2, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.05}
    return ColoredGraph.build(n, edges, colors, c=30)


def test_rows_wider_than_eight_codes_match_the_all_slot_referee():
    rng = random.Random(75)
    separated = 0
    for _ in range(150):
        a = _hub_graph(rng)
        pick = rng.random()
        if pick < 0.4:
            b = relabel(rng, a)
        elif pick < 0.7:  # one vertex recolored
            colors = list(a.colors)
            colors[rng.randrange(a.n)] = rng.randint(1, 30)
            b = ColoredGraph.build(a.n, a.edges, colors, c=30)
        else:
            b = _hub_graph(rng)
        expected = all_slot_spoiler_distance(a, b, 2)
        assert spoiler_distance(a, b, 2) == expected, (a, b)
        assert fo_s_equivalent(a, b, 2) == (expected is None), (a, b)
        separated += expected is not None
    assert 40 < separated < 130
    for _ in range(20):
        graphs = [_hub_graph(rng) for _ in range(2)] + [g for _ in range(2) for g in _one_type_pair(rng)]
        graphs += [relabel(rng, g) for g in graphs[:3]]
        rng.shuffle(graphs)
        assert type_census(graphs, 2) == all_slot_census(graphs, 2), graphs


def _same_rounds(graphs: list[ColoredGraph], s: int) -> None:
    """Assert that the block refinement and the column-wise referee give
    the same context partition and set count on every round."""
    ours = [(np.concatenate(sets), n) for sets, n in pebble._refine(graphs, s, 10**7)]
    theirs = [(np.concatenate(sets), n) for sets, n in columnwise_refine(graphs, s)]
    assert len(ours) == len(theirs), (graphs, s)
    for (a, count), (b, expected) in zip(ours, theirs):
        assert count == expected, (graphs, s)
        # one partition: the two numberings correspond one to one
        assert len(set(zip(a.tolist(), b.tolist()))) == count, (graphs, s)


def test_each_round_matches_the_columnwise_referee(monkeypatch):
    # 1-6 graphs of equal and mixed sizes, s = 3-4 (below s = 3 the answers
    # read 1-types, not tuples), colors past int64, and keys made dense
    # between columns: below a lowered limit, and at s = 10, where 3^45
    # pair columns alone pass 2^62
    rng = random.Random(72)
    huge = (1, 2**63, 2**64 + 5)
    for case in range(600):
        if case == 400:
            monkeypatch.setattr(pebble, "_KEY_LIMIT", 2**12)
        s = rng.randint(3, 4)
        top = (5, 3)[s - 3]
        sizes = [rng.randint(1, top)] * rng.randint(1, 6)
        if rng.random() < 0.6:
            sizes = [rng.randint(1, top) for _ in sizes]
        graphs = [random_graph(rng, n, colors=3, edge_prob=rng.uniform(0.1, 0.7)) for n in sizes]
        if rng.random() < 0.3:
            graphs = [
                ColoredGraph.build(g.n, g.edges, [huge[col - 1] for col in g.colors], c=huge[-1])
                for g in graphs
            ]
        graphs += [relabel(rng, g) for g in rng.sample(graphs, rng.randint(0, len(graphs) // 2))]
        _same_rounds(graphs[:6], s)
    monkeypatch.undo()
    for sizes in ((1, 2), (2, 2, 1), (1,), (2,)):
        graphs = [random_graph(rng, n, colors=2) for n in sizes]
        _same_rounds(graphs, 10)


def _count_set_rows(monkeypatch) -> list[int]:
    """The number of context rows each round hands to ``_set_ids``."""
    rows_seen: list[int] = []
    set_ids = pebble._set_ids

    def counting(rows):
        rows_seen.append(len(rows))
        return set_ids(rows)

    monkeypatch.setattr(pebble, "_set_ids", counting)
    return rows_seen


def test_sets_are_built_from_slot_zero_contexts_alone(monkeypatch):
    rows_seen = _count_set_rows(monkeypatch)
    a, b = gen_path(4), ColoredGraph.build(5, [(1, 2), (2, 3), (4, 5)])
    for s in (3, 4):  # the tuple path; below s = 3 no tuple rows are built
        rows_seen.clear()
        spoiler_distance(a, b, s)
        assert rows_seen, s
        assert set(rows_seen) == {5 ** (s - 1) + 6 ** (s - 1)}, s


def test_a_stable_refinement_interns_no_round_that_adds_no_type(monkeypatch):
    # the round whose sets add nothing stops before packing the types
    rng = random.Random(69)
    counts: list[int] = []
    pack = pebble._pack

    def recording(columns):
        key, bound = pack(columns)
        if len(key) == tuples:
            counts.append(len(np.unique(key)))
        return key, bound

    monkeypatch.setattr(pebble, "_pack", recording)
    for s in (3,):  # the tuple path; below s = 3 nothing is packed
        for _ in range(10):
            graphs = [random_graph(rng, rng.randint(1, 6), colors=2) for _ in range(3)]
            graphs = list(dict.fromkeys(graphs))
            if len(graphs) < 2:
                continue
            tuples = sum((g.n + 1) ** s for g in graphs)
            counts.clear()
            type_census(graphs, s)
            assert counts == sorted(set(counts)), (graphs, s)
            # the atomic types plus every round but the one that found them stable
            assert len(counts) == all_slot_refine(graphs, s, until_split=False)[1], (graphs, s)


def test_equivalence_stops_at_the_first_round_whose_types_differ(monkeypatch):
    # a type realised in one graph alone is pebbled in at most s moves, so
    # the verdict is fixed before the all-blank tuples split
    rounds = _count_set_rows(monkeypatch)
    for n in range(5, 12):
        a, b = gen_path(n), gen_path(n + 1)
        rounds.clear()
        assert not fo_s_equivalent(a, b, 3)
        assert len(rounds) <= 2, n
        assert spoiler_distance(a, b, 3) == all_slot_spoiler_distance(a, b, 3) > 2, n
    assert spoiler_distance(gen_path(5), gen_path(6), 3) == 3


def test_whole_row_ranking_matches_numeric_row_equality():
    # rows are ranked as byte strings; members at or above 2**32 sort in
    # another order as bytes than as numbers, but equal rows still meet
    rng = np.random.default_rng(70)
    for width in (1, 2, 5):
        for top in (2**8, 2**33, 2**62):
            pool = rng.integers(0, top, size=(12, width), dtype=np.int64)
            pool[0] = 2**32  # its bytes sort below those of 1
            pool[1] = 1
            rows = pool[rng.integers(0, len(pool), size=200)]
            ids, count = pebble._set_ids(rows)
            _, expected = np.unique(rows, axis=0, return_inverse=True)
            assert count == expected.max() + 1, (width, top)
            # the same partition: ids and the numeric classes map one to one
            assert len(set(zip(ids.tolist(), expected.ravel().tolist()))) == count, (width, top)


def _rows_of_every_chunk_count(rng: random.Random, bits: int) -> list[list[int]]:
    """Seeded 1-type rows (a head, then codes) whose largest value gives
    ``_rank_rows`` a radix of ``bits`` bits: rows of a head alone, rows of
    1, 2 and 3 or more chunks of its first pass, rows cut short of another
    row, and rows one place longer or shorter than another in its last
    chunk, with value 0 last or not."""
    top = 2**bits - 3  # radix top + 2 has ``bits`` bits
    width = 62 // bits
    pool = [0, 1, top, *(rng.randint(0, top) for _ in range(3))]
    rows = [[top]]
    for _ in range(40):
        length = rng.choice([1, width - 1, width, width + 1, 2 * width, 2 * width + 1, 3 * width + rng.randint(0, width)])
        rows.append([rng.choice(pool) for _ in range(length)])
    for row in rng.sample(rows, 20):
        rows.append(row[: rng.randint(1, len(row))])
        rows.append(row + [0])
        rows.append(row + [rng.choice(pool)])
        rows.append(list(row))
    rng.shuffle(rows)
    return rows


def test_ranked_rows_match_a_dict_of_tuples_at_every_radix():
    # rows of several chunks are ranked over several passes, which the
    # small graphs of the refinement sweeps seldom reach
    rng = random.Random(76)
    for bits in range(2, 32):
        rows = _rows_of_every_chunk_count(rng, bits)
        heads = np.array([row[0] for row in rows], np.int64)
        owner = np.array([v for v, row in enumerate(rows) for _ in row[1:]], np.int64)
        codes = np.array([code for row in rows for code in row[1:]], np.int64)
        ids, count = pebble._rank_rows(heads, owner, codes)
        referee: dict[tuple[int, ...], int] = {}
        expected = [referee.setdefault(tuple(row), len(referee)) for row in rows]
        assert count == len(referee), bits
        # one partition: the two numberings correspond one to one
        assert len(set(zip(ids.tolist(), expected))) == count, bits
        chunks = {-(-len(row) // (62 // bits)) for row in rows}
        assert {1, 2, 3} <= chunks, bits


def test_rows_of_values_past_two_places_a_key_are_refused_or_ranked_at_once(monkeypatch):
    # from the value 2^31 - 2 on a key holds one place, so no pass could
    # shorten a row of two or more: that is refused, and rows of a head
    # alone are ranked in one pass
    passes: list[int] = []
    dense = pebble._dense

    def counting(key):
        passes.append(len(key))
        assert len(passes) <= 3, "the passes do not end"
        return dense(key)

    monkeypatch.setattr(pebble, "_dense", counting)
    none = np.zeros(0, np.int64)
    ids, count = pebble._rank_rows(np.array([2**31, 5, 2**31, 2**40], np.int64), none, none)
    assert count == 3 and ids[0] == ids[2] and len({*ids.tolist()}) == 3
    assert len(passes) == 1
    for big in (2**31 - 2, 2**31, 2**40):
        passes.clear()
        with pytest.raises(ResourceLimitError, match=f"^1-type rows hold a value of {big}, past 2\\^31 - 3$"):
            pebble._rank_rows(np.array([big, 1], np.int64), np.array([0]), np.array([3]))
        assert not passes
    top = 2**31 - 3  # the largest value two places of a key still hold
    ids, count = pebble._rank_rows(np.array([top] * 3, np.int64), np.array([0, 0, 1]), np.array([1, top, 1]))
    assert count == 3 and len(passes) == 2


def test_no_round_ranks_the_tuples(monkeypatch):
    # tuple keys are packed, not made dense: only context rows (and the
    # heads of the first round) are ranked, one row per slot-0 context
    ranked: list[int] = []
    dense = pebble._dense

    def counting(key):
        ranked.append(len(key))
        return dense(key)

    monkeypatch.setattr(pebble, "_dense", counting)
    rows_seen = _count_set_rows(monkeypatch)
    for s in (3,):  # the tuple path; below s = 3 no tuple is stored
        cases = [[gen_path(n), gen_path(n + 1)] for n in (4, 7, 10)]
        cases += [[gen_path(n) for n in lengths] for lengths in ((2, 3, 5), (1, 4, 6, 9))]
        for graphs in cases:
            tuples = sum((g.n + 1) ** s for g in graphs)
            contexts = sum((g.n + 1) ** (s - 1) for g in graphs)
            ranked.clear()
            rows_seen.clear()
            if len(graphs) == 2:
                spoiler_distance(*graphs, s)
                fo_s_equivalent(*graphs, s)
            else:
                type_census(graphs, s)
            assert rows_seen and set(rows_seen) == {contexts}, (graphs, s)
            assert max(ranked) < tuples, (graphs, s)


def test_a_huge_pebble_count_is_refused_before_any_power():
    # (n + 1) ** s used to be computed before the cap was read, which at
    # s = 2**70 does not return; a child process with a time limit and a
    # memory limit keeps that from blocking or starving the suite
    script = textwrap.dedent(
        """
        from fomc.graphs import gen_path
        from fomc.pebble import ResourceLimitError, fo_s_equivalent, spoiler_distance, type_census
        a, b, s = gen_path(3), gen_path(4), 2**70
        for call in (spoiler_distance, fo_s_equivalent, lambda a, b, s: type_census([a, b], s)):
            try:
                print("answered", call(a, b, s))
            except ResourceLimitError as e:
                print(e)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["OPENBLAS_NUM_THREADS"] = "1"

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=30, env=env, preexec_fn=limit_memory,
    )
    assert out.stdout.splitlines() == [
        "type refinement needs more than 10000000 tuples (cap 10000000): "
        "vertex counts [3, 4], more than 24 pebbles"
    ] * 3, out.stderr
