import itertools
import random

import pytest

from fomc.evaluator import evaluate_free, evaluate_free_with_stats, model_check
from fomc.formulas import (
    Not,
    Var,
    formula_length,
    free_vars,
    parse_formula,
    variable_count,
)
from fomc.graphs import gen_path
from fomc.hardness import distance_formula
from fomc.pebble import ResourceLimitError
from fomc.randgen import random_formula, random_graph

from .oracles import all_labeled_graphs, bfs_distances, recursive_model_check


def test_model_check_basics():
    assert model_check(gen_path(3), parse_formula("exists x1. exists x2. adj(x1,x2)"))
    assert not model_check(gen_path(1), parse_formula("exists x1. adj(x1,x1)"))


def test_model_check_requires_sentence():
    with pytest.raises(ValueError):
        model_check(gen_path(2), parse_formula("adj(x1,x2)"))


def test_distance_pair_on_path():
    p6 = gen_path(6)
    body = distance_formula(5)
    sat = evaluate_free(p6, body)
    dist = {u: bfs_distances(p6, u) for u in p6.vertices}
    expected = {
        (u, v) for u in p6.vertices for v in p6.vertices if dist[u].get(v) == 5
    }
    assert set(sat.rows) == expected


def test_evaluate_free_k2_adjacency():
    sat = evaluate_free(gen_path(2), parse_formula("adj(x1,x2)"))
    assert sat.variables == (Var(1), Var(2))
    assert sat.rows == {(1, 2), (2, 1)}


def test_evaluate_free_distance2_on_p4():
    sat = evaluate_free(gen_path(4), distance_formula(2))
    assert sat.rows == {(1, 3), (3, 1), (2, 4), (4, 2)}


def test_sentence_gives_empty_assignment():
    sat = evaluate_free(gen_path(2), parse_formula("exists x1. C1(x1)"))
    assert sat.variables == ()
    assert sat.holds


def test_out_of_palette_color_is_false():
    g = gen_path(2)  # c = 1
    assert not model_check(g, parse_formula("exists x1. C9(x1)"))
    assert model_check(g, parse_formula("forall x1. !C9(x1)"))


def test_tables_above_the_cell_cap_are_refused():
    # 3200^2 and 216^3 cells both exceed the ten-million cap
    with pytest.raises(ResourceLimitError):
        evaluate_free(gen_path(3200), parse_formula("adj(x1,x2)"))
    with pytest.raises(ResourceLimitError):
        evaluate_free(gen_path(216), parse_formula("adj(x1,x2) & adj(x2,x3)"))


def test_one_variable_sentence_on_large_graph_builds_no_adjacency():
    f = parse_formula("forall x1. (C1(x1) & !adj(x1,x1))")
    assert model_check(gen_path(20000), f)


def _small_graph_pool():
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_labeled_graphs(n, colors=2))
    return graphs


def test_agreement_with_recursive_oracle_exhaustive_graphs():
    graphs = _small_graph_pool()
    rng = random.Random(100)
    formulas = [random_formula(rng, 3, 2, 3) for _ in range(60)]
    for f in formulas:
        for g in graphs:
            assert model_check(g, f) == recursive_model_check(g, f)


def test_agreement_on_colored_graphs():
    rng = random.Random(200)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 5), colors=3)
        f = random_formula(rng, 3, 3, 3)
        assert model_check(g, f) == recursive_model_check(g, f)


# hand-written corners: atoms on one variable, vacuous quantifiers,
# connectives over disjoint variable sets, sentences under a connective
EDGE_CASES = [
    parse_formula(text)
    for text in (
        "adj(x1,x1)",
        "x1=x1",
        "exists x2. C2(x1)",
        "forall x3. adj(x1,x2)",
        "forall x2. exists x1. C2(x1)",
        "C1(x1) | adj(x2,x3)",
        "C2(x3) -> x1=x2",
        "(exists x1. C2(x1)) | (forall x2. C1(x2))",
    )
]


def test_open_formula_agreement_with_oracle():
    rng = random.Random(300)
    cases = []
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 4), colors=2)
        f = random_formula(rng, 3, 2, 2)
        # strip the outer quantifier to get free variables
        cases.append((g, f.body))
    for n in range(1, 4):
        for g in all_labeled_graphs(n, colors=2):
            cases.extend((g, f) for f in EDGE_CASES)
    for g, f in cases:
        sat = evaluate_free(g, f)
        fv = sorted(free_vars(f))
        assert sat.variables == tuple(fv)
        # apply_interpretation hands rows to ColoredGraph.build
        assert all(type(x) is int for row in sat.rows for x in row)
        for row in itertools.product(g.vertices, repeat=len(fv)):
            env = dict(zip(fv, row))
            assert (row in sat.rows) == recursive_model_check(g, f, env)


def test_de_morgan():
    rng = random.Random(400)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5), colors=2)
        f = random_formula(rng, 3, 2, 3)
        assert model_check(g, Not(f)) == (not model_check(g, f))


def test_tuple_count_within_bound():
    rng = random.Random(500)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 4), colors=2)
        f = random_formula(rng, 3, 2, 3)
        _, stats = evaluate_free_with_stats(g, f)
        bound = formula_length(f) * g.n ** variable_count(f)
        assert stats.tuples_touched <= bound
