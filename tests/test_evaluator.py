import itertools
import random

import numpy as np
import pytest

from fomc import evaluator, formulas
from fomc.evaluator import evaluate_free, evaluate_free_with_stats, model_check
from fomc.formulas import (
    Adj,
    And,
    Eq,
    Exists,
    Forall,
    HasColor,
    Implies,
    Not,
    Or,
    Var,
    fold,
    formula_length,
    free_vars,
    parse_formula,
    quantifier_rank,
    variable_count,
)
from fomc.graphs import ColoredGraph, gen_path
from fomc.hardness import distance_formula, reduce_to_path
from fomc.pebble import ResourceLimitError
from fomc.randgen import random_formula, random_graph

from .oracles import (
    all_colored_labeled_graphs,
    all_labeled_graphs,
    bfs_distances,
    distinct_nodes,
    distinct_subformulas,
    fold_evaluate,
    recursive_model_check,
    satisfying_rows,
)


def test_model_check_basics():
    assert model_check(gen_path(3), parse_formula("exists x1. exists x2. adj(x1,x2)"))
    assert not model_check(gen_path(1), parse_formula("exists x1. adj(x1,x1)"))


def test_model_check_requires_sentence():
    with pytest.raises(ValueError):
        model_check(gen_path(2), parse_formula("adj(x1,x2)"))


def test_open_formula_is_an_input_error_before_a_resource_error():
    # evaluating the conjunction needs 30^5 cells, above the cap; the
    # free variables are still reported first
    f = parse_formula("adj(x1,x2) & adj(x3,x4) & adj(x4,x5)")
    with pytest.raises(ResourceLimitError):
        evaluate_free(gen_path(30), f)
    with pytest.raises(ValueError) as caught:
        model_check(gen_path(30), f)
    assert type(caught.value) is ValueError
    assert str(caught.value) == (
        "expected a sentence but found free variables: x1, x2, x3, x4, x5"
    )
    with pytest.raises(ValueError, match="found free variables: x2$"):
        model_check(gen_path(4), parse_formula("exists x1. adj(x1,x2) | C1(x1)"))


def test_open_formula_is_refused_without_building_rows(monkeypatch):
    # P215 stores 215^3 cells, just under the cap; rows would be ten million tuples
    def no_rows(*_args):
        raise AssertionError("rows were built")

    monkeypatch.setattr(evaluator.np, "argwhere", no_rows)
    with pytest.raises(ValueError, match="found free variables: x1, x2, x3$"):
        model_check(gen_path(215), parse_formula("x1=x1 & x2=x2 & x3=x3"))
    sat = evaluate_free(gen_path(4), parse_formula("exists x2. adj(x1,x2) & C1(x3)"))
    assert sat.variables == (Var(1), Var(3))
    assert sat.cells.shape == (4, 4) and sat.cells.dtype == bool
    assert not hasattr(sat, "rows")


def test_an_open_result_has_no_verdict():
    sat = evaluate_free(gen_path(3), parse_formula("exists x2. adj(x1,x2)"))
    with pytest.raises(ValueError, match="^not a sentence-level result$"):
        sat.holds


def test_model_check_walks_a_sentence_once(monkeypatch):
    # the evaluator walks the formula in its own loop, and a sentence
    # needs no second walk to find its free variables
    calls = []

    def counting_fold(*args, **kwargs):
        calls.append(args[0])
        return fold(*args, **kwargs)

    monkeypatch.setattr(formulas, "fold", counting_fold)
    assert not hasattr(evaluator, "fold")
    f = parse_formula("exists x1. forall x2. adj(x1,x2) | x1=x2")
    assert not model_check(gen_path(4), f)
    assert calls == []
    with pytest.raises(ValueError):
        model_check(gen_path(4), f.body)
    assert calls == [f.body]


def test_a_non_formula_node_is_named():
    bad = And((Eq(Var(1), Var(1)), 3))
    with pytest.raises(TypeError, match="^not a formula: 3$"):
        fold(bad, lambda node, kids, env: None)
    with pytest.raises(TypeError, match="^not a formula: 3$"):
        evaluate_free(gen_path(2), bad)
    # a tuple shaped like the evaluator's own stack entries is refused too
    x1 = Var(1)
    for junk in ((Not(Eq(x1, x1)), 1), (Eq(x1, x1),)):
        with pytest.raises(TypeError, match="^not a formula: "):
            evaluate_free(gen_path(2), And((Adj(x1, x1), junk)))


def test_distance_pair_on_path():
    p6 = gen_path(6)
    body = distance_formula(5)
    sat = evaluate_free(p6, body)
    dist = {u: bfs_distances(p6, u) for u in p6.vertices}
    expected = {
        (u, v) for u in p6.vertices for v in p6.vertices if dist[u].get(v) == 5
    }
    assert set(satisfying_rows(sat)) == expected


def test_evaluate_free_k2_adjacency():
    sat = evaluate_free(gen_path(2), parse_formula("adj(x1,x2)"))
    assert sat.variables == (Var(1), Var(2))
    assert satisfying_rows(sat) == {(1, 2), (2, 1)}


def test_evaluate_free_distance2_on_p4():
    sat = evaluate_free(gen_path(4), distance_formula(2))
    assert satisfying_rows(sat) == {(1, 3), (3, 1), (2, 4), (4, 2)}


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
    # a closed sentence: model_check passes the refusal on
    closed = parse_formula("exists x1. exists x2. exists x3. adj(x1,x2) & adj(x2,x3)")
    with pytest.raises(ResourceLimitError):
        model_check(gen_path(216), closed)


def test_one_variable_sentence_on_large_graph_builds_no_adjacency():
    f = parse_formula("forall x1. (C1(x1) & !adj(x1,x1))")
    assert model_check(gen_path(20000), f)


def _small_graph_pool():
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_labeled_graphs(n, colors=2))
    for n in range(1, 4):
        graphs.extend(all_colored_labeled_graphs(n, colors=2))
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
# connectives over disjoint variable sets, sentences under a connective,
# quantifiers over a middle or last axis of a table that is not symmetric
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
        "exists x2. C1(x1) & adj(x1,x2) & adj(x2,x3) & C2(x3)",
        "forall x2. C2(x1) | adj(x2,x3) | x1=x2",
        "exists x3. adj(x1,x3) & C1(x2) & !x2=x3",
        "exists x2. adj(x1,x2) & C1(x1) & adj(x2,x3) & C2(x4) & !x2=x4",
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
        for g in all_labeled_graphs(n, colors=2) + all_colored_labeled_graphs(n, colors=2):
            cases.extend((g, f) for f in EDGE_CASES)
    # coloured random graphs reach n = 4, past the coloured exhaustive family
    for f in EDGE_CASES:
        cases.extend((random_graph(rng, rng.randint(2, 4), colors=2), f) for _ in range(10))
    for g, f in cases:
        sat = evaluate_free(g, f)
        fv = sorted(free_vars(f))
        assert sat.variables == tuple(fv)
        # apply_interpretation hands rows to ColoredGraph.build
        rows = satisfying_rows(sat)
        assert all(type(x) is int for row in rows for x in row)
        for row in itertools.product(g.vertices, repeat=len(fv)):
            env = dict(zip(fv, row))
            assert (row in rows) == recursive_model_check(g, f, env)


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


def _random_dag(rng: random.Random, names: int, colors: int, rank: int, steps: int):
    """A random formula built from a growing pool of subformulas, each
    step drawing its operands from the pool with replacement, so that one
    object occurs at several places and under several quantifiers."""
    var = lambda: Var(rng.randint(1, names))
    pool = [Adj(var(), var()), Eq(var(), var())]
    pool += [HasColor(rng.randint(1, colors), var()) for _ in range(2)]
    for _ in range(steps):
        pick = lambda: pool[rng.randrange(len(pool) // 2, len(pool))]
        kind = rng.choice((Not, And, Or, Implies, Exists, Forall))
        if kind is Not:
            node = Not(pick())
        elif kind in (And, Or):
            node = kind(tuple(pick() for _ in range(rng.randint(2, 3))))
        elif kind is Implies:
            node = Implies(pick(), pick())
        else:
            node = kind(var(), pick())
        if quantifier_rank(node) <= rank and formula_length(node) <= 40:
            pool.append(node)
    return pool[-1]


def test_shared_subformulas_agree_with_recursive_oracle():
    rng = random.Random(600)
    shared_cases = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 6), colors=2)
        f = _random_dag(rng, names=3, colors=2, rank=3, steps=rng.randint(4, 12))
        sat = evaluate_free(g, f)
        fv = sorted(free_vars(f))
        assert sat.variables == tuple(fv)
        rows = satisfying_rows(sat)
        for row in itertools.product(g.vertices, repeat=len(fv)):
            env = dict(zip(fv, row))
            assert (row in rows) == recursive_model_check(g, f, env)
        shared_cases += distinct_nodes(f) < formula_length(f)
    assert shared_cases >= 200


def test_each_distinct_subformula_is_stored_once():
    # a subformula with q free variables stores n^q cells, once however
    # often it occurs
    rng = random.Random(700)
    open_cases = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 6), colors=2)
        f = _random_dag(rng, names=3, colors=2, rank=3, steps=rng.randint(4, 12))
        _, stats = evaluate_free_with_stats(g, f)
        expected = sum(g.n ** len(free_vars(node)) for node in distinct_subformulas(f))
        assert stats.tuples_touched == expected
        open_cases += bool(free_vars(f))
    assert 50 <= open_cases <= 250


def test_shared_reduction_output_stores_each_table_once():
    # the output has 9602 tree nodes but about a thousand distinct
    # objects; folded as a tree it stored 30,727,333 cells
    k12 = ColoredGraph.build(12, list(itertools.combinations(range(1, 13), 2)))
    out = reduce_to_path(k12, parse_formula("exists x1. exists x2. adj(x1,x2)"))
    assert formula_length(out.sentence) == 9602
    sat, stats = evaluate_free_with_stats(out.path, out.sentence)
    assert sat.holds
    assert stats.tuples_touched == 1_554_517


def test_huge_colors_decide_as_python_integers():
    # colours at and beyond the int64 and uint64 limits
    g = ColoredGraph.build(3, [(1, 2)], [2**63 - 1, 2**64, 1], c=2**64)
    expected = {2**63 - 1: {(1,)}, 2**63: set(), 2**64: {(2,)}, 2**70: set(), 1: {(3,)}}
    for color, rows in expected.items():
        sat = evaluate_free(g, HasColor(color, Var(1)))
        assert satisfying_rows(sat) == rows
        assert model_check(g, Exists(Var(1), HasColor(color, Var(1)))) == bool(rows)
        assert model_check(g, Forall(Var(1), Not(HasColor(color, Var(1))))) == (not rows)
    small = ColoredGraph.build(2, [(1, 2)], [1, 2], c=2)
    for color in (2**63 - 1, 2**63, 2**70):
        assert not model_check(small, Exists(Var(1), HasColor(color, Var(1))))
    sat = evaluate_free(g, parse_formula("adj(x2,x1) & !C1(x1) | x1=x3"))
    assert sat.variables == (Var(1), Var(2), Var(3))
    assert all(type(v) is Var for v in sat.variables)
    rows = satisfying_rows(sat)
    assert all(type(x) is int for row in rows for x in row)
    assert (1, 2, 3) in rows and (2, 1, 2) in rows and (3, 2, 3) in rows
    assert (3, 1, 1) not in rows


def _stripped(f):
    """``f`` and each body under its leading quantifiers."""
    yield f
    while type(f) in (Exists, Forall):
        f = f.body
        yield f


def test_loop_agrees_with_the_fold_evaluator():
    rng = random.Random(800)
    huge = ColoredGraph.build(3, [(1, 2)], [2**63 - 1, 2**64, 1], c=2**64)
    colors = (1, 2**63 - 1, 2**63, 2**64, 2**70)
    cases = 0
    for i in range(560):
        if i % 2:
            f = _random_dag(rng, names=3, colors=2, rank=3, steps=rng.randint(4, 12))
        else:
            f = random_formula(rng, 3, 2, 3)
        for body in (*_stripped(f), EDGE_CASES[i % len(EDGE_CASES)]):
            g = random_graph(rng, rng.randint(1, 6), colors=2)
            for graph, formula in (
                (g, body),
                (huge, Or((HasColor(rng.choice(colors), Var(rng.randint(1, 3))), body))),
            ):
                sat, stats = evaluate_free_with_stats(graph, formula)
                want, want_stats = fold_evaluate(graph, formula)
                assert sat.variables == want.variables
                assert np.array_equal(sat.cells, want.cells)
                assert stats.tuples_touched == want_stats.tuples_touched
                cases += 1
    assert cases >= 2000
