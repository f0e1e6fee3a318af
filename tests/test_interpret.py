import random

import pytest

from fomc import interpret
from fomc.evaluator import model_check
from fomc.formulas import (
    Adj,
    And,
    Eq,
    Exists,
    Not,
    Var,
    parse_formula,
    variable_count,
)
from fomc.graphs import ColoredGraph, gen_path
from fomc.interpret import (
    FOREST_OVERHEAD,
    TREE_MODEL_OVERHEAD,
    InterpretationScheme,
    apply_interpretation,
    backwards_translate,
    complement_interpretation,
    depth_edge_interpretation,
    encode_elimination_forest,
    identity_interpretation,
    mc_tree,
    mc_treedepth,
    mc_treemodel,
)
from fomc.kernel import reduce_tree
from fomc.trees import (
    RootedColoredTree,
    TreeModel,
    compute_elimination_forest,
    validate_tree_model,
)
from fomc.randgen import random_formula, random_graph

from .oracles import (
    all_labeled_graphs,
    mc_by_translation,
    pipeline_fixtures,
    random_tree,
    random_tree_model,
    treedepth_host_and_scheme,
    treemodel_host_and_scheme,
)

x1, x2 = Var(1), Var(2)


def test_scheme_validation():
    with pytest.raises(ValueError):
        InterpretationScheme(Adj(x1, x2), Adj(x1, x2))


def test_complement_of_complete():
    k3 = ColoredGraph.build(3, [(1, 2), (1, 3), (2, 3)])
    out = apply_interpretation(complement_interpretation(), k3)
    assert out.n == 3 and not out.edges


def test_domain_restriction():
    g = ColoredGraph.build(4, [(1, 2), (2, 3), (3, 4)], [1, 2, 1, 1], c=2)
    scheme = InterpretationScheme(
        domain_formula=parse_formula("C1(x1)"),
        edge_formula=Adj(x1, x2),
    )
    out = apply_interpretation(scheme, g)
    # vertices 1, 3, 4 relabeled to 1, 2, 3; only edge 3-4 survives
    assert out.n == 3
    assert out.edges == {(2, 3)}


def test_reflexive_edge_formula_rejected():
    scheme = InterpretationScheme(Eq(x1, x1), Eq(x1, x2))
    with pytest.raises(ValueError):
        apply_interpretation(scheme, gen_path(2))


def test_asymmetric_edge_formula_rejected():
    # adjacency restricted to color order: asymmetric on a colored edge
    g = ColoredGraph.build(2, [(1, 2)], [1, 2], c=2)
    scheme = InterpretationScheme(
        Eq(x1, x1),
        And((Adj(x1, x2), parse_formula("C1(x1)"))),
    )
    with pytest.raises(ValueError):
        apply_interpretation(scheme, g)


def test_empty_domain_rejected():
    scheme = InterpretationScheme(Not(Eq(x1, x1)), Adj(x1, x2))
    with pytest.raises(ValueError):
        apply_interpretation(scheme, gen_path(3))


def test_identity_translation_is_sound():
    rng = random.Random(30)
    ident = identity_interpretation()
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 4), colors=2)
        phi = random_formula(rng, 3, 2, 3)
        assert model_check(g, backwards_translate(phi, ident)) == model_check(g, phi)


def test_backwards_translation_complement():
    rng = random.Random(31)
    comp = complement_interpretation()
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 4), colors=2)
        phi = random_formula(rng, 3, 2, 3)
        translated = backwards_translate(phi, comp)
        assert model_check(g, translated) == model_check(
            apply_interpretation(comp, g), phi
        )
        assert variable_count(translated) <= variable_count(phi) + 0


def test_translation_handles_repeated_variable_adjacency():
    phi = Exists(x1, Adj(x1, x1))
    out = backwards_translate(phi, complement_interpretation())
    assert not model_check(gen_path(3), out)


def test_overhead_pool_reports_demand():
    scheme = InterpretationScheme(
        domain_formula=Exists(x2, Adj(x1, x2)),  # needs one auxiliary
        edge_formula=Adj(x1, x2),
    )
    assert scheme.variable_overhead == 1


def test_variable_overhead_is_read_off_the_formulas():
    assert identity_interpretation().variable_overhead == 0
    assert complement_interpretation().variable_overhead == 0
    for g, tm in pipeline_fixtures().tree_models:
        _, scheme = treemodel_host_and_scheme(g, tm)
        assert scheme.variable_overhead <= TREE_MODEL_OVERHEAD
    # on a star model the leaves meet at the root, one step up: only the
    # meeting point is bound
    star = RootedColoredTree.build({1: 3, 2: 3, 3: 0})
    tm = TreeModel.build(star, [(1, 1, 2, True)])
    _, scheme = treemodel_host_and_scheme(gen_path(2), tm)
    assert scheme.variable_overhead == 1


def test_translation_renames_domain_auxiliaries():
    # the domain binds x2 internally; x2 is also a sentence variable
    scheme = InterpretationScheme(
        domain_formula=Exists(x2, Adj(x1, x2)),  # "has a neighbor"
        edge_formula=Adj(x1, x2),
    )
    phi = parse_formula("exists x1. exists x2. adj(x1,x2)")
    translated = backwards_translate(phi, scheme)
    assert variable_count(translated) <= variable_count(phi) + 1
    # on a path with an isolated vertex the domain drops that vertex
    g = ColoredGraph.build(3, [(1, 2)])
    assert model_check(g, translated) == model_check(
        apply_interpretation(scheme, g), phi
    )


# ---------------------------------------------------------------------------
# Elimination-forest encoding

def test_encode_k2_chain():
    g = gen_path(2)
    ef = compute_elimination_forest(g, 2)
    enc = encode_elimination_forest(g, ef)
    assert enc.n == 2  # single root: no spare vertex
    depths = {enc.depth_of(v) for v in (1, 2)}
    assert depths == {0, 1}
    # the depth-2 vertex carries "adjacent to my depth-1 ancestor"
    child = next(v for v in (1, 2) if enc.depth_of(v) == 1)
    assert enc.color_of(child) == 4  # depth 2 block, original color 1, bit set


def test_encode_p3_center_root():
    g = gen_path(3)
    ef_parents = (2, 0, 2)  # center as the root
    from fomc.trees import EliminationForest, validate_elimination_forest

    ef = EliminationForest(n=3, parents=ef_parents)
    assert validate_elimination_forest(g, ef)
    enc = encode_elimination_forest(g, ef)
    # both leaves carry the adjacency bit toward depth 1
    assert enc.color_of(1) == enc.color_of(3) == 4
    assert enc.color_of(2) == 2


def test_encode_edgeless_has_no_bits():
    g = ColoredGraph.build(3, [])
    ef = compute_elimination_forest(g, 1)
    enc = encode_elimination_forest(g, ef)
    assert enc.n == 4  # spare root added above three singleton roots
    assert enc.color_of(4) == 1
    assert all(enc.color_of(v) == 2 for v in (1, 2, 3))


def test_depth_edge_round_trip_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            ef = compute_elimination_forest(g, 3)
            if ef is None:
                continue
            enc = encode_elimination_forest(g, ef)
            scheme = depth_edge_interpretation(ef.height, g.c)
            back = apply_interpretation(scheme, enc.to_graph())
            assert back.n == g.n
            assert back.edges == g.edges


def test_depth_edge_overhead_constant():
    # the chain to an ancestor k - 1 levels up reuses two names
    for c in (1, 2):
        derived = [depth_edge_interpretation(k, c).variable_overhead for k in range(1, 7)]
        assert derived == [0, 0, 1, 2, 2, 2]
        assert max(derived) <= FOREST_OVERHEAD


# ---------------------------------------------------------------------------
# Pipelines

def test_mc_tree_examples():
    k1 = RootedColoredTree.build({1: 0})
    assert mc_tree(k1, parse_formula("exists x1. C1(x1)"), 1)
    star5 = RootedColoredTree.build({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    two_adjacent_to_root = parse_formula(
        "exists x1. exists x2. exists x3. adj(x1,x2) & adj(x1,x3) & !x2=x3 & adj(x1,x2)"
    )
    assert mc_tree(star5, two_adjacent_to_root, 3)
    assert model_check(star5.to_graph(), two_adjacent_to_root)


def test_mc_tree_budget_enforced():
    t = RootedColoredTree.build({1: 0, 2: 1})
    with pytest.raises(ValueError):
        mc_tree(t, parse_formula("exists x1. exists x2. adj(x1,x2)"), 1)


def test_mc_tree_agrees_with_evaluator():
    rng = random.Random(33)
    for _ in range(150):
        t = random_tree(rng, rng.randint(1, 22), 3, colors=3)
        phi = random_formula(rng, 3, 3, 4)
        assert mc_tree(t, phi, 3) == model_check(t.to_graph(), phi)


def test_mc_treedepth_agrees_with_evaluator():
    rng = random.Random(34)
    checked = 0
    while checked < 120:
        g = random_graph(rng, rng.randint(1, 7), colors=2, edge_prob=0.4)
        if compute_elimination_forest(g, 3) is None:
            continue
        checked += 1
        phi = random_formula(rng, 3, 2, 4)
        assert mc_treedepth(g, phi, 3, 3) == model_check(g, phi)


def test_mc_treedepth_budget_exceeded():
    c4 = ColoredGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError):
        mc_treedepth(c4, parse_formula("exists x1. C1(x1)"), 2, 1)


def test_mc_treedepth_refuses_bad_sentences_before_the_forest_search(monkeypatch):
    def no_search(*_args):
        raise AssertionError("the forest search ran")

    monkeypatch.setattr(interpret, "compute_elimination_forest", no_search)
    p4 = gen_path(4)
    with pytest.raises(ValueError, match="found free variables: x1, x3$"):
        mc_treedepth(p4, parse_formula("adj(x1,x3) & exists x2. x2=x2"), 3, 3)
    four = parse_formula("exists x1. exists x2. exists x3. exists x4. adj(x1,x2) & x3=x4")
    with pytest.raises(ValueError, match="^sentence uses 4 variables, budget is 3$"):
        mc_treedepth(p4, four, 3, 3)
    # an open sentence over budget reports its free variables
    with pytest.raises(ValueError, match="found free variables: x5$"):
        mc_treedepth(p4, parse_formula("exists x1. exists x2. adj(x1,x2) & x2=x5"), 3, 1)


def test_mc_treedepth_distance_three_on_p7():
    from fomc.hardness import distance_formula

    p7 = gen_path(7)
    phi = Exists(x1, Exists(x2, And((distance_formula(3), Eq(x1, x1)))))
    assert mc_treedepth(p7, phi, 3, 4) == model_check(p7, phi) is True


def test_mc_treemodel_agrees_with_evaluator():
    rng = random.Random(35)
    for _ in range(80):
        g, tm = random_tree_model(rng, rng.randint(1, 8), 2)
        phi = random_formula(rng, 3, 2, 4)
        assert mc_treemodel(g, tm, phi, 3) == model_check(g, phi)


def test_mc_treemodel_rejects_corrupt_model():
    rng = random.Random(36)
    g, tm = random_tree_model(rng, 5, 2)
    while not tm.rules or g.n < 2:
        g, tm = random_tree_model(rng, 5, 2)
    c1, c2, d, edge = tm.rules[0]
    corrupt = TreeModel(
        tree=tm.tree, rules=((c1, c2, d, not edge),) + tm.rules[1:]
    )
    if validate_tree_model(g, corrupt):
        pytest.skip("mutation did not break this instance")
    with pytest.raises(ValueError):
        mc_treemodel(g, corrupt, parse_formula("exists x1. C1(x1)"), 1)


def test_tree_model_round_trip():
    rng = random.Random(37)
    for _ in range(30):
        g, tm = random_tree_model(rng, rng.randint(2, 7), 2)
        host, scheme = treemodel_host_and_scheme(g, tm)
        back = apply_interpretation(scheme, host.to_graph())
        assert back.n == g.n
        assert back.edges == g.edges


def test_single_leaf_tree_model():
    tree = RootedColoredTree.build({2: 0, 1: 2})
    tm = TreeModel.build(tree, [])
    g = gen_path(1)
    assert validate_tree_model(g, tm)
    assert mc_treemodel(g, tm, parse_formula("exists x1. C1(x1)"), 1)


# ---------------------------------------------------------------------------
# Referee: translate-then-evaluate on the acceptance fixtures

def _referee_cases():
    """(g, tree-model or None, host, scheme, host ids of g's vertices):
    the forest encoding keeps g's ids and may add a spare root; the
    tree-model's leaves are g's vertices."""
    fx = pipeline_fixtures()
    for g in fx.treedepth_graphs:
        yield g, None, *treedepth_host_and_scheme(g, 3), frozenset(g.vertices)
    for g, tm in fx.tree_models:
        yield g, tm, *treemodel_host_and_scheme(g, tm), tm.tree.leaves


@pytest.mark.parametrize("s", [1, 2, 3])
def test_interpreted_kernel_is_induced_subgraph(s):
    # both sides relabel ascending, so the graphs are equal, which is
    # stronger than isomorphic
    for g, _, host, scheme, graph_ids in _referee_cases():
        res = reduce_tree(host, s + scheme.variable_overhead)
        image = apply_interpretation(scheme, res.kernel.to_graph())
        assert image == g.induced_subgraph(res.kept & graph_ids)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_pipelines_agree_with_translation_referee(s):
    rng = random.Random(600 + s)
    for g, tm, host, scheme, _ in _referee_cases():
        for _ in range(3):
            phi = random_formula(rng, s, 2, 4)
            if tm is None:
                got = mc_treedepth(g, phi, 3, s)
            else:
                got = mc_treemodel(g, tm, phi, s)
            assert got == mc_by_translation(host, scheme, phi, s), (g, phi)
