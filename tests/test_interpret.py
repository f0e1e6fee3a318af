import hashlib
import io
import itertools
import pickle
import random
import re
import sys
from collections import Counter

import numpy as np
import pytest

from fomc import interpret, trees
from fomc.evaluator import evaluate_free, model_check
from fomc.formulas import (
    Adj,
    And,
    Eq,
    Exists,
    Forall,
    HasColor,
    Not,
    Or,
    Var,
    formula_length,
    free_vars,
    parse_formula,
    rename_variables,
    render_formula,
    variable_count,
)
from fomc.graphs import (
    ColoredGraph,
    PartitionFlip,
    SCCombine,
    SCLeaf,
    apply_flip,
    build_sc_graph,
    gen_disjoint_paths,
    gen_half_graph,
    gen_path,
    read_graph,
    write_graph,
)
from fomc.interpret import (
    InterpretationScheme,
    _tree_model_host,
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
from fomc.randgen import random_formula, random_graph

from .oracles import (
    all_labeled_graphs,
    climbing_encode_elimination_forest,
    greedy_forest,
    kernel_budget_sweep,
    mc_by_translation,
    pipeline_fixtures,
    random_tree,
    random_tree_model,
    random_treedepth_graph,
    refusal_path,
    row_set_apply_interpretation,
    satisfying_rows,
    treedepth_host_and_scheme,
    treedepth_oracle,
    treemodel_host_and_scheme,
    write_forest,
    write_tree_model,
)

x1, x2, x3 = Var(1), Var(2), Var(3)


def test_scheme_validation():
    with pytest.raises(ValueError):
        InterpretationScheme(Adj(x1, x2), Adj(x1, x2))


@pytest.mark.parametrize(
    "domain, edge, colors, message",
    [
        (Adj(x1, x2), Adj(x1, x2), None, "the domain formula may only have x1 free"),
        (Eq(x1, x1), Adj(x1, x3), None, "the edge formula may only have x1, x2 free"),
        (
            Eq(x1, x1),
            Adj(x1, x2),
            ((1, HasColor(1, x1)), (2, Adj(x1, x2))),
            "the formula for color 2 may only have x1 free",
        ),
    ],
    ids=["domain", "edge", "color"],
)
def test_a_free_variable_outside_the_parameters_is_refused(domain, edge, colors, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        InterpretationScheme(domain, edge, colors)


# Each host below has exactly one violation of the edge relation, so the
# message does not depend on the order in which such violations are
# searched; vertices are checked for their colors in ascending order.
@pytest.mark.parametrize(
    "edge, colors, message",
    [
        ("x1=x2 & C2(x1)", None, "edge formula is reflexive at vertex 2"),
        ("adj(x1,x2) & C1(x1)", None, "edge formula is asymmetric on (1,2)"),
        ("adj(x1,x2)", ["C1(x1)"], "vertex 2 satisfies 0 color formulas"),
        ("adj(x1,x2)", ["x1=x1", "C2(x1)"], "vertex 2 satisfies 2 color formulas"),
        ("adj(x1,x2)", [], "vertex 1 satisfies 0 color formulas"),
    ],
    ids=["reflexive", "asymmetric", "no-color", "two-colors", "empty-table"],
)
def test_apply_interpretation_names_the_violation(edge, colors, message):
    g = ColoredGraph.build(2, [(1, 2)], [1, 2], c=2)
    if colors is not None:
        colors = tuple(enumerate(map(parse_formula, colors), start=1))
    scheme = InterpretationScheme(Eq(x1, x1), parse_formula(edge), colors)
    if colors is not None:
        message += "; the interpreted coloring must be unambiguous"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_interpretation(scheme, g)


def test_a_color_with_two_formulas_is_refused():
    # translation used to keep only the last formula, and applying the scheme
    # to a graph coloured (1, 2) said vertex 1 satisfied no color formula
    colors = ((1, HasColor(1, x1)), (1, HasColor(2, x1)))
    with pytest.raises(ValueError, match="^the formula for color 1 is given twice$"):
        InterpretationScheme(Eq(x1, x1), Adj(x1, x2), colors)


def _violations(scheme: InterpretationScheme, g: ColoredGraph) -> list[str]:
    """The refusals ``apply_interpretation`` may give on ``g``, in vertex
    order, from the first of its three checks that fails: the domain, the
    edge relation, the coloring."""

    def rows(f, *params):
        return satisfying_rows(evaluate_free(g, And((f, *(Eq(v, v) for v in params)))))

    domain = sorted(v for (v,) in rows(scheme.domain_formula, x1))
    if not domain:
        return ["the interpretation has an empty domain on this graph"]
    related = rows(scheme.edge_formula, x1, x2)
    edge = [
        f"edge formula is reflexive at vertex {u}" if u == v
        else f"edge formula is asymmetric on ({u},{v})"
        for u, v in sorted(related)
        if u == v or (v, u) not in related
    ]
    if edge or scheme.color_formulas is None:
        return edge
    holders = [{v for (v,) in rows(f, x1)} for _, f in scheme.color_formulas]
    counts = [sum(v in held for held in holders) for v in domain]
    return [
        f"vertex {v} satisfies {count} color formulas; "
        "the interpreted coloring must be unambiguous"
        for v, count in zip(domain, counts)
        if count != 1
    ]


def _open_formula(rng: random.Random, params: set, colors: int):
    """A random formula whose free variables lie among ``params``: a
    random sentence with some of its outer quantifiers peeled off."""
    while True:
        f = random_formula(rng, 3, colors, rng.randint(1, 3), size=rng.randint(2, 10))
        while isinstance(f, (Exists, Forall)) and rng.random() < 0.8:
            f = f.body
        if free_vars(f) <= params:
            return f


def _random_application(rng: random.Random):
    """A scheme and a host graph with n <= 8 and 1-3 colours: identity,
    complement, random defining formulas with or without a random color
    table, or the depth-edge scheme on an encoded forest or a random host."""
    n, colors = rng.randint(1, 7), rng.randint(1, 3)
    kind = rng.randrange(5)
    if kind == 4:
        g, ef = random_graph_on_a_forest(rng, n, colors)
        scheme = depth_edge_interpretation(ef.height, colors)
        host = encode_elimination_forest(g, ef)
        if rng.random() < 0.8:
            return scheme, host.to_graph()
        return scheme, random_graph(rng, host.n, host.c, rng.uniform(0.1, 0.6))
    g = random_graph(rng, n, colors, rng.uniform(0.1, 0.7))
    if kind < 2:
        return (identity_interpretation(), complement_interpretation())[kind], g
    domain = _open_formula(rng, {x1}, colors) if rng.random() < 0.6 else Eq(x1, x1)
    edge = _open_formula(rng, {x1, x2}, colors)
    if rng.random() < 0.6:
        edge = Or((edge, rename_variables(edge, {x1: x2, x2: x1})))
    if rng.random() < 0.7:
        edge = And((Not(Eq(x1, x2)), edge))
    table = None
    if kind == 3:
        keys = rng.sample(range(1, 5), rng.randint(0, 3))
        table = tuple(
            (key, HasColor(key, x1) if rng.random() < 0.6 else _open_formula(rng, {x1}, colors))
            for key in keys
        )
    return InterpretationScheme(domain, edge, table), g


def test_apply_interpretation_matches_the_row_set_referee():
    rng = random.Random(2028)
    applied = renamed = 0
    for _ in range(1500):
        scheme, g = _random_application(rng)
        try:
            want = row_set_apply_interpretation(scheme, g)
        except ValueError as refused:
            violations = _violations(scheme, g)
            assert str(refused) in violations
            with pytest.raises(ValueError, match=f"^{re.escape(violations[0])}$"):
                apply_interpretation(scheme, g)
            renamed += str(refused) != violations[0]
            continue
        assert not _violations(scheme, g)
        assert apply_interpretation(scheme, g) == want
        applied += 1
    assert applied > 1000 and 1500 - applied > 300 and renamed > 30


def test_translating_an_open_sentence_is_refused():
    with pytest.raises(ValueError, match="^expected a sentence but found free variables: x2$"):
        backwards_translate(parse_formula("exists x1. adj(x1,x2)"), identity_interpretation())


@pytest.mark.parametrize("k, colors", [(0, 1), (1, 0)])
def test_depth_edge_interpretation_needs_a_height_and_a_color(k, colors):
    with pytest.raises(ValueError, match="^need k >= 1 and colors >= 1$"):
        depth_edge_interpretation(k, colors)


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
    depths = {enc.depths[v - 1] for v in (1, 2)}
    assert depths == {0, 1}
    # the depth-2 vertex carries "adjacent to my depth-1 ancestor"
    child = next(v for v in (1, 2) if enc.depths[v - 1] == 1)
    assert enc.color_of(child) == 4  # depth 2 block, original color 1, bit set


def test_encode_p3_center_root():
    g = gen_path(3)
    ef_parents = (2, 0, 2)  # center as the root
    ef = EliminationForest(parents=ef_parents)
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


def random_graph_on_a_forest(rng: random.Random, n: int, colors: int):
    """A random forest on 1..n, often with several roots, and a random
    graph whose edges join some of its ancestor-descendant pairs."""
    order = rng.sample(range(1, n + 1), n)
    parents = [0] * (n + 1)
    for i, v in enumerate(order[1:], start=1):
        parents[v] = order[rng.randrange(i)] if rng.random() < 0.8 else 0
    ef = EliminationForest(parents=tuple(parents[1:]))
    edges = []
    for v in range(1, n + 1):
        anc = parents[v]
        while anc:
            if rng.random() < 0.6:
                edges.append((v, anc))
            anc = parents[anc]
    cols = [rng.randint(1, colors) for _ in range(n)]
    return ColoredGraph.build(n, edges, cols, c=colors), ef


def test_encode_elimination_forest_matches_the_climbing_referee():
    rng = random.Random(26)
    spare_roots = refused_forests = 0
    for _ in range(300):
        n, colors = rng.randint(1, 14), rng.randint(1, 3)
        g, ef = random_graph_on_a_forest(rng, n, colors)
        cases = [(g, ef), (g, compute_elimination_forest(g, n))]
        other = random_graph(rng, n, colors, edge_prob=rng.uniform(0.1, 0.5))
        cases += [(other, compute_elimination_forest(other, n)), (other, ef)]
        for g, ef in cases:
            try:
                want = climbing_encode_elimination_forest(g, ef)
            except ValueError as refused:
                assert not validate_elimination_forest(g, ef)
                with pytest.raises(ValueError, match=f"^{refused}$"):
                    encode_elimination_forest(g, ef)
                refused_forests += 1
                continue
            assert validate_elimination_forest(g, ef)
            assert encode_elimination_forest(g, ef) == want
            spare_roots += ef.parents.count(0) > 1
    assert spare_roots > 100 and refused_forests > 100


@pytest.mark.parametrize(
    "check", [validate_elimination_forest, encode_elimination_forest], ids=["validate", "encode"]
)
def test_forest_checks_refuse_a_vertex_count_mismatch_and_a_crossing_edge(check):
    for g in (gen_path(3), ColoredGraph.build(3)):
        with pytest.raises(ValueError, match="^forest and graph disagree on the vertex count$"):
            check(g, EliminationForest(parents=(0, 1)))
    crossing = EliminationForest(parents=(0, 1, 0))  # edge 2-3 joins two trees
    if check is validate_elimination_forest:
        assert not check(gen_path(3), crossing)
    else:
        with pytest.raises(ValueError, match="^not a valid elimination forest for this graph$"):
            check(gen_path(3), crossing)


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
    # the chain to an ancestor j levels up binds min(j - 1, 2) names
    for c in (1, 2, 3):
        derived = [depth_edge_interpretation(k, c).variable_overhead for k in range(1, 9)]
        assert derived == [0, 0, 1, 2, 2, 2, 2, 2]
        assert derived == [min(2, max(0, k - 2)) for k in range(1, 9)]


# The schemes as depth_edge_interpretation(k, c) built them when the palette
# had one enumerator per kind of color set and ``chain`` recursed: its
# domain, edge and color formulas, rendered in full for k <= 2, and for
# k = 3..5 as their formula lengths and the first 16 hex digits of the
# SHA-256 of their renderings joined by newlines.
PINNED_SCHEME_TEXT = {
    (1, 1): ["!C1(x1)", "!x1=x1", "C2(x1)"],
    (1, 2): ["!C1(x1)", "!x1=x1", "C2(x1)", "C3(x1)"],
    (2, 1): [
        "!C1(x1)",
        "C4(x1) & C2(x2) & adj(x1,x2) | C4(x2) & C2(x1) & adj(x2,x1)",
        "C2(x1) | C3(x1) | C4(x1)",
    ],
    (2, 2): [
        "!C1(x1)",
        "(C5(x1) | C7(x1)) & (C2(x2) | C3(x2)) & adj(x1,x2)"
        " | (C5(x2) | C7(x2)) & (C2(x1) | C3(x1)) & adj(x2,x1)",
        "C2(x1) | C4(x1) | C5(x1)",
        "C3(x1) | C6(x1) | C7(x1)",
    ],
}
PINNED_SCHEME_DIGEST = {
    (3, 1): ([2, 49, 8], "fc77610f9da86a6b"),
    (3, 2): ([2, 77, 8, 8], "d406e9df1b4df9d3"),
    (4, 1): ([2, 153, 16], "6d1d57fb07e042ba"),
    (4, 2): ([2, 241, 16, 16], "2147bae781e7c1dd"),
    (5, 1): ([2, 393, 32], "de5b71b3c0df97a1"),
    (5, 2): ([2, 645, 32, 32], "8158b90f5649f89c"),
}


@pytest.mark.parametrize("k, c", sorted({**PINNED_SCHEME_TEXT, **PINNED_SCHEME_DIGEST}))
def test_depth_edge_interpretation_is_pinned(k, c):
    scheme = depth_edge_interpretation(k, c)
    assert [orig for orig, _ in scheme.color_formulas] == list(range(1, c + 1))
    parts = [scheme.domain_formula, scheme.edge_formula]
    parts += [f for _, f in scheme.color_formulas]
    texts = [render_formula(f) for f in parts]
    if (k, c) in PINNED_SCHEME_TEXT:
        assert texts == PINNED_SCHEME_TEXT[k, c]
    else:
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
        assert ([formula_length(f) for f in parts], digest) == PINNED_SCHEME_DIGEST[k, c]


# ---------------------------------------------------------------------------
# Kernel budgets: the pipelines reduce every host at the sentence's own
# budget s. The agreement tests alone do not guard this: a larger budget
# passes them all. The seeded sweep checks each budget-s core against
# FO^s equivalence and against the core at the earlier, larger budget.

def _kernel_calls(monkeypatch) -> list:
    """Each (budget, kept vertices) the pipelines' ``reduce_tree`` call
    sees, appended in call order."""
    calls = []

    def spy(host, budget):
        result = reduce_tree(host, budget)
        calls.append((budget, len(result.kept)))
        return result

    monkeypatch.setattr(interpret, "reduce_tree", spy)
    return calls


def test_mc_treedepth_reduces_at_the_sentences_budget(monkeypatch):
    # the forest of a path is a balanced binary tree whose siblings
    # differ in their adjacency bits, so every vertex is kept
    calls = _kernel_calls(monkeypatch)
    phi = parse_formula("exists x1. C1(x1)")
    for s in (1, 2, 3):
        for h in range(1, 9):
            g = gen_path(2 ** (h - 1))  # tree-depth h
            assert mc_treedepth(g, phi, h, s)
            assert calls.pop() == (s, g.n)


def test_mc_treemodel_reduces_at_the_sentences_budget(monkeypatch):
    # kept host vertices summed per model depth; the earlier budget
    # 1 + min(3, depth) kept 487, 923 and 133
    calls = _kernel_calls(monkeypatch)
    phi = parse_formula("exists x1. C1(x1)")
    rng = random.Random(21)
    seeded = [random_tree_model(rng, rng.randint(1, 8), rng.randint(1, 3)) for _ in range(150)]
    kept = {}
    for g, tm in list(pipeline_fixtures().tree_models) + seeded:
        mc_treemodel(g, tm, phi, 1)
        budget, count = calls.pop()
        assert budget == 1
        depth = max(tm.tree.depths)
        kept[depth] = kept.get(depth, 0) + count
    assert kept == {1: 386, 2: 811, 3: 120}


def test_forest_hosts_keep_only_what_budget_s_needs(monkeypatch):
    # criterion 3's graphs at s = 1, kept vertices summed per forest
    # height; the earlier budget s + min(2, max(0, h - 2)) kept 1320 at
    # height 3, and a fixed budget of s + 2 would keep 24, 228 and 1371
    calls = _kernel_calls(monkeypatch)
    phi = parse_formula("exists x1. C1(x1)")
    hosts, kept = {}, {}
    for g in pipeline_fixtures().treedepth_graphs:
        h = compute_elimination_forest(g, 3).height
        mc_treedepth(g, phi, 3, 1)
        budget, count = calls.pop()
        assert budget == 1
        hosts[h] = hosts.get(h, 0) + 1
        kept[h] = kept.get(h, 0) + count
    assert hosts == {1: 7, 2: 37, 3: 198}
    assert kept == {1: 13, 2: 128, 3: 1077}


def test_budget_s_cores_are_fo_s_equivalent_to_their_graphs():
    # 300 draws per route at s = 1, 2, 3; the seed gives 198 and 205
    # cores strictly smaller than at the earlier budgets
    smaller = kernel_budget_sweep(7, 300)
    assert smaller["forest"] >= 150 and smaller["tree-model"] >= 150


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
    def no_search(*_args, **_kwargs):
        raise AssertionError("the forest search ran")

    monkeypatch.setattr(interpret, "_forest", no_search)
    p4 = gen_path(4)
    with pytest.raises(ValueError, match="found free variables: x1, x3$"):
        mc_treedepth(p4, parse_formula("adj(x1,x3) & exists x2. x2=x2"), 3, 3)
    four = parse_formula("exists x1. exists x2. exists x3. exists x4. adj(x1,x2) & x3=x4")
    with pytest.raises(ValueError, match="^sentence uses 4 variables, budget is 3$"):
        mc_treedepth(p4, four, 3, 3)
    # an open sentence over budget reports its free variables
    with pytest.raises(ValueError, match="found free variables: x5$"):
        mc_treedepth(p4, parse_formula("exists x1. exists x2. adj(x1,x2) & x2=x5"), 3, 1)


@pytest.fixture
def forest_route(monkeypatch):
    """Per ``mc_treedepth`` call: a one-item list counting the forest
    search's component splits, and the list of forests it encodes."""
    splits, used = [0], []
    split, encode = trees._split, interpret.encode_elimination_forest

    def counting(*args):
        splits[0] += 1
        return split(*args)

    def spy(g, ef):
        used.append(ef)
        return encode(g, ef)

    monkeypatch.setattr(trees, "_split", counting)
    monkeypatch.setattr(interpret, "encode_elimination_forest", spy)
    return splits, used


def test_mc_treedepth_searches_only_when_the_greedy_pass_gives_up(forest_route):
    # k from td - 1 to td + 2 on bounded-depth graphs, trees read as
    # graphs and small G(n, p); on this seed's 200 draws the greedy pass
    # fits 568 times, and of its 79 give-ups 32 have tree-depth within k;
    # 135 refusals name a path
    _, used = forest_route
    rng = random.Random(20261020)
    outcomes = Counter()
    for i in range(200):
        if i % 3 == 0:
            keep = rng.choice((0, 0.3, 0.6, 1))
            g = random_treedepth_graph(rng, rng.randint(1, 12), rng.randint(1, 3), keep, 2)
        elif i % 3 == 1:
            g = random_tree(rng, rng.randint(1, 14), rng.randint(1, 4), colors=2).to_graph()
        else:
            g = random_graph(rng, rng.randint(1, 9), colors=2, edge_prob=rng.choice((0.2, 0.4, 0.6)))
        td = treedepth_oracle(g)
        phi = random_formula(rng, 3, 2, 4)
        truth = model_check(g, phi)
        for k in range(max(1, td - 1), td + 3):
            greedy = greedy_forest(g, k)
            used.clear()
            if td > k:
                with pytest.raises(ValueError, match=f"^the graph has tree-depth larger than {k}") as err:
                    mc_treedepth(g, phi, k, 3)
                if type(greedy) is list:
                    assert refusal_path(g, k, str(err.value)) == greedy
                    outcomes["path"] += 1
                else:
                    assert greedy is None and str(err.value).endswith(str(k))
                    outcomes["gives up, refused"] += 1
            else:
                assert mc_treedepth(g, phi, k, 3) == truth
                (ef,) = used
                if greedy is None:
                    assert validate_elimination_forest(g, ef) and ef.height <= k
                    outcomes["gives up, fits"] += 1
                else:
                    assert ef == greedy
                    outcomes["fits"] += 1
    assert outcomes["fits"] >= 500 and outcomes["path"] >= 100
    assert outcomes["gives up, fits"] >= 25 and outcomes["gives up, refused"] >= 40


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_mc_treedepth_refuses_a_long_path_naming_it(forest_route, k):
    g = gen_path(2**k)
    with pytest.raises(ValueError, match=f"^the graph has tree-depth larger than {k}: ") as err:
        mc_treedepth(g, parse_formula("exists x1. C1(x1)"), k, 1)
    assert f"a path of {2**k} vertices" in str(err.value)
    assert sorted(refusal_path(g, k, str(err.value))) == list(g.vertices)
    assert forest_route[0] == [1]  # the split into top-level pieces, and no root tried


def test_mc_treedepth_decides_a_10000_vertex_tree_graph_without_search(forest_route):
    # the shallowest forest at k = 4 takes over twice the first one's time;
    # the first descent splits each piece of two or more vertices once
    phi = parse_formula(
        "forall x1. exists x2. adj(x1,x2) & C2(x2) & exists x1. adj(x2,x1) & !x1=x2 & C1(x1)"
    )
    t = random_tree(random.Random(5), 10_000, 3, colors=2)
    g = t.to_graph()
    greedy = greedy_forest(g, 4)
    assert mc_treedepth(g, phi, 4, 2) == mc_tree(t, phi, 2)
    assert forest_route[1] == [greedy] and greedy.height == 4
    assert forest_route[0][0] <= g.n


def test_mc_treedepth_goes_k_levels_deep_without_the_call_stack():
    # the forest search recursed once per level, so K_150 at k = 150 raised
    # RecursionError under a limit 100 frames above the caller
    n = 150
    g = ColoredGraph.build(n, itertools.combinations(range(1, n + 1), 2))
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert mc_treedepth(g, parse_formula("exists x1. x1=x1"), n, 1)
    finally:
        sys.setrecursionlimit(limit)


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


def test_tree_model_host_ranks_the_composites_of_the_model_tree():
    rng = random.Random(27)
    palettes = set()
    for _ in range(400):
        n, model_colors, graph_colors = rng.randint(1, 12), rng.randint(1, 3), rng.randint(1, 3)
        g, tm = random_tree_model(rng, n, rng.randint(1, 4), model_colors, graph_colors)
        assert validate_tree_model(g, tm)
        t, host = tm.tree, _tree_model_host(g, tm)
        assert (host.n, host.root, host.parents) == (t.n, t.root, t.parents)
        composites = [
            (1, g.color_of(v), t.color_of(v), t.depths[v - 1])
            if v in t.leaves
            else (0, 0, t.color_of(v), t.depths[v - 1])
            for v in range(1, t.n + 1)
        ]
        ranked = sorted(set(composites))
        assert host.c == len(ranked)
        assert list(host.colors) == [ranked.index(comp) + 1 for comp in composites]
        palettes.add(host.c)
    assert len(palettes) > 10


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


def test_size_and_root_are_read_off_the_per_vertex_data_however_made():
    # no constructor takes n or the root: each is read off the colours or
    # the parents, as an int, whichever way the object was made
    def reread(write, x):
        buf = io.StringIO()
        write(x, buf)
        return io.StringIO(buf.getvalue())

    rng = random.Random(40)
    t = random_tree(rng, 12, 3, colors=2)
    upward = RootedColoredTree.build({3: 0, 1: 3, 2: 1, 4: 2}, {4: 2})  # rooted at 3
    g = t.to_graph()
    two_paths = gen_disjoint_paths(2, 3)[0]
    h, tm = random_tree_model(rng, 6, 3)
    ef, ef2 = compute_elimination_forest(g, 4), compute_elimination_forest(two_paths, 2)
    recipe = SCCombine((SCLeaf("a"), SCLeaf("b", 2), SCLeaf("c")), frozenset({"a", "c"}))
    graphs = [
        g,
        read_graph(reread(write_graph, g)),
        ColoredGraph.build(4, [(2, 1), (3, 4)], [1, 2, 2, 1]),
        ColoredGraph.build(np.int64(3), c=np.int64(2)),
        ColoredGraph(g.colors, g.c, g.edges),
        pickle.loads(pickle.dumps(g)),
        g.induced_subgraph([1, 3, 5, 8]),
        apply_flip(g, PartitionFlip.build([[1, 2], [5]], [(0, 1)])),
        gen_path(5),
        gen_half_graph(3)[0],
        two_paths,
        build_sc_graph(recipe),
        random_graph(rng, 7),
        apply_interpretation(complement_interpretation(), g),
        h,
    ]
    kept = [v for v in t.parents if v] + [1]  # every inner vertex, closed under parents
    trees_ = [
        t,
        upward,
        read_tree(reread(write_tree, upward)),
        read_tree_model(reread(write_tree_model, tm)).tree,
        RootedColoredTree(upward.parents, upward.colors, upward.c),
        TreeModel.build(upward, [(1, 2, 2, True)]).tree,
        restrict_tree(t, kept),
        restrict_tree(upward, [1, 3]),
        reduce_tree(t, 1).kernel,
        encode_elimination_forest(g, ef),
        encode_elimination_forest(two_paths, ef2),
        _tree_model_host(h, tm),
    ]
    forests = [
        ef,
        ef2,
        read_forest(reread(write_forest, ef2)),
        EliminationForest(ef2.parents),
        trees._forest(two_paths, 2, shallowest=False),
    ]
    for x in graphs:
        assert type(x.n) is int and x.n == len(x.colors)
    for x in trees_:
        assert type(x.n) is int and x.n == len(x.parents) == len(x.colors)
        assert type(x.root) is int and x.parents[x.root - 1] == 0
    for x in forests:
        assert type(x.n) is int and x.n == len(x.parents)
    assert (upward.root, restrict_tree(upward, [1, 3]).root) == (3, 2)
    assert encode_elimination_forest(two_paths, ef2).root == 7  # the spare root
