import random

import pytest

from fomc.evaluator import evaluate_free, model_check
from fomc.formulas import (
    Adj,
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Var,
    formula_length,
    free_vars,
    parse_formula,
    quantifier_rank,
    rename_variables,
    render_formula,
    variable_count,
)
from fomc.graphs import ColoredGraph, gen_path
from fomc.hardness import (
    color_encoding_formula,
    cross_validate,
    distance_formula,
    edge_encoding_formula,
    reduce_to_path,
)
from fomc.randgen import random_formula, random_graph

from .oracles import (
    adjacent,
    all_labeled_graphs,
    bfs_distances,
    distinct_nodes,
    graphs_isomorphic,
    neighborhoods,
    satisfying_rows,
)

x1, x2, x3, x4, x5 = Var(1), Var(2), Var(3), Var(4), Var(5)


# ---------------------------------------------------------------------------
# Distance formulas

def test_distance_zero_and_shape():
    assert distance_formula(0) == Eq(x1, x2)
    f1 = distance_formula(1)
    assert f1 == Exists(x3, And((Adj(x1, x3), Eq(x3, x2))))


def test_a_negative_distance_is_refused():
    with pytest.raises(ValueError, match="^distance must be nonnegative$"):
        distance_formula(-1)


def test_a_distance_that_is_not_an_integer_is_refused():
    # it used to escape as a TypeError
    with pytest.raises(ValueError, match=r"^distance 1\.5 is not an integer$"):
        distance_formula(1.5)


def test_distance_step_shape():
    # one step: adj(a,b) & exists d. (!a=d & adj(b,d) & <next step>), with
    # the window (a, b, d) moving to (b, d, a)
    assert distance_formula(2) == Exists(
        x3,
        And(
            (
                Adj(x1, x3),
                Exists(
                    x4,
                    And((Not(Eq(x1, x4)), Adj(x3, x4), And((Adj(x3, x4), Eq(x4, x2))))),
                ),
            )
        ),
    )


def _walk(k):
    # the walk under distance_formula's outer closure over x3
    f = distance_formula(k)
    assert isinstance(f, Exists) and f.var == x3
    return f.body


def test_walk_free_variables():
    for k in (1, 2, 5):
        assert free_vars(_walk(k)) == {x1, x2, x3}


def test_walk_length_increment_constant():
    lengths = [formula_length(_walk(k)) for k in range(1, 31)]
    diffs = {b - a for a, b in zip(lengths, lengths[1:])}
    assert len(diffs) == 1


def test_distance_golden_file():
    from pathlib import Path

    from fomc.formulas import read_formulas

    golden = Path(__file__).parent / "golden" / "distance_formulas.fo"
    with open(golden, encoding="utf-8") as fh:
        frozen = read_formulas(fh)
    assert frozen == [distance_formula(k) for k in range(len(frozen))]


def test_distance_formula_matches_bfs_on_paths():
    for n in range(1, 10):
        p = gen_path(n)
        dist = {u: bfs_distances(p, u) for u in p.vertices}
        for k in range(0, 10):
            sat = evaluate_free(p, distance_formula(k))
            expected = {
                (u, v)
                for u in p.vertices
                for v in p.vertices
                if dist[u].get(v) == k
            }
            assert set(satisfying_rows(sat)) == expected, (n, k)


def test_distance_beyond_diameter_empty():
    p8 = gen_path(8)
    assert not satisfying_rows(evaluate_free(p8, distance_formula(9)))


def test_distance_variable_economy():
    for k in range(0, 51):
        assert variable_count(distance_formula(k)) <= 4
    for k in (1, 2, 5, 7):
        assert free_vars(distance_formula(k)) == {x1, x2}


def test_distance_formula_has_no_recursion_cap():
    k = 5000
    f = distance_formula(k)
    assert formula_length(f) == 7 * k - 3
    assert variable_count(f) <= 4
    assert free_vars(f) == {x1, x2}


def test_distance_rank_counts_unfoldings():
    # one quantifier per unfolding plus the outer closure
    for k in (1, 2, 3, 7):
        assert quantifier_rank(distance_formula(k)) == k


def test_rank_not_bounded_by_variable_count():
    # the distance family witnesses that four names support any rank
    f = distance_formula(10)
    assert quantifier_rank(f) == 10
    assert variable_count(f) == 4


def test_distance_sentence_on_p6():
    p6 = gen_path(6)
    exists_pair = Exists(x1, Exists(x2, distance_formula(5)))
    assert model_check(p6, exists_pair)
    assert not model_check(gen_path(5), exists_pair)


def test_distance_length_linear():
    lengths = [formula_length(distance_formula(k)) for k in range(0, 32)]
    second_diffs = {
        lengths[k + 1] - 2 * lengths[k] + lengths[k - 1] for k in range(2, 31)
    }
    assert second_diffs == {0}


# ---------------------------------------------------------------------------
# Adjacency encoding

def test_encoding_k2():
    k2 = gen_path(2)
    f = edge_encoding_formula(k2)
    swap = {x2: x3, x3: x2}
    from fomc.formulas import Or

    expected = Or(
        (
            And((distance_formula(0), rename_variables(distance_formula(1), swap))),
            And((distance_formula(1), rename_variables(distance_formula(0), swap))),
        )
    )
    assert f == expected


def test_encoding_edgeless_is_false():
    f = edge_encoding_formula(ColoredGraph.build(3, []))
    assert f == Not(Eq(x1, x1))
    assert not satisfying_rows(evaluate_free(gen_path(3), f))


def test_encoding_free_variables():
    rng = random.Random(50)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), colors=1, edge_prob=0.7)
        if not g.edges:
            continue
        assert free_vars(edge_encoding_formula(g)) == {x1, x2, x3}


def test_encoding_semantics_both_endpoints():
    # from either endpoint of the path, with the matching vertex order,
    # satisfaction is exactly adjacency
    g = ColoredGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])  # C4
    n = g.n
    path = gen_path(n)
    f = edge_encoding_formula(g)
    rows = satisfying_rows(evaluate_free(path, f))
    for endpoint, order in ((1, list(range(1, n + 1))), (n, list(range(n, 0, -1)))):
        # encoded position of graph vertex order[i-1] is at distance i-1
        place = {v: order.index(v) + 1 for v in g.vertices}
        for u in g.vertices:
            for v in g.vertices:
                path_u = (
                    place[u] if endpoint == 1 else n + 1 - place[u]
                )
                path_v = (
                    place[v] if endpoint == 1 else n + 1 - place[v]
                )
                assert ((endpoint, path_u, path_v) in rows) == adjacent(g, u, v)


def test_encoding_size_cubic():
    sizes = []
    for n in (4, 6, 8):
        g = ColoredGraph.build(
            n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        )
        sizes.append(formula_length(edge_encoding_formula(g)))
    # complete graphs: n*(n-1) disjuncts of size O(n)
    assert sizes[0] < sizes[1] < sizes[2]
    assert sizes[2] < 8**3 * 20


# ---------------------------------------------------------------------------
# Builders under given names, refereed by renaming the default-named build

#: the names reduce_to_path gives its atoms: two distinct names from
#: x2..x5 for an adjacency atom, with the lowest of x2, x3, x4 left free
#: as the spare; one name for a color atom, whose walks bind the two
#: lowest of x2, x3, x4 left free
ATOM_NAMES = [x2, x3, x4, x5]
ADJ_NAMES = [
    (u, v, Var(min({2, 3, 4} - {u.index, v.index})))
    for u in ATOM_NAMES
    for v in ATOM_NAMES
    if u != v
]
COLOR_NAMES = [
    (u, *(Var(i) for i in sorted({2, 3, 4} - {u.index})[:2])) for u in ATOM_NAMES
]

REFEREE_GRAPHS = {
    "K2": gen_path(2),
    "C4": ColoredGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "edgeless": ColoredGraph.build(3, []),
    "random": random_graph(random.Random(55), 6, colors=2),
}


@pytest.mark.parametrize("g", REFEREE_GRAPHS.values(), ids=REFEREE_GRAPHS.keys())
def test_edge_encoding_under_names_is_the_renamed_encoding(g):
    default = edge_encoding_formula(g)
    for u, v, spare in ADJ_NAMES:
        renamed = rename_variables(default, {x2: u, x3: v, x4: spare})
        assert edge_encoding_formula(g, u, v, spare) == renamed, (u, v, spare)


@pytest.mark.parametrize("g", REFEREE_GRAPHS.values(), ids=REFEREE_GRAPHS.keys())
def test_color_encoding_under_names_is_the_renamed_encoding(g):
    for color in range(1, g.c + 2):
        default = color_encoding_formula(g, color)
        for u, a, b in COLOR_NAMES:
            renamed = rename_variables(default, {x2: u, x3: a, x4: b})
            assert color_encoding_formula(g, color, u, a, b) == renamed, (color, u)


def test_distance_formula_under_names_is_the_renamed_formula():
    names = set(COLOR_NAMES) | set(ADJ_NAMES) | {(v, u, s) for u, v, s in ADJ_NAMES}
    for k in range(12):
        default = distance_formula(k)
        for target, a, b in sorted(names, key=str):
            renamed = rename_variables(default, {x2: target, x3: a, x4: b})
            assert distance_formula(k, target, a, b) == renamed, (k, target, a, b)


def test_reduction_output_shares_its_distance_formulas():
    # each endpoint's distance formula is built once per name order and
    # shared by all arcs that use it, so the distinct nodes stay
    # quadratic in n while the tree the evaluator folds is cubic
    n = 24
    kn = ColoredGraph.build(
        n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    )
    out = reduce_to_path(kn, parse_formula("exists x1. exists x2. adj(x1,x2)"))
    assert formula_length(out.sentence) == 86_306
    assert distinct_nodes(out.sentence) <= 10 * n * n


def test_shared_subformula_under_two_depths_reduces_like_a_copy():
    # ``inner`` occurs at depth 1 and depth 2, where the reduction must
    # name its variables differently; the fold memo must not reuse the
    # first image for the second occurrence. Equal subformulas are one
    # object, so there is no unshared copy to compare with: the text is
    # the one an unshared copy reduced to before nodes were interned.
    inner = Exists(x2, Adj(x1, x2))
    shared = Exists(x1, And((inner, Forall(x1, inner))))
    g = ColoredGraph.build(4, [(1, 2), (2, 3), (1, 4)])
    out = reduce_to_path(g, shared).sentence
    assert render_formula(out) == (
        "exists x1. (exists x2. (exists x3. x1=x2 & (exists x2. adj(x1,x2) & "
        "x2=x3) | x1=x2 & (exists x2. adj(x1,x2) & exists x4. !x1=x4 & "
        "adj(x2,x4) & (adj(x2,x4) & exists x1. !x2=x1 & adj(x4,x1) & "
        "(adj(x4,x1) & x1=x3))) | (exists x3. adj(x1,x3) & x3=x2) & x1=x3 | "
        "(exists x3. adj(x1,x3) & x3=x2) & (exists x2. adj(x1,x2) & exists x4. "
        "!x1=x4 & adj(x2,x4) & (adj(x2,x4) & x4=x3)) | (exists x3. adj(x1,x3) &"
        " exists x4. !x1=x4 & adj(x3,x4) & (adj(x3,x4) & x4=x2)) & (exists x2. "
        "adj(x1,x2) & x2=x3) | (exists x3. adj(x1,x3) & exists x4. !x1=x4 & "
        "adj(x3,x4) & (adj(x3,x4) & exists x1. !x3=x1 & adj(x4,x1) & "
        "(adj(x4,x1) & x1=x2))) & x1=x3) & forall x3. exists x4. x1=x3 & "
        "(exists x3. adj(x1,x3) & x3=x4) | x1=x3 & (exists x3. adj(x1,x3) & "
        "exists x2. !x1=x2 & adj(x3,x2) & (adj(x3,x2) & exists x1. !x3=x1 & "
        "adj(x2,x1) & (adj(x2,x1) & x1=x4))) | (exists x4. adj(x1,x4) & x4=x3) "
        "& x1=x4 | (exists x4. adj(x1,x4) & x4=x3) & (exists x3. adj(x1,x3) & "
        "exists x2. !x1=x2 & adj(x3,x2) & (adj(x3,x2) & x2=x4)) | (exists x4. "
        "adj(x1,x4) & exists x2. !x1=x2 & adj(x4,x2) & (adj(x4,x2) & x2=x3)) & "
        "(exists x3. adj(x1,x3) & x3=x4) | (exists x4. adj(x1,x4) & exists x2. "
        "!x1=x2 & adj(x4,x2) & (adj(x4,x2) & exists x1. !x4=x1 & adj(x2,x1) & "
        "(adj(x2,x1) & x1=x3))) & x1=x4) & exists x2. forall x3. adj(x1,x3) -> "
        "x2=x3"
    )
    assert cross_validate(g, shared).agree


# ---------------------------------------------------------------------------
# The reduction

#: (graph, sentence) pairs whose reductions tests/golden/reductions.fo
#: holds, line by line; the third one was drawn from random.Random(1) by
#: random_graph (4 vertices, 2 colors) and random_formula (rank 3); the
#: fourth has adjacency and color atoms at depth 4, so its output names x5
REDUCTION_INSTANCES = [
    (
        ColoredGraph.build(3, [(1, 2), (1, 3), (2, 3)]),
        "exists x1. exists x2. adj(x1,x2)",
    ),
    (ColoredGraph.build(3, [], [1, 2, 1], c=2), "exists x1. C2(x1)"),
    (
        ColoredGraph.build(4, [(1, 2), (2, 3), (2, 4), (3, 4)], [2, 1, 1, 2], c=2),
        "forall x1. forall x3. exists x2. !(adj(x1,x1) | C1(x3)) & (x2=x1 & C1(x3))"
        " & (C1(x3) -> adj(x2,x1))",
    ),
    (
        ColoredGraph.build(4, [(1, 2), (2, 3), (3, 4)], [1, 2, 2, 1], c=2),
        "exists x1. forall x2. exists x3. forall x4."
        " adj(x1,x4) & C2(x4) | !adj(x4,x3) | adj(x2,x4) & C1(x2)",
    ),
]


def test_reduction_golden_file():
    from pathlib import Path

    from fomc.formulas import read_formulas

    golden = Path(__file__).parent / "golden" / "reductions.fo"
    with open(golden, encoding="utf-8") as fh:
        frozen = read_formulas(fh)
    assert frozen == [
        reduce_to_path(g, parse_formula(text)).sentence
        for g, text in REDUCTION_INSTANCES
    ]


@pytest.mark.parametrize(
    "g, text",
    [
        (ColoredGraph.build(1200, [(1199, 1200)]), "exists x1. exists x2. adj(x1,x2)"),
        (ColoredGraph.build(1200, [], [1] * 1199 + [2], c=2), "exists x1. C2(x1)"),
    ],
    ids=["edge", "color"],
)
def test_reduce_far_positions_have_no_recursion_cap(g, text):
    # the encodings reach path position 1200; the output is only built,
    # since on 1200 vertices the evaluator's cell cap refuses its
    # three-variable subformulas
    out = reduce_to_path(g, parse_formula(text))
    assert not free_vars(out.sentence)
    assert variable_count(out.sentence) <= 4
    # the text goes out and comes back
    written = render_formula(out.sentence)
    back = parse_formula(written)
    assert render_formula(back) == written
    assert back == out.sentence
    assert formula_length(back) == formula_length(out.sentence)


def test_reduce_requires_three_vertices():
    with pytest.raises(ValueError):
        reduce_to_path(gen_path(2), parse_formula("exists x1. C1(x1)"))


def test_reduce_refuses_open_sentences_first():
    free = "expected a sentence but found free variables: x2, x4$"
    f = parse_formula("exists x1. adj(x1,x2) & (x4=x1 | exists x2. C1(x2))")
    for g in (gen_path(2), gen_path(5), ColoredGraph.build(3, [], [1, 2, 1], c=2)):
        with pytest.raises(ValueError, match=free):
            reduce_to_path(g, f)
    with pytest.raises(ValueError, match="at least 3 vertices"):
        reduce_to_path(gen_path(2), parse_formula("exists x1. C1(x1)"))


def test_reduce_k3_edge_sentence():
    k3 = ColoredGraph.build(3, [(1, 2), (1, 3), (2, 3)])
    phi = parse_formula("exists x2. exists x3. adj(x2,x3)")
    out = reduce_to_path(k3, phi)
    assert out.path == gen_path(3)
    assert out.ordering == (1, 2, 3)
    assert model_check(out.path, out.sentence)
    assert model_check(k3, phi)


def test_reduce_edgeless_same_sentence():
    e3 = ColoredGraph.build(3, [])
    phi = parse_formula("exists x2. exists x3. adj(x2,x3)")
    out = reduce_to_path(e3, phi)
    assert not model_check(out.path, out.sentence)


def test_reduce_variable_budget():
    rng = random.Random(51)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 6), colors=1)
        phi = random_formula(rng, 4, 1, rng.randint(1, 3))
        out = reduce_to_path(g, phi)
        q = quantifier_rank(phi)
        assert variable_count(out.sentence) <= max(q + 1, 4)


def test_reduction_has_endpoint_guard_shape():
    g = gen_path(3)
    out = reduce_to_path(g, parse_formula("exists x2. adj(x2,x2)"))
    psi = out.sentence
    assert isinstance(psi, Exists) and psi.var == x1
    assert isinstance(psi.body, And)
    guard = psi.body.children[-1]
    assert guard == Exists(
        x2, Forall(x3, Implies(Adj(x1, x3), Eq(x2, x3)))
    )


def test_endpoint_guard_pins_degree_one():
    g = ColoredGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out = reduce_to_path(g, parse_formula("exists x2. exists x3. adj(x2,x3)"))
    body = out.sentence.body
    sat = evaluate_free(out.path, body)
    witnesses = {row[0] for row in satisfying_rows(sat)}
    adj = neighborhoods(out.path)
    assert witnesses <= {v for v in out.path.vertices if len(adj[v]) == 1}


def test_cross_validate_triangle():
    triangle = parse_formula(
        "exists x2. exists x3. exists x4. adj(x2,x3) & adj(x3,x4) & adj(x2,x4)"
    )
    c5 = ColoredGraph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    res = cross_validate(c5, triangle)
    assert (res.lhs, res.rhs, res.agree) == (False, False, True)
    k3 = ColoredGraph.build(3, [(1, 2), (1, 3), (2, 3)])
    res = cross_validate(k3, triangle)
    assert (res.lhs, res.rhs, res.agree) == (True, True, True)


def test_cross_validate_random_instances():
    rng = random.Random(52)
    for _ in range(100):
        g = random_graph(rng, rng.randint(3, 6), colors=1)
        phi = random_formula(rng, 3, 1, rng.randint(1, 3))
        assert cross_validate(g, phi).agree


def test_cross_validate_four_vertex_representatives():
    reps = []
    for g in all_labeled_graphs(4):
        if not any(graphs_isomorphic(g, h) for h in reps):
            reps.append(g)
    assert len(reps) == 11
    rng = random.Random(53)
    formulas = [random_formula(rng, 3, 1, rng.randint(1, 2)) for _ in range(12)]
    for g in reps:
        for phi in formulas:
            assert cross_validate(g, phi).agree


def test_cross_validate_colored_repro():
    g = ColoredGraph.build(3, [], [1, 2, 1], c=2)
    check = cross_validate(g, parse_formula("exists x1. C2(x1)"))
    assert (check.lhs, check.rhs) == (True, True)


def test_cross_validate_two_colors():
    rng = random.Random(54)
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 6), colors=2)
        phi = random_formula(rng, 3, 2, rng.randint(1, 3))
        assert cross_validate(g, phi).agree
        out = reduce_to_path(g, phi)
        assert variable_count(out.sentence) <= max(quantifier_rank(phi) + 1, 4)
