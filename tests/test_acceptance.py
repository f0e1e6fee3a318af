"""Acceptance suite: one test per criterion, printing one verdict line
each. Run with ``pytest -s tests/test_acceptance.py`` to see the lines
as they complete. Every tolerance is zero unless stated otherwise; the
pebble referee refuses instances above ten million positions and such
instances are reported but do not count as failures.
"""

import io
import random

import pytest

from fomc.evaluator import evaluate_free_with_stats, model_check
from fomc.formulas import formula_length, quantifier_rank, variable_count
from fomc.graphs import ColoredGraph, gen_path
from fomc.hardness import cross_validate, distance_formula, reduce_to_path
from fomc.interpret import (
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
from fomc.kernel import kernel_size_bound, reduce_tree, verify_kernel
from fomc.pebble import ResourceLimitError, type_census
from fomc.randgen import random_formula, random_graph
from fomc.trees import compute_elimination_forest, write_tree

from .oracles import (
    all_colored_rooted_trees,
    all_labeled_graphs,
    bfs_distances,
    graphs_isomorphic,
    pipeline_fixtures,
    random_tree,
    recursive_model_check,
    satisfying_rows,
)

PEBBLE_CAP = 10**7

pytestmark = pytest.mark.acceptance


def report(criterion: str, failures: list, extra: str = "") -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {criterion}: {verdict}{tail}")
    assert not failures, failures[:5]


def _kernel_check(tree, s, failures, counters):
    res = reduce_tree(tree, s)
    if len(res.kept) > res.bound:
        failures.append(("size", tree, s))
    try:
        if not verify_kernel(tree, res, s, cap=PEBBLE_CAP):
            failures.append(("inequivalent", tree, s))
        counters[0] += 1
    except ResourceLimitError:
        counters[1] += 1


def test_criterion_1_kernel_soundness():
    failures: list = []
    counters = [0, 0]  # ran, refused
    for tree in all_colored_rooted_trees(8, 3, 2):
        for s in (1, 2, 3):
            _kernel_check(tree, s, failures, counters)
    rng = random.Random(12345)
    for _ in range(500):
        tree = random_tree(rng, rng.randint(1, 40), 3, colors=3)
        for s in (1, 2, 3):
            _kernel_check(tree, s, failures, counters)
    report(
        "1 kernel-soundness",
        failures,
        f"(ran {counters[0]}, referee refused {counters[1]})",
    )


def test_criterion_2_kernel_fixed_point_and_determinism():
    failures: list = []
    rng = random.Random(777)
    corpus = [random_tree(rng, rng.randint(1, 40), 3, colors=3) for _ in range(120)]
    corpus.extend(all_colored_rooted_trees(6, 3, 2))
    for tree in corpus:
        for s in (1, 2, 3):
            first = reduce_tree(tree, s)
            second = reduce_tree(tree, s)
            if first != second:
                failures.append(("nondeterministic", tree, s))
                continue
            buf_a, buf_b = io.StringIO(), io.StringIO()
            write_tree(first.kernel, buf_a)
            write_tree(second.kernel, buf_b)
            if buf_a.getvalue() != buf_b.getvalue():
                failures.append(("bytes", tree, s))
            again = reduce_tree(first.kernel, s)
            if again.kept != frozenset(range(1, first.kernel.n + 1)):
                failures.append(("re-reduction dropped vertices", tree, s))
            elif again.kernel != first.kernel:
                failures.append(("re-reduction changed the kernel", tree, s))
    report("2 kernel-fixed-point", failures)


def test_criterion_3_pipeline_agreement():
    failures: list = []
    fx = pipeline_fixtures()
    sentences = fx.sentences
    assert all(variable_count(f) <= 3 and quantifier_rank(f) <= 4 for f in sentences)

    for tree in fx.trees:
        graph = tree.to_graph()
        for phi in sentences:
            if mc_tree(tree, phi, 3) != model_check(graph, phi):
                failures.append(("mc_tree", tree, phi))

    for g in fx.treedepth_graphs:
        for phi in sentences:
            if mc_treedepth(g, phi, 3, 3) != model_check(g, phi):
                failures.append(("mc_treedepth", g, phi))

    for g, tm in fx.tree_models:
        for phi in sentences:
            if mc_treemodel(g, tm, phi, 3) != model_check(g, phi):
                failures.append(("mc_treemodel", g, phi))
    report("3 pipeline-agreement", failures)


def test_criterion_4_distance_family():
    failures: list = []
    for n in range(1, 13):
        path = gen_path(n)
        dist = {u: bfs_distances(path, u) for u in path.vertices}
        for k in range(0, 13):
            from fomc.evaluator import evaluate_free

            got = set(satisfying_rows(evaluate_free(path, distance_formula(k))))
            want = {
                (u, v)
                for u in path.vertices
                for v in path.vertices
                if dist[u].get(v) == k
            }
            if got != want:
                failures.append(("semantics", n, k))
    for k in range(0, 51):
        if variable_count(distance_formula(k)) > 4:
            failures.append(("variables", k))
    lengths = [formula_length(distance_formula(k)) for k in range(0, 32)]
    for k in range(2, 31):
        if lengths[k + 1] - 2 * lengths[k] + lengths[k - 1] != 0:
            failures.append(("second-difference", k))
    report("4 distance-family", failures)


def test_criterion_5_reduction_soundness():
    failures: list = []
    reps: list[ColoredGraph] = []
    for g in all_labeled_graphs(4):
        if not any(graphs_isomorphic(g, h) for h in reps):
            reps.append(g)
    if len(reps) != 11:
        failures.append(("expected 11 four-vertex types", len(reps)))
    rng = random.Random(4242)
    sentences_q2 = [random_formula(rng, 3, 1, rng.randint(1, 2)) for _ in range(50)]
    for g in reps:
        for phi in sentences_q2:
            out = reduce_to_path(g, phi)
            q = quantifier_rank(phi)
            if variable_count(out.sentence) > max(q + 1, 4):
                failures.append(("budget", g, phi))
            if not cross_validate(g, phi).agree:
                failures.append(("disagree-4v", g, phi))
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 6), colors=1)
        phi = random_formula(rng, 4, 1, rng.randint(1, 3))
        out = reduce_to_path(g, phi)
        q = quantifier_rank(phi)
        if variable_count(out.sentence) > max(q + 1, 4):
            failures.append(("budget", g, phi))
        if not cross_validate(g, phi).agree:
            failures.append(("disagree-random", g, phi))
    report("5 reduction-soundness", failures)


def test_criterion_6_backwards_translation():
    failures: list = []
    rng = random.Random(606)
    sentences = [random_formula(rng, 3, 2, 3) for _ in range(300)]
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_labeled_graphs(n, colors=2))

    named = (
        ("identity", identity_interpretation()),
        ("complement", complement_interpretation()),
    )

    def translations(label, scheme):
        """Each sentence with its translation, checked against the
        scheme's overhead once."""
        pairs = [(phi, backwards_translate(phi, scheme)) for phi in sentences]
        for phi, translated in pairs:
            if variable_count(translated) > variable_count(phi) + scheme.variable_overhead:
                failures.append((label, "overhead", phi))
        return pairs

    for label, scheme in named:
        pairs = translations(label, scheme)
        for g in graphs:
            image = apply_interpretation(scheme, g)
            for phi, translated in pairs:
                if model_check(g, translated) != model_check(image, phi):
                    failures.append((label, g, phi))

    # the depth-edge scheme is checked on encoded-forest hosts; it depends
    # on the forest height and the palette only
    by_shape: dict = {}
    for g in graphs:
        ef = compute_elimination_forest(g, 4)
        host = encode_elimination_forest(g, ef).to_graph()
        if (ef.height, g.c) not in by_shape:
            scheme = depth_edge_interpretation(ef.height, g.c)
            by_shape[ef.height, g.c] = scheme, translations("depth-edge", scheme)
        scheme, pairs = by_shape[ef.height, g.c]
        image = apply_interpretation(scheme, host)
        for phi, translated in pairs:
            if model_check(host, translated) != model_check(image, phi):
                failures.append(("depth-edge", g, phi))
    report("6 backwards-translation", failures)


def test_criterion_7_type_census():
    failures: list = []
    paths = [gen_path(i) for i in range(1, 9)]
    blocks = type_census(paths, 3, cap=PEBBLE_CAP)
    if blocks != [[i] for i in range(8)]:
        failures.append(("paths", blocks))
    g = random_graph(random.Random(7), 5, colors=2)
    if type_census([g, g, g, g], 3, cap=PEBBLE_CAP) != [[0, 1, 2, 3]]:
        failures.append(("copies", g))
    report("7 type-census", failures)


def test_criterion_8_evaluator_ground_truth():
    failures: list = []
    rng = random.Random(808)
    formulas = [random_formula(rng, 3, 2, 3) for _ in range(300)]
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_labeled_graphs(n, colors=2))
    for g in graphs:
        for f in formulas:
            sat, stats = evaluate_free_with_stats(g, f)
            if sat.holds != recursive_model_check(g, f):
                failures.append(("verdict", g, f))
            if stats.tuples_touched > formula_length(f) * g.n ** variable_count(f):
                failures.append(("cost", g, f))
    report("8 evaluator-ground-truth", failures)


def test_criterion_9_bound_recurrence():
    failures: list = []
    for s in range(1, 6):
        for c in range(1, 6):
            if kernel_size_bound(s, 0, c) != 1:
                failures.append(("base", s, c))
    if kernel_size_bound(1, 1, 1) != 3:
        failures.append(("g(1,1,1)",))
    if kernel_size_bound(2, 1, 1) != 5:
        failures.append(("g(2,1,1)",))
    values = {
        (s, k, c): kernel_size_bound(s, k, c)
        for s in range(1, 4)
        for k in range(0, 3)
        for c in range(1, 4)
    }
    for (s, k, c), val in values.items():
        for bigger in ((s + 1, k, c), (s, k + 1, c), (s, k, c + 1)):
            if bigger in values and values[bigger] < val:
                failures.append(("monotone", (s, k, c), bigger))
    report("9 bound-recurrence", failures)
