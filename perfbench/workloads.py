"""The three workloads: which checks they hold, how each check's inputs
are built into program objects, how it runs, and how its output is
judged.

A check is one question put to the program. It carries one payload per
run, each an isomorphic copy of the others (vertices relabelled, variable
names permuted) and none equal to any other payload of the workload, so a
cache keyed on the arguments cannot turn a repeat into free work. Its
verdict must be the same on every copy, and must match the answer the
benchmark computes apart from the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import cycle, islice

import cost
import gen
import oracle
from spans import formula_size


@dataclass
class Check:
    kind: str
    copies: list
    expect: object
    fault: bool = False  # the program's verdict is known to be wrong here
    rank: int = 0  # quantifier rank of the sentence, where there is one


@dataclass
class Workload:
    checks: list[Check]
    warmups: list[Check]  # one per kind, run in set-up only


class TooFewCopies(Exception):
    """An instance has fewer distinct isomorphic copies than the run needs."""


def _fresh(rng: random.Random, count: int, seen: set, variant, key=lambda p: p) -> list:
    """``count`` payloads from ``variant``, none seen before; ``variant``
    returns None for a copy it cannot use. The copies are drawn from a
    generator of their own, so the checks that follow do not depend on how
    many runs a check has."""
    own = random.Random(rng.getrandbits(64))
    out = []
    for _ in range(count):
        for _attempt in range(200):
            payload = variant(own)
            if payload is not None and key(payload) not in seen:
                break
        else:
            seen.difference_update(map(key, out))
            raise TooFewCopies
        seen.add(key(payload))
        out.append(payload)
    return out


#: Seed of the reference draw whose cost mix every seed's checks copy.
REFERENCE_SEED = 0
#: Candidates drawn per check kept.
POOL_FACTOR = 4


def _matched(rng: random.Random, count: int, draw, proxy, make) -> list[Check]:
    """``count`` checks ``make(candidate)``, from candidates ``draw(r, i)``.

    A check's cost is heavy-tailed in its inputs, so with a plain random
    draw the sums and tails of a run would depend on the seed. Instead the
    seed draws ``POOL_FACTOR`` candidates per check and, for each cost of a
    reference draw made with a fixed seed, keeps the candidate whose
    ``proxy`` cost (computed by the benchmark, never by the program) is
    nearest: every seed gets the same mix of light and heavy checks. A
    candidate too symmetric to give every run its own copy is passed over.
    """
    reference = random.Random(REFERENCE_SEED)
    targets = [math.log(proxy(draw(reference, i))) for i in range(count)]
    pool = [draw(rng, i) for i in range(POOL_FACTOR * count)]
    costs = [math.log(proxy(c)) for c in pool]
    checks = []
    for target in targets:
        while True:
            j = min(range(len(pool)), key=lambda j: abs(costs[j] - target))
            if costs[j] == math.inf:
                raise ValueError("no candidate left with enough distinct copies")
            costs[j] = math.inf
            try:
                checks.append(make(pool[j]))
                break
            except TooFewCopies:
                continue
    return checks


def _graph_copy(rng, g):
    return gen.relabel_graph(g, gen.permutation(rng, g[0]))


def _sentence_on_graph(rng, f, g, c):
    return gen.render(gen.variable_shuffle(rng, f)), _graph_copy(rng, g), c


def _spread(values, count: int) -> list:
    """``count`` values taken round-robin, so every seed gets the same mix."""
    return list(islice(cycle(values), count))


# ---------------------------------------------------------------------------
# Building program objects from payloads (this is set-up work)


def graph(fc, g, c):
    n, edges, colors = g
    return fc.graphs.ColoredGraph.build(n, edges, colors, c=c)


def tree(fc, t, c):
    parents, colors = t
    return fc.trees.RootedColoredTree.build(
        dict(enumerate(parents, 1)), dict(enumerate(colors, 1)), c=c
    )


def formula(fc, text):
    return fc.formulas.parse_formula(text)


# ---------------------------------------------------------------------------
# Kinds: build(fc, payload) -> args, run(fc, args) -> output,
# judge(fc, check, args, output) -> (verdict, problems)


def _build_sentence_graph(fc, p):
    return formula(fc, p[0]), graph(fc, p[1], p[2])


def _bool_verdict(fc, check, args, out):
    return out, []


def _judge_path(fc, check, args, out):
    reduction, verdict = out
    names = formula_size(reduction.sentence)[1]
    limit = max(check.rank + 1, 4)
    problems = [f"reduction uses {names} variables, limit {limit}"] if names > limit else []
    return verdict, problems


def _judge_kernel(fc, check, args, out):
    t, s = args
    res, verified = out
    problems = []
    if len(res.kept) > res.bound:
        problems.append(f"kernel keeps {len(res.kept)} > bound {res.bound}")
    if not verified:
        problems.append("verify_kernel rejected the kernel")
    if fc.kernel.reduce_tree(res.kernel, s).kept != frozenset(range(1, res.kernel.n + 1)):
        problems.append("the kernel is not a fixed point of re-reduction")
    return len(res.kept), problems


def _judge_forest(fc, check, args, out):
    g, k = args
    if out is None:
        return None, []
    plain = (g.n, tuple(sorted(g.edges)), g.colors)
    fits = oracle.forest_fits(plain, out.parents, k)
    return out.height, [] if fits else ["not an elimination forest within the budget"]


def _judge_census(fc, check, args, out):
    return tuple(sorted(tuple(block) for block in out)), []


KINDS = {
    # eval-scale
    "model_check": (
        _build_sentence_graph,
        lambda fc, a: fc.evaluator.model_check(a[1], a[0]),
        _bool_verdict,
    ),
    # pipelines
    "mc_tree": (
        lambda fc, p: (formula(fc, p[0]), tree(fc, p[1], p[2])),
        lambda fc, a: fc.interpret.mc_tree(a[1], a[0], 3),
        _bool_verdict,
    ),
    "mc_treedepth": (
        _build_sentence_graph,
        lambda fc, a: fc.interpret.mc_treedepth(a[1], a[0], 3, 3),
        _bool_verdict,
    ),
    "mc_treemodel": (
        lambda fc, p: (
            formula(fc, p[0]),
            graph(fc, p[1], p[2]),
            fc.trees.TreeModel.build(tree(fc, p[3], p[4]), p[5]),
        ),
        lambda fc, a: fc.interpret.mc_treemodel(a[1], a[2], a[0], 3),
        _bool_verdict,
    ),
    "reduce_to_path": (
        _build_sentence_graph,
        lambda fc, a: _reduce_and_check(fc, a),
        _judge_path,
    ),
    # structure
    "pebble_pair": (
        lambda fc, p: (graph(fc, p[0], 2), graph(fc, p[1], 2)),
        lambda fc, a: fc.pebble.fo_s_equivalent(a[0], a[1], 3),
        _bool_verdict,
    ),
    "type_census": (
        lambda fc, p: [graph(fc, g, 2) for g in p],
        lambda fc, a: fc.pebble.type_census(a, 3),
        _judge_census,
    ),
    "kernel": (
        lambda fc, p: (tree(fc, p[0], 2), p[1]),
        lambda fc, a: _kernel_and_verify(fc, a),
        _judge_kernel,
    ),
    "forest": (
        lambda fc, p: (graph(fc, p[0], 1), p[1]),
        lambda fc, a: fc.trees.compute_elimination_forest(a[0], a[1]),
        _judge_forest,
    ),
}


def _reduce_and_check(fc, a):
    out = fc.hardness.reduce_to_path(a[1], a[0])
    return out, fc.evaluator.model_check(out.path, out.sentence)


def _kernel_and_verify(fc, a):
    t, s = a
    res = fc.kernel.reduce_tree(t, s)
    return res, fc.kernel.verify_kernel(t, res, s)


# ---------------------------------------------------------------------------
# eval-scale: naive model checking of 3-variable sentences whose widest
# subformula has all three variables free, so the evaluator pays n^3 tables.

EVAL_SIZES = (16, 24)
EVAL_CHECKS_PER_SIZE = 120


def _wide_sentence(r):
    while True:
        f = gen.sentence(r, 3, 2, 4, 14)
        if gen.widest(f) == 3:
            return f


def eval_scale(rng, fixed_rng, runs, quick):
    seen: set = set()
    sizes = (5, 7) if quick else EVAL_SIZES
    count = 2 if quick else EVAL_CHECKS_PER_SIZE

    def make(n):
        def check(c):
            f, g = c
            copies = _fresh(rng, runs, seen, lambda r: _sentence_on_graph(r, f, g, 2))
            return Check("model_check", copies, oracle.holds(g, f))

        return check

    def checks(n, k):
        draw = lambda r, i: (_wide_sentence(r), gen.graph(r, n, 2, 0.35))  # noqa: E731
        return _matched(rng, k, draw, lambda c: cost.predicted_s(c[1], c[0]) + 1e-5, make(n))

    main = [ch for n in sizes for ch in checks(n, count)]
    rng.shuffle(main)
    return Workload(main, checks(sizes[0], 1))


# ---------------------------------------------------------------------------
# pipelines: the decomposition pipelines and the path reduction, on small
# hosts with large translated sentences.

# Seed-independent 2-coloured instances on which reduce_to_path answers
# wrongly: the path it returns has every vertex in colour 1, but colour
# atoms pass through unchanged.
def _ex(v, body):
    return ("ex", v, body)


def _all(v, body):
    return ("all", v, body)


def _and(*parts):
    return ("and", parts)


def _adj(u, v):
    return ("adj", u, v)


def _col(c, v):
    return ("col", c, v)


COLOUR_FAULTS = (
    (
        (4, ((1, 2), (2, 3), (3, 4)), (2, 1, 1, 1)),
        _ex(1, _and(_col(2, 1), _ex(2, _ex(3, _and(_adj(1, 2), _adj(2, 3), ("not", ("eq", 1, 3))))))),
    ),
    (
        (5, ((1, 2), (1, 3), (1, 4), (1, 5)), (1, 2, 2, 1, 1)),
        _all(1, ("or", (_col(1, 1), _ex(2, _and(_adj(1, 2), _all(3, ("imp", _adj(2, 3), _col(2, 3)))))))),
    ),
    (
        (5, ((1, 2), (2, 3), (1, 3), (4, 5)), (1, 1, 2, 2, 1)),
        _ex(1, _ex(2, _and(_adj(1, 2), _col(2, 1), _ex(3, _and(_adj(2, 3), _col(2, 3)))))),
    ),
    (
        (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)), (2, 1, 2, 1, 1, 2)),
        _all(1, ("imp", _col(2, 1), _ex(2, _ex(3, _and(
            _adj(1, 2), _adj(2, 3), ("not", ("eq", 1, 3)), _col(2, 3)))))),
    ),
)


#: A pipeline check's cost is heavy-tailed (most take a few ms, a few take
#: 100 ms and more), so a run's sum and tail are steady only over many checks.
PIPE_CHECKS_PER_KIND = 250
#: (vertices, quantifier rank) of the seeded path reductions; a rank-1
#: sentence on 3 vertices has too few distinct copies to give every run one.
PATH_SIZES = [(n, q) for n in (3, 4, 5, 6) for q in (1, 2, 3) if (n, q) != (3, 1)]


def pipelines(rng, fixed_rng, runs, quick):
    seen: set = set()
    count = 1 if quick else PIPE_CHECKS_PER_KIND

    # Candidates, and the cost proxies that rank them. The dense model of
    # cost.py fits the evaluator on the plain graph; a translated sentence
    # of a tree-model or a path reduction costs about one edge formula per
    # adjacency atom, which grows with the host and its rules or edges
    # (log correlation with the time 0.89 and 0.96 on 200 random checks).
    def tree_draw(r, i):
        n = 5 + i % 21
        return gen.sentence(r, 3, 3, 4, 14), gen.tree(r, n, 3, 3)

    def tree_plain(t):
        return len(t[0]), gen.tree_edges(t[0]), t[1]

    def shallow_draw(r, i):
        return gen.sentence(r, 3, 1, 4, 14), gen.shallow_graph(r, 4 + i % 6, 3, 0.5)

    def model_draw(r, i):
        return gen.sentence(r, 3, 2, 4, 14), gen.tree_model(r, 2 + i % 7, 2, 2)

    def model_proxy(c):
        f, ((parents, _), rules, _) = c
        edge_formula = sum(d * d for *_, d, edge in rules if edge)
        return (gen.adjacencies(f) * edge_formula + 1) * len(parents) ** 2

    def path_draw(r, i):
        n, q = PATH_SIZES[i % len(PATH_SIZES)]
        # colour 1 only: on 2-coloured graphs the known colour fault makes
        # the verdict wrong on some seeds and not others
        return gen.sentence(r, 3, 1, q, 14), gen.graph(r, n, 1, 0.5)

    def path_proxy(c):
        f, (n, edges, _) = c
        return (gen.adjacencies(f) * max(1, len(edges)) + 1) * n**2

    def on_tree(c):
        f, t = c
        n = len(t[0])

        def variant(r):
            return gen.render(gen.variable_shuffle(r, f)), gen.relabel_tree(t, gen.permutation(r, n)), 3

        return Check("mc_tree", _fresh(rng, runs, seen, variant), oracle.holds(tree_plain(t), f))

    def on_shallow(c):
        f, g = c
        copies = _fresh(rng, runs, seen, lambda r: _sentence_on_graph(r, f, g, 1))
        return Check("mc_treedepth", copies, oracle.holds(g, f))

    def on_model(c):
        f, (t, rules, g) = c
        leaves = g[0]

        def variant(r):
            perm = gen.permutation(r, len(t[0]), fixed=leaves)
            return (
                gen.render(gen.variable_shuffle(r, f)), gen.relabel_graph(g, perm[:leaves]), 2,
                gen.relabel_tree(t, perm), 2, rules,
            )

        return Check("mc_treemodel", _fresh(rng, runs, seen, variant), oracle.holds(g, f))

    def to_path(c, r=rng, fault=False):
        f, g = c
        if fault and oracle.holds(g, f) == oracle.holds((g[0], g[1], (1,) * g[0]), f):
            raise ValueError("the colour fault cannot change this instance's verdict")
        copies = _fresh(r, runs, seen, lambda rr: _sentence_on_graph(rr, f, g, max(g[2])))
        return Check("reduce_to_path", copies, oracle.holds(g, f), fault, gen.rank(f))

    kinds = [
        (tree_draw, lambda c: cost.predicted_s(tree_plain(c[1]), c[0]) + 1e-5, on_tree),
        (shallow_draw, lambda c: cost.predicted_s(c[1], c[0]) + 1e-5, on_shallow),
        (model_draw, model_proxy, on_model),
        (path_draw, path_proxy, to_path),
    ]
    main = [ch for draw, proxy, make in kinds for ch in _matched(rng, count, draw, proxy, make)]
    main += [to_path((f, g), fixed_rng, fault=True) for g, f in COLOUR_FAULTS]
    rng.shuffle(main)
    warm = [ch for draw, proxy, make in kinds for ch in _matched(rng, 1, draw, proxy, make)]
    return Workload(main, warm)


# ---------------------------------------------------------------------------
# structure: the pebble game, the tree kernel and the elimination-forest
# search, each checked against known facts; the evaluator stays idle.

#: Path lengths of the census checks: three families, two copies each.
CENSUS_LENGTHS = [
    (3, 5, 7), (4, 6, 8), (3, 4, 8), (5, 6, 7), (3, 6, 8),
    (4, 5, 7), (3, 7, 8), (4, 5, 6), (5, 7, 8), (3, 4, 5),
]


def structure(rng, fixed_rng, runs, quick):
    seen: set = set()
    scale = 0.05 if quick else 1.0
    count = lambda c: max(1, int(c * scale))  # noqa: E731

    def pair(a, b, expect):
        def variant(r):
            x, y = _graph_copy(r, a), _graph_copy(r, b)
            return (x, y) if x != y else None  # equal graphs get no game

        return Check("pebble_pair", _fresh(rng, runs, seen, variant), expect)

    def census(lengths):
        family = [n for n in lengths for _ in range(2)]
        expect = tuple((2 * i, 2 * i + 1) for i in range(len(lengths)))

        def variant(r):
            return tuple(_graph_copy(r, gen.path(n)) for n in family)

        return Check("type_census", _fresh(rng, runs, seen, variant), expect)

    def kernel(s):
        def check(t):
            def variant(r):
                return gen.relabel_tree(t, gen.permutation(r, len(t[0]))), s

            copies = _fresh(rng, runs, seen, variant, key=lambda p: p[0])
            return Check("kernel", copies, oracle.kernel_size(*t, s))

        return check

    def kernel_checks(s, sizes, k):
        # verify_kernel plays a game on ((n+1)(m+1))^s positions, m the
        # kernel size
        def positions(t):
            return ((len(t[0]) + 1) * (oracle.kernel_size(*t, s) + 1)) ** s

        draw = lambda r, i: gen.tree(r, sizes[i % len(sizes)], 3, 2)  # noqa: E731
        return _matched(rng, k, draw, positions, kernel(s))

    def forest(g, td, k):
        def variant(r):
            return _graph_copy(r, g), k

        copies = _fresh(rng, runs, seen, variant, key=lambda p: p[0])
        return Check("forest", copies, td if k >= td else None)

    def star_forest(leaves, k):
        # a star plus two isolated vertices: tree-depth 2, many labellings
        n, edges, _ = gen.star(leaves)
        return forest((n + 2, edges, (1,) * (n + 2)), 2, k)

    def random_pair(r, i):
        return gen.graph(r, 5 + i % 5, 2, 0.4)

    # matched on the vertex count alone, to pass over graphs too symmetric
    # to give every run its own pair of copies
    small = (5, 6, 7, 8) if quick else range(5, 12)
    main = (
        [pair(gen.path(n), gen.path(n + 1), False) for n in _spread(small, count(40))]
        + [pair(gen.path(n), gen.path(n), True) for n in _spread(small, count(20))]
        + _matched(rng, count(20), random_pair, lambda g: g[0], lambda g: pair(g, g, True))
        + [census(lengths) for lengths in _spread(CENSUS_LENGTHS, count(20))]
        + kernel_checks(1, range(300, 1600), count(40))
        + kernel_checks(2, range(30, 56), count(40))
        + [
            forest(gen.path(n), oracle.path_tree_depth(n), oracle.path_tree_depth(n) - d)
            for d in (1, 0)
            for n in _spread(range(7, 32), count(40))
        ]
        + [star_forest(leaves, k) for k in (1, 2) for leaves in _spread(range(5, 11), count(20))]
    )
    rng.shuffle(main)
    warm = [
        pair(gen.path(5), gen.path(6), False),
        census((3, 4)),
        kernel_checks(2, range(40, 41), 1)[0],
        forest(gen.path(9), 4, 4),
    ]
    return Workload(main, warm)


WORKLOADS = {"eval-scale": eval_scale, "pipelines": pipelines, "structure": structure}
