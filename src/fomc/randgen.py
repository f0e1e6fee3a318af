"""Seeded random instances for property suites and the cross-validation
command. Everything is driven by an explicit ``random.Random`` so runs
are reproducible from the seed."""

from __future__ import annotations

import random

from .formulas import (
    Adj,
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    HasColor,
    Implies,
    Not,
    Or,
    Var,
)
from .graphs import ColoredGraph
from .trees import RootedColoredTree, TreeModel


def random_graph(
    rng: random.Random,
    n: int,
    colors: int = 1,
    edge_prob: float = 0.5,
) -> ColoredGraph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < edge_prob
    ]
    cols = [rng.randint(1, colors) for _ in range(n)]
    return ColoredGraph.build(n, edges, cols, c=colors)


def random_tree(
    rng: random.Random, n: int, max_depth: int, colors: int = 1
) -> RootedColoredTree:
    """A rooted tree built by attaching each vertex below a random
    vertex of depth < max_depth."""
    parents = {1: 0}
    depths = {1: 0}
    shallow = [1] if max_depth > 0 else []  # vertices of depth < max_depth, by id
    for v in range(2, n + 1):
        p = rng.choice(shallow)
        parents[v] = p
        depths[v] = depths[p] + 1
        if depths[v] < max_depth:
            shallow.append(v)
    cols = {v: rng.randint(1, colors) for v in parents}
    return RootedColoredTree.build(parents, cols, c=colors)


def random_formula(
    rng: random.Random,
    max_vars: int,
    colors: int,
    rank: int,
    size: int = 14,
) -> Formula:
    """A sentence with at most ``max_vars`` distinct variables and
    quantifier rank at most ``rank``. Quantified names are drawn with
    replacement, so shadowing and reuse come up naturally."""
    pool = [Var(i) for i in range(1, max_vars + 1)]

    def atom(bound: list[Var]) -> Formula:
        kind = rng.randrange(3)
        if kind == 0:
            return Adj(rng.choice(bound), rng.choice(bound))
        if kind == 1:
            return Eq(rng.choice(bound), rng.choice(bound))
        return HasColor(rng.randint(1, colors), rng.choice(bound))

    def go(bound: list[Var], rank_left: int, budget: int) -> Formula:
        quantify = rank_left > 0 and (
            not bound or (budget > 1 and rng.random() < 0.45)
        )
        if quantify:
            var = rng.choice(pool)
            node = Exists if rng.random() < 0.5 else Forall
            return node(var, go(bound + [var], rank_left - 1, budget - 1))
        if budget <= 1:
            return atom(bound)
        kind = rng.randrange(5)
        if kind == 0:
            return Not(go(bound, rank_left, budget - 1))
        if kind in (1, 2):
            node = And if kind == 1 else Or
            width = 2 if budget < 6 else rng.choice((2, 2, 3))
            share = max(1, (budget - 1) // width)
            return node(
                tuple(go(bound, rank_left, share) for _ in range(width))
            )
        if kind == 3:
            half = max(1, (budget - 1) // 2)
            return Implies(
                go(bound, rank_left, half), go(bound, rank_left, half)
            )
        return atom(bound)

    if rank < 1:
        raise ValueError("sentences need rank at least 1")
    return go([], rank, size)


def random_tree_model(
    rng: random.Random,
    n_leaves: int,
    max_depth: int,
    tree_colors: int = 2,
    graph_colors: int = 2,
) -> tuple[ColoredGraph, TreeModel]:
    """A random model tree over leaves 1..n plus the graph it defines.

    Internal nodes take ids above n. The rule assigns a random verdict
    to every realized (color, color, distance) triple, so the pair
    always validates.
    """
    if n_leaves < 1 or max_depth < 1:
        raise ValueError("need at least one leaf and positive depth")
    parents: dict[int, int] = {}
    depths: dict[int, int] = {}
    root = n_leaves + 1
    parents[root] = 0
    depths[root] = 0
    next_id = root + 1
    internals = [root]
    for _ in range(rng.randrange(0, max(1, n_leaves // 2) + 1)):
        shallow = [u for u in internals if depths[u] < max_depth - 1]
        if not shallow:
            break
        p = rng.choice(shallow)
        parents[next_id] = p
        depths[next_id] = depths[p] + 1
        internals.append(next_id)
        next_id += 1
    for leaf in range(1, n_leaves + 1):
        p = rng.choice(internals)
        parents[leaf] = p
        depths[leaf] = depths[p] + 1
    # internal nodes that stayed childless would count as leaves: give
    # each a leaf child by restealing, or drop it by rerooting leaves
    child_count = {u: 0 for u in internals}
    for v, p in parents.items():
        if v != root and p in child_count:
            child_count[p] += 1
    for u in internals:
        if child_count[u] == 0 and u != root:
            # steal a random leaf so this internal node is not itself a leaf
            leaf = rng.randint(1, n_leaves)
            old = parents[leaf]
            if old in child_count:
                child_count[old] -= 1
            parents[leaf] = u
            depths[leaf] = depths[u] + 1
            child_count[u] += 1
    if child_count[root] == 0:
        parents[1] = root
        depths[1] = 1
    cols = {v: rng.randint(1, tree_colors) for v in parents}
    tree = RootedColoredTree.build(parents, cols, c=tree_colors)
    if tree.leaves != frozenset(range(1, n_leaves + 1)):
        # a rare degenerate shape: fall back to a flat star model
        parents = {root: 0}
        parents.update({leaf: root for leaf in range(1, n_leaves + 1)})
        cols = {v: rng.randint(1, tree_colors) for v in parents}
        tree = RootedColoredTree.build(parents, cols, c=tree_colors)

    rules: dict[tuple[int, int, int], bool] = {}
    edges = []
    for u in range(1, n_leaves + 1):
        for v in range(u + 1, n_leaves + 1):
            key = (
                min(tree.color_of(u), tree.color_of(v)),
                max(tree.color_of(u), tree.color_of(v)),
                tree.distance(u, v),
            )
            if key not in rules:
                rules[key] = rng.random() < 0.5
            if rules[key]:
                edges.append((u, v))
    g = ColoredGraph.build(
        n_leaves,
        edges,
        [rng.randint(1, graph_colors) for _ in range(n_leaves)],
        c=graph_colors,
    )
    tm = TreeModel.build(tree, [(c1, c2, d, e) for (c1, c2, d), e in rules.items()])
    return g, tm
