"""Seeded random graphs and sentences for ``fomc xvalidate --random``,
its only production caller. Everything is driven by an explicit
``random.Random`` so runs are reproducible from the seed. The test
suite draws from these too; its seeded trees and tree-models live in
``tests/oracles.py``."""

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
