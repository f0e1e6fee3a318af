"""Seeded inputs for the benchmark, built without any code from ``fomc``.

Formulas are nested tuples and graphs are plain edge lists, so a change to
the program cannot change the workload. The program only ever sees the
text of a formula (``render``) and the vertex count, edge list and colours
of a graph or tree.

Formula tuples:

    ("adj", i, j)  ("eq", i, j)  ("col", c, i)      atoms over variables x_i
    ("not", f)  ("and", (f, g, ...))  ("or", (f, g, ...))  ("imp", f, g)
    ("ex", i, f)  ("all", i, f)
"""

from __future__ import annotations

import random

ATOMS = ("adj", "eq", "col")


# ---------------------------------------------------------------------------
# Formulas


def render(f) -> str:
    """Fully parenthesised text in the program's formula syntax."""
    op = f[0]
    if op == "adj":
        return f"adj(x{f[1]},x{f[2]})"
    if op == "eq":
        return f"x{f[1]}=x{f[2]}"
    if op == "col":
        return f"C{f[1]}(x{f[2]})"
    if op == "not":
        return f"!({render(f[1])})"
    if op in ("and", "or"):
        sep = " & " if op == "and" else " | "
        return sep.join(f"({render(ch)})" for ch in f[1])
    if op == "imp":
        return f"({render(f[1])}) -> ({render(f[2])})"
    word = "exists" if op == "ex" else "forall"
    return f"{word} x{f[1]}. ({render(f[2])})"


def parts(f) -> tuple:
    """The immediate subformulas of ``f``."""
    op = f[0]
    if op in ATOMS:
        return ()
    if op in ("and", "or"):
        return f[1]
    return f[1:] if op in ("not", "imp") else f[2:]


def atom_vars(f) -> tuple[int, ...]:
    return f[2:] if f[0] == "col" else f[1:]


def rename(f, perm: dict[int, int]):
    """Rename every variable index through ``perm`` (a bijection)."""
    op = f[0]
    if op == "col":
        return (op, f[1], perm[f[2]])
    if op in ATOMS:
        return (op, perm[f[1]], perm[f[2]])
    if op in ("and", "or"):
        return (op, tuple(rename(ch, perm) for ch in f[1]))
    if op in ("not", "imp"):
        return (op, *(rename(ch, perm) for ch in f[1:]))
    return (op, perm[f[1]], rename(f[2], perm))


def free(f) -> frozenset[int]:
    if f[0] in ATOMS:
        return frozenset(atom_vars(f))
    inner = frozenset().union(*map(free, parts(f)))
    return inner - {f[1]} if f[0] in ("ex", "all") else inner


def names(f) -> frozenset[int]:
    """Every variable index that occurs, bound or free."""
    own = atom_vars(f) if f[0] in ATOMS else (f[1],) if f[0] in ("ex", "all") else ()
    return frozenset(own).union(*map(names, parts(f)))


def widest(f) -> int:
    """Most free variables of any subformula."""
    return max([len(free(f)), *map(widest, parts(f))])


def adjacencies(f) -> int:
    """Adjacency atoms over two distinct names."""
    return int(f[0] == "adj" and f[1] != f[2]) + sum(map(adjacencies, parts(f)))


def rank(f) -> int:
    return int(f[0] in ("ex", "all")) + max(map(rank, parts(f)), default=0)


def sentence(rng: random.Random, nvars: int, colors: int, max_rank: int, size: int):
    """A random sentence over x1..x_nvars with quantifier rank at most
    ``max_rank``. Quantified names are drawn with replacement, so names
    are reused and shadowed."""

    def atom(scope: list[int]):
        kind = rng.randrange(3)
        if kind == 2:
            return ("col", rng.randint(1, colors), rng.choice(scope))
        return (ATOMS[kind], rng.choice(scope), rng.choice(scope))

    def go(scope: list[int], rank_left: int, budget: int):
        if rank_left > 0 and (not scope or (budget > 1 and rng.random() < 0.45)):
            var = rng.randint(1, nvars)
            op = "ex" if rng.random() < 0.5 else "all"
            return (op, var, go(scope + [var], rank_left - 1, budget - 1))
        if budget <= 1:
            return atom(scope)
        kind = rng.randrange(5)
        if kind == 0:
            return ("not", go(scope, rank_left, budget - 1))
        if kind in (1, 2):
            width = 2 if budget < 6 else rng.choice((2, 2, 3))
            share = max(1, (budget - 1) // width)
            return (
                "and" if kind == 1 else "or",
                tuple(go(scope, rank_left, share) for _ in range(width)),
            )
        if kind == 3:
            half = max(1, (budget - 1) // 2)
            return ("imp", go(scope, rank_left, half), go(scope, rank_left, half))
        return atom(scope)

    return go([], max_rank, size)


# ---------------------------------------------------------------------------
# Graphs and trees
#
# A graph is (n, edges, colors): edges a sorted tuple of pairs u < v over
# 1..n, colors a tuple with colors[v-1] the colour of v. A rooted tree is
# (parents, colors) with parents[v-1] == 0 for the root.


def graph(rng: random.Random, n: int, colors: int, p: float):
    edges = tuple(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    )
    return n, edges, tuple(rng.randint(1, colors) for _ in range(n))


def path(n: int):
    return n, tuple((v, v + 1) for v in range(1, n)), (1,) * n


def star(leaves: int):
    return leaves + 1, tuple((1, v) for v in range(2, leaves + 2)), (1,) * (leaves + 1)


def tree(rng: random.Random, n: int, max_depth: int, colors: int):
    """A rooted tree grown by hanging each vertex below a random vertex
    of depth below ``max_depth``; the root is vertex 1."""
    parents, depth = [0], [0]
    for _ in range(1, n):
        p = rng.choice([u for u in range(1, len(parents) + 1) if depth[u - 1] < max_depth])
        parents.append(p)
        depth.append(depth[p - 1] + 1)
    return tuple(parents), tuple(rng.randint(1, colors) for _ in range(n))


def tree_edges(parents) -> tuple:
    return tuple(sorted((min(v, p), max(v, p)) for v, p in enumerate(parents, 1) if p))


def shallow_graph(rng: random.Random, n: int, height: int, p: float):
    """A graph with tree-depth at most ``height``: a random rooted forest
    of that height, with edges only between ancestors and descendants."""
    parents, depth = [], []
    for v in range(1, n + 1):
        options = [0] + [u for u in range(1, v) if depth[u - 1] < height]
        par = rng.choice(options)
        parents.append(par)
        depth.append(depth[par - 1] + 1 if par else 1)
    edges = set()
    for v in range(1, n + 1):
        u, first = parents[v - 1], True
        while u:
            if first or rng.random() < p:
                edges.add((min(u, v), max(u, v)))
            u, first = parents[u - 1], False
    return n, tuple(sorted(edges)), (1,) * n


def tree_model(rng: random.Random, leaves: int, tree_colors: int, graph_colors: int):
    """A depth-2 model tree over leaves 1..L plus the graph its rule
    defines. Internal vertices have ids above L and the root is L+1.

    Returns ((parents, tree colors), rules, graph) with rules a sorted
    tuple of (c1, c2, distance, edge) over the realised triples, c1 <= c2.
    """
    root = leaves + 1
    inner = rng.randint(0, max(1, leaves // 3))
    parents = [0] * (leaves + 1 + inner)
    for w in range(root + 1, root + 1 + inner):
        parents[w - 1] = root
    holders = [root] + list(range(root + 1, root + 1 + inner))
    for leaf in range(1, leaves + 1):
        # leaf i < inner goes below inner vertex i, so no inner vertex is a leaf
        parents[leaf - 1] = holders[leaf] if leaf <= inner else rng.choice(holders)
    colors = tuple(rng.randint(1, tree_colors) for _ in parents)

    def up(v):
        chain = [v]
        while parents[chain[-1] - 1]:
            chain.append(parents[chain[-1] - 1])
        return chain

    rules: dict[tuple[int, int, int], bool] = {}
    edges = []
    for u in range(1, leaves + 1):
        anc_u = {w: i for i, w in enumerate(up(u))}
        for v in range(u + 1, leaves + 1):
            d = next(anc_u[w] + j for j, w in enumerate(up(v)) if w in anc_u)
            cu, cv = colors[u - 1], colors[v - 1]
            key = (min(cu, cv), max(cu, cv), d)
            if key not in rules:
                rules[key] = rng.random() < 0.5
            if rules[key]:
                edges.append((u, v))
    g = (leaves, tuple(edges), tuple(rng.randint(1, graph_colors) for _ in range(leaves)))
    rule_list = tuple(sorted((c1, c2, d, e) for (c1, c2, d), e in rules.items()))
    return (tuple(parents), colors), rule_list, g


# ---------------------------------------------------------------------------
# Isomorphic copies


def permutation(rng: random.Random, n: int, fixed: int = 0) -> list[int]:
    """perm[v-1] is the new label of v; labels above ``fixed`` are
    shuffled among themselves when ``fixed`` is set, so leaf ids
    1..fixed of a tree-model stay leaves."""
    if fixed:
        low = list(range(1, fixed + 1))
        high = list(range(fixed + 1, n + 1))
        rng.shuffle(low)
        rng.shuffle(high)
        return low + high
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def relabel_graph(g, perm):
    n, edges, colors = g
    new_edges = tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges))
    new_colors = [0] * n
    for v in range(1, n + 1):
        new_colors[perm[v - 1] - 1] = colors[v - 1]
    return n, new_edges, tuple(new_colors)


def relabel_tree(t, perm):
    parents, colors = t
    new_parents = [0] * len(parents)
    new_colors = [0] * len(parents)
    for v, p in enumerate(parents, 1):
        new_parents[perm[v - 1] - 1] = perm[p - 1] if p else 0
        new_colors[perm[v - 1] - 1] = colors[v - 1]
    return tuple(new_parents), tuple(new_colors)


def variable_shuffle(rng: random.Random, f, pool: int = 3):
    """``f`` with its variable names sent one-to-one, at random, to names
    among x1..x_pool (or among its own names, if it has more)."""
    idx = sorted(names(f))
    targets = rng.sample(range(1, max(pool, idx[-1]) + 1), len(idx))
    return rename(f, dict(zip(idx, targets)))
