"""Answers computed apart from the program, to check its outputs.

``holds`` expands quantifiers directly over the formula tuples of
``gen``, remembering each quantified subformula's value per assignment of
its free variables, so it costs at most |f| * n^s like the program's
evaluator but shares none of its code or its bottom-up table algorithm.
"""

from __future__ import annotations

import math

from gen import free


def holds(g, f) -> bool:
    """Whether the graph (n, edges, colors) satisfies the sentence ``f``."""
    n, edges, colors = g
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    frees: dict[int, tuple[int, ...]] = {}
    memo: dict[tuple, bool] = {}
    universe = range(1, n + 1)

    def sat(node, env: dict[int, int]) -> bool:
        op = node[0]
        if op == "adj":
            return env[node[2]] in adj[env[node[1]]]
        if op == "eq":
            return env[node[1]] == env[node[2]]
        if op == "col":
            return colors[env[node[2]] - 1] == node[1]
        if op == "not":
            return not sat(node[1], env)
        if op == "and":
            return all(sat(ch, env) for ch in node[1])
        if op == "or":
            return any(sat(ch, env) for ch in node[1])
        if op == "imp":
            return not sat(node[1], env) or sat(node[2], env)
        fv = frees.get(id(node))
        if fv is None:
            fv = frees[id(node)] = tuple(sorted(free(node)))
        key = (id(node), *(env[i] for i in fv))
        hit = memo.get(key)
        if hit is None:
            var, body = node[1], node[2]
            found = (sat(body, {**env, var: a}) for a in universe)
            hit = memo[key] = any(found) if op == "ex" else all(found)
        return hit

    return sat(f, {})


def path_tree_depth(n: int) -> int:
    return math.ceil(math.log2(n + 1))


def forest_fits(g, parents, height: int) -> bool:
    """Whether ``parents`` (0 for roots) is an elimination forest of the
    graph of at most ``height`` levels: acyclic, and every edge joins an
    ancestor and a descendant."""
    n, edges, _ = g
    anc = []
    for v in range(1, n + 1):
        chain, u = set(), parents[v - 1]
        while u:
            if u in chain or u == v or len(chain) >= n:
                return False
            chain.add(u)
            u = parents[u - 1]
        if len(chain) + 1 > height:
            return False
        anc.append(chain)
    return all(u in anc[v - 1] or v in anc[u - 1] for u, v in edges)


def kernel_size(parents, colors, s: int) -> int:
    """Vertices kept when every vertex keeps at most ``s`` children per
    isomorphism class of reduced child subtree. Classes are numbered
    bottom-up (Aho-Hopcroft-Ullman), with no recursion."""
    n = len(parents)
    kids = [[] for _ in range(n + 1)]
    root = 0
    for v, p in enumerate(parents, 1):
        if p:
            kids[p].append(v)
        else:
            root = v
    order = [root]
    for v in order:
        order.extend(kids[v])
    ids: dict[tuple, int] = {}
    cls = [0] * (n + 1)
    size = [0] * (n + 1)
    for v in reversed(order):
        taken: dict[int, int] = {}
        kept_kids, total = [], 1
        for w in kids[v]:
            if taken.get(cls[w], 0) < s:
                taken[cls[w]] = taken.get(cls[w], 0) + 1
                kept_kids.append(cls[w])
                total += size[w]
        cls[v] = ids.setdefault((colors[v - 1], tuple(sorted(kept_kids))), len(ids))
        size[v] = total
    return size[root]
