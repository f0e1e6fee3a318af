"""A cost model of naive relational evaluation, used to pick a fixed mix of
light and heavy ``eval-scale`` checks for every seed.

The relational method builds, for each subformula, the table of its
satisfying assignments over its free variables. Its time is close to a
weighted sum of the tuples it handles in each kind of step. ``work``
counts those tuples from the true table sizes, which it computes with
dense boolean arrays over all three variables; ``WEIGHTS`` are seconds
per tuple, fitted once by least squares to ``model_check`` on 240 random
checks at 16 and 24 vertices (correlation 0.96). They are constants of the
benchmark: a later change to the program does not change which inputs are
picked.
"""

from __future__ import annotations

import numpy as np

from gen import free

WEIGHTS = {"complement": 0.2e-6, "widen": 2.7e-6, "join": 1.7e-6, "store": 0.2e-6, "union": 0.15e-6}


def work(g, f) -> dict[str, int]:
    """Tuples handled per kind of step when evaluating the sentence ``f``
    (over x1..x3) bottom-up on the graph (n, edges, colors)."""
    n, edges, colors = g
    adj = np.zeros((n, n), bool)
    for u, v in edges:
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = True
    color = np.asarray(colors)
    cube = (n, n, n)
    count = dict.fromkeys(WEIGHTS, 0)

    def place(rel, i, j):
        shape = [1, 1, 1]
        if i == j:
            shape[i - 1] = n
            return np.broadcast_to(np.diag(rel).reshape(shape), cube)
        shape[i - 1] = shape[j - 1] = n
        return np.broadcast_to((rel.T if i > j else rel).reshape(shape), cube)

    def size(arr, k):
        return int(arr.sum()) // n ** (3 - k)

    def go(node):
        op = node[0]
        k = len(free(node))
        if op == "adj":
            arr = place(adj, node[1], node[2])
        elif op == "eq":
            arr = place(np.eye(n, dtype=bool), node[1], node[2])
        elif op == "col":
            shape = [1, 1, 1]
            shape[node[2] - 1] = n
            arr = np.broadcast_to((color == node[1]).reshape(shape), cube)
        elif op == "not":
            arr = ~go(node[1])
            count["complement"] += n**k
        elif op == "and":
            arr, names = go(node[1][0]), free(node[1][0])
            count["join"] += size(arr, len(names))
            for ch in node[1][1:]:
                sub = go(ch)
                names |= free(ch)
                arr = arr & sub
                count["join"] += size(sub, len(free(ch))) + size(arr, len(names))
        elif op in ("or", "imp"):
            arr = np.zeros(cube, bool)
            kids = node[1] if op == "or" else node[1:]
            for pos, ch in enumerate(kids):
                sub, kc = go(ch), len(free(ch))
                if op == "imp" and pos == 0:
                    sub = ~sub
                    count["complement"] += n**kc
                wide = size(sub, kc) * n ** (k - kc)
                count["union"] += wide
                if kc < k:
                    count["widen"] += wide
                arr = arr | sub
        else:
            sub = go(node[2])
            axis = node[1] - 1
            arr = sub.any(axis=axis, keepdims=True) if op == "ex" else sub.all(axis=axis, keepdims=True)
            arr = np.broadcast_to(arr, cube)
            count["store"] += size(sub, len(free(node[2])))
        count["store"] += size(arr, k)
        return arr

    go(f)
    return count


def predicted_s(g, f) -> float:
    return sum(WEIGHTS[k] * v for k, v in work(g, f).items())
