"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each traced function of ``fomc`` by a wrapper
in every module that binds it, so calls between modules pass through the
wrapper; ``uninstall`` puts the originals back. A wrapper times its call,
subtracts the time of the spans it caused (its children) to get its self
time, and adds the work counts the call reveals. The time a wrapper spends
on its own counting is kept apart as ``bookkeeping_s`` and is charged to
no layer, so for every traced check

    check time = sum of layer self times + bookkeeping_s + outside_s

where ``outside_s`` is what ran in no traced function: the benchmark's
own loop and the pipeline glue of ``mc_tree``, ``mc_treedepth`` and
``mc_treemodel``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

clock = time.perf_counter

# (module, function, span name). Walks are wrapped only where other
# modules bind them, so their own recursion is one span; the rest are also
# wrapped in their defining module, where the benchmark and the module's
# own entry points call them.
WALKS = (
    "free_vars", "all_vars", "variable_count", "rename_variables",
    "substitute_edge_atoms", "require_sentence", "formula_length",
    "quantifier_rank",
)
TARGETS = (
    [("formulas", name, "walk") for name in WALKS]
    + [
        ("formulas", "parse_formula", "parse"),
        ("evaluator", "model_check", "eval"),
        ("evaluator", "evaluate_free", "eval"),
        ("evaluator", "evaluate_free_with_stats", "eval"),
        ("interpret", "backwards_translate", "translate"),
        ("interpret", "encode_elimination_forest", "host"),
        ("interpret", "depth_edge_interpretation", "host"),
        ("interpret", "_tree_model_host", "host"),
        ("hardness", "reduce_to_path", "reduce"),
        ("kernel", "reduce_tree", "kernel"),
        ("kernel", "verify_kernel", "kernel"),
        ("pebble", "fo_s_equivalent", "pebble"),
        ("pebble", "spoiler_distance", "pebble"),
        ("pebble", "type_census", "pebble"),
        ("pebble", "_run_game", "pebble"),
        ("trees", "compute_elimination_forest", "forest"),
        ("trees", "validate_elimination_forest", "validate"),
        ("trees", "validate_tree_model", "validate"),
    ]
)

#: Span name -> the per-layer metric that reports its self time.
SELF_METRIC = {
    "parse": "formulas.parse_s",
    "walk": "formulas.walk_s",
    "eval": "evaluator.self_s",
    "translate": "interpret.translate_s",
    "host": "interpret.host_s",
    "reduce": "hardness.reduce_s",
    "kernel": "kernel.self_s",
    "pebble": "pebble.self_s",
    "forest": "trees.forest_s",
    "validate": "trees.validate_s",
}


def formula_size(f) -> tuple[int, int]:
    """(node count, distinct variable names) of a program formula, walked
    without recursion and without the program's own helpers."""
    nodes, names, stack = 0, set(), [f]
    while stack:
        node = stack.pop()
        nodes += 1
        for field in ("u", "v", "var"):
            var = getattr(node, field, None)
            if var is not None:
                names.add(var.index)
        for field in ("child", "lhs", "rhs", "body"):
            sub = getattr(node, field, None)
            if sub is not None:
                stack.append(sub)
        stack.extend(getattr(node, "children", ()))
    return nodes, len(names)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self._child = [0.0]  # time covered by child spans, per open span
        self._open: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, fc) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fomc"]
        for mod_name, func, span in TARGETS:
            home = getattr(fc, mod_name)
            orig = getattr(home, func)
            wrapped = self._wrap(orig, span)
            for mod in modules:
                if mod is home and span == "walk":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- spans ----------------------------------------------------------------

    def begin_check(self) -> None:
        self._child = [0.0]

    def covered(self) -> float:
        """Time covered by top-level spans since ``begin_check``."""
        return self._child[0]

    def _wrap(self, fn, span: str):
        count = getattr(self, "_count_" + span, None)

        def wrapper(*args, **kwargs):
            outer = self._open[-1] if self._open else None
            self._open.append(span)
            self._child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = self._child.pop()
                self._open.pop()
            self.self_s[span] += (t1 - t0) - child
            self.counts[span + ".calls"] += 1
            if count is not None:
                count(outer, args, result)
            t2 = clock()
            self.bookkeeping_s += t2 - t1
            self._child[-1] += t2 - t0
            return result

        return wrapper

    # -- work counts, from arguments and results ------------------------------

    def _count_parse(self, outer, args, result) -> None:
        self.counts["parse.nodes"] += formula_size(result)[0]

    def _count_eval(self, outer, args, result) -> None:
        if isinstance(result, tuple):  # evaluate_free_with_stats
            self.counts["eval.tuples"] += result[1].tuples_touched
        if outer == "eval":
            return
        g, f = args[0], args[1]
        nodes, names = formula_size(f)
        self.counts["eval.outer_calls"] += 1
        self.counts["eval.nodes"] += nodes
        self.counts["eval.bound"] += nodes * g.n**names

    def _count_translate(self, outer, args, result) -> None:
        self.counts["translate.nodes_in"] += formula_size(args[0])[0]
        nodes, names = formula_size(result)
        self.counts["translate.nodes_out"] += nodes
        self.counts["translate.vars_out"] = max(self.counts["translate.vars_out"], names)

    def _count_reduce(self, outer, args, result) -> None:
        nodes, names = formula_size(result.sentence)
        self.counts["reduce.nodes_out"] += nodes
        self.counts["reduce.vars_out"] = max(self.counts["reduce.vars_out"], names)

    def _count_kernel(self, outer, args, result) -> None:
        if hasattr(result, "kept"):  # reduce_tree
            self.counts["kernel.vertices_in"] += args[0].n
            self.counts["kernel.vertices_kept"] += len(result.kept)

    def _count_pebble(self, outer, args, result) -> None:
        if isinstance(result, tuple):  # _run_game: (alive, death round)
            a, b, s = args[0], args[1], args[2]
            self.counts["pebble.games"] += 1
            self.counts["pebble.positions"] += ((a.n + 1) * (b.n + 1)) ** s
            if not result[0]:
                self.counts["pebble.death_rounds"] += result[1]

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c = self.counts
        out = {metric: self.self_s[span] for span, metric in SELF_METRIC.items()}
        out.update({
            "formulas.parse_nodes": c["parse.nodes"],
            "formulas.walk_calls": c["walk.calls"],
            "evaluator.calls": c["eval.outer_calls"],
            "evaluator.tuples": c["eval.tuples"],
            "evaluator.tuple_bound": c["eval.bound"],
            "evaluator.bound_use": c["eval.tuples"] / c["eval.bound"] if c["eval.bound"] else 0.0,
            "evaluator.formula_nodes": c["eval.nodes"],
            "interpret.nodes_in": c["translate.nodes_in"],
            "interpret.nodes_out": c["translate.nodes_out"],
            "interpret.vars_out": c["translate.vars_out"],
            "hardness.nodes_out": c["reduce.nodes_out"],
            "hardness.vars_out": c["reduce.vars_out"],
            "kernel.vertices_in": c["kernel.vertices_in"],
            "kernel.vertices_kept": c["kernel.vertices_kept"],
            "pebble.calls": c["pebble.games"],
            "pebble.positions": c["pebble.positions"],
            "pebble.death_rounds": c["pebble.death_rounds"],
            "trees.forest_calls": c["forest.calls"],
        })
        return out
