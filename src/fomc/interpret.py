"""One-dimensional interpretations, backwards translation, and the
decomposition-based model-checking pipelines.

An interpretation is a domain formula (one free variable ``x1``) and an
edge formula (free variables ``x1``, ``x2``) that must realize a
symmetric irreflexive relation on every host graph it is applied to.
``backwards_translate`` rewrites a sentence about the interpreted graph
into one about the host: quantifiers are relativized to the domain and
adjacency atoms are replaced by the edge formula, with the edge
formula's auxiliary variables renamed into a reserved pool so the
variable count grows by at most the scheme's auxiliary count
``variable_overhead``, which is read off its formulas, not declared.

Color atoms translate through an optional per-color formula table; the
identity is assumed when the table is absent. The interpretations that
recover a graph from its tree encodings need this, because those hosts
carry composite colors.

Pipelines:

* ``mc_tree``: the tree is its own host, read as a graph.
* ``mc_treedepth``: find an elimination forest of height at most k and
  encode it as a colored tree whose colors carry (depth, original
  color, adjacency bits toward ancestors). The bits come from the
  per-edge climb that validates the forest.
* ``mc_treemodel``: recolor the model tree by (graph color, 0 for an
  inner vertex; model color; depth).

All three reduce the host tree at the sentence's own budget s and
evaluate the sentence on the graph's induced subgraph on the kept graph
vertices; ``_decide_on_kernel`` gives the s-pebble argument. No
sentence is translated on this path; translating through the schemes
above and evaluating on the kernel is the test suite's referee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .evaluator import evaluate_free
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
    Var,
    canonical_false,
    conjunction,
    disjunction,
    fold,
    rebuild,
    rename_variables,
    require_sentence,
    variables,
)
from .graphs import ColoredGraph, _require_integer, _require_palette
from .kernel import reduce_tree
from .trees import (
    EliminationForest,
    RootedColoredTree,
    TreeModel,
    _edge_ancestry,
    _forest,
    restrict_tree,
    validate_tree_model,
)

X1, X2, X3 = Var(1), Var(2), Var(3)


class _Definition(NamedTuple):
    """A defining formula, its parameters and its auxiliaries, sorted by index."""

    formula: Formula
    params: tuple[Var, ...]
    aux: tuple[Var, ...]


@dataclass(frozen=True)
class InterpretationScheme:
    """A pair of defining formulas, plus optional color formulas.

    ``color_formulas`` optionally gives an original color its one formula
    over the host, with x1 free; colors without an entry translate to
    false, and an absent table means colors pass through unchanged.
    """

    domain_formula: Formula
    edge_formula: Formula
    color_formulas: tuple[tuple[int, Formula], ...] | None = None

    def __post_init__(self) -> None:
        self._definitions  # refuses a stray free variable or a repeated color

    @cached_property
    def _definitions(self) -> tuple[_Definition, ...]:
        """The domain, edge and color formulas, in order, each read by one ``variables`` walk."""
        parts = [("domain formula", self.domain_formula, (X1,))]
        parts += [("edge formula", self.edge_formula, (X1, X2))]
        parts += [(f"formula for color {c}", f, (X1,)) for c, f in self.color_formulas or ()]
        definitions: dict[str, _Definition] = {}
        for name, f, params in parts:
            if name in definitions:
                raise ValueError(f"the {name} is given twice")
            free, occurring = variables(f)
            if not free <= set(params):
                raise ValueError(f"the {name} may only have {', '.join(map(str, params))} free")
            aux = tuple(sorted(occurring.difference(params)))
            definitions[name] = _Definition(f, params, aux)
        return tuple(definitions.values())

    @cached_property
    def variable_overhead(self) -> int:
        """Extra variables a translation needs: the most auxiliaries one defining formula has."""
        return max(len(d.aux) for d in self._definitions)


def identity_interpretation() -> InterpretationScheme:
    return InterpretationScheme(
        domain_formula=Eq(X1, X1),
        edge_formula=Adj(X1, X2),
    )


def complement_interpretation() -> InterpretationScheme:
    return InterpretationScheme(
        domain_formula=Eq(X1, X1),
        edge_formula=And((Not(Adj(X1, X2)), Not(Eq(X1, X2)))),
    )


def apply_interpretation(
    scheme: InterpretationScheme, g: ColoredGraph
) -> ColoredGraph:
    """The graph the scheme defines inside ``g``.

    The realized edge relation is checked to be symmetric and
    irreflexive on ``g``; the first violation in vertex order is a hard
    error. Domain vertices are relabeled to 1..m in ascending order.
    Without color formulas they keep the host's colors; with them (one
    per color) each domain vertex must satisfy exactly one, its color.
    """
    def table(d: _Definition) -> np.ndarray:
        """The evaluator's table of ``d``, one axis per parameter."""
        return evaluate_free(g, And((d.formula, *(Eq(v, v) for v in d.params)))).cells

    domain_def, edge_def, *color_defs = scheme._definitions
    domain = np.flatnonzero(table(domain_def))
    if not domain.size:
        raise ValueError("the interpretation has an empty domain on this graph")
    related = table(edge_def)
    bad = np.argwhere(related & (~related.T | np.eye(g.n, dtype=bool)))
    if len(bad):
        u, v = bad[0] + 1
        if u == v:
            raise ValueError(f"edge formula is reflexive at vertex {u}")
        raise ValueError(f"edge formula is asymmetric on ({u},{v})")
    lo, hi = np.nonzero(np.triu(related[np.ix_(domain, domain)], 1))  # sorted by (lo, hi)
    if scheme.color_formulas is None:
        colors = np.asarray(g.colors)[domain].tolist()
        palette = g.c
    else:
        keys = list(dict(scheme.color_formulas))
        holds = np.array([table(d)[domain] for d in color_defs], bool).reshape(-1, domain.size)
        counts = holds.sum(axis=0)
        wrong = np.flatnonzero(counts != 1)
        if wrong.size:
            raise ValueError(
                f"vertex {domain[wrong[0]] + 1} satisfies {counts[wrong[0]]} color "
                "formulas; the interpreted coloring must be unambiguous"
            )
        colors = np.take(keys, holds.argmax(axis=0)).tolist()
        palette = max(keys)
    colors = tuple(colors)
    palette = _require_palette(colors, palette)
    return ColoredGraph._of_arrays(colors, palette, lo + 1, hi + 1)


def backwards_translate(
    sentence: Formula, scheme: InterpretationScheme
) -> Formula:
    """A sentence that holds on a host graph exactly when the original
    sentence holds on the interpreted graph.

    Quantifiers are relativized to the domain formula and adjacency
    atoms are replaced by instances of the edge formula. Auxiliary
    variables of the scheme's formulas are renamed into a fresh pool
    just past the sentence's largest variable index; each formula's
    auxiliaries start the pool afresh, so the variable count grows by at
    most the scheme's ``variable_overhead``, its auxiliary count. An
    adjacency atom on a repeated variable is replaced by falsehood,
    which matches the edge relation being irreflexive.
    """
    free, occurring = variables(sentence)
    if free:
        require_sentence(sentence)
    base = max(v.index for v in occurring)

    def instance(d: _Definition) -> Callable[..., Formula]:
        """``d`` with its auxiliaries in the pool, at the given parameters."""
        pool = {v: Var(base + i) for i, v in enumerate(d.aux, start=1)}
        return lambda *args: rename_variables(d.formula, {**pool, **dict(zip(d.params, args))})

    domain, edge, *color_instances = map(instance, scheme._definitions)
    colors = dict(zip(dict(scheme.color_formulas or ()), color_instances))

    def leave(f: Formula, parts: Sequence[Formula], _env: None) -> Formula:
        match f:
            case Adj(u, v):
                if u == v:
                    return canonical_false(u)
                return edge(u, v)
            case HasColor(color, v) if scheme.color_formulas is not None:
                if color not in colors:
                    return canonical_false(v)
                return colors[color](v)
            case Exists(var):
                return Exists(var, And((domain(var), parts[0])))
            case Forall(var):
                return Forall(var, Implies(domain(var), parts[0]))
        return rebuild(f, parts)

    return fold(sentence, leave)


# ---------------------------------------------------------------------------
# Elimination-forest encoding
#
# A graph with a valid elimination forest of height k is re-encoded as a
# rooted tree over the same vertices (plus a spare root when the forest
# has several roots). The tree color of a graph vertex packs
#
#     (its depth d in the forest, counted in vertices from 1,
#      its original color,
#      one adjacency bit per proper ancestor, indexed by ancestor depth)
#
# into the palette laid out as: color 1 is reserved for the spare root;
# the block for depth d starts at offset c*(2^(d-1)-1) and enumerates
# original colors outer, bit patterns inner (bit j-1 stands for "adjacent
# to my ancestor at depth j"). The palette has 1 + c*(2^k - 1) colors.
# Since a valid forest routes every edge through an ancestor pair, the
# encoded tree determines the graph exactly, and the matching
# interpretation recovers it.


def _encoded_color(d: int, orig: int, bits: int, c: int) -> int:
    return 2 + c * (2 ** (d - 1) - 1) + (orig - 1) * 2 ** (d - 1) + bits


def _encoded_palette_size(k: int, c: int) -> int:
    return 1 + c * (2**k - 1)


def _encoded_colors(depths: Iterable[int], origs: Iterable[int], c: int, bit: int = 0) -> list[int]:
    """The encoded colors of the given depths and original colors; with
    ``bit`` j > 0, only those adjacent to their ancestor at depth j."""
    return [
        _encoded_color(d, orig, bits, c)
        for d in depths
        for orig in origs
        for bits in range(2 ** (d - 1))
        if not bit or bits >> (bit - 1) & 1
    ]


def _color_set_atom(v: Var, colors: list[int]) -> Formula:
    if not colors:
        return canonical_false(v)
    return disjunction(HasColor(col, v) for col in sorted(colors))


def encode_elimination_forest(
    g: ColoredGraph, ef: EliminationForest
) -> RootedColoredTree:
    """Colored-tree encoding of ``g`` along a valid elimination forest.

    Vertex ids are preserved; a spare root (id n+1, color 1) is added
    when the forest is not a tree. The per-edge climb of
    ``validate_elimination_forest`` checks the forest and sets each edge's
    deeper-end bit for the depth of its other end, in one walk: about
    7 ms for a 10,000-vertex depth-3 tree read as a graph (2 cores).
    """
    bits = [0] * g.n
    for hit in _edge_ancestry(g, ef):
        if hit is None:
            raise ValueError("not a valid elimination forest for this graph")
        v, d = hit
        bits[v - 1] |= 1 << (d - 1)
    colors = tuple(map(_encoded_color, ef.node_depths, g.colors, bits, repeat(g.c)))
    parents = ef.parents
    if parents.count(0) > 1:
        spare = g.n + 1
        parents = (*(p or spare for p in parents), 0)
        colors += (1,)
    return RootedColoredTree(parents, colors, _encoded_palette_size(ef.height, g.c))


def depth_edge_interpretation(k: int, colors: int = 1) -> InterpretationScheme:
    """The interpretation that recovers a graph from its encoded
    elimination forest of height at most ``k`` over ``colors`` original
    colors.

    Two vertices are adjacent exactly when one is an ancestor of the
    other in the encoded tree and the descendant's adjacency bit for the
    ancestor's depth is set. Ancestry at a fixed distance is spelled as
    a chain of tree edges whose depth annotations decrease by one per
    step, reusing the two auxiliary variables x3 and x4.

    No pipeline's argument needs it; it is the test suite's referee, and
    stays here with its helpers because the benchmark's tracer
    (``perfbench/spans.py``) resolves it by name.
    """
    if k < 1 or colors < 1:
        raise ValueError("need k >= 1 and colors >= 1")
    c, origs = colors, range(1, colors + 1)

    def chain(desc: Var, d: int, j: int, anc: Var) -> Formula:
        """``desc`` at depth d reaches ``anc`` at depth j < d by tree edges,
        through one existential per depth in between, named x3, x4, x3, ..."""
        hops = [desc, *((X3, Var(4))[i % 2] for i in range(d - 1 - j))]  # hops[i] at depth d-i
        f = Adj(hops[-1], anc)
        for i in range(len(hops) - 1, 0, -1):
            at_depth = _color_set_atom(hops[i], _encoded_colors((d - i,), origs, c))
            f = Exists(hops[i], And((Adj(hops[i - 1], hops[i]), at_depth, f)))
        return f

    def directed(desc: Var, anc: Var) -> list[Formula]:
        return [
            conjunction(
                (
                    _color_set_atom(desc, _encoded_colors((d,), origs, c, bit=j)),
                    _color_set_atom(anc, _encoded_colors((j,), origs, c)),
                    chain(desc, d, j, anc),
                )
            )
            for d in range(2, k + 1)
            for j in range(1, d)
        ]

    terms = directed(X1, X2) + directed(X2, X1)
    edge = disjunction(terms) if terms else canonical_false(X1)
    color_formulas = tuple(
        (orig, _color_set_atom(X1, _encoded_colors(range(1, k + 1), (orig,), c)))
        for orig in origs
    )
    return InterpretationScheme(
        domain_formula=Not(HasColor(1, X1)),
        edge_formula=edge,
        color_formulas=color_formulas,
    )


def _require_budget(sentence: Formula, s: int) -> None:
    """Refuse a budget that is not an integer, an open sentence, then one
    with more than ``s`` variables, from one walk."""
    _require_integer("variable budget", s)
    free, occurring = variables(sentence)
    if free:
        require_sentence(sentence)
    if len(occurring) > s:
        raise ValueError(f"sentence uses {len(occurring)} variables, budget is {s}")


def _decide_on_kernel(
    g: ColoredGraph, host: RootedColoredTree, sentence: Formula, s: int
) -> bool:
    """Evaluate the sentence, of at most ``s`` variables, on g's induced
    subgraph on the graph vertices that ``host``'s kernel at budget s keeps.

    ``host`` holds graph vertex v as host vertex v and its other
    vertices above g.n, coloured apart from the graph vertices, and the
    adjacency of two graph vertices depends only on their host colours
    and depths and the depth of their lowest common ancestor: the tree
    is its own host; the encoded forest's colours hold the adjacency
    bits toward the ancestors, and every edge joins an ancestor to a
    descendant; the model tree's colours hold the model colours, which
    with the distance decide the model's rules.

    Then the core agrees with g on every sentence of s variables. In the
    s-pebble game the duplicator keeps an injective map f from the
    ancestor closure of the pebbled vertices on one side to the other,
    root to root and parent to parent, that keeps each vertex's class:
    the isomorphism type of its kept subtree, which a kept vertex keeps
    in the core. So f keeps colours, depths and lowest common ancestors,
    and is a partial isomorphism on the pebbled graph vertices. When a
    pebble goes to x, let a be x's deepest ancestor in the closure of
    the other s - 1 pebbles and b its child toward x. Equal classes give
    a and f(a) the same number k = min(m, s) of kept children of b's
    class, m being the count in g, and at most k - 1 of them lie in the
    closure, one per other pebble and none of them b; so one is free to
    match b.
    Below it nothing is pebbled and classes agree, so each step down to
    x finds a child of the class it needs. Sibling subtrees of one class
    are thus interchangeable over their common ancestors, and s copies
    suffice. ``holds`` still refuses a result with free variables.
    """
    kept = reduce_tree(host, s).kept
    core = g.induced_subgraph(v for v in kept if v <= g.n)
    return evaluate_free(core, sentence).holds


def mc_tree(t: RootedColoredTree, sentence: Formula, s: int) -> bool:
    """Decide the sentence on a colored tree by evaluating on its
    reduced core: the tree is its own host in ``_decide_on_kernel``'s
    argument, and the core, the tree's graph on the kept set, is the
    kernel tree (``restrict_tree``'s one checked cut) read as a graph.
    Requires the sentence to use at most ``s`` variables."""
    _require_budget(sentence, s)
    core = restrict_tree(t, reduce_tree(t, s).kept).to_graph()
    return evaluate_free(core, sentence).holds


def mc_treedepth(g: ColoredGraph, sentence: Formula, k: int, s: int) -> bool:
    """Decide the sentence on a graph of tree-depth at most ``k`` on the
    kernel of an encoded elimination forest of height at most k.

    Any such forest makes the kernel exact; the height changes only the
    kernel's size. So the route takes the first forest the search
    ``trees._forest`` fits within k: its first descent roots each piece at
    the middle of its double-sweep path, and it backtracks only where that
    fails. When the double-sweep path of a component of g has at least
    2^k vertices, the graph is refused at once and the message lists that
    path in order; a graph the search finds taller than k is refused
    without one. The search shares ``compute_elimination_forest``'s work
    cap."""
    _require_budget(sentence, s)
    ef = _forest(g, k, shallowest=False)
    if ef is None:
        raise ValueError(f"the graph has tree-depth larger than {k}")
    if type(ef) is list:
        raise ValueError(
            f"the graph has tree-depth larger than {k}: it has a path of "
            f"{len(ef)} vertices: {' '.join(map(str, ef))}"
        )
    host = encode_elimination_forest(g, ef)
    return _decide_on_kernel(g, host, sentence, s)


# ---------------------------------------------------------------------------
# Tree-model encoding
#
# The host is the model tree recolored with composite colors
# (graph color of a leaf or 0 for an inner vertex, model color, depth);
# the palette enumerates the realized composites in sorted order. The leaves
# are the graph vertices, and the adjacency of two leaves follows from
# their model colors and their distance, which depth and ancestry
# determine.


def _tree_model_host(g: ColoredGraph, tm: TreeModel) -> RootedColoredTree:
    """The model tree recolored by composite rank; its leaves must be
    exactly 1..n, as ``validate_tree_model`` checks."""
    t = tm.tree
    graph_colors = g.colors + (0,) * (t.n - g.n)
    composites = list(zip(graph_colors, t.colors, t.depths))
    palette = sorted(set(composites))
    code = {comp: i for i, comp in enumerate(palette, start=1)}
    return RootedColoredTree(t.parents, tuple(map(code.__getitem__, composites)), len(palette))


def mc_treemodel(
    g: ColoredGraph, tm: TreeModel, sentence: Formula, s: int
) -> bool:
    """Decide the sentence on a graph given a valid tree-model for it,
    on the kernel of the recolored model tree."""
    _require_budget(sentence, s)
    if not validate_tree_model(g, tm):
        raise ValueError("the tree-model does not reproduce the graph")
    host = _tree_model_host(g, tm)
    return _decide_on_kernel(g, host, sentence, s)
