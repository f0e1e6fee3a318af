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
  color, adjacency bits toward ancestors).
* ``mc_treemodel``: recolor the model tree by (leaf flag, graph color,
  model color, depth).

All three take one kernel route: reduce the host tree at budget
s + overhead (0 for ``mc_tree``; ``FOREST_OVERHEAD`` and
``TREE_MODEL_OVERHEAD``, the extra variables the matching interpretation
needs, for the other two) and evaluate the original s-variable sentence
on the graph's induced subgraph on the kept graph vertices. The kernel
is ancestor-closed and the interpretations read only depth, color and
ancestry, so interpreting the kernel gives exactly that subgraph; the
kernel agrees with the host on s + overhead variables, so the subgraph
agrees with the graph on s variables. For ``mc_tree`` the subgraph is
the kernel itself read as a graph. No sentence is translated on this
path; translating through the scheme and evaluating on the kernel is the
test suite's referee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
    all_vars,
    canonical_false,
    conjunction,
    disjunction,
    fold,
    free_vars,
    rebuild,
    rename_variables,
    require_sentence,
    variables,
)
from .graphs import ColoredGraph
from .kernel import reduce_tree
from .trees import (
    EliminationForest,
    RootedColoredTree,
    TreeModel,
    compute_elimination_forest,
    validate_elimination_forest,
    validate_tree_model,
)

X1, X2, X3 = Var(1), Var(2), Var(3)

#: Kernel budget beyond the sentence's variables in ``mc_treedepth``: no
#: less than ``depth_edge_interpretation``'s overhead at any height.
FOREST_OVERHEAD = 2
#: The same for ``mc_treemodel`` and the interpretation that recovers a
#: graph from its recolored tree-model.
TREE_MODEL_OVERHEAD = 3

#: A scheme formula and the renaming of its auxiliary variables.
Instance = tuple[Formula, dict[Var, Var]]


@dataclass(frozen=True)
class InterpretationScheme:
    """A pair of defining formulas, plus optional color formulas.

    ``color_formulas`` optionally maps an original color to a one-free-
    variable formula over the host; colors without an entry translate to
    false, and an absent table means colors pass through unchanged.
    """

    domain_formula: Formula
    edge_formula: Formula
    color_formulas: tuple[tuple[int, Formula], ...] | None = None

    def __post_init__(self) -> None:
        if not free_vars(self.domain_formula) <= {X1}:
            raise ValueError("the domain formula may only have x1 free")
        if not free_vars(self.edge_formula) <= {X1, X2}:
            raise ValueError("the edge formula may only have x1, x2 free")
        if self.color_formulas is not None:
            for color, f in self.color_formulas:
                if not free_vars(f) <= {X1}:
                    raise ValueError(
                        f"the formula for color {color} may only have x1 free"
                    )

    @cached_property
    def variable_overhead(self) -> int:
        """Variables a translation needs beyond the sentence's: the most
        that one defining formula uses besides x1 (besides x1 and x2 for
        the edge formula)."""
        pairs = [(self.domain_formula, {X1}), (self.edge_formula, {X1, X2})]
        pairs += [(f, {X1}) for _, f in self.color_formulas or ()]
        return max(len(all_vars(f) - params) for f, params in pairs)


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
    irreflexive on ``g``; violations are hard errors. Domain vertices
    are relabeled to 1..m in ascending order. Without color formulas
    they keep the host's colors; with color formulas each domain vertex
    must satisfy exactly one of them, which becomes its color.
    """
    dom_sat = evaluate_free(g, And((scheme.domain_formula, Eq(X1, X1))))
    domain = sorted(row[0] for row in dom_sat.rows)
    if not domain:
        raise ValueError("the interpretation has an empty domain on this graph")
    edge_sat = evaluate_free(
        g, And((scheme.edge_formula, Eq(X1, X1), Eq(X2, X2)))
    )
    related = {tuple(row) for row in edge_sat.rows}
    for u, v in related:
        if u == v:
            raise ValueError(f"edge formula is reflexive at vertex {u}")
        if (v, u) not in related:
            raise ValueError(f"edge formula is asymmetric on ({u},{v})")
    relabel = {old: new for new, old in enumerate(domain, start=1)}
    edges = {
        (relabel[u], relabel[v])
        for u, v in related
        if u < v and u in relabel and v in relabel
    }
    if scheme.color_formulas is None:
        colors = [g.color_of(v) for v in domain]
        palette = g.c
    else:
        holders: dict[int, set[int]] = {}
        for color, body in scheme.color_formulas:
            sat = evaluate_free(g, And((body, Eq(X1, X1))))
            holders[color] = {row[0] for row in sat.rows}
        colors = []
        for v in domain:
            matches = [color for color in sorted(holders) if v in holders[color]]
            if len(matches) != 1:
                raise ValueError(
                    f"vertex {v} satisfies {len(matches)} color formulas; "
                    "the interpreted coloring must be unambiguous"
                )
            colors.append(matches[0])
        palette = max(holders, default=1)
    return ColoredGraph.build(len(domain), edges, colors, c=palette)


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

    def with_pool(f: Formula, params: frozenset[Var]) -> Instance:
        """``f`` and its auxiliary variables, renamed into the pool."""
        aux = sorted(all_vars(f) - params)
        return f, {v: Var(base + i) for i, v in enumerate(aux, start=1)}

    one, two = frozenset((X1,)), frozenset((X1, X2))
    domain = with_pool(scheme.domain_formula, one)
    edge = with_pool(scheme.edge_formula, two)
    colors = None
    if scheme.color_formulas is not None:
        colors = {color: with_pool(f, one) for color, f in scheme.color_formulas}

    def instantiate(instance: Instance, params: dict[Var, Var]) -> Formula:
        f, aux = instance
        return rename_variables(f, {**aux, **params})

    def leave(f: Formula, parts: Sequence[Formula], _env: None) -> Formula:
        match f:
            case Adj(u, v):
                if u == v:
                    return canonical_false(u)
                return instantiate(edge, {X1: u, X2: v})
            case HasColor(color, v) if colors is not None:
                if color not in colors:
                    return canonical_false(v)
                return instantiate(colors[color], {X1: v})
            case Exists(var):
                return Exists(var, And((instantiate(domain, {X1: var}), parts[0])))
            case Forall(var):
                return Forall(var, Implies(instantiate(domain, {X1: var}), parts[0]))
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


def _colors_at_depth(d: int, c: int) -> list[int]:
    return [
        _encoded_color(d, orig, bits, c)
        for orig in range(1, c + 1)
        for bits in range(2 ** (d - 1))
    ]


def _colors_with_bit(d: int, j: int, c: int) -> list[int]:
    return [
        _encoded_color(d, orig, bits, c)
        for orig in range(1, c + 1)
        for bits in range(2 ** (d - 1))
        if bits >> (j - 1) & 1
    ]


def _colors_of_original(orig: int, k: int, c: int) -> list[int]:
    return [
        _encoded_color(d, orig, bits, c)
        for d in range(1, k + 1)
        for bits in range(2 ** (d - 1))
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
    when the forest is not a tree.
    """
    if not validate_elimination_forest(g, ef):
        raise ValueError("not a valid elimination forest for this graph")
    k = ef.height
    depths = ef.node_depths
    colors: dict[int, int] = {}
    for v in g.vertices:
        bits = 0
        for anc in ef.ancestors(v):
            if g.has_edge(v, anc):
                bits |= 1 << (depths[anc - 1] - 1)
        colors[v] = _encoded_color(depths[v - 1], g.color_of(v), bits, g.c)
    parents = {v: ef.parents[v - 1] for v in g.vertices}
    roots = ef.roots
    if len(roots) > 1:
        spare = g.n + 1
        for r in roots:
            parents[r] = spare
        parents[spare] = 0
        colors[spare] = 1
    return RootedColoredTree.build(
        parents, colors, c=_encoded_palette_size(k, g.c)
    )


def depth_edge_interpretation(k: int, colors: int = 1) -> InterpretationScheme:
    """The interpretation that recovers a graph from its encoded
    elimination forest of height at most ``k`` over ``colors`` original
    colors.

    Two vertices are adjacent exactly when one is an ancestor of the
    other in the encoded tree and the descendant's adjacency bit for the
    ancestor's depth is set. Ancestry at a fixed distance is spelled as
    a chain of tree edges whose depth annotations decrease by one per
    step, reusing the two auxiliary variables x3 and x4.

    No pipeline calls this: ``mc_treedepth`` evaluates the original
    sentence on an induced subgraph, and the test suite uses this scheme
    as its referee. It stays here, with its ``_colors_*`` and
    ``_color_set_atom`` helpers, because the benchmark's tracer
    (``perfbench/spans.py``) resolves it by name.
    """
    if k < 1 or colors < 1:
        raise ValueError("need k >= 1 and colors >= 1")
    c = colors

    def chain(frm: Var, depth: int, target_depth: int, to: Var) -> Formula:
        if depth - 1 == target_depth:
            return Adj(frm, to)
        nxt = X3 if frm != X3 else Var(4)
        return Exists(
            nxt,
            And(
                (
                    Adj(frm, nxt),
                    _color_set_atom(nxt, _colors_at_depth(depth - 1, c)),
                    chain(nxt, depth - 1, target_depth, to),
                )
            ),
        )

    def directed(desc: Var, anc: Var) -> list[Formula]:
        terms = []
        for d in range(2, k + 1):
            for j in range(1, d):
                terms.append(
                    conjunction(
                        (
                            _color_set_atom(desc, _colors_with_bit(d, j, c)),
                            _color_set_atom(anc, _colors_at_depth(j, c)),
                            chain(desc, d, j, anc),
                        )
                    )
                )
        return terms

    terms = directed(X1, X2) + directed(X2, X1)
    edge = disjunction(terms) if terms else canonical_false(X1)
    color_formulas = tuple(
        (orig, _color_set_atom(X1, _colors_of_original(orig, k, c)))
        for orig in range(1, c + 1)
    )
    return InterpretationScheme(
        domain_formula=Not(HasColor(1, X1)),
        edge_formula=edge,
        color_formulas=color_formulas,
    )


def _require_budget(sentence: Formula, s: int) -> None:
    """Refuse an open sentence, then one with more than ``s`` variables,
    from one walk."""
    free, occurring = variables(sentence)
    if free:
        require_sentence(sentence)
    if len(occurring) > s:
        raise ValueError(f"sentence uses {len(occurring)} variables, budget is {s}")


def _decide_on_kernel(
    g: ColoredGraph, host: RootedColoredTree, sentence: Formula, budget: int
) -> bool:
    """Evaluate the sentence on g's induced subgraph on the graph
    vertices that the kernel of ``host`` at ``budget`` keeps.

    ``host`` must encode g with graph vertex v as host vertex v and every
    other host vertex above g.n, under an interpretation that reads only
    depth, color and ancestry and needs ``budget - s`` extra variables
    for s-variable sentences. The kernel is ancestor-closed, so that
    interpretation maps it to exactly this induced subgraph, and the
    kernel agrees with the host on every sentence with ``budget``
    variables, so the subgraph agrees with g on every sentence with s
    variables. The caller has checked the sentence (``_require_budget``);
    ``holds`` still refuses a result with free variables.
    """
    kept = reduce_tree(host, budget).kept
    core = g.induced_subgraph(v for v in kept if v <= g.n)
    return evaluate_free(core, sentence).holds


def mc_tree(t: RootedColoredTree, sentence: Formula, s: int) -> bool:
    """Decide the sentence on a colored tree by evaluating on its
    reduced core. Requires the sentence to use at most ``s`` variables."""
    _require_budget(sentence, s)
    return _decide_on_kernel(t.to_graph(), t, sentence, s)


def mc_treedepth(g: ColoredGraph, sentence: Formula, k: int, s: int) -> bool:
    """Decide the sentence on a graph of tree-depth at most ``k`` on the
    kernel of its encoded elimination forest."""
    _require_budget(sentence, s)
    ef = compute_elimination_forest(g, k)
    if ef is None:
        raise ValueError(f"the graph has tree-depth larger than {k}")
    host = encode_elimination_forest(g, ef)
    return _decide_on_kernel(g, host, sentence, s + FOREST_OVERHEAD)


# ---------------------------------------------------------------------------
# Tree-model encoding
#
# The host is the model tree recolored with composite colors
# (leaf flag, graph color of the leaf or 0, model color, depth); the
# palette enumerates the realized composites in sorted order. The leaves
# are the graph vertices, and the adjacency of two leaves follows from
# their model colors and their distance, which depth and ancestry
# determine. Phrased as an interpretation, distance-d is "some common
# ancestor at upward distances i+j = d, and none closer", with upward
# chains reusing two variables and the meeting point pinned at a third.


def _tree_model_host(g: ColoredGraph, tm: TreeModel) -> RootedColoredTree:
    t = tm.tree
    leaves = t.leaves
    composites = []
    for v in range(1, t.n + 1):
        is_leaf = v in leaves
        composites.append(
            (
                1 if is_leaf else 0,
                g.color_of(v) if is_leaf else 0,
                t.color_of(v),
                t.depth_of(v),
            )
        )
    palette = sorted(set(composites))
    code = {comp: i for i, comp in enumerate(palette, start=1)}
    return RootedColoredTree(
        n=t.n,
        root=t.root,
        parents=t.parents,
        colors=tuple(code[comp] for comp in composites),
        c=len(palette),
    )


def mc_treemodel(
    g: ColoredGraph, tm: TreeModel, sentence: Formula, s: int
) -> bool:
    """Decide the sentence on a graph given a valid tree-model for it,
    on the kernel of the recolored model tree."""
    _require_budget(sentence, s)
    if not validate_tree_model(g, tm):
        raise ValueError("the tree-model does not reproduce the graph")
    host = _tree_model_host(g, tm)
    return _decide_on_kernel(g, host, sentence, s + TREE_MODEL_OVERHEAD)
