"""First-order formulas over colored graphs: AST, parser, renderer, metrics.

The concrete syntax is a small ASCII language:

    adj(x1,x2)      adjacency atom
    x1=x2           equality atom
    C3(x1)          color atom ("vertex x1 has color 3")
    !f              negation
    f & g & h       conjunction (n-ary)
    f | g           disjunction (n-ary)
    f -> g          implication (right associative)
    exists x1. f    quantification; the body extends as far right as possible
    forall x2. f

Precedence from tightest to loosest: ``!``, ``&``, ``|``, ``->``.
Parentheses group. ``&``/``|`` chains collapse into a single n-ary node,
so ``a & b & c`` is one conjunction with three children, while
``(a & b) & c`` keeps the nested shape. Rendering inserts exactly the
parentheses needed so that every AST round-trips through the parser.

Grammar (whitespace insignificant):

    formula := impl
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "exists" var "." formula | "forall" var "." formula
             | "(" formula ")" | atom
    atom    := "adj(" var "," var ")" | var "=" var | "C" nat "(" var ")"
    var     := "x" nat
    nat     := [0-9]+          ASCII digits, not 0

The parser reads the text in one pass, one regex match per token, and
keeps no token list. A well-formed atom or quantifier prefix is one match.
A failed parse reports the first bad character or index (0, or too many
digits) of the text when there is one, else the syntax error.

Nodes are hash-consed: constructing a node whose type and fields equal
those of a live node returns that node, so equal formulas are one object
and ``==`` and ``hash`` are those of identity. Variables are shared the
same way, one ``Var`` per index. A formula's hash is therefore not
stable across processes, and nothing orders output by it.

Every pass over a formula (metrics, renaming, substitution, and the
passes of the other modules) is a call to ``fold``, an iterative
post-order traversal, so formula depth is not limited by the Python
recursion limit. ``variables`` gathers the free and the occurring
variables in one such pass; ``free_vars``, ``all_vars``,
``variable_count`` and ``require_sentence`` read from it, so a caller
that needs both sets calls ``variables`` once. The parser,
``render_formula``, ``repr`` and pickling keep explicit stacks or flat
lists too.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, fields
from functools import partial, total_ordering
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence, TextIO, TypeVar


@total_ordering
class Var:
    """A variable name; rendered ``x1``, ``x2``, ...

    There is one ``Var`` per index, so ``==`` and ``hash`` are those of
    identity and run in C; variables order by index."""

    __slots__ = ("index",)
    __match_args__ = ("index",)

    def __new__(cls, index: int) -> Var:
        var = _VARS.get(index)
        if var is None:
            if index < 1:
                raise ValueError(f"variable index must be >= 1, got {index}")
            var = object.__new__(cls)
            object.__setattr__(var, "index", index)
            var = _VARS.setdefault(index, var)
        return var

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __lt__(self, other: object) -> bool:
        if type(other) is not Var:
            return NotImplemented
        return self.index < other.index

    def __reduce__(self):
        return Var, (self.index,)

    def __repr__(self) -> str:
        return f"Var(index={self.index!r})"

    def __str__(self) -> str:
        return f"x{self.index}"


#: The one ``Var`` of each index made so far.
_VARS: dict[int, Var] = {}


class _Interned(type):
    """Metaclass of ``Formula``: a constructor call returns the live node
    of the same type and fields when there is one. The fields' subformulas
    are interned already, so the lookup compares and hashes them by
    identity."""

    def __call__(cls, *args, **kwargs):
        if kwargs:  # the dataclass ``__init__`` binds keywords to fields
            made = super().__call__(*args, **kwargs)
            key = (cls, *(getattr(made, name) for name in _FIELDS[cls]))
        else:
            key = (cls, *args)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = made if kwargs else super().__call__(*args)
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's intern key."""

    __slots__ = ("key",)


#: Every live node's reference, keyed by its type and fields; an entry
#: goes when its node is no longer referenced.
_NODES: dict[tuple, _Ref] = {}


def _forget(ref: _Ref, nodes: dict[tuple, _Ref] = _NODES) -> None:
    """Drop the entry of a node that has gone, unless a new node of the
    same key holds it already. The table is bound at definition, so this
    still runs while the interpreter clears module globals at exit."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


class Formula(metaclass=_Interned):
    """Base class of all AST nodes. Nodes are immutable and interned: two
    formulas are equal exactly when they are the same object, so ``==``
    and ``hash`` are identity's. Copying returns the node itself. Pickling
    writes the flat ``_flatten`` list of distinct subformulas, and
    unpickling builds them through the constructors in one loop. ``repr``
    is a loop that prints the dataclass text. So nesting depth costs no
    Python stack in any of them."""

    __slots__ = ("__weakref__",)  # the intern table holds nodes weakly

    def __str__(self) -> str:
        return render_formula(self)

    def __repr__(self) -> str:
        return _repr(self)

    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, _memo: dict) -> Formula:
        return self

    def __reduce__(self):
        return _unflatten, (_flatten(self),)


_node = dataclass(frozen=True, eq=False, repr=False, slots=True)


@_node
class Adj(Formula):
    u: Var
    v: Var


@_node
class Eq(Formula):
    u: Var
    v: Var


@_node
class HasColor(Formula):
    color: int
    v: Var

    def __post_init__(self) -> None:
        if self.color < 1:
            raise ValueError(f"color index must be >= 1, got {self.color}")


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("conjunction needs at least two children")


@_node
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("disjunction needs at least two children")


@_node
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@_node
class Exists(Formula):
    var: Var
    body: Formula


@_node
class Forall(Formula):
    var: Var
    body: Formula


def conjunction(parts: Iterable[Formula]) -> Formula:
    """And-node over ``parts``; a single part is returned unwrapped."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty conjunction")
    return parts[0] if len(parts) == 1 else And(parts)


def disjunction(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty disjunction")
    return parts[0] if len(parts) == 1 else Or(parts)


def canonical_false(v: Var = Var(1)) -> Formula:
    """The stock unsatisfiable formula ``!(v=v)``."""
    return Not(Eq(v, v))


# ---------------------------------------------------------------------------
# Traversal

T = TypeVar("T")
E = TypeVar("E")

#: Each node type's subformulas, in order; atoms have none.
_PARTS: dict[type, Callable[[Formula], tuple[Formula, ...]] | None] = {
    Adj: None,
    Eq: None,
    HasColor: None,
    Not: lambda f: (f.child,),
    And: attrgetter("children"),
    Or: attrgetter("children"),
    Implies: attrgetter("lhs", "rhs"),
    Exists: lambda f: (f.body,),
    Forall: lambda f: (f.body,),
}


def fold(
    f: Formula,
    leave: Callable[[Formula, Sequence[T], E], T],
    enter: Callable[[Formula, E], E] | None = None,
    env: E = None,
) -> T:
    """Post-order fold of ``f``, iterative so that depth costs no stack.

    ``leave(node, results, env)`` computes a node's value from the values
    of its subformulas (``results``, in order; empty for atoms). ``env``
    flows top-down: the subformulas of a node see ``enter(node, env)``,
    or the node's own ``env`` when ``enter`` is None.

    When ``enter`` is None every node sees the same ``env``, so ``leave``
    must be pure: its value then depends on the node alone, and ``fold``
    computes it once per distinct subformula (nodes are interned, so a
    distinct subformula is a distinct object), however often it occurs.
    The memo is keyed by ``id``, which is sound because ``f`` keeps every
    node alive for the whole call; it holds every value until the fold
    returns. With ``enter`` given, every occurrence is visited.
    """
    out: list[T] = []
    memo: dict[int, T] | None = {} if enter is None else None
    # (node, its env, 0 before expansion, else its number of subformulas)
    todo: list[tuple[Formula, E, int]] = [(f, env, 0)]
    pop, push = todo.pop, todo.append
    while todo:
        node, e, k = pop()
        if k:
            value = leave(node, out[-k:], e)
            del out[-k:]
        else:
            if memo is not None and id(node) in memo:
                out.append(memo[id(node)])
                continue
            try:
                parts = _PARTS[type(node)]
            except KeyError:
                raise TypeError(f"not a formula: {node!r}") from None
            if parts is not None:
                kids = parts(node)
                push((node, e, len(kids)))
                if enter is not None:
                    e = enter(node, e)
                for kid in reversed(kids):
                    push((kid, e, 0))
                continue
            value = leave(node, (), e)
        if memo is not None:
            memo[id(node)] = value
        out.append(value)
    return out[0]


#: Each node type's dataclass fields, in order.
_FIELDS: dict[type, tuple[str, ...]] = {
    kind: tuple(field.name for field in fields(kind)) for kind in _PARTS
}


def _flatten(f: Formula) -> list[tuple[type, tuple, tuple[int, ...]]]:
    """The distinct subformulas of ``f`` in post-order, ``f`` last, each as
    (type, its fields that are not subformulas, the places of its
    subformulas in the list). Pickling writes this flat list, so depth
    costs the pickler no stack."""
    record: list[tuple[type, tuple, tuple[int, ...]]] = []

    def leave(node: Formula, kids: Sequence[int], _env: None) -> int:
        kind = type(node)
        if kids:
            data = (node.var,) if kind is Exists or kind is Forall else ()
        else:
            data = tuple(getattr(node, name) for name in _FIELDS[kind])
        record.append((kind, data, tuple(kids)))
        return len(record) - 1

    fold(f, leave)
    return record


def _unflatten(record: Sequence[tuple[type, tuple, tuple[int, ...]]]) -> Formula:
    """The last formula of a ``_flatten`` list, built through the
    interning constructors."""
    nodes: list[Formula] = []
    for kind, data, kids in record:
        parts = [nodes[i] for i in kids]
        if kind is And or kind is Or:
            nodes.append(kind(tuple(parts)))
        else:
            nodes.append(kind(*data, *parts))
    return nodes[-1]


def _repr(f: Formula) -> str:
    """The text the dataclass ``repr`` gives, e.g. ``Not(child=Eq(u=Var(index=1),
    v=Var(index=1)))``. The stack holds finished text and the nodes and
    tuples still to write."""
    out: list[str] = []
    todo: list[object] = [f]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is tuple:
            values, close = item, ",)" if len(item) == 1 else ")"
            out.append("(")
        else:
            names = _FIELDS[type(item)]
            values, close = [getattr(item, name) for name in names], ")"
            out.append(f"{type(item).__name__}(")
        todo.append(close)
        for i in range(len(values) - 1, -1, -1):
            value = values[i]
            todo.append(value if isinstance(value, (Formula, tuple)) else repr(value))
            label = "" if type(item) is tuple else f"{names[i]}="
            todo.append(f", {label}" if i else label)
    return "".join(out)


def rebuild(node: Formula, parts: Sequence[Formula]) -> Formula:
    """``node`` with its subformulas replaced by ``parts``, in order."""
    if not parts:
        return node
    if isinstance(node, (And, Or)):
        return type(node)(tuple(parts))
    if isinstance(node, (Exists, Forall)):
        return type(node)(node.var, parts[0])
    return type(node)(*parts)  # Not, Implies


# ---------------------------------------------------------------------------
# Metrics and structural helpers


def _vars_step(
    node: Formula, parts: Sequence[tuple[frozenset[Var], frozenset[Var]]], _env: None
) -> tuple[frozenset[Var], frozenset[Var]]:
    """``fold`` step of ``variables``."""
    if not parts:  # an atom
        names = frozenset((node.v,) if type(node) is HasColor else (node.u, node.v))
        return names, names
    if len(parts) == 1:
        if type(node) is Not:
            return parts[0]
        free, every = parts[0]  # a quantifier
        return free - {node.var}, every | {node.var}
    free, every = zip(*parts)
    return free[0].union(*free[1:]), every[0].union(*every[1:])


def variables(f: Formula) -> tuple[frozenset[Var], frozenset[Var]]:
    """The free variables of ``f`` and every variable occurring in it,
    bound or free, from one ``fold``."""
    return fold(f, _vars_step)


def quantifier_rank(f: Formula) -> int:
    """Maximum depth of quantifier nesting."""

    def leave(node: Formula, ranks: Sequence[int], _env: None) -> int:
        return max(ranks, default=0) + isinstance(node, (Exists, Forall))

    return fold(f, leave)


def all_vars(f: Formula) -> frozenset[Var]:
    """Every variable occurring in ``f``, bound or free."""
    return variables(f)[1]


def variable_count(f: Formula) -> int:
    """Number of distinct variable names (reuse counted once)."""
    return len(variables(f)[1])


def free_vars(f: Formula) -> frozenset[Var]:
    return variables(f)[0]


def formula_length(f: Formula) -> int:
    """AST node count (atoms count 1; variables are not nodes)."""
    return fold(f, lambda _node, lengths, _env: 1 + sum(lengths))


def require_sentence(f: Formula) -> Formula:
    """``f`` itself when it is a sentence; else a ``ValueError`` that
    lists its free variables."""
    fv = free_vars(f)
    if fv:
        names = ", ".join(str(v) for v in sorted(fv))
        raise ValueError(f"expected a sentence but found free variables: {names}")
    return f


def rename_variables(f: Formula, mapping: Mapping[Var, Var]) -> Formula:
    """Simultaneously rename every occurrence, binding sites included.

    ``mapping`` must be injective on the variables that occur in ``f``
    (variables missing from the mapping are kept as themselves); under
    injectivity the renaming cannot capture.
    """
    occurring = all_vars(f)
    effective = {v: mapping.get(v, v) for v in occurring}
    images = list(effective.values())
    if len(set(images)) != len(images):
        raise ValueError("renaming is not injective on the occurring variables")

    def leave(node: Formula, parts: Sequence[Formula], _env: None) -> Formula:
        match node:
            case Adj(u, v):
                return Adj(effective[u], effective[v])
            case Eq(u, v):
                return Eq(effective[u], effective[v])
            case HasColor(color, v):
                return HasColor(color, effective[v])
            case Exists(var) | Forall(var):
                return type(node)(effective[var], parts[0])
        return rebuild(node, parts)

    return fold(f, leave)


def substitute_edge_atoms(
    f: Formula, subst: Callable[[Var, Var], Formula]
) -> Formula:
    """Replace each adjacency atom ``adj(u,v)`` by ``subst(u, v)``.

    No pipeline calls this; it stays because the benchmark's tracer
    (``perfbench/spans.py``) resolves it by name."""

    def leave(node: Formula, parts: Sequence[Formula], _env: None) -> Formula:
        if isinstance(node, Adj):
            return subst(node.u, node.v)
        return rebuild(node, parts)

    return fold(f, leave)


# ---------------------------------------------------------------------------
# Rendering

_PREC_IMPL = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


#: Compound nodes: (precedence, text before the first part, text between
#: parts, the loosest precedence a part may show bare, the same for the
#: last part). A quantifier's leading text names its variable.
_LAYOUT = {
    Not: (_PREC_UNARY, "!", "", None, _PREC_UNARY),
    Exists: (_PREC_UNARY, "exists {}. ", "", None, _PREC_IMPL),
    Forall: (_PREC_UNARY, "forall {}. ", "", None, _PREC_IMPL),
    And: (_PREC_AND, "", " & ", _PREC_UNARY, _PREC_UNARY),
    Or: (_PREC_OR, "", " | ", _PREC_AND, _PREC_AND),
    Implies: (_PREC_IMPL, "", " -> ", _PREC_OR, _PREC_IMPL),
}


def render_formula(f: Formula) -> str:
    """Concrete syntax for ``f``; parsing it back yields an identical AST.

    The stack holds text and (node, the loosest precedence it may show
    bare, whether it ends the text), so depth costs no Python stack."""
    out: list[str] = []
    todo: list = [(f, _PREC_IMPL, True)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_prec, tail = item
        kind = type(node)
        layout = _LAYOUT.get(kind)
        # A quantifier body extends maximally right, so a quantifier that is
        # followed by more tokens of an enclosing chain must be parenthesized
        # even when its precedence alone would allow omitting the parentheses.
        # A non-formula gets atom precedence here and a TypeError below.
        prec = _PREC_ATOM if layout is None else layout[0]
        if prec < min_prec or (not tail and kind in (Exists, Forall)):
            out.append("(")
            todo.append(")")
            tail = True
        if layout is not None:
            _prec, head, sep, inner, last = layout
            out.append(head.format(getattr(node, "var", None)))
            parts = _PARTS[kind](node)
            todo.append((parts[-1], last, tail))
            for part in parts[-2::-1]:
                todo += (sep, (part, inner, False))
        elif kind is Adj:
            out.append(f"adj({node.u},{node.v})")
        elif kind is Eq:
            out.append(f"{node.u}={node.v}")
        elif kind is HasColor:
            out.append(f"C{node.color}({node.v})")
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


#: One match per token, after optional blanks. A well-formed atom or
#: quantifier prefix is one match; when it is malformed, its pieces match
#: one at a time as the fine tokens after the operators.
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<adj_atom>adj\s*\(\s*x(?P<adj_u>[0-9]+)\s*,\s*x(?P<adj_v>[0-9]+)\s*\))
    | (?P<eq_atom>x(?P<eq_u>[0-9]+)\s*=\s*x(?P<eq_v>[0-9]+))
    | (?P<color_atom>C(?P<color_c>[0-9]+)\s*\(\s*x(?P<color_v>[0-9]+)\s*\))
    | (?P<prefix>(?P<quantifier>exists|forall)\s+x(?P<prefix_v>[0-9]+)\s*\.)
    | (?P<arrow>->) | (?P<lparen>\() | (?P<rparen>\)) | (?P<not>!) | (?P<and>&) | (?P<or>\|)
    | (?P<adj>adj\b) | (?P<exists>exists\b) | (?P<forall>forall\b)
    | (?P<var>x[0-9]+) | (?P<color>C[0-9]+) | (?P<eq>=) | (?P<comma>,) | (?P<dot>\.)
    | (?P<bad>.) | (?P<eof>\Z)
    )""",
    re.VERBOSE,
)
#: A variable or color index within a token.
_INDEX_RE = re.compile(r"([xC])([0-9]+)")


def _error(text: str, pos: int, message: str) -> ParseError:
    """A ``ParseError`` at offset ``pos`` of ``text``, placed by line and column."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


#: Binary operators by token kind: (precedence, builder of the node).
_BINARY = {
    "and": (_PREC_AND, lambda *parts: And(parts)),
    "or": (_PREC_OR, lambda *parts: Or(parts)),
    "arrow": (_PREC_IMPL, Implies),
}
_QUANTIFIERS = {"exists": Exists, "forall": Forall}
#: The fine tokens that must follow each first piece of a malformed atom
#: or prefix, with the name an error gives the one that is missing.
_VAR, _DOT = ("var", "a variable"), ("dot", "'.' after the quantified variable")
_PIECES = {
    "adj": (("lparen", "'(' after adj"), _VAR, ("comma", "','"), _VAR, ("rparen", "')'")),
    "color": (("lparen", "'(' after the color name"), _VAR, ("rparen", "')'")),
    "var": (("eq", "'='"), _VAR),
    "exists": (_VAR, _DOT),
    "forall": (_VAR, _DOT),
}


def parse_formula(text: str) -> Formula:
    """Parse one formula. When that fails, the first bad character or bad
    index (0, or too long for ``int``) of the text is reported, reading its
    tokens in order; only when there is none, the error met first."""
    try:
        return _parse(text)
    except ValueError:  # a ParseError, or an index that is 0 or too long
        for m in _TOKEN_RE.finditer(text):
            start = m.start(m.lastgroup)
            if m.lastgroup == "bad":
                raise _error(text, start, f"unexpected character {text[start]!r}") from None
            for index in _INDEX_RE.finditer(text, start, m.end()):
                name = "variable" if index[1] == "x" else "color"
                try:
                    zero = not int(index[2])
                except ValueError:
                    raise _error(text, index.start(), f"{name} index is too long") from None
                if zero:
                    raise _error(text, index.start(), f"{name} index 0 is not allowed") from None
        raise


def _parse(text: str) -> Formula:
    """Parse with an operator-stack loop over ``_TOKEN_RE`` matches read as
    they come, so depth costs no stack and no token list is kept.

    ``frames`` holds the open constructs as (precedence, index of their
    first operand, builder). Quantifiers (-1) and groups (-2, the whole
    text being one) rank below every operator, so no operator closes them:
    a quantifier body runs to the next unmatched ``)`` or to the end.
    ``&`` and ``|`` extend an open frame of their own precedence, so a
    chain is one n-ary node; ``->`` always opens one, so it nests right.
    """
    match = _TOKEN_RE.match
    operands: list[Formula] = []
    frames: list[tuple[int, int, Callable | None]] = [(-2, 0, None)]
    parens = pos = 0
    while True:
        # An operand is expected: prefix constructs open frames, an atom ends it.
        m = match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind == "adj_atom":
            operands.append(Adj(Var(int(m["adj_u"])), Var(int(m["adj_v"]))))
        elif kind == "eq_atom":
            operands.append(Eq(Var(int(m["eq_u"])), Var(int(m["eq_v"]))))
        elif kind == "color_atom":
            operands.append(HasColor(int(m["color_c"]), Var(int(m["color_v"]))))
        elif kind == "prefix":
            build = partial(_QUANTIFIERS[m["quantifier"]], Var(int(m["prefix_v"])))
            frames.append((-1, len(operands), build))
            continue
        elif kind == "not":
            frames.append((_PREC_UNARY, len(operands), Not))
            continue
        elif kind == "lparen":
            frames.append((-2, len(operands), None))
            parens += 1
            continue
        else:
            # A malformed atom or prefix: its fine tokens name the first
            # missing piece. One is missing, else its whole pattern had matched.
            start = m.start(kind)
            for want, what in _PIECES.get(kind, ()):
                m = match(text, pos)
                got = m.lastgroup
                if got == "eq_atom" and want == "var":  # it starts with the variable
                    pos = m.end("eq_u")
                elif got == want:
                    pos = m.end()
                else:
                    raise _error(text, m.start(got), f"expected {what}")
            raise _error(text, start, "expected a formula")
        # An operand is complete: close groups until an operator follows.
        while True:
            m = match(text, pos)
            kind, pos = m.lastgroup, m.end()
            if kind in _BINARY:
                prec, build = _BINARY[kind]
            elif kind == ("rparen" if parens else "eof"):
                prec = -2
            else:
                message = "expected ')'" if parens else "trailing input after the formula"
                raise _error(text, m.start(kind), message)
            while frames[-1][0] > prec:
                _, start, close = frames.pop()
                operands[start:] = [close(*operands[start:])]
            if prec >= 0:
                if kind == "arrow" or frames[-1][0] != prec:
                    frames.append((prec, len(operands) - 1, build))
                break
            frames.pop()
            if not parens:
                return operands[0]
            parens -= 1


# ---------------------------------------------------------------------------
# Formula files: one formula per line, '#' starts a comment

def read_formulas(stream: TextIO) -> list[Formula]:
    out = []
    for lineno, raw in enumerate(stream, start=1):
        # leading blanks stay, so that columns count within the file line
        text = raw.split("#", 1)[0].rstrip()
        if not text:
            continue
        try:
            out.append(parse_formula(text))
        except ParseError as exc:
            raise ParseError(exc.message, lineno, exc.column) from exc
    return out


def write_formulas(formulas: Iterable[Formula], stream: TextIO) -> None:
    for f in formulas:
        stream.write(render_formula(f) + "\n")
