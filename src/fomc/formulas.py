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

Every pass over a formula (metrics, renaming, substitution, and the
passes of the other modules) is a call to ``fold``, an iterative
post-order traversal, so formula depth is not limited by the Python
recursion limit. The parser and ``render_formula`` still recurse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence, TextIO, TypeVar


@dataclass(frozen=True, order=True)
class Var:
    """A variable name; rendered ``x1``, ``x2``, ..."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        return f"x{self.index}"


class Formula:
    """Base class of all AST nodes. Nodes are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Adj(Formula):
    u: Var
    v: Var


@dataclass(frozen=True)
class Eq(Formula):
    u: Var
    v: Var


@dataclass(frozen=True)
class HasColor(Formula):
    color: int
    v: Var

    def __post_init__(self) -> None:
        if self.color < 1:
            raise ValueError(f"color index must be >= 1, got {self.color}")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("conjunction needs at least two children")


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("disjunction needs at least two children")


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
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
    """
    out: list[T] = []
    # (node, its env, 0 before expansion, else its number of subformulas)
    todo: list[tuple[Formula, E, int]] = [(f, env, 0)]
    pop, push = todo.pop, todo.append
    while todo:
        node, e, k = pop()
        if k:
            results = out[-k:]
            del out[-k:]
            out.append(leave(node, results, e))
            continue
        try:
            parts = _PARTS[type(node)]
        except KeyError:
            raise TypeError(f"not a formula: {node!r}") from None
        if parts is None:
            out.append(leave(node, (), e))
            continue
        kids = parts(node)
        push((node, e, len(kids)))
        if enter is not None:
            e = enter(node, e)
        for kid in reversed(kids):
            push((kid, e, 0))
    return out[0]


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


def _vars_step(node: Formula, parts: Sequence[frozenset[Var]], at_binder):
    """``fold`` step gathering variables; the env ``at_binder`` combines a
    quantifier's body variables with its own."""
    if not parts:  # an atom
        if isinstance(node, HasColor):
            return frozenset((node.v,))
        return frozenset((node.u, node.v))
    if isinstance(node, (Exists, Forall)):
        return at_binder(parts[0], (node.var,))
    return parts[0].union(*parts[1:])


def quantifier_rank(f: Formula) -> int:
    """Maximum depth of quantifier nesting."""

    def leave(node: Formula, ranks: Sequence[int], _env: None) -> int:
        return max(ranks, default=0) + isinstance(node, (Exists, Forall))

    return fold(f, leave)


def all_vars(f: Formula) -> frozenset[Var]:
    """Every variable occurring in ``f``, bound or free."""
    return fold(f, _vars_step, env=frozenset.union)


def variable_count(f: Formula) -> int:
    """Number of distinct variable names (reuse counted once)."""
    return len(all_vars(f))


def free_vars(f: Formula) -> frozenset[Var]:
    return fold(f, _vars_step, env=frozenset.difference)


def formula_length(f: Formula) -> int:
    """AST node count (atoms count 1; variables are not nodes)."""
    return fold(f, lambda _node, lengths, _env: 1 + sum(lengths))


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def require_sentence(f: Formula) -> Formula:
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


_PREC = {
    Adj: _PREC_ATOM,
    Eq: _PREC_ATOM,
    HasColor: _PREC_ATOM,
    Not: _PREC_UNARY,
    Exists: _PREC_UNARY,
    Forall: _PREC_UNARY,
    And: _PREC_AND,
    Or: _PREC_OR,
    Implies: _PREC_IMPL,
}


def render_formula(f: Formula) -> str:
    """Concrete syntax for ``f``; parsing it back yields an identical AST."""
    return _render(f, _PREC_IMPL, tail=True)


def _render(f: Formula, min_prec: int, tail: bool) -> str:
    # A quantifier body extends maximally right, so a quantifier that is
    # followed by more tokens of an enclosing chain must be parenthesized
    # even when its precedence alone would allow omitting the parentheses.
    # A non-formula gets atom precedence here and a TypeError below.
    needs_parens = _PREC.get(type(f), _PREC_ATOM) < min_prec or (
        not tail and isinstance(f, (Exists, Forall))
    )
    if needs_parens:
        min_prec, tail = _PREC_IMPL, True
    match f:
        case Adj(u, v):
            text = f"adj({u},{v})"
        case Eq(u, v):
            text = f"{u}={v}"
        case HasColor(color, v):
            text = f"C{color}({v})"
        case Not(child):
            text = "!" + _render(child, _PREC_UNARY, tail)
        case And(children):
            last = len(children) - 1
            text = " & ".join(
                _render(ch, _PREC_UNARY, tail and i == last)
                for i, ch in enumerate(children)
            )
        case Or(children):
            last = len(children) - 1
            text = " | ".join(
                _render(ch, _PREC_AND, tail and i == last)
                for i, ch in enumerate(children)
            )
        case Implies(lhs, rhs):
            text = (
                _render(lhs, _PREC_OR, False)
                + " -> "
                + _render(rhs, _PREC_IMPL, tail)
            )
        case Exists(var, body):
            text = f"exists {var}. " + _render(body, _PREC_IMPL, tail)
        case Forall(var, body):
            text = f"forall {var}. " + _render(body, _PREC_IMPL, tail)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return f"({text})" if needs_parens else text


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<adj>adj\b)
    | (?P<exists>exists\b)
    | (?P<forall>forall\b)
    | (?P<var>x(?P<varnum>\d+))
    | (?P<color>C(?P<colnum>\d+))
    | (?P<arrow>->)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<not>!)
    | (?P<and>&)
    | (?P<or>\|)
    | (?P<eq>=)
    | (?P<comma>,)
    | (?P<dot>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: int | None
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        col = m.start() - line_start + 1
        if kind == "ws":
            for i in range(m.start(), m.end()):
                if text[i] == "\n":
                    line += 1
                    line_start = i + 1
        elif kind == "var":
            idx = int(m.group("varnum"))
            if idx == 0:
                raise ParseError("variable index 0 is not allowed", line, col)
            tokens.append(_Token("var", idx, line, col))
        elif kind == "color":
            idx = int(m.group("colnum"))
            if idx == 0:
                raise ParseError("color index 0 is not allowed", line, col)
            tokens.append(_Token("color", idx, line, col))
        else:
            tokens.append(_Token(kind, None, line, col))
        pos = m.end()
    tokens.append(_Token("eof", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.column)
        return self.advance()

    def formula(self) -> Formula:
        lhs = self.or_chain()
        if self.peek().kind == "arrow":
            self.advance()
            return Implies(lhs, self.formula())
        return lhs

    def or_chain(self) -> Formula:
        parts = [self.and_chain()]
        while self.peek().kind == "or":
            self.advance()
            parts.append(self.and_chain())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_chain(self) -> Formula:
        parts = [self.unary()]
        while self.peek().kind == "and":
            self.advance()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.advance()
            return Not(self.unary())
        if tok.kind in ("exists", "forall"):
            self.advance()
            var = Var(self.expect("var", "a variable").value)
            self.expect("dot", "'.' after the quantified variable")
            body = self.formula()
            return Exists(var, body) if tok.kind == "exists" else Forall(var, body)
        if tok.kind == "lparen":
            self.advance()
            inner = self.formula()
            self.expect("rparen", "')'")
            return inner
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "adj":
            self.advance()
            self.expect("lparen", "'(' after adj")
            u = Var(self.expect("var", "a variable").value)
            self.expect("comma", "','")
            v = Var(self.expect("var", "a variable").value)
            self.expect("rparen", "')'")
            return Adj(u, v)
        if tok.kind == "color":
            self.advance()
            self.expect("lparen", "'(' after the color name")
            v = Var(self.expect("var", "a variable").value)
            self.expect("rparen", "')'")
            return HasColor(tok.value, v)
        if tok.kind == "var":
            self.advance()
            self.expect("eq", "'='")
            v = Var(self.expect("var", "a variable").value)
            return Eq(Var(tok.value), v)
        raise ParseError("expected a formula", tok.line, tok.column)


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input after the formula", tok.line, tok.column)
    return f


# ---------------------------------------------------------------------------
# Formula files: one formula per line, '#' starts a comment

def read_formulas(stream: TextIO) -> list[Formula]:
    out = []
    for lineno, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip()
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
