import copy
import gc
import io
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from fomc import formulas
from fomc.evaluator import evaluate_free_with_stats, model_check
from fomc.formulas import (
    Adj,
    And,
    Eq,
    Exists,
    Forall,
    HasColor,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    all_vars,
    conjunction,
    disjunction,
    fold,
    formula_length,
    free_vars,
    parse_formula,
    quantifier_rank,
    read_formulas,
    rename_variables,
    render_formula,
    require_sentence,
    substitute_edge_atoms,
    variable_count,
    variables,
    write_formulas,
)
from fomc.graphs import gen_path
from fomc.randgen import random_formula

from .oracles import parse_formula as referee_parse

x1, x2, x3, x5, x6 = Var(1), Var(2), Var(3), Var(5), Var(6)


def test_parse_atoms():
    assert parse_formula("x1=x2") == Eq(x1, x2)
    assert parse_formula("adj(x1,x1)") == Adj(x1, x1)
    assert parse_formula("C3(x2)") == HasColor(3, x2)


def test_parse_smallest_quantified():
    assert parse_formula("exists x1. adj(x1,x1)") == Exists(x1, Adj(x1, x1))


def test_parse_distance_shape():
    # the k=1 member of the distance family
    f = parse_formula("exists x3. adj(x1,x3) & x3=x2")
    assert f == Exists(x3, And((Adj(x1, x3), Eq(x3, x2))))


def test_parse_nary_and_precedence():
    f = parse_formula("C1(x1) & C2(x1) & C3(x1) | x1=x1 -> !adj(x1,x1)")
    assert isinstance(f, Implies)
    assert isinstance(f.lhs, Or)
    assert isinstance(f.lhs.children[0], And)
    assert len(f.lhs.children[0].children) == 3


def test_parse_grouping_preserved():
    flat = parse_formula("C1(x1) & C1(x1) & C1(x1)")
    nested = parse_formula("(C1(x1) & C1(x1)) & C1(x1)")
    assert isinstance(flat, And) and len(flat.children) == 3
    assert isinstance(nested, And) and len(nested.children) == 2
    assert flat != nested


def test_quantifier_body_extends_right():
    f = parse_formula("exists x1. adj(x1,x2) & x1=x2")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("adj(x1,)")
    assert err.value.line == 1
    assert err.value.column == 8
    with pytest.raises(ParseError):
        parse_formula("x0=x1")
    with pytest.raises(ParseError):
        parse_formula("C0(x1)")
    with pytest.raises(ParseError):
        parse_formula("x1=x2 x3=x4")


def test_render_examples():
    assert render_formula(Eq(x1, x2)) == "x1=x2"
    assert render_formula(Not(Adj(x1, x2))) == "!adj(x1,x2)"


def test_render_parenthesizes_nontail_quantifier():
    inner = Exists(x1, HasColor(1, x1))
    f = And((inner, HasColor(2, x2)))
    assert parse_formula(render_formula(f)) == f


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    for _ in range(200):
        f = random_formula(rng, max_vars=4, colors=3, rank=4, size=18)
        text = render_formula(f)
        again = parse_formula(text)
        assert again == f
        # a second render/parse is a fixpoint
        assert parse_formula(render_formula(again)) == again


def test_quantifier_rank():
    assert quantifier_rank(parse_formula("x1=x2")) == 0
    assert quantifier_rank(parse_formula("exists x1. forall x2. adj(x1,x2)")) == 2
    reused = parse_formula("exists x1. (exists x1. C1(x1)) & C1(x1)")
    assert quantifier_rank(reused) == 2


def test_variable_count_reuse():
    assert variable_count(parse_formula("x1=x2")) == 2
    assert variable_count(parse_formula("exists x1. exists x1. C1(x1)")) == 1


def test_free_vars():
    assert free_vars(parse_formula("adj(x1,x2)")) == {x1, x2}
    assert free_vars(parse_formula("exists x2. adj(x1,x2)")) == {x1}
    with pytest.raises(ValueError):
        require_sentence(parse_formula("adj(x1,x2)"))


def test_rename_variables():
    f = parse_formula("adj(x2,x3)")
    renamed = rename_variables(f, {Var(2): x5, Var(3): x6})
    assert renamed == Adj(x5, x6)
    assert rename_variables(f, {}) == f
    with pytest.raises(ValueError):
        rename_variables(f, {Var(2): x5, Var(3): x5})


def test_rename_preserves_metrics():
    rng = random.Random(9)
    for _ in range(100):
        f = random_formula(rng, max_vars=3, colors=2, rank=3)
        mapping = {Var(1): Var(7), Var(2): Var(9), Var(3): Var(8)}
        g = rename_variables(f, mapping)
        assert quantifier_rank(g) == quantifier_rank(f)
        assert variable_count(g) == variable_count(f)
        assert formula_length(g) == formula_length(f)


def test_substitute_edge_atoms():
    f = parse_formula("adj(x2,x3)")
    assert substitute_edge_atoms(f, lambda u, v: Eq(u, v)) == Eq(x2, x3)
    untouched = parse_formula("exists x1. C1(x1) & x1=x1")
    assert substitute_edge_atoms(untouched, lambda u, v: Eq(u, v)) == untouched
    quantified = parse_formula("exists x2. adj(x2,x2)")
    out = substitute_edge_atoms(quantified, lambda u, v: Not(Eq(u, v)))
    assert out == Exists(x2, Not(Eq(x2, x2)))


def test_passes_over_deep_formulas():
    # Far deeper than the default recursion limit; built without the parser.
    body = Eq(x1, x1)
    for _ in range(5000):
        body = Not(body)
    f = Exists(x1, body)
    assert free_vars(f) == frozenset()
    assert all_vars(f) == {x1}
    assert quantifier_rank(f) == 1
    assert formula_length(f) == 5002
    assert require_sentence(f) is f
    assert all_vars(rename_variables(f, {x1: x2})) == {x2}
    assert model_check(gen_path(3), f)


def _variables_by_recursion(f):
    match f:
        case Adj(u, v) | Eq(u, v):
            return {u, v}, {u, v}
        case HasColor(_, v):
            return {v}, {v}
        case Exists(var, body) | Forall(var, body):
            free, every = _variables_by_recursion(body)
            return free - {var}, every | {var}
        case Not(child):
            return _variables_by_recursion(child)
        case Implies(lhs, rhs):
            parts = [lhs, rhs]
        case And(parts) | Or(parts):
            pass
    found = [_variables_by_recursion(part) for part in parts]
    return set().union(*(p[0] for p in found)), set().union(*(p[1] for p in found))


def test_variables_gives_free_and_occurring_in_one_fold():
    f = parse_formula("exists x2. adj(x1,x2) & (forall x3. C1(x3)) | x4=x1 -> !x5=x5")
    assert variables(f) == ({x1, Var(4), x5}, {x1, x2, x3, Var(4), x5})
    rng = random.Random(14)
    for _ in range(200):
        f = random_formula(rng, max_vars=4, colors=2, rank=3)
        free, every = variables(f)
        assert (free, every) == _variables_by_recursion(f)
        assert (free_vars(f), all_vars(f), variable_count(f)) == (free, every, len(every))


def test_variable_count_vs_free_vars():
    rng = random.Random(4)
    for _ in range(100):
        f = random_formula(rng, max_vars=4, colors=2, rank=3)
        assert variable_count(f) >= len(free_vars(f))


def _assert_scopes(f):
    """Every distinct subformula of ``f`` recorded, when it was built, the
    free and occurring variables that the recursive referee finds, as
    sorted index tuples; where that equals a part's tuple, it is that
    part's tuple object."""
    nodes = []
    fold(f, lambda node, _parts, _env: nodes.append(node))
    for node in nodes:
        free, every = _variables_by_recursion(node)
        assert node._free == tuple(sorted(v.index for v in free)), node
        assert node._names == tuple(sorted(v.index for v in every)), node
        parts = formulas._PARTS[type(node)]
        for attr in ("_free", "_names"):
            owned = [getattr(part, attr) for part in (parts(node) if parts else ())]
            if getattr(node, attr) in owned:
                assert any(getattr(node, attr) is t for t in owned), (attr, node)
    return len(nodes)


def _keyword_copy(record):
    """The last formula of a ``_flatten`` record, built anew by keyword."""
    nodes = []
    for kind, data, kids in record:
        parts = [nodes[i] for i in kids]
        values = (tuple(parts),) if kind is And or kind is Or else (*data, *parts)
        nodes.append(kind(**dict(zip(formulas._FIELDS[kind], values))))
    return nodes[-1]


def test_every_node_records_its_scope_on_a_seeded_sweep():
    # random trees and shared DAGs, each also rebuilt after the original
    # is gone, by unpickling and by keyword, and renamed
    from .test_evaluator import _random_dag

    rng = random.Random(48)
    checked = rebuilt = 0
    for i in range(300):
        if i % 2:
            f = random_formula(rng, max_vars=4, colors=2, rank=3, size=rng.randint(1, 14))
        else:
            f = _random_dag(rng, names=4, colors=2, rank=3, steps=rng.randint(4, 12))
        checked += _assert_scopes(f)
        blob, record, size = pickle.dumps(f), formulas._flatten(f), len(formulas._NODES)
        names = sorted(all_vars(f))
        images = rng.sample([Var(k) for k in range(1, 8)], len(names))
        renamed = rename_variables(f, dict(zip(names, images)))
        checked += _assert_scopes(renamed)
        del f, renamed
        gc.collect()
        rebuilt += len(formulas._NODES) < size
        for copy_ in (pickle.loads(blob), _keyword_copy(record)):
            checked += _assert_scopes(copy_)
    assert checked > 6_000 and rebuilt > 250, (checked, rebuilt)


def test_reductions_and_translations_record_their_scopes():
    from fomc.hardness import reduce_to_path
    from fomc.interpret import backwards_translate, depth_edge_interpretation
    from fomc.randgen import random_graph

    rng = random.Random(4848)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 5), colors=2)
        f = random_formula(rng, max_vars=3, colors=2, rank=2, size=rng.randint(1, 10))
        checked += _assert_scopes(reduce_to_path(g, f).sentence)
        scheme = depth_edge_interpretation(rng.randint(1, 3), rng.randint(1, 2))
        checked += _assert_scopes(backwards_translate(f, scheme))
    assert checked > 1_500


def test_the_variable_readers_walk_nothing(monkeypatch):
    def no_fold(*_args, **_kwargs):
        raise AssertionError("a variable reader folded")

    f = parse_formula("exists x2. adj(x1,x2) & (forall x3. C1(x3)) | x4=x1 -> !x5=x5")
    closed = Forall(x1, Forall(Var(4), Forall(x5, f)))
    monkeypatch.setattr(formulas, "fold", no_fold)
    assert variables(f) == ({x1, Var(4), x5}, {x1, x2, x3, Var(4), x5})
    assert (free_vars(f), all_vars(f), variable_count(f)) == ({x1, Var(4), x5}, all_vars(closed), 5)
    assert require_sentence(closed) is closed
    with pytest.raises(ValueError, match="found free variables: x1, x4, x5$"):
        require_sentence(f)


def test_the_variable_readers_name_a_part_that_is_not_a_formula():
    # such a node still builds, and records no scope; each reader then
    # names the part, as a fold does
    eq = Eq(x1, x1)
    bad = And((eq, 3))
    for f in (bad, Not(bad), Exists(x1, bad), Implies(eq, bad), Or((bad, eq)), 3):
        for read in (variables, free_vars, all_vars, variable_count, require_sentence):
            with pytest.raises(TypeError, match="^not a formula: 3$"):
                read(f)
    with pytest.raises(TypeError, match=r"^not a formula: \(Eq"):
        variables(Not(Or((eq, (eq, 1)))))


def test_variable_count_at_many_names_allocates_no_sets():
    # each of the 2,000 quantifiers is a node whose names are recorded as
    # it is built: about 16 MiB of sorted tuples in all, and counting them
    # reads the root's. Gathering sets node by node peaked at 84 MiB.
    text = "".join(f"exists x{i}. " for i in range(1, 2001)) + "adj(x1,x2)"
    tracemalloc.start()
    try:
        f = parse_formula(text)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert variable_count(f) == 2000
        assert require_sentence(f) is f
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held + 2**20 and peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_a_wide_conjunction_takes_its_scope_in_one_union(monkeypatch):
    # 3,000 two-name atoms under one And: its free variables and its names
    # are each one union over the children, not a union grown child by child
    unions = []
    union = formulas._union

    def counted(scopes):
        unions.append(len(scopes))
        return union(scopes)

    monkeypatch.setattr(formulas, "_union", counted)
    f = parse_formula(" & ".join(f"adj(x{2 * i + 1},x{2 * i + 2})" for i in range(3000)))
    assert type(f) is And and len(f.children) == 3000
    assert f._free == f._names == tuple(range(1, 6001))
    assert unions == [3000, 3000]


def test_formula_files_round_trip():
    formulas = [
        parse_formula("x1=x2"),
        parse_formula("exists x1. adj(x1,x1) | C2(x1)"),
    ]
    buf = io.StringIO()
    write_formulas(formulas, buf)
    buf.seek(0)
    assert read_formulas(buf) == formulas


def test_formula_file_comments_and_error_line():
    text = "# a comment\nx1=x2\n\nadj(x1,\n"
    with pytest.raises(ParseError) as err:
        read_formulas(io.StringIO(text))
    assert err.value.line == 4
    # the column counts within the file line, indentation included
    with pytest.raises(ParseError) as err:
        read_formulas(io.StringIO("x1=x2\n    adj(x1,)\n"))
    assert (err.value.line, err.value.column) == (2, 12)


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("(x1=x1", "expected ')'", 7),
        ("x1=x1)", "trailing input after the formula", 6),
        ("(x1=x1 x2=x2)", "expected ')'", 8),
        ("exists x1 x1=x1", "expected '.' after the quantified variable", 11),
        ("x1=x1 &", "expected a formula", 8),
        ("()", "expected a formula", 2),
        ("exists x1. x1=x1 x2=x2", "trailing input after the formula", 18),
        ("!(x1=x1 | )", "expected a formula", 11),
        ("adj(x1 x2)", "expected ','", 8),
    ],
)
def test_parse_error_messages_and_columns(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)


def test_golden_formula_text_renders_back_to_itself():
    golden = Path(__file__).parent / "golden"
    for path in sorted(golden.glob("*.fo")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for text in (line for line in lines if line and not line.startswith("#")):
            assert render_formula(parse_formula(text)) == text, path.name



@pytest.mark.parametrize(
    "text, message, column",
    [
        ("x\u0661=x1", "unexpected character 'x'", 1),  # an Arabic-Indic digit one
        ("C\u0662(x1)", "unexpected character 'C'", 1),
        ("x1=x1 & x" + "1" * 5000 + "=x1", "variable index is too long", 9),
        ("x1=x1 | C" + "2" * 5000 + "(x1)", "color index is too long", 9),
    ],
    ids=["var-arabic-digit", "color-arabic-digit", "var-5000-digits", "color-5000-digits"],
)
def test_indices_are_ascii_naturals_int_can_read(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("x1=x1 x2=x2 @", "unexpected character '@'", 13),
        ("adj(x1 x2) & x0=x1", "variable index 0 is not allowed", 14),
        ("exists x1 x1=x1 | C0(x1)", "color index 0 is not allowed", 19),
    ],
)
def test_a_bad_character_or_index_is_reported_before_an_earlier_syntax_error(
    text, message, column
):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)


#: One token of rendered text: the pieces between which blanks may go.
TOKEN = re.compile(r"adj|exists|forall|x[0-9]+|C[0-9]+|->|\S")
#: What a mutation inserts or writes over: the grammar's characters, some
#: whole tokens, and junk; no non-ASCII digits, which the referee reads.
ALPHABET = list("adjexistsforallxC0123456789()=,.!&|-> \t\n@y") + [
    "x1", "x0", "C0", "C2", "->", "adj(", "exists x2.", "forall x1", "x1=x2", "  "
]


def _with_blanks(rng: random.Random, text: str) -> str:
    """``text`` with random blanks, tabs and newlines between its tokens."""
    tokens = TOKEN.findall(text)
    out = [tokens[0]]
    for left, right in zip(tokens, tokens[1:]):
        apart = left[-1].isalnum() and right[0].isalnum()
        out.append(rng.choice([" ", "\t", "\n", " \n\t"] if apart else ["", "", " ", "\t", "\n"]))
        out.append(right)
    return "".join(out)


def _mutant(rng: random.Random, text: str) -> str:
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + rng.randint(1, 3) :]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1 :]
    return text


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.message, exc.line, exc.column


def test_parser_agrees_with_the_tokenize_then_parse_referee():
    rng = random.Random(18)
    mutants = errors = 0
    for _ in range(1000):
        f = random_formula(rng, 3, 2, 3, size=rng.randint(2, 20))
        text = _with_blanks(rng, render_formula(f))
        assert parse_formula(text) is f and referee_parse(text) is f, text
        for _ in range(12):
            mutated = _mutant(rng, text)
            got, want = _outcome(parse_formula, mutated), _outcome(referee_parse, mutated)
            if isinstance(want, tuple):
                errors += 1
                assert got == want, mutated
            else:
                assert got is want, mutated
            mutants += 1
    assert mutants >= 10_000 and mutants - 500 > errors > 5000, errors


def test_golden_formulas_read_back_as_the_referee_reads_them():
    for path in sorted((Path(__file__).parent / "golden").glob("*.fo")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                assert parse_formula(line) is referee_parse(line), path.name


def test_parse_keeps_no_token_list():
    text = " & ".join(f"adj(x{i%7+1},x{i*3%7+1}) | x{i%5+1}=x{i%3+1}" for i in range(20000))
    tracemalloc.start()
    try:
        parse_formula(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB on {len(text) / 1e6:.2f} MB of text"


DEPTH = 100_000


def test_deep_negation_chain_parses_and_renders():
    text = "!" * DEPTH + "x1=x1"
    f = parse_formula(text)
    assert formula_length(f) == DEPTH + 1
    assert render_formula(f) == text


def test_deep_negation_chain_compares_hashes_and_reprs():
    a = parse_formula("!" * DEPTH + "x1=x1")
    b = parse_formula("!" * DEPTH + "x1=x1")
    c = parse_formula("!" * DEPTH + "x1=x2")
    assert a is b
    assert a != c and c != a
    assert hash(a) == hash(b)
    assert {a, b, c} == {a, c}
    assert repr(a) == "Not(child=" * DEPTH + "Eq(u=Var(index=1), v=Var(index=1))" + ")" * DEPTH


def test_repr_is_the_dataclass_text():
    f = parse_formula("exists x1. (adj(x1,x2) & !C3(x1)) | (forall x2. x1=x2 -> x1=x1)")
    assert repr(f) == (
        "Exists(var=Var(index=1), body=Or(children=(And(children=(Adj(u=Var(index=1), "
        "v=Var(index=2)), Not(child=HasColor(color=3, v=Var(index=1))))), "
        "Forall(var=Var(index=2), body=Implies(lhs=Eq(u=Var(index=1), v=Var(index=2)), "
        "rhs=Eq(u=Var(index=1), v=Var(index=1)))))))"
    )


def test_equality_and_hash_agree_with_structure():
    # rendering is injective on formulas (it round-trips), so equal text is
    # structural equality; re-parsed copies are built apart from the
    # originals, and interning makes each the very object it copies
    rng = random.Random(41)
    pool = [random_formula(rng, max_vars=3, colors=2, rank=2, size=rng.randint(1, 8)) for _ in range(120)]
    pool += [parse_formula(render_formula(f)) for f in pool[::2]]
    texts = [render_formula(f) for f in pool]
    equal_pairs = 0
    for i, (a, ta) in enumerate(zip(pool, texts)):
        for j, (b, tb) in enumerate(zip(pool, texts)):
            assert (a is b) == (ta == tb)
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
            if ta == tb:
                assert hash(a) == hash(b)
                equal_pairs += i != j
    assert equal_pairs >= 120
    assert len(set(pool)) == len(set(texts))
    assert Adj(x1, x2) != Eq(x1, x2) and Adj(x1, x2) != "adj(x1,x2)"


def test_equal_formulas_are_one_object():
    text = "exists x1. (adj(x1,x2) & !C3(x1)) | (forall x2. x1=x2 -> x1=x1)"
    assert parse_formula(text) is parse_formula(text)
    assert parse_formula(text) is parse_formula(render_formula(parse_formula(text)))
    assert Adj(u=x1, v=x2) is Adj(x1, x2) is parse_formula("adj(x1,x2)")
    assert rename_variables(parse_formula("adj(x1,x2)"), {x1: x2, x2: x1}) is Adj(x2, x1)


def test_repeated_subformula_is_one_object_and_one_table():
    f = parse_formula("adj(x1,x2) & adj(x1,x2)")
    assert f.children[0] is f.children[1]
    # the Adj table and the And table, 5^2 cells each; a second Adj
    # object would add a third
    assert evaluate_free_with_stats(gen_path(5), f)[1].tuples_touched == 2 * 5**2


def test_invalid_nodes_are_refused_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="color index must be >= 1"):
            HasColor(0, x1)
        with pytest.raises(ValueError, match="conjunction needs at least two children"):
            And((Adj(x1, x2),))


def test_copies_and_pickles_are_the_same_object():
    deep = parse_formula("!" * DEPTH + "x1=x1")
    f = parse_formula("forall x1. exists x2. adj(x1,x2) & !C2(x2) | x1=x2")
    for g in (f, deep):
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
    assert copy.deepcopy([f, {"key": f}]) == [f, {"key": f}]
    assert pickle.loads(pickle.dumps(f)) is f


def test_dropped_deep_chain_leaves_the_intern_table():
    gc.collect()
    before = len(formulas._NODES)
    chain = parse_formula("!" * DEPTH + "x5=x6")
    assert len(formulas._NODES) == before + DEPTH + 1
    del chain
    gc.collect()
    assert len(formulas._NODES) == before


def test_nodes_built_and_dropped_in_a_process_leave_it_quietly():
    # the intern table's removal callback runs as nodes go, during the
    # run and while the interpreter exits; a failure in it is printed
    # to stderr and does not change the exit code
    script = (
        "from fomc.formulas import Exists, Not, Var, parse_formula\n"
        "kept = [parse_formula(f'exists x{i}. adj(x{i},x{i+1}) & C{i}(x{i})') for i in range(1, 40)]\n"
        "for i in range(200):\n"
        "    dropped = Not(Exists(Var(i % 7 + 1), parse_formula('x1=x3 | !x2=x4')))\n"
        "del dropped\n"
        "deep = parse_formula('!' * 2000 + 'x5=x6')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert (out.returncode, out.stderr) == (0, "")


def test_match_args_patterns_still_match():
    match parse_formula("exists x2. adj(x1,x2) & !C3(x2)"):
        case Exists(Var(2), And((Adj(u, v), Not(HasColor(3, w))))):
            assert (u, v, w) == (x1, x2, x2)
        case other:
            pytest.fail(f"no pattern matched {other!r}")


def test_fold_visits_each_shared_node_once_unless_enter_is_given():
    shared = parse_formula("adj(x1,x2) & C1(x2)")
    f = Exists(x1, Or((shared, Forall(x2, shared), Not(shared))))
    seen = []

    def leave(node, parts, _env):
        seen.append(node)
        return sum(parts) + 1

    assert fold(f, leave) == 13 == formula_length(f)
    assert len(seen) == len({id(node) for node in seen}) == 7
    seen.clear()
    assert fold(f, leave, enter=lambda _node, env: env) == 13
    assert len(seen) == 13


def test_deep_parentheses_parse():
    f = parse_formula("(" * DEPTH + "x1=x1" + ")" * DEPTH)
    assert render_formula(f) == "x1=x1"
    with pytest.raises(ParseError) as err:
        parse_formula("(" * DEPTH + "x1=x1" + ")" * (DEPTH - 1))
    assert (err.value.message, err.value.column) == ("expected ')'", 2 * DEPTH + 5)


def test_deep_chain_pickles_to_the_same_object():
    deep = parse_formula("!" * DEPTH + "x1=x1")
    assert pickle.loads(pickle.dumps(deep)) is deep
    shared = parse_formula("adj(x1,x2) & C2(x2)")
    f = Exists(x1, Or((shared, Forall(x2, Implies(shared, Not(shared))), Eq(x1, x1))))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps([f, shared], protocol)) == [f, shared]


def test_one_var_per_index():
    assert Var(3) is Var(3) is Var(index=3) is pickle.loads(pickle.dumps(Var(3)))
    assert copy.copy(x2) is x2 and copy.deepcopy(x2) is x2
    assert sorted([Var(10), x2, Var(9), x1, x2]) == [x1, x2, x2, Var(9), Var(10)]
    assert x1 < x2 <= x2 < Var(10) and Var(10) > Var(9) >= Var(9)
    assert x1 != x2 and x1 != 1 and {x1, Var(1), x2} == {x1, x2}
    assert (str(Var(12)), repr(Var(12))) == ("x12", "Var(index=12)")
    with pytest.raises(TypeError):
        x1 < 2
    with pytest.raises(AttributeError):
        x1.index = 2
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"variable index must be >= 1, got {bad}"):
            Var(bad)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Or((Adj(x1, x2),)), ValueError, "disjunction needs at least two children"),
        (lambda: conjunction([]), ValueError, "empty conjunction"),
        (lambda: disjunction([]), ValueError, "empty disjunction"),
        (lambda: render_formula(5), TypeError, "not a formula: 5"),
        (lambda: x1.__delattr__("index"), AttributeError, "cannot delete field 'index'"),
        (
            lambda: random_formula(random.Random(0), 3, 2, 0),
            ValueError,
            "sentences need rank at least 1",
        ),
    ],
    ids=[
        "one-child-or", "empty-conjunction", "empty-disjunction", "render-int", "del-var-index",
        "rank-0",
    ],
)
def test_malformed_formula_input_is_refused(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_str_of_a_formula_is_its_rendering():
    text = "forall x1. exists x2. adj(x1,x2) & !C2(x2) | x1=x2"
    assert str(parse_formula(text)) == render_formula(parse_formula(text)) == text
