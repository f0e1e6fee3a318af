import io
import json
import random

import pytest

from fomc.cli import _load_json, main
from fomc.evaluator import model_check
from fomc.formulas import parse_formula, read_formulas, variable_count
from fomc.graphs import (
    ColoredGraph,
    PartitionFlip,
    SCCombine,
    SCLeaf,
    apply_flip,
    build_sc_graph,
    gen_disjoint_paths,
    gen_half_graph,
    gen_path,
    read_graph,
    write_graph,
)
from fomc.hardness import CrossCheck
from fomc.interpret import backwards_translate, complement_interpretation
from fomc import pebble, trees
from fomc.randgen import random_graph
from fomc.trees import RootedColoredTree, read_tree, write_tree
from fomc.trees import TreeModel

from .oracles import random_tree_model, refusal_path, write_tree_model


@pytest.fixture
def workdir(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return tmp_path, write


def graph_text(g):
    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()


def tree_text(t):
    buf = io.StringIO()
    write_tree(t, buf)
    return buf.getvalue()


def test_mc_true_and_false(workdir, capsys):
    tmp, write = workdir
    gpath = write("p5.g", graph_text(gen_path(5)))
    fpath = write("f.fo", "exists x1. exists x2. adj(x1,x2)\n")
    assert main(["mc", "--graph", gpath, "--formula", fpath]) == 0
    assert capsys.readouterr().out.strip() == "true"
    f2 = write("f2.fo", "exists x1. adj(x1,x1)\n")
    assert main(["mc", "--graph", gpath, "--formula", f2]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_mc_via_pipelines_match_naive(workdir, capsys):
    tmp, write = workdir
    gpath = write("p6.g", graph_text(gen_path(6)))
    fpath = write("f.fo", "exists x1. forall x2. adj(x1,x2) -> !x1=x2\n")
    direct = main(["mc", "--graph", gpath, "--formula", fpath])
    capsys.readouterr()
    via_td = main(
        ["mc", "--graph", gpath, "--formula", fpath, "--via", "treedepth", "--k", "3"]
    )
    capsys.readouterr()
    assert direct == via_td


def test_mc_via_treedepth_refuses_a_forest_search_past_the_work_cap(workdir, capsys, monkeypatch):
    # the search on this graph at k = 8 passes the cap (tests/test_trees.py);
    # a lower cap refuses it sooner, through the same exit
    tmp, write = workdir
    monkeypatch.setattr(trees, "FOREST_WORK_CAP", 20_000)
    gpath = write("g60.g", graph_text(random_graph(random.Random(60), 60, edge_prob=3 / 60)))
    fpath = write("f.fo", "exists x1. x1=x1\n")
    assert main(["mc", "--graph", gpath, "--formula", fpath, "--via", "treedepth", "--k", "8"]) == 3
    assert "more than 20000 vertices" in capsys.readouterr().err


def test_a_graph_header_over_the_vertex_limit_exits_3(workdir, capsys, monkeypatch):
    tmp, write = workdir
    fpath = write("f.fo", "exists x1. x1=x1\n")
    huge = write("huge.g", "p graph 100000000 1\n")
    assert main(["mc", "--graph", huge, "--formula", fpath]) == 3
    assert "line 1: the header declares 100000000 vertices" in capsys.readouterr().err
    monkeypatch.setattr(pebble, "DEFAULT_POSITION_CAP", 5)
    gpath = write("p6.g", graph_text(gen_path(6)))
    assert main(["mc", "--graph", gpath, "--formula", fpath]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fomc: resource limit: line 1: ") and "more than the limit of 5" in err


def test_mc_via_treedepth_prints_the_path_that_refuses_k(workdir, capsys):
    tmp, write = workdir
    g = gen_path(8)
    gpath = write("p8.g", graph_text(g))
    fpath = write("f.fo", "exists x1. x1=x1\n")
    assert main(["mc", "--graph", gpath, "--formula", fpath, "--via", "treedepth", "--k", "3"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("fomc: the graph has tree-depth larger than 3: it has a path of 8 vertices")
    assert sorted(refusal_path(g, 3, err)) == list(g.vertices)


def test_mc_via_tree(workdir, capsys):
    tmp, write = workdir
    star = RootedColoredTree.build({1: 0, 2: 1, 3: 1, 4: 1})
    tpath = write("star.t", tree_text(star))
    fpath = write("f.fo", "exists x1. exists x2. adj(x1,x2)\n")
    assert main(["mc", "--graph", tpath, "--formula", fpath, "--via", "tree"]) == 0


def test_mc_naive_does_not_count_the_sentences_variables(workdir, capsys, monkeypatch):
    # only the decomposition routes read s
    tmp, write = workdir
    gpath = write("p5.g", graph_text(gen_path(5)))

    def crash(*args):
        raise KeyError("variable_count")

    monkeypatch.setattr("fomc.cli.variable_count", crash)
    for text, code in (("exists x1. exists x2. adj(x1,x2)", 0), ("exists x1. adj(x1,x1)", 1)):
        fpath = write("f.fo", text + "\n")
        assert main(["mc", "--graph", gpath, "--formula", fpath]) == code
        assert capsys.readouterr().out.strip() == ("true" if code == 0 else "false")
    assert main(["mc", "--graph", gpath, "--formula", fpath, "--via", "treedepth", "--k", "3"]) == 4


def test_equiv_exit_codes(workdir, capsys):
    tmp, write = workdir
    a = write("p5.g", graph_text(gen_path(5)))
    b = write("p6.g", graph_text(gen_path(6)))
    assert main(["equiv", "--a", a, "--b", b, "--s", "3"]) == 1
    assert capsys.readouterr().out.strip() == "inequivalent"
    assert main(["equiv", "--a", a, "--b", a, "--s", "3"]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_equiv_resource_refusal(workdir, capsys):
    tmp, write = workdir
    a = write("a.g", graph_text(gen_path(40)))
    b = write("b.g", graph_text(gen_path(41)))
    code = main(["equiv", "--a", a, "--b", b, "--s", "3", "--cap", "1000"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_equiv_at_two_pebbles_refuses_a_cap_below_its_cells(workdir, capsys):
    # at s = 2 the cap counts n + 2m cells per graph: 40 + 78 and 41 + 80
    tmp, write = workdir
    a = write("a.g", graph_text(gen_path(40)))
    b = write("b.g", graph_text(gen_path(41)))
    assert main(["equiv", "--a", a, "--b", b, "--s", "2", "--cap", "238"]) == 3
    assert "resource limit" in capsys.readouterr().err
    assert main(["equiv", "--a", a, "--b", b, "--s", "2", "--cap", "239"]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_census(workdir, capsys):
    tmp, write = workdir
    paths = [write(f"p{i}.g", graph_text(gen_path(i))) for i in (2, 3, 2)]
    assert main(["census", *paths, "--s", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0 2", "1"]


@pytest.mark.parametrize("s", ["0", "-3"])
def test_nonpositive_pebble_count_exits_2(workdir, capsys, s):
    tmp, write = workdir
    a = write("p4.g", graph_text(gen_path(4)))
    b = write("p5.g", graph_text(gen_path(5)))
    for other in (a, b):
        assert main(["equiv", "--a", a, "--b", other, "--s", s]) == 2
        assert "pebble count" in capsys.readouterr().err
        assert main(["census", a, other, "--s", s]) == 2
        assert "pebble count" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_1_exits_2(workdir, capsys, cap):
    tmp, write = workdir
    a = write("p4.g", graph_text(gen_path(4)))
    b = write("p5.g", graph_text(gen_path(5)))
    for other in (a, b):
        assert main(["equiv", "--a", a, "--b", other, "--s", "2", "--cap", cap]) == 2
        assert f"tuple cap must be positive, got {cap}" in capsys.readouterr().err
        assert main(["census", a, other, "--s", "2", "--cap", cap]) == 2
        assert f"tuple cap must be positive, got {cap}" in capsys.readouterr().err


def test_kernelize_writes_kernel(workdir, capsys):
    tmp, write = workdir
    star5 = RootedColoredTree.build({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    tpath = write("star5.t", tree_text(star5))
    out = str(tmp / "kernel.t")
    assert main(["kernelize", "--tree", tpath, "--s", "1", "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "kept=2 bound=3"
    with open(out, encoding="utf-8") as fh:
        kernel = read_tree(fh)
    assert kernel.n == 2


def test_kernelize_refuses_a_second_tree_header(workdir, capsys):
    _, write = workdir
    tpath = write("twice.t", "p tree 3 1\np tree 2 1\nr 1\nt 2 1\n")
    assert main(["kernelize", "--tree", tpath, "--s", "1"]) == 2
    assert "line 2: duplicate header" in capsys.readouterr().err


def test_gen_commands(workdir, capsys):
    tmp, write = workdir
    out = str(tmp / "g.g")
    assert main(["gen", "path", "--n", "4", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert read_graph(fh) == gen_path(4)
    assert main(["gen", "halfgraph", "--t", "3", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert len(read_graph(fh).edges) == 6
    assert main(["gen", "kpt", "--k", "2", "--t", "3", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert len(read_graph(fh).edges) == 4
    recipe = {"children": [{"leaf": "a"}, {"leaf": "b"}], "flip": ["a", "b"]}
    rpath = write("r.json", json.dumps(recipe))
    assert main(["gen", "sc", "--recipe", rpath, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert read_graph(fh) == gen_path(2)


def test_gen_flip_roundtrip(workdir, capsys):
    tmp, write = workdir
    gpath = write("g.g", graph_text(gen_path(4)))
    ppath = write("parts.p", "part 1 1 2\npart 2 3 4\n")
    out1 = str(tmp / "flipped.g")
    assert (
        main(
            ["gen", "flip", "--graph", gpath, "--parts", ppath, "--rel", "1-2", "--out", out1]
        )
        == 0
    )
    out2 = str(tmp / "back.g")
    assert (
        main(
            ["gen", "flip", "--graph", out1, "--parts", ppath, "--rel", "1-2", "--out", out2]
        )
        == 0
    )
    with open(out2, encoding="utf-8") as fh:
        assert read_graph(fh) == gen_path(4)


def test_gen_flip_unknown_part_exits_2(workdir, capsys):
    tmp, write = workdir
    gpath = write("g.g", graph_text(gen_path(4)))
    ppath = write("parts.p", "part 1 1 2\npart 2 3 4\n")
    out = str(tmp / "flipped.g")
    args = ["gen", "flip", "--graph", gpath, "--parts", ppath, "--rel", "1-7", "--out", out]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("fomc: --rel names part 7")


@pytest.mark.parametrize(
    "args, message",
    [
        ("kpt --k 2 --t 3 --flip 1-4", "--flip names part 4, not in layers 1..3"),
        ("flip --graph {g} --parts {parts} --rel 1-9,7-1", "--rel names part 9, not in {parts}"),
    ],
    ids=["kpt-layer", "flip-first-unknown"],
)
def test_gen_refuses_an_unknown_part_label_naming_it_and_its_option(
    workdir, capsys, args, message
):
    tmp, write = workdir
    paths = {
        "g": write("g.g", graph_text(gen_path(4))),
        "parts": write("parts.p", "part 1 1 2\npart 2 3 4\n"),
    }
    assert main(["gen", *args.format(**paths).split(), "--out", str(tmp / "o.g")]) == 2
    assert capsys.readouterr().err == f"fomc: {message.format(**paths)}\n"
    assert not (tmp / "o.g").exists()


def test_gen_flip_without_pairs_still_checks_the_parts(workdir, capsys):
    tmp, write = workdir
    gpath = write("g.g", graph_text(gen_path(4)))
    ppath = write("parts.p", "part 1 1 2\npart 2 3 9\n")
    assert main(["gen", "flip", "--graph", gpath, "--parts", ppath, "--out", str(tmp / "o.g")]) == 2
    assert capsys.readouterr().err == "fomc: part vertex 9 outside the graph\n"


def test_gen_halfgraph_flip_skips_empty_items(workdir):
    tmp, write = workdir
    out = str(tmp / "g.g")
    assert main(["gen", "halfgraph", "--t", "3", "--flip", "AA,,AB", "--out", out]) == 0
    g, side_a, side_b = gen_half_graph(3)
    flip = PartitionFlip.build([side_a, side_b], [(0, 0), (0, 1)])
    with open(out, encoding="utf-8") as fh:
        assert read_graph(fh) == apply_flip(g, flip)


def test_gen_flip_refuses_a_repeated_vertex_line(workdir, capsys):
    # the second line used to recolor vertex 1 silently
    tmp, write = workdir
    gpath = write("dup.g", "p graph 2 3\nv 1 2\nv 1 3\n")
    ppath = write("parts.p", "part 1 1\npart 2 2\n")
    assert main(["gen", "flip", "--graph", gpath, "--parts", ppath]) == 2
    assert capsys.readouterr().err == "fomc: line 3: duplicate record for vertex 1\n"


@pytest.mark.parametrize(
    "recipe, message",
    [
        ({"children": 5}, "'children' must be a JSON list"),
        ({"children": [{"leaf": "a"}, {"leaf": "b"}], "flip": 3}, "'flip' must be a JSON list"),
        ({"children": [{"children": "ab"}]}, "'children' must be a JSON list"),
        ({"children": [{"leaf": "a", "color": [1]}]}, "'color' must be an integer"),
        ({"leaf": "a", "color": None}, "'color' must be an integer"),
        ({"leaf": "a", "color": "\u0662"}, "'color' must be an integer"),
        ({"leaf": "a", "color": " +3 "}, "'color' must be an integer"),
        ({"leaf": "a", "color": True}, "'color' must be an integer"),
        ({"leaf": "a", "color": 2.7}, "'color' must be an integer"),
    ],
    ids=[
        "children-int", "flip-int", "children-str", "color-list", "color-null",
        "color-arabic-indic-digit", "color-signed-padded", "color-bool", "color-float",
    ],
)
def test_gen_sc_malformed_recipe_exits_2(workdir, capsys, recipe, message):
    tmp, write = workdir
    rpath = write("r.json", json.dumps(recipe))
    assert main(["gen", "sc", "--recipe", rpath, "--out", str(tmp / "g.g")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fomc: recipe field {message}")



def chain_recipe(depth: int) -> tuple[str, SCCombine]:
    """A chain of ``depth`` nested combines as JSON text and as the same
    recipe built in Python: level i adds leaf vi and flips it with v(i-1)."""
    opens, closes = [], []
    recipe = SCLeaf(name="v0")
    for i in range(1, depth + 1):
        opens.append('{"children": [')
        closes.append(f', {{"leaf": "v{i}", "color": 2}}], "flip": ["v{i - 1}", "v{i}"]}}')
        flip = frozenset({f"v{i - 1}", f"v{i}"})
        recipe = SCCombine(children=(recipe, SCLeaf(name=f"v{i}", color=2)), flip_names=flip)
    return "".join(opens) + '{"leaf": "v0"}' + "".join(closes), recipe


@pytest.mark.parametrize("depth", [520, 5000])
def test_gen_sc_reads_deeply_nested_recipes(workdir, depth):
    tmp, write = workdir
    text, recipe = chain_recipe(depth)
    out = str(tmp / "g.g")
    assert main(["gen", "sc", "--recipe", write("r.json", text), "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        g = read_graph(fh)
    assert g == build_sc_graph(recipe)
    assert g.n == depth + 1 and len(g.edges) == depth


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"children": [{"leaf": "a"},]}', "malformed JSON"),
        ('{"leaf": "a"', "malformed JSON"),
        ('{"leaf": "a"} {"leaf": "b"}', "malformed JSON"),
        ('[{"leaf": "a"}]', "recipe nodes must be JSON objects"),
        ('{"children": [{"leaf": "a"}, 5]}', "recipe nodes must be JSON objects"),
        ('{"name": "a"}', "recipe nodes need a 'leaf' or 'children' key"),
    ],
    ids=["trailing-comma", "unclosed", "two-documents", "list-root", "number-child", "no-kind"],
)
def test_gen_sc_malformed_json_exits_2(workdir, capsys, text, message):
    tmp, write = workdir
    rpath = write("r.json", text)
    assert main(["gen", "sc", "--recipe", rpath, "--out", str(tmp / "g.g")]) == 2
    assert capsys.readouterr().err.startswith(f"fomc: {message}")


JSON_TEXTS = [
    '{"a": [1, -2.5e3, true, false, null, "\\u00e9\\n"], "b": {}, "c": [[]], "a": 0}',
    ' [ {"x" : {"y": [NaN, -Infinity]}} ] ',
    "[]", '"s"', "17", '{"k": [1, 2,]}', "[1 2]", '{"k" 1}', '{1: 2}', '{"k": 1,}',
    "[", "]", "", "[1]]", "tru", "[01]", '{"a": {"b": [}]}', "[,]", '{"a"::1}', "[1]x",
]


@pytest.mark.parametrize("text", JSON_TEXTS)
def test_json_reader_agrees_with_the_json_module(text):
    try:
        want = json.loads(text, object_hook=lambda d: ("object", d))
    except ValueError:
        with pytest.raises(ValueError):
            _load_json(text, lambda d: ("object", d))
    else:
        assert repr(_load_json(text, lambda d: ("object", d))) == repr(want)


def test_graph_file_number_error_names_the_line(workdir, capsys):
    tmp, write = workdir
    gpath = write("g.g", "p graph x 2\n")
    assert main(["gen", "flip", "--graph", gpath, "--parts", gpath, "--out", str(tmp / "o.g")]) == 2
    assert capsys.readouterr().err.startswith("fomc: line 1: expected a natural number, got 'x'")


def test_reduce_and_validate_outputs(workdir, capsys):
    tmp, write = workdir
    gpath = write("k3.g", graph_text(
        read_graph(io.StringIO("p graph 3 1\ne 1 2\ne 1 3\ne 2 3\n"))
    ))
    fpath = write("f.fo", "exists x2. exists x3. adj(x2,x3)\n")
    outdir = str(tmp / "out")
    assert main(["reduce", "--graph", gpath, "--formula", fpath, "--out", outdir]) == 0
    capsys.readouterr()
    assert main(["mc", "--graph", f"{outdir}/path.g", "--formula", f"{outdir}/psi.fo"]) == 0
    provenance = (tmp / "out" / "provenance.txt").read_text(encoding="utf-8")
    assert provenance.startswith("ordering 1 2 3")


def test_xvalidate_random_tap(workdir, capsys):
    assert main(["xvalidate", "--random", "5", "--seed", "11"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# seed 11"
    assert out[1] == "1..5"
    assert all(line.startswith("ok") for line in out[2:])


def test_xvalidate_reports_a_disagreement_as_not_ok(workdir, capsys, monkeypatch):
    tmp, write = workdir
    corpus = tmp / "corpus"
    corpus.mkdir()
    for name in ("a", "b"):
        (corpus / f"{name}.g").write_text(graph_text(gen_path(3)), encoding="utf-8")
        (corpus / f"{name}.fo").write_text("exists x1. C1(x1)\n", encoding="utf-8")
    verdicts = iter([CrossCheck(lhs=True, rhs=True), CrossCheck(lhs=True, rhs=False)])
    monkeypatch.setattr("fomc.cli.cross_validate", lambda g, phi: next(verdicts))
    assert main(["xvalidate", "--dir", str(corpus)]) == 1
    tap = capsys.readouterr().out.splitlines()
    assert tap == ["1..2", "ok 1 - a", "not ok 2 - b lhs=True rhs=False"]


@pytest.mark.parametrize(
    "flag, value, least", [("--n", "2", 3), ("--q", "0", 1), ("--random", "-1", 0)]
)
def test_xvalidate_random_refuses_bad_sizes_before_drawing(capsys, flag, value, least):
    assert main(["xvalidate", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"fomc: {flag} must be at least {least}, got {value}\n"


def test_xvalidate_random_zero_is_an_empty_plan(capsys):
    assert main(["xvalidate", "--random", "0", "--seed", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == ["# seed 5", "1..0"]


def test_xvalidate_corpus_dir(workdir, capsys):
    tmp, write = workdir
    corpus = tmp / "corpus"
    corpus.mkdir()
    (corpus / "a.g").write_text(graph_text(gen_path(3)), encoding="utf-8")
    (corpus / "a.fo").write_text("exists x2. exists x3. adj(x2,x3)\n", encoding="utf-8")
    assert main(["xvalidate", "--dir", str(corpus)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1..1", "ok 1 - a"]


def test_xvalidate_corpus_refuses_a_graph_without_its_formula(workdir, capsys):
    tmp, write = workdir
    corpus = tmp / "corpus"
    corpus.mkdir()
    (corpus / "a.g").write_text(graph_text(gen_path(3)), encoding="utf-8")
    assert main(["xvalidate", "--dir", str(corpus)]) == 2
    assert capsys.readouterr().err == f"fomc: {corpus / 'a.g'} has no matching a.fo\n"


def test_gen_halfgraph_refuses_a_flip_pair_outside_its_sides(workdir, capsys):
    tmp, write = workdir
    assert main(["gen", "halfgraph", "--t", "3", "--flip", "AB,AC", "--out", str(tmp / "g.g")]) == 2
    assert capsys.readouterr().err == "fomc: bad half-graph flip pair 'AC', want e.g. AB\n"


def test_translate_identity(workdir, capsys):
    tmp, write = workdir
    fpath = write("f.fo", "exists x1. C1(x1)\n")
    out = str(tmp / "t.fo")
    assert main(["translate", "--formula", fpath, "--interp", "identity", "--out", out]) == 0
    text = (tmp / "t.fo").read_text(encoding="utf-8")
    assert "exists x1." in text


def test_translate_custom_reads_its_overhead_off_the_formulas(workdir, capsys):
    tmp, write = workdir
    fpath = write("f.fo", "exists x1. C1(x1)\n")
    domain = write("dom.fo", "exists x2. adj(x1,x2)\n")
    edge = write("edge.fo", "adj(x1,x2)\n")
    out = str(tmp / "t.fo")
    argv = ["translate", "--formula", fpath, "--interp", "custom"]
    assert main(argv + ["--domain", domain, "--edge", edge, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        (translated,) = read_formulas(fh)
    assert variable_count(translated) == 2


def test_equiv_and_census_take_colors_of_any_size(workdir, capsys):
    tmp, write = workdir
    big = 2**63 - 1
    a = write("a.g", f"p graph 2 {big}\nv 2 {big}\n")
    b = write("b.g", "p graph 2 1\n")
    assert main(["equiv", "--a", a, "--b", b, "--s", "2"]) == 1
    assert capsys.readouterr().out.strip() == "inequivalent"
    assert main(["census", a, b, a, "--s", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 2", "1"]


def test_validate_subcommands(workdir, capsys):
    tmp, write = workdir
    gpath = write("p3.g", graph_text(gen_path(3)))
    good = write("good.f", "p forest 3\nt 1 2\nt 2 0\nt 3 2\n")
    bad = write("bad.f", "p forest 3\nt 1 0\nt 2 1\nt 3 0\n")
    assert main(["validate", "ef", "--graph", gpath, "--witness", good]) == 0
    assert main(["validate", "ef", "--graph", gpath, "--witness", bad]) == 1
    e3 = write("e3.g", "p graph 3 1\n")
    stray = write("stray.f", "p forest 3\nt 9 1\n")
    assert main(["validate", "ef", "--graph", e3, "--witness", stray]) == 2

    tree = RootedColoredTree.build({4: 0, 1: 4, 2: 4, 3: 4})
    tm = TreeModel.build(tree, [(1, 1, 2, True)])
    buf = io.StringIO()
    write_tree_model(tm, buf)
    tmpath = write("tm.t", buf.getvalue())
    k3 = write(
        "k3.g", "p graph 3 1\ne 1 2\ne 1 3\ne 2 3\n"
    )
    assert main(["validate", "tm", "--graph", k3, "--witness", tmpath]) == 0
    assert main(["validate", "tm", "--graph", gpath, "--witness", tmpath]) == 1


def test_reduce_writes_far_path_positions(workdir, capsys):
    tmp, write = workdir
    gpath = write("g.g", graph_text(ColoredGraph.build(1200, [(1199, 1200)])))
    fpath = write("f.fo", "exists x1. exists x2. adj(x1,x2)\n")
    assert main(["reduce", "--graph", gpath, "--formula", fpath, "--out", str(tmp)]) == 0
    with open(tmp / "psi.fo", encoding="utf-8") as fh:
        (psi,) = read_formulas(fh)
    assert variable_count(psi) == 4


def test_usage_error_exit_code(workdir, capsys):
    tmp, write = workdir
    fpath = write("f.fo", "exists x1. C1(x1)\n")
    missing = str(tmp / "nope.g")
    assert main(["mc", "--graph", missing, "--formula", fpath]) == 2
    bad = write("bad.fo", "exists x1. C1(\n")
    gpath = write("p3.g", graph_text(gen_path(3)))
    assert main(["mc", "--graph", gpath, "--formula", bad]) == 2


def test_deterministic_output_bytes(workdir, capsys):
    tmp, write = workdir
    out1, out2 = str(tmp / "a.g"), str(tmp / "b.g")
    main(["gen", "halfgraph", "--t", "4", "--flip", "AA,BB", "--out", out1])
    main(["gen", "halfgraph", "--t", "4", "--flip", "AA,BB", "--out", out2])
    assert (tmp / "a.g").read_bytes() == (tmp / "b.g").read_bytes()


@pytest.mark.parametrize(
    "error, code, message",
    [
        (RecursionError("maximum recursion depth exceeded"), 3, "fomc: resource limit"),
        (MemoryError(), 3, "fomc: resource limit"),
        (KeyError("boom"), 4, "fomc: internal error"),
    ],
    ids=["recursion", "memory", "internal"],
)
def test_crash_exit_codes(workdir, capsys, monkeypatch, error, code, message):
    tmp, write = workdir
    tpath = write("star.t", tree_text(RootedColoredTree.build({1: 0, 2: 1})))
    fpath = write("f.fo", "exists x1. x1=x1\n")

    def crash(*args):
        raise error

    monkeypatch.setattr("fomc.interpret.mc_tree", crash)
    assert main(["mc", "--graph", tpath, "--formula", fpath, "--via", "tree"]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("color", [0, -1])
@pytest.mark.parametrize("alone", [True, False], ids=["alone", "beside-color-2"])
def test_gen_sc_leaf_color_below_1_names_the_leaf(workdir, capsys, color, alone):
    tmp, write = workdir
    leaf = {"leaf": "a", "color": color}
    recipe = leaf if alone else {"children": [leaf, {"leaf": "b", "color": 2}]}
    rpath = write("r.json", json.dumps(recipe))
    assert main(["gen", "sc", "--recipe", rpath, "--out", str(tmp / "g.g")]) == 2
    assert capsys.readouterr().err == f"fomc: recipe leaf 'a' has color {color}, below 1\n"


def test_gen_sc_color_is_a_json_integer_or_ascii_digits(workdir, capsys):
    tmp, write = workdir
    recipe = {"children": [{"leaf": "a", "color": 3}, {"leaf": "b", "color": "02"}]}
    out = str(tmp / "g.g")
    assert main(["gen", "sc", "--recipe", write("r.json", json.dumps(recipe)), "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert read_graph(fh).colors == (3, 2)


@pytest.mark.parametrize(
    "rel, message",
    [
        ("\u0661-\u0662", "fomc: --rel: expected a natural number, got '\u0661'"),
        ("1", "fomc: --rel: expected a natural number, got ''"),
        ("1-+2", "fomc: --rel: expected a natural number, got '+2'"),
    ],
    ids=["arabic-indic-digits", "no-dash", "signed"],
)
def test_gen_flip_rel_pairs_are_ascii_naturals(workdir, capsys, rel, message):
    tmp, write = workdir
    gpath = write("g.g", graph_text(gen_path(4)))
    ppath = write("parts.p", "part 1 1 2\npart 2 3 4\n")
    args = ["gen", "flip", "--graph", gpath, "--parts", ppath, "--rel", rel]
    assert main(args + ["--out", str(tmp / "o.g")]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_gen_kpt_flip_matches_the_generator(workdir, capsys):
    tmp, write = workdir
    out = str(tmp / "g.g")
    assert main(["gen", "kpt", "--k", "3", "--t", "4", "--flip", "1-1, 2-4,", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        g, layers = gen_disjoint_paths(3, 4)
        assert read_graph(fh) == apply_flip(g, PartitionFlip.build(layers, [(0, 0), (1, 3)]))
    args = ["gen", "kpt", "--k", "2", "--t", "3", "--flip", "\u0661-\u0662", "--out", out]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("fomc: --flip: expected a natural number")


def test_mc_via_treemodel_matches_naive(workdir, capsys):
    tmp, write = workdir
    rng = random.Random(3)
    sentences = [
        "exists x1. exists x2. adj(x1,x2)",
        "forall x1. exists x2. adj(x1,x2)",
        "exists x1. C2(x1) & forall x2. (adj(x1,x2) -> C1(x2))",
    ]
    for trial in range(4):
        g, tm = random_tree_model(rng, rng.randint(2, 6), 2)
        buf = io.StringIO()
        write_tree_model(tm, buf)
        gpath = write(f"g{trial}.g", graph_text(g))
        tmpath = write(f"tm{trial}.t", buf.getvalue())
        for text in sentences:
            fpath = write("f.fo", text + "\n")
            argv = ["mc", "--graph", gpath, "--formula", fpath, "--via", "treemodel"]
            code = main(argv + ["--tree-model", tmpath])
            verdict = model_check(g, parse_formula(text))
            assert code == (0 if verdict else 1)
            assert capsys.readouterr().out.strip() == str(verdict).lower()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--via", "treedepth"], "--via treedepth needs --k"),
        (["--via", "treemodel"], "--via treemodel needs --tree-model"),
    ],
    ids=["treedepth-without-k", "treemodel-without-tree-model"],
)
def test_mc_missing_route_flag_exits_2(workdir, capsys, extra, message):
    tmp, write = workdir
    gpath = write("p4.g", graph_text(gen_path(4)))
    fpath = write("f.fo", "exists x1. exists x2. adj(x1,x2)\n")
    assert main(["mc", "--graph", gpath, "--formula", fpath] + extra) == 2
    assert capsys.readouterr().err.startswith(f"fomc: {message}")


@pytest.mark.parametrize(
    "text, found",
    [("", 0), ("exists x1. x1=x1\nforall x1. x1=x1\n", 2)],
    ids=["empty", "two-formulas"],
)
def test_mc_needs_exactly_one_formula_in_its_file(workdir, capsys, text, found):
    tmp, write = workdir
    gpath = write("p4.g", graph_text(gen_path(4)))
    fpath = write("f.fo", text)
    assert main(["mc", "--graph", gpath, "--formula", fpath]) == 2
    message = f"fomc: {fpath}: expected exactly one formula, found {found}"
    assert capsys.readouterr().err.startswith(message)


def test_kernelize_writes_next_to_the_tree_by_default(workdir, capsys):
    tmp, write = workdir
    star5 = RootedColoredTree.build({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    tpath = write("star5.t", tree_text(star5))
    assert main(["kernelize", "--tree", tpath, "--s", "1"]) == 0
    assert capsys.readouterr().out.strip() == "kept=2 bound=3"
    with open(tmp / "star5.kernel.t", encoding="utf-8") as fh:
        assert read_tree(fh).n == 2


def test_translate_complement(workdir, capsys):
    tmp, write = workdir
    text = "exists x1. forall x2. (adj(x1,x2) | x1=x2)"
    fpath = write("f.fo", text + "\n")
    out = str(tmp / "t.fo")
    assert main(["translate", "--formula", fpath, "--interp", "complement", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        (translated,) = read_formulas(fh)
    assert translated == backwards_translate(parse_formula(text), complement_interpretation())


@pytest.mark.parametrize("given", ["--domain", "--edge", None])
def test_translate_custom_without_both_formulas_exits_2(workdir, capsys, given):
    tmp, write = workdir
    fpath = write("f.fo", "exists x1. C1(x1)\n")
    argv = ["translate", "--formula", fpath, "--interp", "custom"]
    if given is not None:
        argv += [given, write("part.fo", "adj(x1,x2)\n")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("fomc: --interp custom needs --domain and --edge")
