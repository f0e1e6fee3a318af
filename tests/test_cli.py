import io
import json

import pytest

from fomc.cli import _load_json, main
from fomc.formulas import read_formulas, variable_count
from fomc.graphs import (
    ColoredGraph,
    SCCombine,
    SCLeaf,
    build_sc_graph,
    gen_path,
    read_graph,
    write_graph,
)
from fomc.trees import RootedColoredTree, read_tree, write_tree
from fomc.trees import TreeModel

from .oracles import write_tree_model


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


def test_mc_via_tree(workdir, capsys):
    tmp, write = workdir
    star = RootedColoredTree.build({1: 0, 2: 1, 3: 1, 4: 1})
    tpath = write("star.t", tree_text(star))
    fpath = write("f.fo", "exists x1. exists x2. adj(x1,x2)\n")
    assert main(["mc", "--graph", tpath, "--formula", fpath, "--via", "tree"]) == 0


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
    "recipe, message",
    [
        ({"children": 5}, "'children' must be a JSON list"),
        ({"children": [{"leaf": "a"}, {"leaf": "b"}], "flip": 3}, "'flip' must be a JSON list"),
        ({"children": [{"children": "ab"}]}, "'children' must be a JSON list"),
        ({"children": [{"leaf": "a", "color": [1]}]}, "'color' must be an integer"),
        ({"leaf": "a", "color": None}, "'color' must be an integer"),
    ],
    ids=["children-int", "flip-int", "children-str", "color-list", "color-null"],
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
    ],
    ids=["trailing-comma", "unclosed", "two-documents", "list-root", "number-child"],
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


def test_xvalidate_corpus_dir(workdir, capsys):
    tmp, write = workdir
    corpus = tmp / "corpus"
    corpus.mkdir()
    (corpus / "a.g").write_text(graph_text(gen_path(3)), encoding="utf-8")
    (corpus / "a.fo").write_text("exists x2. exists x3. adj(x2,x3)\n", encoding="utf-8")
    assert main(["xvalidate", "--dir", str(corpus)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1..1", "ok 1 - a"]


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
