"""The four line-record file formats, driven from one table: shuffled
round trips, refused field counts, unknown kinds and repeated lines."""

import io
import random
import re

import pytest

from fomc import pebble
from fomc.graphs import ColoredGraph, read_graph, write_graph
from fomc.pebble import ResourceLimitError
from fomc.randgen import random_graph
from fomc.trees import (
    EliminationForest,
    read_forest,
    read_tree,
    read_tree_model,
    write_tree,
)

from .oracles import random_tree, random_tree_model, write_forest, write_tree_model


def random_forest(rng: random.Random, n: int) -> EliminationForest:
    return EliminationForest(parents=tuple(rng.randrange(v) for v in range(1, n + 1)))


#: name -> (reader, writer, random instance, usage text per record kind,
#: as README "File formats" gives them)
FORMATS = {
    "graph": (
        read_graph,
        write_graph,
        lambda rng: random_graph(rng, rng.randint(1, 9), colors=3),
        {"p": "p graph <n> <c>", "v": "v <id> <color>", "e": "e <u> <v>"},
    ),
    "tree": (
        read_tree,
        write_tree,
        lambda rng: random_tree(rng, rng.randint(1, 12), 3, colors=3),
        {"p": "p tree <n> <c>", "r": "r <root>", "t": "t <v> <parent> [<color>]"},
    ),
    "tree-model": (
        read_tree_model,
        write_tree_model,
        lambda rng: random_tree_model(rng, rng.randint(1, 6), 2)[1],
        {
            "p": "p tree <n> <c>",
            "r": "r <root>",
            "t": "t <v> <parent> [<color>]",
            "rule": "rule <c1> <c2> <d> <0|1>",
        },
    ),
    "forest": (
        read_forest,
        write_forest,
        lambda rng: random_forest(rng, rng.randint(1, 12)),
        {"p": "p forest <n>", "t": "t <v> <parent>"},
    ),
}

#: One small valid file per format, for bad lines to be put in front of.
VALID = {
    "graph": "p graph 2 2\nv 1 2\ne 1 2\n",
    "tree": "p tree 2 2\nr 1\nt 2 1 2\n",
    "tree-model": "p tree 2 2\nr 1\nt 2 1 2\nrule 1 2 1 0\n",
    "forest": "p forest 2\nt 1 0\nt 2 1\n",
}

KINDS = [(name, kind) for name, fmt in FORMATS.items() for kind in fmt[3]]


def text_of(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", FORMATS)
def test_round_trip_with_lines_in_any_order(name):
    reader, writer, instance, _ = FORMATS[name]
    rng = random.Random(22)
    for _ in range(30):
        obj = instance(rng)
        lines = text_of(writer, obj).splitlines(keepends=True)
        rng.shuffle(lines)
        assert reader(io.StringIO("".join(lines))) == obj


@pytest.mark.parametrize("name", FORMATS)
def test_valid_samples_read(name):
    assert FORMATS[name][0](io.StringIO(VALID[name]))


def filled(usage: str, optional: bool) -> list[str]:
    """The fields of a line of ``usage`` with every number 1, the trailing
    optional one kept or left out."""
    words = usage.split()
    if words[-1].startswith("[") and not optional:
        words.pop()
    return [word if word[0] not in "<[" else "1" for word in words]


@pytest.mark.parametrize("name, kind", KINDS, ids=[f"{n}-{k}" for n, k in KINDS])
def test_a_field_too_many_or_too_few_is_refused_with_the_usage(name, kind):
    reader, usage = FORMATS[name][0], FORMATS[name][3][kind]
    too_many = filled(usage, optional=True) + ["1"]
    too_few = filled(usage, optional=False)[:-1]
    for fields in (too_many, too_few):
        text = VALID[name] + " ".join(fields) + "\n"
        line = VALID[name].count("\n") + 1
        with pytest.raises(ValueError, match=f"^{re.escape(f'line {line}: want {usage!r}')}$"):
            reader(io.StringIO(text))


@pytest.mark.parametrize("name", FORMATS)
def test_a_wrong_format_word_in_the_header_is_refused(name):
    reader, usage = FORMATS[name][0], FORMATS[name][3]["p"]
    text = "p other 2 2\n" + VALID[name]
    with pytest.raises(ValueError, match=f"^{re.escape(f'line 1: want {usage!r}')}$"):
        reader(io.StringIO(text))


@pytest.mark.parametrize("name", FORMATS)
def test_unknown_kind_and_missing_header_are_refused(name):
    reader, usage = FORMATS[name][0], FORMATS[name][3]["p"]
    with pytest.raises(ValueError, match="^line 2: unknown record 'x'$"):
        reader(io.StringIO("# comment\nx 1 2\n" + VALID[name]))
    body = VALID[name].split("\n", 1)[1]
    with pytest.raises(ValueError, match=f"^{re.escape(f'missing header {usage!r}')}$"):
        reader(io.StringIO(body))


def test_rule_lines_are_unknown_in_a_plain_tree_file():
    with pytest.raises(ValueError, match="^line 4: unknown record 'rule'$"):
        read_tree(io.StringIO(VALID["tree-model"]))


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("graph", "p graph 2 3\nv 1 2\nv 1 3\n", "line 3: duplicate record for vertex 1"),
        ("graph", "p graph 2 1\np graph 2 1\n", "line 2: duplicate header"),
        ("graph", "p graph 2 1\ne 1 2\ne 2 1\n", "line 3: duplicate edge (1, 2)"),
        ("tree", "p tree 2 1\nr 1\nt 2 1\nt 2 1 1\n", "line 4: duplicate record for vertex 2"),
        ("tree", "p tree 2 1\nt 2 1\n", "missing 'r' line"),
        ("tree-model", "p tree 1 1\nrule 1 1 0 2\nr 1\n", "line 2: rule verdict must be 0 or 1"),
        ("forest", "p forest 2\nt 1 0\nt 2 1\nt 1 2\n", "line 4: duplicate record for vertex 1"),
        (
            "tree-model",
            "p tree 3 1\nr 3\nt 1 3\nt 2 3\nrule 1 1 2 1\nrule 1 1 2 0\n",
            "line 6: duplicate rule for (1, 1, 2)",
        ),
        (
            "tree-model",
            "p tree 3 2\nr 3\nt 1 3\nt 2 3\nrule 1 2 2 1\nrule 2 1 2 1\n",
            "line 6: duplicate rule for (1, 2, 2)",
        ),
        ("graph", "p graph 3 2\nv 2 5\n", "line 2: vertex 2 has color 5 outside 1..2"),
        ("tree", "p tree 3 2\nr 1\nt 2 1 5\nt 3 1\n", "line 3: vertex 2 has color 5 outside 1..2"),
        ("tree", "p tree 3 2\nr 1\nt 2 1\nt 3 9\n", "line 4: vertex 3 has parent 9 out of range"),
        ("forest", "p forest 3\nt 1 0\nt 2 9\nt 3 1\n", "line 3: vertex 2 has parent 9 out of range"),
        ("graph", "# two vertices\np graph 2 0\nv 1 1\n", "line 2: color count must be positive"),
        ("tree", "p tree 3 0\nr 1\nt 2 1\nt 3 1\n", "line 1: color count must be positive"),
        ("graph", "p graph 2 1\nv 3 1\n", "line 2: vertex 3 out of range"),
        ("tree", "p tree 2 1\nr 2\nt 2 1\nt 1 0\n", "declared root 2 has a nonzero parent"),
        ("tree", "p tree 3 1\nr 5\nt 1 0\nt 2 1\nt 3 1\n", "line 2: root 5 out of range"),
        ("tree-model", "p tree 3 1\nr 0\nt 1 0\nt 2 1\nt 3 1\n", "line 2: root 0 out of range"),
    ],
    ids=[
        "v", "graph-p", "e", "tree-t", "tree-no-r", "rule-verdict", "forest-t", "rule",
        "rule-swapped-colors", "graph-color", "tree-color", "tree-parent", "forest-parent",
        "graph-palette", "tree-palette", "graph-vertex", "tree-root-parent", "tree-root-high",
        "tree-model-root-zero",
    ],
)
def test_repeated_and_out_of_range_lines_are_refused(name, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FORMATS[name][0](io.StringIO(text))


def test_a_graph_header_over_the_vertex_limit_is_refused_before_its_vertices(monkeypatch):
    # a 20-byte file declaring 10^8 vertices took 15.6 s and 1.55 GB to read
    with pytest.raises(ResourceLimitError, match="^line 1: the header declares 100000000 vertices"):
        read_graph(io.StringIO("p graph 100000000 1\n"))
    monkeypatch.setattr(pebble, "DEFAULT_POSITION_CAP", 50)
    with pytest.raises(ResourceLimitError, match="^line 2: .* 51 vertices, more than the limit of 50$"):
        read_graph(io.StringIO("e 1 2\np graph 51 1\n"))
    assert read_graph(io.StringIO("e 1 2\np graph 50 1\n")) == ColoredGraph.build(50, [(1, 2)])


def test_graph_lines_may_come_before_the_header():
    # graph files used to need the header first; tree and forest files did not
    text = "v 1 2\ne 2 1\np graph 2 3\n"
    assert read_graph(io.StringIO(text)) == ColoredGraph.build(2, [(1, 2)], [2, 1], c=3)
