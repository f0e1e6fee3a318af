"""Command-line entry point.

Exit codes: 0 for success (and for "true"/"equivalent"/"valid"
verdicts), 1 for negative verdicts, 2 for usage or input errors, 3 when
an instance exceeds a resource limit, 4 for an internal error. The
limits are the evaluator's table cap, the refinement cap of ``equiv`` and
``census`` (``--cap``), the values below 2^31 - 2 that 1-type rows may
hold at s = 2 (reached only past 2^30 vertices or 2^31 - 2 cells, which
``--cap`` can admit), the vertex cap on a graph file's header, the
elimination-forest search's ``FOREST_WORK_CAP``, the Python recursion
limit and memory.

Subcommands:

    mc          model check a graph or tree against a sentence
    equiv       FO^s equivalence of two graphs
    census      partition graphs into equivalence classes
    kernelize   reduce a bounded-depth colored tree
    gen         write generated graphs (path, halfgraph, kpt, flip, sc)
    reduce      rewrite a graph instance as a path instance
    xvalidate   cross-check the reduction on a corpus, TAP output
    translate   rewrite a sentence through an interpretation
    validate    check an elimination forest or a tree-model
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Callable, Sequence, TextIO, TypeVar

from . import interpret, pebble, randgen
from .evaluator import model_check
from .formulas import (
    ParseError,
    formula_length,
    quantifier_rank,
    read_formulas,
    variable_count,
    write_formulas,
)
from .graphs import (
    ColoredGraph,
    PartitionFlip,
    SCCombine,
    SCLeaf,
    SCRecipe,
    _natural,
    apply_flip,
    build_sc_graph,
    gen_disjoint_paths,
    gen_half_graph,
    gen_path,
    read_graph,
    read_partition,
    write_graph,
)
from .hardness import cross_validate, reduce_to_path
from .kernel import reduce_tree
from .trees import (
    read_forest,
    read_tree,
    read_tree_model,
    validate_elimination_forest,
    validate_tree_model,
    write_tree,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


T = TypeVar("T")


def _read(path: str, reader: Callable[[TextIO], T]) -> T:
    """What ``reader`` reads from the UTF-8 text file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return reader(fh)


def _read_sentence_file(path: str):
    formulas = _read(path, read_formulas)
    if len(formulas) != 1:
        raise ValueError(f"{path}: expected exactly one formula, found {len(formulas)}")
    return formulas[0]


def _write_out(path: str | Path | None, writer: Callable[[TextIO], object]) -> None:
    """Write through ``writer`` to ``path``, or to standard output for None or '-'."""
    if path is None or path == "-":
        writer(sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as fh:
        writer(fh)


def _cmd_mc(args: argparse.Namespace) -> int:
    phi = _read_sentence_file(args.formula)
    via, s = args.via, args.s
    if s is None and via != "naive":  # only the decomposition routes read s
        s = variable_count(phi)
    if via == "naive":
        g = _read(args.graph, read_graph)
        verdict = model_check(g, phi)
    elif via == "tree":
        t = _read(args.graph, read_tree)
        verdict = interpret.mc_tree(t, phi, s)
    elif via == "treedepth":
        g = _read(args.graph, read_graph)
        if args.k is None:
            raise ValueError("--via treedepth needs --k")
        verdict = interpret.mc_treedepth(g, phi, args.k, s)
    else:  # treemodel
        g = _read(args.graph, read_graph)
        if args.tree_model is None:
            raise ValueError("--via treemodel needs --tree-model")
        tm = _read(args.tree_model, read_tree_model)
        verdict = interpret.mc_treemodel(g, tm, phi, s)
    print("true" if verdict else "false")
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_equiv(args: argparse.Namespace) -> int:
    a = _read(args.a, read_graph)
    b = _read(args.b, read_graph)
    same = pebble.fo_s_equivalent(a, b, args.s, cap=args.cap)
    print("equivalent" if same else "inequivalent")
    return EXIT_OK if same else EXIT_FALSE


def _cmd_census(args: argparse.Namespace) -> int:
    graphs = [_read(p, read_graph) for p in args.graphs]
    blocks = pebble.type_census(graphs, args.s, cap=args.cap)

    def writer(stream: TextIO) -> None:
        for block in blocks:
            stream.write(" ".join(str(i) for i in block) + "\n")

    _write_out(args.out, writer)
    return EXIT_OK


def _cmd_kernelize(args: argparse.Namespace) -> int:
    t = _read(args.tree, read_tree)
    result = reduce_tree(t, args.s)
    out = args.out
    if out is None:
        out = str(Path(args.tree).with_suffix(".kernel.t"))
    _write_out(out, lambda stream: write_tree(result.kernel, stream))
    suffix = "" if result.bound_exact else "+"
    print(f"kept={len(result.kept)} bound={result.bound}{suffix}")
    return EXIT_OK


def _parse_half_flip(spec: str) -> list[tuple[str, str]]:
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if len(item) != 2 or set(item) - {"A", "B"}:
            raise ValueError(f"bad half-graph flip pair {item!r}, want e.g. AB")
        pairs.append((item[0], item[1]))
    return pairs


def _parse_index_pairs(spec: str, option: str) -> list[tuple[int, int]]:
    """The ``i-j`` pairs of ``spec``, each side an ASCII natural number;
    a ``ValueError`` names ``option`` otherwise."""
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        left, _, right = item.partition("-")
        pairs.append((_natural(left, option), _natural(right, option)))
    return pairs


def _flip(
    g: ColoredGraph, parts: dict, pairs: list[tuple], option: str, where: str
) -> ColoredGraph:
    """``g`` flipped between the parts that ``pairs`` name by their labels
    in ``parts``; the parts take their positions in label order. The first
    label of ``pairs`` that ``parts`` lacks is refused, naming ``option``
    and ``where`` the parts come from."""
    order = sorted(parts)
    index = {label: i for i, label in enumerate(order)}
    unknown = [label for pair in pairs for label in pair if label not in index]
    if unknown:
        raise ValueError(f"{option} names part {unknown[0]}, not in {where}")
    rel = [(index[i], index[j]) for i, j in pairs]
    return apply_flip(g, PartitionFlip.build([parts[label] for label in order], rel))


def _recipe_list(data: dict, field: str) -> list:
    value = data.get(field, [])
    if not isinstance(value, list):
        raise ValueError(f"recipe field {field!r} must be a JSON list, got {value!r}")
    return value


_json_blanks = json.decoder.WHITESPACE.match
_json_scalar = json.JSONDecoder().scan_once
_VALUE, _KEY = '[{"-0123456789tfnNI', '"'  # the first characters of a value, a key


def _load_json(text: str, object_hook: Callable[[dict], object]):
    """What ``json.loads(text, object_hook=object_hook)`` returns, read with
    an explicit stack so nesting depth costs no Python stack. Each scalar
    is one ``scan_once`` call of the standard decoder."""
    frames: list[tuple[str, list]] = [("", [])]  # (bracket, items): the text, then open containers
    want, pos = _VALUE, 0  # the characters the next token may start with
    while True:
        pos = _json_blanks(text, pos).end()
        char = text[pos : pos + 1]
        if not char and not want:
            return frames[0][1][0]
        if not char or char not in want:
            raise ValueError(f"malformed JSON at offset {pos}")
        if char in "[{":
            frames.append((char, []))
            want, pos = (_VALUE + "]" if char == "[" else _KEY + "}"), pos + 1
            continue
        if char in ",:":
            want, pos = (_KEY if char == "," and frames[-1][0] == "{" else _VALUE), pos + 1
            continue
        if char in "]}":
            bracket, items = frames.pop()
            value = items if bracket == "[" else object_hook(dict(zip(items[::2], items[1::2])))
            pos += 1
        else:
            try:
                value, pos = _json_scalar(text, pos)
            except StopIteration:
                raise ValueError(f"malformed JSON at offset {pos}") from None
        bracket, items = frames[-1]
        items.append(value)  # an object's keys and values alternate until it closes
        want = {"[": ",]", "{": ":" if len(items) % 2 else ",}"}.get(bracket, "")


def _recipe_node(data: dict) -> SCRecipe:
    """The recipe node of a JSON object. ``_load_json`` calls this as each
    object closes, so its children are recipe nodes already."""
    if "leaf" in data:
        name, color = str(data["leaf"]), data.get("color", 1)
        if isinstance(color, str):
            try:
                color = _natural(color, "recipe field 'color'")
            except ValueError:
                pass
        if type(color) is not int:  # not a bool, a float or a container
            raise ValueError(f"recipe field 'color' must be an integer, got {color!r}")
        if color < 1:
            raise ValueError(f"recipe leaf {name!r} has color {color}, below 1")
        return SCLeaf(name=name, color=color)
    if "children" in data:
        children = tuple(_recipe_list(data, "children"))
        if not all(isinstance(child, SCRecipe) for child in children):
            raise ValueError("recipe nodes must be JSON objects")
        flip = frozenset(str(x) for x in _recipe_list(data, "flip"))
        return SCCombine(children=children, flip_names=flip)
    raise ValueError("recipe nodes need a 'leaf' or 'children' key")


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "path":
        g = gen_path(args.n)
    elif kind == "halfgraph":
        pairs = _parse_half_flip(args.flip or "")
        base, side_a, side_b = gen_half_graph(args.t)
        g = _flip(base, {"A": side_a, "B": side_b}, pairs, "--flip", "sides A and B")
    elif kind == "kpt":
        pairs = _parse_index_pairs(args.flip or "", "--flip")
        base, layers = gen_disjoint_paths(args.k, args.t)
        g = _flip(base, dict(enumerate(layers, start=1)), pairs, "--flip", f"layers 1..{args.t}")
    elif kind == "flip":
        base = _read(args.graph, read_graph)
        parts = _read(args.parts, read_partition)
        g = _flip(base, parts, _parse_index_pairs(args.rel or "", "--rel"), "--rel", args.parts)
    else:  # sc
        recipe = _load_json(_read(args.recipe, lambda fh: fh.read()), _recipe_node)
        if not isinstance(recipe, SCRecipe):
            raise ValueError("recipe nodes must be JSON objects")
        g = build_sc_graph(recipe)
    _write_out(args.out, lambda stream: write_graph(g, stream))
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _read(args.graph, read_graph)
    phi = _read_sentence_file(args.formula)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    result = reduce_to_path(g, phi)
    _write_out(out_dir / "path.g", lambda fh: write_graph(result.path, fh))
    _write_out(out_dir / "psi.fo", lambda fh: write_formulas([result.sentence], fh))
    provenance = (
        f"ordering {' '.join(str(v) for v in result.ordering)}\n"
        f"rank {quantifier_rank(phi)}\n"
        f"variables {variable_count(result.sentence)}\n"
        f"length {formula_length(result.sentence)}\n"
    )
    _write_out(out_dir / "provenance.txt", lambda fh: fh.write(provenance))
    print(f"wrote {out_dir}/path.g {out_dir}/psi.fo {out_dir}/provenance.txt")
    return EXIT_OK


def _cmd_xvalidate(args: argparse.Namespace) -> int:
    instances: list[tuple[str, ColoredGraph, object]] = []
    if args.dir is not None:
        base = Path(args.dir)
        for gpath in sorted(base.glob("*.g")):
            fpath = gpath.with_suffix(".fo")
            if not fpath.exists():
                raise ValueError(f"{gpath} has no matching {fpath.name}")
            instances.append(
                (gpath.stem, _read(str(gpath), read_graph), _read_sentence_file(str(fpath)))
            )
    else:
        limits = (("--random", args.random, 0), ("--n", args.n, 3), ("--q", args.q, 1))
        for flag, value, least in limits:
            if value < least:
                raise ValueError(f"{flag} must be at least {least}, got {value}")
        rng = random.Random(args.seed)
        print(f"# seed {args.seed}")
        for i in range(args.random):
            n = rng.randint(3, args.n)
            g = randgen.random_graph(rng, n, colors=1)
            phi = randgen.random_formula(rng, args.q + 1, 1, rng.randint(1, args.q))
            instances.append((f"random-{i}", g, phi))
    print(f"1..{len(instances)}")
    failures = 0
    for i, (name, g, phi) in enumerate(instances, start=1):
        check = cross_validate(g, phi)
        if check.agree:
            print(f"ok {i} - {name}")
        else:
            failures += 1
            print(f"not ok {i} - {name} lhs={check.lhs} rhs={check.rhs}")
    return EXIT_OK if failures == 0 else EXIT_FALSE


def _cmd_translate(args: argparse.Namespace) -> int:
    phi = _read_sentence_file(args.formula)
    if args.interp == "identity":
        scheme = interpret.identity_interpretation()
    elif args.interp == "complement":
        scheme = interpret.complement_interpretation()
    else:  # custom
        if args.domain is None or args.edge is None:
            raise ValueError("--interp custom needs --domain and --edge")
        scheme = interpret.InterpretationScheme(
            domain_formula=_read_sentence_file(args.domain),
            edge_formula=_read_sentence_file(args.edge),
        )
    translated = interpret.backwards_translate(phi, scheme)
    _write_out(args.out, lambda stream: write_formulas([translated], stream))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _read(args.graph, read_graph)
    if args.what == "ef":
        ok = validate_elimination_forest(g, _read(args.witness, read_forest))
    else:
        ok = validate_tree_model(g, _read(args.witness, read_tree_model))
    print("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fomc",
        description="first-order model checking on colored graphs and shallow trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mc", help="model check a sentence")
    p.add_argument("--graph", required=True, help="graph file (tree file with --via tree)")
    p.add_argument("--formula", required=True)
    p.add_argument(
        "--via",
        choices=("naive", "tree", "treedepth", "treemodel"),
        default="naive",
    )
    p.add_argument("--s", type=int, default=None, help="variable budget")
    p.add_argument("--k", type=int, default=None, help="tree-depth budget")
    p.add_argument("--tree-model", default=None)
    p.set_defaults(func=_cmd_mc)

    cap_help = (
        "cap on the cells one refinement round stores, summed over the distinct graphs: "
        "n + 2m per graph at s = 2 (n vertices, m edges), (n+1)^s from s = 3; unused at s = 1"
    )
    p = sub.add_parser("equiv", help="FO^s equivalence by type refinement")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--cap", type=int, default=pebble.DEFAULT_POSITION_CAP, help=cap_help)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("census", help="FO^s classes of a graph list, refined jointly")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--cap", type=int, default=pebble.DEFAULT_POSITION_CAP, help=cap_help)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("kernelize", help="reduce a bounded-depth colored tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("gen", help="generate graphs")
    gensub = p.add_subparsers(dest="kind", required=True)
    gp = gensub.add_parser("path")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=_cmd_gen)
    gp = gensub.add_parser("halfgraph")
    gp.add_argument("--t", type=int, required=True)
    gp.add_argument("--flip", default=None, help="e.g. AA,AB")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=_cmd_gen)
    gp = gensub.add_parser("kpt")
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--t", type=int, required=True)
    gp.add_argument("--flip", default=None, help="layer pairs, e.g. 1-1,2-3")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=_cmd_gen)
    gp = gensub.add_parser("flip")
    gp.add_argument("--graph", required=True)
    gp.add_argument("--parts", required=True, help="partition file")
    gp.add_argument("--rel", default="", help="part pairs by key, e.g. 1-2,2-2")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=_cmd_gen)
    gp = gensub.add_parser("sc")
    gp.add_argument("--recipe", required=True, help="JSON recipe file")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="rewrite a graph instance as a path instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("xvalidate", help="cross-check the reduction, TAP output")
    p.add_argument("--dir", default=None, help="corpus directory of *.g/*.fo pairs")
    p.add_argument("--random", type=int, default=50, help="random instance count")
    p.add_argument("--n", type=int, default=6, help="max vertices for random graphs")
    p.add_argument("--q", type=int, default=2, help="max quantifier rank")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_xvalidate)

    p = sub.add_parser("translate", help="rewrite a sentence through an interpretation")
    p.add_argument("--formula", required=True)
    p.add_argument(
        "--interp", choices=("identity", "complement", "custom"), default="identity"
    )
    p.add_argument("--domain", default=None, help="domain formula file (custom)")
    p.add_argument("--edge", default=None, help="edge formula file (custom)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("validate", help="check a decomposition witness")
    p.add_argument("what", choices=("ef", "tm"))
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", required=True, help="forest or tree-model file")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except pebble.ResourceLimitError as exc:
        print(f"fomc: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RecursionError, MemoryError) as exc:
        # Either would otherwise escape with exit 1, which reads as "false".
        print(f"fomc: resource limit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ParseError, OSError) as exc:
        print(f"fomc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"fomc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
