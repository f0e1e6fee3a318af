"""In-process A/B timing of two fomc source trees on the benchmark's workloads.

    python3 tools/ab.py --a ../parent/src --b src --workload eval-scale --seed 7
    python3 tools/ab.py --a src --b src --quick          # an A/A control

Both trees are imported into one process, as two module sets under their
own package names, so neither sees the other's objects. Each side builds
its own inputs from the same payloads (``perfbench/workloads.py``), and
runs one warm-up check per kind. Then every copy of every check runs on
both sides back to back; the side that goes first alternates from copy to
copy, so a drift of the host's speed falls on both sides alike.

A side's time for a check is its fastest copy. Per workload and per kind
the tool prints the two sums of those times and their ratio A/B (above 1:
B takes less time), each side's median and p90 of those times in ms with
their ratios A/B, the figures a ``check_ms_p50`` or ``check_ms_p90`` claim
reads, and whether B's verdict equals A's on every copy. Beside the
summed-time ratio and the p50 ratio it prints a 95 % bootstrap interval
over checks: the 2.5th and 97.5th percentiles of the ratio over 2,000
resamples of the checks with replacement, each check keeping its two
times, drawn from ``--seed``. The last line of standard output is one
JSON object holding the same figures. The exit code is 1 when any verdict
differs.

A claim read off the tool states three things: the ratio, its 95 %
interval, and an A/A run (``--a`` and ``--b`` the same tree) on the same
seed and workload beside it, in the form "structure p50 x<ratio>
(<low>-<high>); A/A x<ratio> (<low>-<high>), seed <seed>". The A/A
shows the tool's own bias: an A/A interval can exclude 1, so a ratio
counts as a change only where its interval clears the A/A's ratio, not
merely 1.

``peak_rss_mb`` and ``setup_s`` cannot be compared inside one process;
``perfbench/run.py`` in separate processes measures them.

The tool lives in ``tools/``, not ``perfbench/``: ``perfbench/`` is the
benchmark's fixed contract (the ``paths`` of ``BENCHMARK.json``), which
a change to the program may not edit, while this tool must be free to
change with the program whose changes it measures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: the module list of a program)
import workloads  # noqa: E402

clock = time.perf_counter
#: Copies of each check, each run once per side; a side's time for the
#: check is its fastest copy.
COPIES = 4


def load_side(src: Path, name: str) -> SimpleNamespace:
    """The ``fomc`` package of ``src`` imported as package ``name``, by
    submodule as ``run.load_program`` gives it."""
    init = src / "fomc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no program at {src}: {init} is missing")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in run.SUBMODULES})


def build_side(fc, wl: workloads.Workload) -> list[list]:
    """Every copy of every check built by ``fc``, after one warm-up check per kind."""
    for ch in wl.warmups:
        build, execute, _ = workloads.KINDS[ch.kind]
        execute(fc, build(fc, ch.copies[0]))
    return [[workloads.KINDS[ch.kind][0](fc, p) for p in ch.copies] for ch in wl.checks]


def compare(sides, wl: workloads.Workload) -> list[dict]:
    """Per check: each side's fastest copy, and whether the verdicts agree."""
    rows = []
    for i, check in enumerate(wl.checks):
        _, execute, judge = workloads.KINDS[check.kind]
        best = [float("inf")] * 2
        equal = True
        for r in range(len(check.copies)):
            verdicts = [None, None]
            for k in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                fc, built = sides[k]
                args = built[i][r]
                t0 = clock()
                out = execute(fc, args)
                best[k] = min(best[k], clock() - t0)
                verdicts[k] = repr(judge(fc, check, args, out)[0])
            equal = equal and verdicts[0] == verdicts[1]
        rows.append({"kind": check.kind, "a_s": best[0], "b_s": best[1], "equal": equal})
    return rows


def intervals(rows: list[dict], seed: int) -> tuple[list[float], list[float]]:
    """95 % bootstrap intervals over checks of the summed-time ratio A/B
    and of the p50 ratio: the 2.5th and 97.5th percentiles of each over
    2,000 resamples of ``rows`` with replacement, drawn from ``seed``."""
    a = np.array([row["a_s"] for row in rows])
    b = np.array([row["b_s"] for row in rows])
    pick = np.random.default_rng(seed).integers(0, len(rows), (2000, len(rows)))
    sums = a[pick].sum(axis=1) / b[pick].sum(axis=1)
    medians = np.median(a[pick], axis=1) / np.median(b[pick], axis=1)
    return [np.quantile(ratios, [0.025, 0.975]).tolist() for ratios in (sums, medians)]


def summary(rows: list[dict], seed: int) -> dict:
    """The sums of the per-check times and their ratio A/B, each side's
    median and p90 of those times in ms (``run.p90``, as ``check_ms_p50``
    and ``check_ms_p90`` are read) with their ratios, the bootstrap
    intervals of the sum and p50 ratios drawn from ``seed``, and whether
    every verdict agrees."""
    out = {"checks": len(rows)}
    for side in ("a", "b"):
        times = [row[f"{side}_s"] for row in rows]
        out[f"{side}_s"] = sum(times)
        out[f"{side}_p50_ms"] = statistics.median(times) * 1e3
        out[f"{side}_p90_ms"] = run.p90(times) * 1e3
    out["ratio"] = out["a_s"] / out["b_s"]
    out["p50_ratio"] = out["a_p50_ms"] / out["b_p50_ms"]
    out["p90_ratio"] = out["a_p90_ms"] / out["b_p90_ms"]
    out["ratio_interval"], out["p50_ratio_interval"] = intervals(rows, seed)
    out["equal"] = all(row["equal"] for row in rows)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="the src directory of side A")
    ap.add_argument("--b", type=Path, required=True, help="the src directory of side B")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="repeat for several; default every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke test")
    args = ap.parse_args(argv)

    fcs = (load_side(args.a.resolve(), "fomc_side_a"), load_side(args.b.resolve(), "fomc_side_b"))
    report = {}
    print(
        f"{'workload':<11} {'kind':<15} {'checks':>6} {'A s':>9} {'B s':>9} {'A/B':>7} {'95 %':>11}"
        f" {'A p50':>7} {'B p50':>7} {'A/B':>6} {'95 %':>11} {'A p90':>7} {'B p90':>7} {'A/B':>6}  verdicts"
    )
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](
            random.Random(args.seed), random.Random(0), COPIES, args.quick
        )
        sides = [(fc, build_side(fc, wl)) for fc in fcs]
        gc.collect()
        gc.freeze()  # as in run.py: the prebuilt inputs are not rescanned
        rows = compare(sides, wl)
        sides.clear()
        gc.unfreeze()
        kinds = {
            kind: summary([r for r in rows if r["kind"] == kind], args.seed)
            for kind in dict.fromkeys(r["kind"] for r in rows)
        }
        report[name] = {"all": summary(rows, args.seed), "kinds": kinds}
        for kind, s in [*kinds.items(), ("(all)", report[name]["all"])]:
            (lo, hi), (p50_lo, p50_hi) = s["ratio_interval"], s["p50_ratio_interval"]
            print(
                f"{name:<11} {kind:<15} {s['checks']:>6} {s['a_s']:>9.4f} {s['b_s']:>9.4f} "
                f"{s['ratio']:>7.3f} {lo:>5.3f}-{hi:<5.3f} "
                f"{s['a_p50_ms']:>7.3f} {s['b_p50_ms']:>7.3f} {s['p50_ratio']:>6.3f} {p50_lo:>5.3f}-{p50_hi:<5.3f} "
                f"{s['a_p90_ms']:>7.3f} {s['b_p90_ms']:>7.3f} {s['p90_ratio']:>6.3f}  "
                f"{'equal' if s['equal'] else 'DIFFER'}"
            )
    print(json.dumps(report))
    return 0 if all(w["all"]["equal"] for w in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
