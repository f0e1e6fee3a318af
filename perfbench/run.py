"""Benchmark of fomc: one workload per process, fixed work per run.

    python3 perfbench/run.py --workload eval-scale --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there. Each check of the workload runs on ``repeats`` fresh isomorphic
copies of its input; its latency is the median of those runs, rescaled by
the run's speed factor (see ``reference_loop``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one extra traced round with ``--trace 1``. A line before it
gives the raw figures and the speed factor.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBMODULES = ("formulas", "graphs", "trees", "evaluator", "pebble", "kernel", "interpret", "hardness")
clock = time.perf_counter

#: Nominal seconds of one round over every check, on the machine the
#: README's figures come from; ``--seconds`` divided by it gives the
#: number of repeats, so a run does the same work whatever the host speed.
ROUND_S = {"eval-scale": 6.0, "pipelines": 6.0, "structure": 6.0}
MIN_REPEATS = 3
SETUP_REPEATS = 5

#: Seconds one ``reference_loop`` takes at speed factor 1.
REF_NOMINAL_S = 0.0005
REF_ITERS = 2000
#: A check's speed factor is the median of the reference times this many
#: places either side of it.
REF_WINDOW = 8


def reference_loop() -> int:
    """Fixed pure-Python work, timed before every check. The speed factor
    of a stretch of the run is the median of its reference times over
    ``REF_NOMINAL_S``; every time is divided by the factor around it,
    which takes out the drift of the host's speed within and between
    runs."""
    seen = set()
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + i) % 65521
        seen.add((acc & 255, i & 7))
    return len(seen)


def time_reference() -> float:
    t0 = clock()
    reference_loop()
    return clock() - t0


def speed_factors(ref: list[float]) -> list[float]:
    """The speed factor around each reference sample."""
    return [
        statistics.median(ref[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1]) / REF_NOMINAL_S
        for k in range(len(ref))
    ]


def load_program() -> SimpleNamespace:
    """Import ``fomc`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "fomc"]:
        del sys.modules[name]
    fomc = importlib.import_module("fomc")
    if Path(fomc.__file__).resolve().parent != SRC / "fomc":
        raise ImportError(f"fomc imported from {fomc.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("fomc." + m) for m in SUBMODULES})


def set_up(wl: workloads.Workload):
    """Import, build every input of the run, and run one warm-up check
    per kind. This is what ``setup_s`` times."""
    fc = load_program()
    built = [[workloads.KINDS[ch.kind][0](fc, p) for p in ch.copies] for ch in wl.checks]
    for ch in wl.warmups:
        build, run, _ = workloads.KINDS[ch.kind]
        run(fc, build(fc, ch.copies[0]))
    return fc, built


def timed_setup(wl: workloads.Workload, times: int):
    """Set up ``times`` times; returns the program, the built inputs, and
    the raw and drift-corrected set-up times."""
    raw, corrected = [], []
    before = [time_reference() for _ in range(REF_WINDOW)]
    for _ in range(times):
        t0 = clock()
        fc, built = set_up(wl)
        raw.append(clock() - t0)
        after = [time_reference() for _ in range(REF_WINDOW)]
        corrected.append(raw[-1] * REF_NOMINAL_S / statistics.median(before + after))
        before = after
    return fc, built, raw, corrected


class Judge:
    """Collects each check's verdicts and the problems found with its
    outputs, outside the timed work."""

    def __init__(self, fc, checks: list[workloads.Check]) -> None:
        self.fc = fc
        self.checks = checks
        self.verdicts: list[list] = [[] for _ in checks]
        self.problems: list[str] = []

    def __call__(self, i: int, args, out) -> None:
        check = self.checks[i]
        verdict, found = workloads.KINDS[check.kind][2](self.fc, check, args, out)
        self.verdicts[i].append(verdict)
        self.problems.extend(f"{check.kind}: {p}" for p in found)

    def failed(self) -> int:
        """Checks with a wrong verdict; a wrong verdict that no known fault
        explains, or verdicts that differ between copies, are problems."""
        failed = 0
        for check, seen in zip(self.checks, self.verdicts):
            if len(set(map(repr, seen))) != 1:
                self.problems.append(f"{check.kind}: verdicts differ between copies: {seen}")
            elif seen[0] != check.expect:
                failed += 1
                if not check.fault:
                    self.problems.append(f"{check.kind}: verdict {seen[0]!r}, expected {check.expect!r}")
        return failed


def timed_rounds(fc, checks, built, repeats: int, judge: Judge):
    """Every check once per round, each round on fresh copies; returns the
    raw times, the drift-corrected times and the run's speed factor."""
    raw = [[0.0] * repeats for _ in checks]
    ref = []
    for r in range(repeats):
        for i, check in enumerate(checks):
            ref.append(time_reference())
            run = workloads.KINDS[check.kind][1]
            t0 = clock()
            out = run(fc, built[i][r])
            raw[i][r] = clock() - t0
            judge(i, built[i][r], out)
    local = iter(speed_factors(ref))
    corrected = [[0.0] * repeats for _ in checks]
    for r in range(repeats):
        for i in range(len(checks)):
            corrected[i][r] = raw[i][r] / next(local)
    return raw, corrected, statistics.median(ref) / REF_NOMINAL_S


def traced_round(fc, checks, built, judge: Judge):
    """One round under the tracer, on the copies no timed round used, after
    a traced parse of every formula text of the run. Returns the tracer,
    the traced check time and the part of it outside every span."""
    tracer = Tracer()
    tracer.install(fc)
    try:
        for check in checks:
            for payload in check.copies:
                if isinstance(payload[0], str):
                    fc.formulas.parse_formula(payload[0])
        tracer.bookkeeping_s = 0.0  # count the checks' bookkeeping only
        traced_s = outside_s = 0.0
        outs = []
        for i, check in enumerate(checks):
            run = workloads.KINDS[check.kind][1]
            tracer.begin_check()
            t0 = clock()
            outs.append(run(fc, built[i][-1]))
            spent = clock() - t0
            traced_s += spent
            outside_s += spent - tracer.covered()
    finally:
        tracer.uninstall()
    for i, out in enumerate(outs):
        judge(i, built[i][-1], out)
    return tracer, traced_s, outside_s


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("bound_use") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "fomc" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'fomc'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    repeats = 2 if args.quick else max(MIN_REPEATS, round(args.seconds / ROUND_S[args.workload]))
    runs = repeats + args.trace  # the traced round gets copies of its own
    wl = workloads.WORKLOADS[args.workload](
        random.Random(args.seed), random.Random(0), runs, args.quick
    )
    fc, built, setup_raw, setup_s = timed_setup(wl, 1 if args.quick else SETUP_REPEATS)

    # The prebuilt inputs of every round stay alive; freezing them keeps the
    # collector from rescanning them during the checks, as it would not in a
    # process that holds one input.
    gc.collect()
    gc.freeze()
    checks = wl.checks
    judge = Judge(fc, checks)
    raw, times, factor = timed_rounds(fc, checks, built, repeats, judge)
    raw = [statistics.median(t) for t in raw]
    latency = [statistics.median(t) for t in times]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "checks": len(checks),
        "repeats": repeats,
        "speed_factor": factor,
        "raw_checks_per_s": len(checks) / sum(raw),
        "raw_check_ms_p50": statistics.median(raw) * 1e3,
        "raw_check_ms_p90": p90(raw) * 1e3,
        "raw_setup_s": statistics.median(setup_raw),
        "kinds": {k: sum(ch.kind == k for ch in checks) for k in dict.fromkeys(c.kind for c in checks)},
    }

    if args.trace:
        tracer, traced_s, outside_s = traced_round(fc, checks, built, judge)
        in_layers = sum(v for k, v in tracer.self_s.items() if k != "parse")
        if not math.isclose(in_layers + tracer.bookkeeping_s + outside_s, traced_s, rel_tol=1e-9):
            judge.problems.append("traced layer times do not add up to the traced check time")
        layer = tracer.metrics()
        layer["trace.overhead_s"] = traced_s - sum(raw)
        metrics = {
            k: {"value": v / factor if k.endswith("_s") else v, "unit": unit_of(k)}
            for k, v in layer.items()
        }
        detail.update(
            {"trace.check_s": traced_s, "trace.bookkeeping_s": tracer.bookkeeping_s, "trace.outside_s": outside_s}
        )
    else:
        metrics = {
            "checks_per_s": {"value": len(checks) / sum(latency), "unit": "1/s"},
            "check_ms_p50": {"value": statistics.median(latency) * 1e3, "unit": "ms"},
            "check_ms_p90": {"value": p90(latency) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }

    failed = judge.failed()
    for problem in judge.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not judge.problems, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
