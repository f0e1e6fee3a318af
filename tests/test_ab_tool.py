"""``tools/ab.py``, the in-process A/B timing of two source trees, run at
the benchmark's tiny sizes: side A against itself reports every workload
and kind with its sums, medians and p90s, the bootstrap intervals of the
sum and p50 ratios, and equal verdicts, and each workload's ``(build)``
row, the two sides' times to build its inputs and their ratio; a side
whose verdicts differ fails."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def ab(a: Path, b: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ROOT / "tools" / "ab.py"), "--a", str(a), "--b", str(b), "--quick", *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_a_against_a_reports_every_workload_and_kind_with_equal_verdicts():
    out = ab(SRC, SRC, "--seed", "3")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(report) == {w["name"] for w in SPEC["workloads"]}
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert {kind for w in report.values() for kind in w["kinds"]} == set(workloads.KINDS)
    for w in report.values():
        for s in [w["all"], *w["kinds"].values()]:
            assert s["equal"] is True and s["checks"] >= 1
            assert s["a_s"] > 0 and s["b_s"] > 0 and math.isclose(s["ratio"], s["a_s"] / s["b_s"])
            for q in ("p50", "p90"):
                a, b = s[f"a_{q}_ms"], s[f"b_{q}_ms"]
                assert a > 0 and b > 0
                assert math.isclose(s[f"{q}_ratio"], a / b)
            assert s["a_p50_ms"] <= s["a_p90_ms"] and s["b_p50_ms"] <= s["b_p90_ms"]
            for q in ("", "p50_"):
                lo, hi = s[f"{q}ratio_interval"]
                assert 0 < lo <= s[f"{q}ratio"] <= hi
        assert w["all"]["checks"] == sum(s["checks"] for s in w["kinds"].values())
        build = w["build"]
        assert build["a_s"] > 0 and build["b_s"] > 0
        assert math.isclose(build["ratio"], build["a_s"] / build["b_s"])
    rows = [line.split() for line in out.stdout.splitlines() if "(build)" in line]
    assert sorted(row[0] for row in rows) == sorted(report)
    for row in rows:
        assert float(row[4]) == round(report[row[0]]["build"]["ratio"], 3)


def test_a_differing_verdict_fails_the_run(tmp_path):
    broken = tmp_path / "src"
    shutil.copytree(SRC, broken, ignore=shutil.ignore_patterns("__pycache__"))
    evaluator = broken / "fomc" / "evaluator.py"
    text = evaluator.read_text()
    assert "    return sat.holds\n" in text
    evaluator.write_text(text.replace("    return sat.holds\n", "    return not sat.holds\n"))
    out = ab(SRC, broken, "--workload", "eval-scale")
    assert out.returncode == 1, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["eval-scale"]["all"]["equal"] is False
    assert "DIFFER" in out.stdout
