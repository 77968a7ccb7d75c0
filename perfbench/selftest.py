#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` and both ``--trace`` modes it
runs ``run.py --scale tiny`` and checks that the last stdout line is the
result object, with every declared metric under its declared unit, no
undeclared metric and no failed operation; that the line before it
records the host, versions, seed and sizes; and that the traced run
shows each layer a workload bypasses with 0 calls.  It then feeds
deliberately wrong answers to the output checkers and checks that each
one counts as a failed operation.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

#: Layer call counts that must be 0 (bypassed) and > 0 (exercised).
BYPASSED = {
    "capture-unc": ["alerts.evaluate", "merge.fold", "parallel.run_plan", "slo.evaluate"],
    "longrun-alerts": ["fastpath.parse", "fastpath.classify", "fastpath.periodize", "merge.fold"],
    "soak-sharded": ["fastpath.parse", "fastpath.classify", "fastpath.periodize"],
}
EXERCISED = {
    "capture-unc": ["fastpath.parse", "fastpath.classify", "fastpath.periodize", "cusum.step"],
    "longrun-alerts": ["alerts.evaluate", "tsdb.query", "tsdb.append", "events.emit"],
    "soak-sharded": ["parallel.run_plan", "merge.fold", "slo.evaluate", "alerts.evaluate"],
}


def check_output(workload: str, trace: int, lines: List[str],
                 declared: Dict[str, str]) -> List[str]:
    problems = []
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"failed operations: {result.get('failed')}")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted is {attempted!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"
        )
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        if entry and (entry.get("unit") != unit
                      or not isinstance(entry.get("value"), (int, float))):
            problems.append(f"{name}: {entry}")
    info = json.loads(lines[-2])["info"]
    host = info.get("host", {})
    if not all(host.get(key) for key in ("cpu_count", "python", "numpy")):
        problems.append(f"host record incomplete: {host}")
    if info.get("seed") is None or not info.get("sizes"):
        problems.append("seed or sizes not recorded")
    if trace:
        value = {name: entry.get("value") for name, entry in metrics.items()}
        for layer in BYPASSED[workload]:
            calls = value.get(f"{layer}.calls")
            if calls != 0:
                problems.append(f"{layer} should be bypassed, has {calls} calls")
        for layer in EXERCISED[workload]:
            if not value.get(f"{layer}.calls"):
                problems.append(f"{layer} should be exercised")
    return problems


def wrong_answers_fail() -> List[str]:
    """Each wrong answer must count as a failed operation, and the
    right answer must not."""
    alarm = "ALARM            : flooding source detected at t = 980s (period {})\n"
    clean = "verdict          : no flooding source detected\n"
    reference = json.dumps({"continuity": {"failures": []}})
    broken = json.dumps({"continuity": {"failures": [4]}})
    wrong = bench.Outcomes()
    wrong.record("flipped verdict", bench.check_verdict(0, clean, alarm_period=48))
    wrong.record("wrong alarm period", bench.check_verdict(2, alarm.format(47), 48))
    wrong.record("false alarm", bench.check_verdict(2, alarm.format(3), None))
    wrong.record("soak bytes differ", bench.check_soak(0, reference + " ", reference))
    wrong.record("soak exit code", bench.check_soak(3, reference, reference))
    wrong.record("continuity failure", bench.check_soak(0, broken, broken))
    right = bench.Outcomes()
    right.record("alarm", bench.check_verdict(2, alarm.format(48), 48))
    right.record("no alarm", bench.check_verdict(0, clean, None))
    right.record("soak", bench.check_soak(0, reference, reference))
    problems = []
    if len(wrong.failed) != wrong.attempted:
        problems.append(f"wrong answers passed: {wrong.attempted - len(wrong.failed)}")
    if right.failed:
        problems.append(f"right answers failed: {right.failed}")
    return problems


def main() -> int:
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"checker: {p}" for p in wrong_answers_fail()]
    for workload in (entry["name"] for entry in document["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
            )
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-800:]}")
                continue
            declared = bench.declared_metrics(bool(trace))
            problems.extend(
                f"{label}: {problem}"
                for problem in check_output(
                    workload, trace, proc.stdout.splitlines(), declared
                )
            )
            print(f"{label}: done", flush=True)
    for problem in problems:
        print(problem)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
