#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal size, both modes.

Run from the root of a checkout:

    python3 perfbench/tests/smoke_test.py

For each workload it runs perfbench/run.py --smoke once untraced and once
traced, and asserts that the result line is well formed, that every output
was correct, and that every end-to-end (untraced) or per-layer (traced)
metric named in BENCHMARK.json is emitted with its declared unit.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def check(workload: str, trace: str, declared: list) -> list:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        problems.append(f"{where}: missing {sorted(names - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - names)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check(workload, "0", spec["end_to_end"])
        problems += check(workload, "1", spec["per_layer"])
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
