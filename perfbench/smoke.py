#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload, briefly, with and without
tracing.

Usage, from the repository root:

    python3 perfbench/smoke.py

For each workload named in BENCHMARK.json it runs `run.py` with
`--seconds 1` and `--trace 0` and `--trace 1`, and asserts that the last
output line is the JSON result, that the run passed its correctness checks,
and that the metrics are exactly the `end_to_end` (untraced) or `per_layer`
(traced) metrics of BENCHMARK.json, each with its declared unit and a
finite value. Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload: str, trace: int, expected: dict) -> None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    label = f"{workload} --trace {trace}"
    if out.returncode != 0:
        raise AssertionError(f"{label}: exit code {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert result["correct"] is True, f"{label}: correctness checks failed\n{out.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {result}"
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    assert not missing and not extra, f"{label}: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        m = metrics[name]
        assert m["unit"] == unit, f"{label}: {name} has unit {m['unit']}, expected {unit}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{label}: {name} = {m['value']}"
    print(f"ok  {label}: {len(metrics)} metrics, {result['attempted']} attempts")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    try:
        for workload in spec["workloads"]:
            for trace in (0, 1):
                check(workload["name"], trace, sets[trace])
    except AssertionError as e:
        print(f"FAILED {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
