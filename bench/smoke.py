#!/usr/bin/env python3
"""Smoke self-check of the benchmark at a tiny size.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json once untraced and twice traced, at
``--scale tiny`` with seed 0.  Checks that each run is correct, that it
emits exactly the metrics BENCHMARK.json names, each with its unit, and
that the traced ``.calls`` counts repeat exactly across the two traced
runs.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(problems: list, ok: bool, text: str) -> None:
    if not ok:
        problems.append(text)


def check_metrics(problems: list, label: str, result: dict, spec: list) -> None:
    expect(problems, result["correct"] is True, f"{label}: not correct")
    expect(problems, result["attempted"] >= 1, f"{label}: nothing attempted")
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in spec}
    expect(problems, set(metrics) == set(units),
           f"{label}: metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        got = metrics.get(name, {}).get("unit")
        expect(problems, got == unit, f"{label}: {name} has unit {got!r}, not {unit!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(problems, f"{workload} trace 0", run(workload, 0), spec["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_metrics(problems, f"{workload} trace 1", result, spec["per_layer"])
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
        expect(problems, calls == again, f"{workload}: traced call counts differ between runs")
        print(f"{workload}: checked", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
