"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for a single pass, untraced and traced, and checks
that each run exits 0, passes every oracle check (fail_frac == 0) and
prints every metric BENCHMARK.json names, with its unit.  A pass keeps
the workload's own sizes: a single pass is the smallest run whose pooled
rate fits still have the statistical power to pass their gate.  Takes
about three minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace) -> list:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failed = [l for l in proc.stdout.splitlines() if l.startswith("# FAILED")]
        problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                        f"checks failed: {failed}")
    expected = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in expected})}")
    for m in expected:
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit "
                            f"{got[m['name']]['unit']!r}, expected {m['unit']!r}")
    for name, v in got.items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{where}: {name} value {v['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
