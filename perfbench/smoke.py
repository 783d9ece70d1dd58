"""Self-test: every workload at tiny size, untraced and traced.

Run from the repository root::

    python3 perfbench/smoke.py

Each run must exit 0, pass every correctness check, and print exactly
the metric names BENCHMARK.json declares (end-to-end untraced,
per-layer traced).  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            ]
            run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(run.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no JSON result (exit {run.returncode}): {run.stderr[-500:]}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if run.returncode != 0 or not result["correct"]:
                problems.append(f"exit {run.returncode}, correct={result['correct']}")
            if printed != expected:
                problems.append(f"metrics differ from BENCHMARK.json {key}")
            if result["attempted"] < 1:
                problems.append(f"attempted {result['attempted']}")
            failures += [f"{label}: {problem}" for problem in problems]
            print(f"{'FAIL' if problems else 'ok  '} {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {len(printed)} metrics")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
