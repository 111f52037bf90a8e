"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, and fails
(exit 1) unless each run succeeds, reports ``correct`` with no failed
operation, and emits every metric of ``BENCHMARK.json`` with its unit.
Across the traced runs, every layer the tracer knows must have recorded
work on at least one workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402
from workload import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> tuple:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        return None, f"exit {done.returncode}: {done.stderr[-2000:]}"
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    traced_layers = set()
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, log = run(workload, trace)
            where = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{where}: {log}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}\n{log}")
            expected = {m["name"]: m["unit"] for m in config[section]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(expected) ^ set(got))}")
            if trace:
                record = json.loads((HERE / "out" / f"{workload}-seed1-trace1.json").read_text())
                for report in record["repeats"]:
                    for layer, row in report.get("layers", {}).items():
                        if row["count"]:
                            traced_layers.add(layer)
    missing = sorted(set(LAYERS) - traced_layers)
    if missing:
        problems.append(f"layers never traced on any workload: {missing}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"perfbench smoke: {len(problems)} problem(s); "
          f"layers traced: {', '.join(sorted(traced_layers))}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
