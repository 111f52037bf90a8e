"""The repo benchmark: run one workload for a while and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload oracle-churn --seed 1 --seconds 25 --trace 0

Each repeat runs in a fresh process (``perfbench/workload.py``) on inputs
derived from ``--seed``; repeats continue until ``--seconds`` have passed
(at least three).  With ``--trace 0`` the last stdout line reports the
medians of the end-to-end metrics; with ``--trace 1`` every repeat is a
pair -- untraced, then traced on the same inputs -- and the line reports
the per-layer metrics plus the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``; ``perfbench/README.md`` explains them.

The human-readable report goes to stderr and, with every repeat's raw
numbers, to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("oracle-churn", "xwi-stream", "sweep-tiny-cells", "packet-dumbbell")
MIN_REPEATS = 3
MIN_PAIRS = 2
#: A repeat that runs longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """A repeat crashed, hung or printed no report."""


def sub_seed(seed: int, repeat: int) -> int:
    """The input seed of one repeat: deterministic in (seed, repeat)."""
    return zlib.crc32(f"{seed}/{repeat}".encode()) & 0x7FFFFFFF


def stop_session(session: int) -> None:
    """Kill whatever a repeat left running in its session, and wait for it."""
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(session, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.05)
            os.killpg(session, 0)
    except ProcessLookupError:
        pass  # the session is empty


def run_child(workload: str, seed: int, size: str, trace: int, spans: str = "") -> dict:
    """Run one repeat in a fresh process and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--size", size, "--trace", str(trace),
        "--workdir", str(OUT / "work"), "--spans", spans,
    ]
    command += ["--t0", repr(time.monotonic())]
    # A session of its own, so a hung repeat is killed with its workers.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{workload} seed {seed} ran past {CHILD_TIMEOUT_S:.0f}s") from None
    finally:
        stop_session(child.pid)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} seed {seed} exited with {child.returncode}:\n{stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def repeat_for(seconds: float, minimum: int, one) -> list:
    """Call ``one(repeat)`` until ``seconds`` pass and ``minimum`` calls ran.

    A new call starts only while more than half a call's duration is left,
    so a run overshoots ``seconds`` by at most half a call.
    """
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(one(len(results)))
        took = time.monotonic() - began
        if len(results) >= minimum and time.monotonic() - start + took / 2 >= seconds:
            return results


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(reports: list) -> dict:
    return {
        "flows_per_s": median(r["flows"] / r["main_s"] for r in reports),
        "cells_per_s": median(r["cells"] / r["main_s"] for r in reports),
        "setup_s": median(r["setup_s"] for r in reports),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(pairs: list, names: list) -> dict:
    untraced = [plain for plain, _ in pairs]
    traced = [layered for _, layered in pairs]
    values = {name: median(r["layer"].get(name, 0.0) for r in traced) for name in names
              if not name.startswith("trace.")}
    values["trace.untraced_main_s"] = median(r["main_s"] for r in untraced)
    values["trace.traced_main_s"] = median(r["main_s"] for r in traced)
    values["trace.overhead"] = values["trace.traced_main_s"] / values["trace.untraced_main_s"] - 1
    values["trace.remainder_s"] = median(r["layer"]["trace.remainder_s"] for r in traced)
    return values


def layer_table(pairs: list) -> list:
    """The per-layer table of the traced repeat with the median engine time."""
    traced = sorted((layered for _, layered in pairs), key=lambda r: r["main_s"])
    chosen = traced[(len(traced) - 1) // 2]
    lines = [f"per-layer self time, traced repeat seed={chosen['seed']} "
             f"(engine phase {chosen['main_s']:.3f} s traced):",
             f"  {'layer':<22}{'self_s':>10}{'count':>10}{'share':>8}"]
    for layer, row in sorted(chosen["layers"].items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / chosen["main_s"]
        lines.append(f"  {layer:<22}{row['self_s']:>10.3f}{row['count']:>10d}{share:>8.1%}")
    lines.append(f"  set-up: import {chosen['layer']['scenarios.import_s']:.3f} s, topology "
                 f"{chosen['layer']['scenarios.topology_s']:.3f} s, arrivals (all phases) "
                 f"{chosen['layer']['scenarios.arrivals_s']:.3f} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    def one(repeat: int):
        seed = sub_seed(args.seed, repeat)
        plain = run_child(args.workload, seed, args.size, 0)
        if not args.trace:
            return plain
        spans = str(OUT / f"spans-{args.workload}-seed{args.seed}-r{repeat}.json")
        return plain, run_child(args.workload, seed, args.size, 1, spans)

    try:
        if args.trace:
            pairs = repeat_for(args.seconds, MIN_PAIRS, one)
            reports = [report for pair in pairs for report in pair]
            section = "per_layer"
            values = per_layer(pairs, [m["name"] for m in config[section]])
        else:
            reports = repeat_for(args.seconds, MIN_REPEATS, one)
            section = "end_to_end"
            values = end_to_end(reports)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in config[section]}
    report = [f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"size={args.size} processes={len(reports)} "
              f"inputs={sorted({r['seed'] for r in reports})}"]
    report += [f"  {name} = {metric['value']:.6g} {metric['unit']}"
               for name, metric in metrics.items()]
    report.append(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
                  "flows, cells and output checks failed)")
    for r in reports:
        if r["failed_detail"]:
            report.append(f"  seed {r['seed']} failed checks: {r['failed_detail']}")
    if args.trace:
        report += layer_table(pairs)
        report.append(f"  tracing overhead: {values['trace.overhead']:+.1%} "
                      f"(engine phase {values['trace.traced_main_s']:.3f} s traced vs "
                      f"{values['trace.untraced_main_s']:.3f} s untraced)")
    print("\n".join(report), file=sys.stderr)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"seed": args.seed, "workload": args.workload,
                                  "metrics": metrics, "repeats": reports}, indent=1))
    print(f"seed={args.seed} workload={args.workload} record={record.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
