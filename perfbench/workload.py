"""One repeat of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per repeat::

    PYTHONPATH=src python3 perfbench/workload.py --workload oracle-churn \
        --seed 123 --size full --trace 0 --t0 <time.monotonic() at spawn> \
        --workdir perfbench/out/work

It imports ``repro``, builds the workload's inputs from ``--seed``, makes
the workload's main call through the package's public API, checks the
outputs and prints one JSON line: the measured times, the output-check
tally and, with ``--trace 1``, the per-layer metrics from
:mod:`spans`.

``setup_s`` runs from the parent's spawn timestamp (``time.monotonic`` is
system-wide on Linux) to the first engine call, so it covers interpreter
start, importing ``repro``, building the spec and topology and building
arrivals or expanding the grid.  ``main_s`` runs from that engine call to
the return of the main call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYERS, Tracer, install, percentile

REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("oracle-churn", "xwi-stream", "sweep-tiny-cells", "packet-dumbbell")

#: Flows per repeat (seeds per repeat for the sweep, two cells per seed).
#: ``full`` is what the benchmark measures; ``tiny`` is the smoke test.
SIZES = {
    "full": {"oracle-churn": 4000, "xwi-stream": 5000, "sweep-tiny-cells": 100,
             "packet-dumbbell": 1000},
    "tiny": {"oracle-churn": 40, "xwi-stream": 60, "sweep-tiny-cells": 3,
             "packet-dumbbell": 20},
}

SWEEP_WORKERS = 2
#: Flows each ``unit/dumbbell-websearch`` toy cell offers.
SWEEP_CELL_FLOWS = 24


class EngineEntry:
    """Timestamps the first call of the engine entry point (tracing off too)."""

    def __init__(self) -> None:
        self.monotonic = None
        self.perf_ns = None

    def mark(self) -> None:
        if self.monotonic is None:
            self.perf_ns = time.perf_counter_ns()
            self.monotonic = time.monotonic()

    def watch(self, owner: object, attr: str) -> None:
        original = getattr(owner, attr)
        entry = self

        @functools.wraps(original)
        def entered(*args, **kwargs):
            entry.mark()
            return original(*args, **kwargs)

        setattr(owner, attr, entered)


def fig5_spec(scheme_name: str, num_flows: int, seed: int):
    """The ``fig5/websearch`` paper fabric (128 servers, 8 leaves, 4 spines,
    load 0.6) with ``num_flows`` arrivals under ``scheme_name``."""
    from repro.scenarios import get_scenario, oracle_scheme, scheme

    spec = get_scenario("fig5/websearch", scale="paper")
    chosen = oracle_scheme() if scheme_name == "Oracle" else scheme(scheme_name)
    workload = dataclasses.replace(
        spec.workload, params={**spec.workload.params, "num_flows": num_flows}
    )
    return dataclasses.replace(spec, workload=workload, scheme=chosen, seed=seed)


def dumbbell_spec(num_flows: int, seed: int):
    """The ``unit/dumbbell-websearch`` paper dumbbell with ``num_flows`` arrivals."""
    from repro.scenarios import get_scenario

    spec = get_scenario("unit/dumbbell-websearch", scale="paper")
    workload = dataclasses.replace(
        spec.workload, params={**spec.workload.params, "num_flows": num_flows}
    )
    return dataclasses.replace(spec, workload=workload, seed=seed)


def band_check(name: str, value: float, band, checks: list) -> None:
    """Record whether ``value`` is positive and lies in the reference ``band``."""
    ok = value > 0.0 and (band is None or band[0] <= value <= band[1])
    checks.append((name, ok, f"{name}={value:.6g} band={band}"))


def run_flow_workload(name, num_flows, seed, workdir, entry, band):
    """oracle-churn / xwi-stream / packet-dumbbell: one main call each."""
    from repro.experiments.dynamic_fluid import FlowLevelSimulation
    from repro.scenarios import run_scenario, run_scenario_streaming
    from repro.sim.network import Network

    checks = []
    if name == "oracle-churn":
        spec = fig5_spec("Oracle", num_flows, seed)
        entry.watch(FlowLevelSimulation, "run")
        result = run_scenario(spec)
        done = time.monotonic()
        offered = len(result.artifacts["arrivals"])
        fcts = [flow.fct for flow in result.artifacts["completions"]]
        completed = len(fcts)
        p50, p99 = percentile(fcts, 50), percentile(fcts, 99)
    elif name == "xwi-stream":
        spec = fig5_spec("NUMFabric", num_flows, seed)
        checkpoint = os.path.join(workdir, "run.ckpt")
        entry.watch(FlowLevelSimulation, "run_stream")
        result = run_scenario_streaming(spec, checkpoint_path=checkpoint)
        done = time.monotonic()
        row = result.rows[0]
        offered = result.artifacts["arrivals_consumed"]
        completed = row["flows_completed"]
        p50, p99 = row["fct_p50"], row["fct_p99"]
        checks.append(("checkpoint written", os.path.getsize(checkpoint) > 0, checkpoint))
        checks.append(("no active flows", result.artifacts["active_flows"] == 0,
                       str(result.artifacts["active_flows"])))
    else:
        spec = dumbbell_spec(num_flows, seed)
        entry.watch(Network, "run")
        result = run_scenario(spec, engine="packet")
        done = time.monotonic()
        offered = len(result.artifacts["arrivals"])
        fcts = [flow.completion_time for flow in result.artifacts["completions"]]
        completed = len(fcts)
        p50, p99 = percentile(fcts, 50), percentile(fcts, 99)
    checks.append(("all offered flows arrived", offered == num_flows, f"{offered}/{num_flows}"))
    band_check("fct_p50", p50, band and band["fct_p50"], checks)
    band_check("fct_p99", p99, band and band["fct_p99"], checks)
    out = {
        "done": done,
        "flows": completed,
        "cells": 1,
        "attempted": offered,
        "failed": offered - completed,
        "checks": checks,
        "fct_p50": p50,
        "fct_p99": p99,
        "layer": {},
    }
    if name == "xwi-stream":
        out["layer"]["telemetry.gk_entries"] = result.artifacts["streaming"].fct_sketch.size
    if name == "packet-dumbbell":
        network = result.artifacts["network"]
        events = network.simulator.events_processed
        out["layer"]["sim.events"] = events
        out["layer"]["port.packets"] = sum(port.packets_transmitted for port in network.ports)
        out["layer"]["queue.drops"] = sum(port.queue.packets_dropped for port in network.ports)
    return out


def sweep_tasks(num_seeds: int, seed: int):
    from repro.sweep import expand_grid, parse_sweep

    expression = (
        f"unit/dumbbell-websearch engine=flow,fluid seed={seed}..{seed + num_seeds - 1}"
    )
    return expand_grid(parse_sweep(expression))


def run_sweep_workload(tasks, workdir, entry, tracer):
    """sweep-tiny-cells: a cold sharded pass, then a warm pass over the cache."""
    from repro.sweep import run_sweep

    cache = os.path.join(workdir, "sweep-cache")
    first_ok = []
    compute = []
    ok_line = re.compile(r": ok \((\d+(?:\.\d+)?)s\)$")

    def progress(message: str) -> None:
        match = ok_line.search(message)
        if match:
            compute.append(float(match.group(1)))
            if not first_ok:
                first_ok.append(time.monotonic())

    entry.mark()
    span = tracer.open("sweep.cold") if tracer else None
    cold = run_sweep(tasks, mode="sharded", workers=SWEEP_WORKERS, cache=cache,
                     progress=progress)
    if tracer:
        tracer.close(span)
    done = time.monotonic()
    cold_s = done - entry.monotonic
    cache_bytes = sum(
        os.path.getsize(os.path.join(folder, file))
        for folder, _, files in os.walk(cache) for file in files
    )
    warm_start = time.monotonic()
    warm = run_sweep(tasks, mode="sharded", workers=SWEEP_WORKERS, cache=cache)
    warm_s = time.monotonic() - warm_start

    total = len(tasks)
    checks = [
        ("cold pass computed every cell",
         cold.stats["computed"] == total and not cold.failures, str(cold.stats)),
        ("warm pass cached every cell",
         warm.stats["cached"] == total and warm.stats["computed"] == 0, str(warm.stats)),
    ]
    flows = 0
    for task, first, second in zip(tasks, cold.results, warm.results):
        if first is None or second is None:
            checks.append((f"cell {task.label} has results", False, "missing"))
            continue
        # Flow cells report completions (FCT > 0); fluid cells report a
        # positive rate for every flow of the static population.
        column = "fct" if task.engine == "flow" else "rate_bps"
        served = sum(1 for row in first.rows if row[column] > 0.0)
        if task.engine == "flow":
            flows += served
        counts = (len(first.rows), len(second.rows), served)
        checks.append((f"cell {task.label} flow count",
                       counts == (SWEEP_CELL_FLOWS,) * 3, str(counts)))
    return {
        "done": done,
        "flows": flows,
        "cells": cold.stats["computed"],
        "attempted": total,
        "failed": len(cold.failures),
        "checks": checks,
        "layer": {
            "sweep.first_result_s": (first_ok[0] - entry.monotonic) if first_ok else cold_s,
            "sweep.cell_compute_s": sum(compute),
            "sweep.overhead_core_s": SWEEP_WORKERS * cold_s - sum(compute),
            "sweep.dispatches": sum(cold.attempts.values()),
            "sweep.retries": cold.stats.get("retried", 0),
            "sweep.cache_bytes": cache_bytes,
            "sweep.cache_hit_pass_s": warm_s,
        },
    }


def layer_metrics(tracer: Tracer, since_ns: int, main_s: float) -> tuple:
    """Per-layer metrics and the per-layer table from the recorded spans."""
    every = tracer.aggregate()
    main = tracer.aggregate(since_ns)
    counters, samples = tracer.counters, tracer.samples

    def total(name, key="total_s"):
        return every.get(name, {}).get(key, 0)

    def durations(name):
        return every.get(name, {}).get("durations_s", [])

    iters = samples.get("oracle.iters", [])
    updated, stale = counters.get("incidence.updated", 0), counters.get("incidence.stale", 0)
    metrics = {
        "scenarios.topology_s": total("scenarios.topology"),
        "scenarios.arrivals_s": total("scenarios.arrivals"),
        "flowloop.self_s": total("flowloop", "self_s"),
        "flowloop.rates_s": total("policy.rates"),
        "flowloop.steps": total("policy.rates", "count"),
        "flowloop.flow_set_changes": total("policy.on_flow_set_changed", "count"),
        "flowloop.admits": total("network.add_flow", "count"),
        "flowloop.completions": total("network.remove_flow", "count"),
        "oracle.solve_s": total("oracle.solve", "self_s"),
        "oracle.solves": total("oracle.solve", "count"),
        "oracle.solve_ms_p50": 1e3 * percentile(durations("oracle.solve"), 50),
        "oracle.solve_ms_p99": 1e3 * percentile(durations("oracle.solve"), 99),
        "oracle.iters_total": sum(iters),
        "oracle.iters_p50": percentile(iters, 50),
        "oracle.iters_p90": percentile(iters, 90),
        "oracle.iters_max": max(iters, default=0),
        "oracle.nonconverged": counters.get("oracle.nonconverged", 0),
        "xwi.step_s": total("xwi.step", "self_s"),
        "xwi.steps": total("xwi.step", "count"),
        "xwi.step_us_p50": 1e6 * percentile(durations("xwi.step"), 50),
        "xwi.step_us_p99": 1e6 * percentile(durations("xwi.step"), 99),
        "waterfill.s": total("waterfill", "self_s"),
        "waterfill.calls": total("waterfill", "count"),
        "waterfill.rounds_total": counters.get("waterfill.rounds_total", 0),
        "waterfill.rounds_max": counters.get("waterfill.rounds_max", 0),
        "incidence.refresh_s": total("incidence.refresh", "self_s"),
        "incidence.refreshes": total("incidence.refresh", "count"),
        "incidence.updated": updated,
        "incidence.stale": stale,
        "incidence.incremental_ratio": updated / (updated + stale) if updated + stale else 0.0,
        "telemetry.observe_s": total("telemetry.observe", "self_s"),
        "telemetry.observes": total("telemetry.observe", "count"),
        "telemetry.observe_us_p99": 1e6 * percentile(durations("telemetry.observe"), 99),
        "checkpoint.write_s": total("checkpoint.write", "self_s"),
        "checkpoint.writes": total("checkpoint.write", "count"),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "sim.run_s": total("sim.run"),
    }
    # The table: self time per layer inside the engine phase; the layer is
    # the span name up to its first dot.
    layers = {layer: {"self_s": 0.0, "count": 0} for layer in LAYERS}
    for name, row in main.items():
        layer = layers.setdefault(name.split(".")[0], {"self_s": 0.0, "count": 0})
        layer["self_s"] += row["self_s"]
        layer["count"] += row["count"]
    covered = sum(layer["self_s"] for layer in layers.values())
    layers["(untraced remainder)"] = {"self_s": max(main_s - covered, 0.0), "count": 0}
    metrics["trace.remainder_s"] = layers["(untraced remainder)"]["self_s"]
    return metrics, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default="", help="write the spans here (traced runs)")
    args = parser.parse_args(argv)

    import_start = time.monotonic()
    import repro.scenarios  # noqa: F401  (the import cost is measured)
    import repro.sweep  # noqa: F401

    import_s = time.monotonic() - import_start
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    size = SIZES[args.size][args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=args.workdir)
    entry = EngineEntry()
    try:
        if args.workload == "sweep-tiny-cells":
            expand_start = time.monotonic()
            tasks = sweep_tasks(size, args.seed)
            expand_s = time.monotonic() - expand_start
            out = run_sweep_workload(tasks, workdir, entry, tracer)
            out["layer"]["sweep.expand_s"] = expand_s
        else:
            # FCT bands are recorded for the full size only.
            reference = json.loads(REFERENCE.read_text())
            band = reference["fct_bands"].get(args.size, {}).get(args.workload)
            out = run_flow_workload(args.workload, size, args.seed, workdir, entry, band)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    main_s = out.pop("done") - entry.monotonic
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "sweep-tiny-cells":
        # The sweep's calling process plus its largest worker.
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    checks = out.pop("checks")
    failed_checks = [detail for _, ok, detail in checks if not ok]
    report = {
        "seed": args.seed,
        "setup_s": entry.monotonic - args.t0,
        "main_s": main_s,
        "flows": out["flows"],
        "cells": out["cells"],
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": out["attempted"] + len(checks),
        "failed": out["failed"] + len(failed_checks),
        "failed_detail": failed_checks,
        "fct_p50": out.get("fct_p50"),
        "fct_p99": out.get("fct_p99"),
        "layer": {"scenarios.import_s": import_s, **out["layer"]},
    }
    if "sim.events" in report["layer"]:
        report["layer"]["sim.events_per_s"] = report["layer"]["sim.events"] / main_s
    if tracer is not None:
        metrics, layers = layer_metrics(tracer, entry.perf_ns, main_s)
        report["layer"].update(metrics)
        report["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
