"""In-memory span tracer that wraps the repro package's public calls.

The tracer never edits the package: :func:`install` replaces a handful of
public functions and methods with wrappers that record one span per call
(name, start, end and parent span, all from ``time.perf_counter_ns``).
Spans stay in parallel lists until the workload ends; :meth:`Tracer.dump`
writes them out, and ``workload.layer_metrics`` folds
:meth:`Tracer.aggregate` into the per-layer metrics named in
``BENCHMARK.json``.

A layer's self time is its span durations minus the time its child spans
cover.  Calls are nested on one thread, so a plain stack gives the parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: The traced layers (a span's layer is its name up to the first dot) and
#: the modules whose public calls open their spans.
LAYERS = {
    "scenarios": "repro.scenarios.materialize",
    "flowloop": "repro.experiments.dynamic_fluid (FlowLevelSimulation)",
    "policy": "repro.experiments.dynamic_fluid (rate policies)",
    "network": "repro.fluid.network",
    "oracle": "repro.fluid.oracle",
    "xwi": "repro.fluid.xwi",
    "waterfill": "repro.fluid.vectorized (waterfill_arrays)",
    "incidence": "repro.fluid.vectorized (CompiledFluidNetwork.refresh)",
    "telemetry": "repro.results, repro.analysis.streaming",
    "checkpoint": "repro.scenarios.runner (write_checkpoint)",
    "sim": "repro.sim, repro.transports",
    "sweep": "repro.sweep",
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Tracer:
    """Records spans and counters; one instance per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``after(result, args, kwargs)`` runs once the span has closed, so
        the work it does to read counters is not charged to the layer.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    def timed_iter(self, iterator, name: str):
        """Yield from ``iterator``, one span per pulled item."""
        while True:
            index = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(index)
                return
            self.close(index)
            yield item

    # -- reduction ----------------------------------------------------------

    def aggregate(self, since_ns: int = 0) -> Dict[str, Dict[str, object]]:
        """Per span name: count, inclusive and self seconds, durations.

        Only spans that start at or after ``since_ns`` are counted, which
        separates the measured engine phase from set-up.
        """
        child_ns = [0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[index] - self.start[index]
        table: Dict[str, Dict[str, object]] = {}
        for index, name in enumerate(self.names):
            if self.start[index] < since_ns:
                continue
            duration = self.end[index] - self.start[index]
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations_s": []})
            row["count"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[index]) / 1e9
            row["durations_s"].append(duration / 1e9)
        return table

    def dump(self, path: str) -> None:
        """Write every span as parallel arrays (names interned)."""
        ids: Dict[str, int] = {}
        name_ids = [ids.setdefault(name, len(ids)) for name in self.names]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"names": list(ids), "name": name_ids, "start_ns": self.start,
                 "end_ns": self.end, "parent": self.parent},
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    import repro.fluid.xwi as xwi_module
    import repro.scenarios.runner as runner
    from repro.experiments.dynamic_fluid import (
        FlowLevelSimulation,
        OracleRatePolicy,
        SimulatorRatePolicy,
    )
    from repro.fluid.network import FluidNetwork
    from repro.fluid.oracle import PersistentDualSolver
    from repro.fluid.vectorized import CompiledFluidNetwork
    from repro.fluid.xwi import XwiFluidSimulator
    from repro.results import StreamingResult
    from repro.sim.network import Network

    counters, samples = tracer.counters, tracer.samples

    # scenarios.materialize, as bound where the runner calls it.
    tracer.wrap(runner, "build_fluid_topology", "scenarios.topology")
    tracer.wrap(runner, "materialize_arrivals", "scenarios.arrivals")
    original_stream = runner.stream_arrivals

    @functools.wraps(original_stream)
    def stream_arrivals(*args, **kwargs):
        return tracer.timed_iter(iter(original_stream(*args, **kwargs)), "scenarios.arrivals")

    runner.stream_arrivals = stream_arrivals

    # experiments.dynamic_fluid: the flow loop, its policy and the network.
    tracer.wrap(FlowLevelSimulation, "run", "flowloop")
    tracer.wrap(FlowLevelSimulation, "run_stream", "flowloop")
    for policy in (OracleRatePolicy, SimulatorRatePolicy):
        tracer.wrap(policy, "rates", "policy.rates")
        tracer.wrap(policy, "on_flow_set_changed", "policy.on_flow_set_changed")
    tracer.wrap(FluidNetwork, "add_flow", "network.add_flow")
    tracer.wrap(FluidNetwork, "remove_flow", "network.remove_flow")

    # fluid.oracle
    def after_solve(result, args, kwargs):
        samples["oracle.iters"].append(result.iterations)
        if not result.converged:
            counters["oracle.nonconverged"] += 1

    tracer.wrap(PersistentDualSolver, "solve", "oracle.solve", after_solve)

    # fluid.xwi / fluid.vectorized
    tracer.wrap(XwiFluidSimulator, "step", "xwi.step")
    original_waterfill = xwi_module.waterfill_arrays

    @functools.wraps(original_waterfill)
    def waterfill_arrays(*args, stats=None, **kwargs):
        own = {} if stats is None else stats
        index = tracer.open("waterfill")
        try:
            result = original_waterfill(*args, stats=own, **kwargs)
        finally:
            tracer.close(index)
        rounds = own.get("rounds", 0)
        counters["waterfill.rounds_total"] += rounds
        counters["waterfill.rounds_max"] = max(counters["waterfill.rounds_max"], rounds)
        return result

    xwi_module.waterfill_arrays = waterfill_arrays

    def after_refresh(status, args, kwargs):
        counters[f"incidence.{status}"] += 1

    tracer.wrap(CompiledFluidNetwork, "refresh", "incidence.refresh", after_refresh)

    # analysis.streaming / results, and the runner's checkpoints.
    tracer.wrap(StreamingResult, "observe", "telemetry.observe")

    def after_checkpoint(path, args, kwargs):
        counters["checkpoint.bytes"] += os.path.getsize(path)

    tracer.wrap(runner, "write_checkpoint", "checkpoint.write", after_checkpoint)

    # sim / transports
    tracer.wrap(Network, "run", "sim.run")
