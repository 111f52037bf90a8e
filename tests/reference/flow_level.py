"""The per-flow dict loop of the flow-level simulation (Fig. 5/7 engine).

:class:`DictFlowLevelSimulation` keeps remaining bytes, start times and
sizes in per-flow dicts and walks them every step.  Admission, fault
injection, completion routing and the rate policy are the product's
(:class:`repro.experiments.dynamic_fluid.FlowLevelSimulation`), so the two
loops differ only in the byte accounting; ``tests/experiments/
test_flow_level_parity.py`` and the perf harness require bit-identical
completion records.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.dynamic_fluid import CompletedFlow, FlowLevelSimulation
from repro.workloads.poisson import FlowArrival


class DictFlowLevelSimulation(FlowLevelSimulation):
    """Flow-level simulation stepped over per-flow dicts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._remaining_bytes: Dict[int, float] = {}
        self._start_times: Dict[int, float] = {}
        self._sizes: Dict[int, int] = {}

    @property
    def active_flow_count(self) -> int:
        return len(self._remaining_bytes)

    def run(
        self, arrivals: List[FlowArrival], max_time: Optional[float] = None
    ) -> List[CompletedFlow]:
        pending = sorted(arrivals, key=lambda a: a.time)
        time = 0.0
        index = 0
        horizon = max_time if max_time is not None else float("inf")

        while time < horizon and (index < len(pending) or self._remaining_bytes):
            self._inject_faults(time)
            # Admit every flow that has arrived by now.
            changed = False
            while index < len(pending) and pending[index].time <= time:
                arrival = pending[index]
                self._admit(arrival)
                self._remaining_bytes[arrival.flow_id] = float(arrival.size_bytes)
                self._start_times[arrival.flow_id] = arrival.time
                self._sizes[arrival.flow_id] = arrival.size_bytes
                index += 1
                changed = True
            if changed:
                self.rate_policy.on_flow_set_changed(self.network)

            if not self._remaining_bytes:
                # Jump to the next arrival.
                if index < len(pending):
                    time = pending[index].time
                    continue
                break

            dt = self.step_interval
            rates = self.rate_policy.rates(self.network, dt)
            finished: List[int] = []
            for flow_id, remaining in self._remaining_bytes.items():
                rate = rates.get(flow_id, 0.0)
                delivered = rate * dt / 8.0
                new_remaining = remaining - delivered
                if new_remaining <= 0.0:
                    finished.append(flow_id)
                else:
                    self._remaining_bytes[flow_id] = new_remaining
            time += dt
            if finished:
                for flow_id in finished:
                    self._emit(
                        CompletedFlow(
                            flow_id=flow_id,
                            size_bytes=self._sizes[flow_id],
                            start_time=self._start_times[flow_id],
                            finish_time=time,
                        )
                    )
                    del self._remaining_bytes[flow_id]
                    self.network.remove_flow(flow_id)
                self.rate_policy.on_flow_set_changed(self.network)

        return self.completed
