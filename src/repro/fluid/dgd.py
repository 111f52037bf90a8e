"""Fluid model of the Dual Gradient Descent (DGD) baseline (Sec. 3, Eq. (14)).

Sources set their rate directly from the sum of link prices on their path
(Eq. (3)); each link adjusts its price from the local rate-capacity mismatch
and queue backlog (Eq. (14)).  Because the rates are applied open-loop, the
network can be transiently over- or under-subscribed; the queue term models
the backlog this creates and its effect on the price.

The gains are expressed in normalized form (per unit of relative
over-subscription and per BDP of queueing) so the same defaults work across
link speeds; Table 2's absolute values correspond to this normalized form at
10 Gbps.  As in the paper, flows are window-limited to ``max_outstanding_bdp``
bandwidth-delay products, which in fluid form caps the sending rate at that
multiple of the path capacity.

The rate computation (Eq. (3)) and the price/queue update (Eq. (14)) run
as NumPy array operations over the compiled incidence structure of
:mod:`repro.fluid.vectorized`, recompiled only on flow churn.  The
per-flow dict formulation is kept with the tests
(``tests/reference/schemes.py``); rates, prices and queues match it to
well within the 1e-9 enforced by ``tests/fluid/test_scheme_backend_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import CompiledFluidNetwork, VectorizedBackendMixin


@dataclass
class DgdFluidParameters:
    """Normalized DGD gains for the fluid engine."""

    utilization_gain: float = 0.2
    queue_gain: float = 0.1
    update_interval: float = 16e-6
    rtt: float = 16e-6
    max_outstanding_bdp: float = 2.0


@dataclass
class DgdIterationRecord:
    iteration: int
    rates: Dict[FlowId, float]
    prices: Dict[LinkId, float]
    queues: Dict[LinkId, float]


class DgdFluidSimulator(VectorizedBackendMixin):
    """Iterates the DGD price/rate dynamics on a :class:`FluidNetwork`."""

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[DgdFluidParameters] = None,
        initial_price: float = 1e-3,
        record_detail: bool = True,
    ):
        self.network = network
        self.params = params or DgdFluidParameters()
        #: When false, records carry only the rates (see xWI's twin flag).
        self.record_detail = record_detail
        self.prices: Dict[LinkId, float] = {link: initial_price for link in network.links}
        self.queues: Dict[LinkId, float] = {link: 0.0 for link in network.links}
        self.iteration = 0
        self.history: List[DgdIterationRecord] = []
        self._compiled: Optional[CompiledFluidNetwork] = None

    def step(self) -> DgdIterationRecord:
        """One price-update interval of DGD, as array operations."""
        compiled = self._ensure_compiled()
        capacities = compiled.capacities_vector()
        prices = self._link_vector(self.prices)

        # Host side, Eq. (3): each flow inverts its marginal utility at the
        # path price, capped at ``max_outstanding_bdp`` path capacities --
        # ``inverse_marginal_clipped`` maps a non-positive price to the
        # window limit.  Flows whose utility is
        # batched per family run as array math; group members (excluded from
        # the batch, DGD ignores grouping) fall back to their own utility.
        path_prices = compiled.path_prices(prices)
        limits = self.params.max_outstanding_bdp * compiled.path_capacities(capacities)
        rate_vec = compiled.vec_utils.inverse_marginal_clipped(path_prices, limits)
        for j, flow in compiled.grouped:
            price, limit = float(path_prices[j]), float(limits[j])
            if price <= 0.0:
                rate_vec[j] = limit
            else:
                rate_vec[j] = min(flow.utility.inverse_marginal(price), limit)
        np.maximum(rate_vec, 0.0, out=rate_vec)

        # Link side, Eq. (14): integrate the backlog and move every price
        # from its local mismatch, all links at once.
        dt = self.params.update_interval
        # A failed (zero-capacity) link carries no traffic -- flows crossing
        # it are window-limited to zero path capacity -- so its mismatch is
        # defined as zero instead of 0/0.
        live = capacities > 0.0
        excess = np.zeros_like(capacities)
        np.divide(compiled.link_load(rate_vec) - capacities, capacities,
                  out=excess, where=live)
        queues = np.maximum(self._link_vector(self.queues) + excess * dt, 0.0)
        queue_in_bdp = queues / self.params.rtt
        price_scale = np.maximum(prices, 1e-12)
        delta = self.params.utilization_gain * excess + self.params.queue_gain * queue_in_bdp
        new_prices = np.maximum(prices + delta * price_scale, 1e-15)
        self._store_link_vector(self.queues, queues)
        self._store_link_vector(self.prices, new_prices)

        record = DgdIterationRecord(
            iteration=self.iteration,
            rates=dict(zip(compiled.flow_ids, rate_vec.tolist())),
            prices=dict(self.prices) if self.record_detail else {},
            queues=dict(self.queues) if self.record_detail else {},
        )
        self.iteration += 1
        return record

    def run(self, iterations: int, record_history: bool = True) -> List[DgdIterationRecord]:
        """Run ``iterations`` steps; return (and optionally store) the records.

        ``record_history=False`` skips the history append -- use it for
        long dynamic runs (or benchmarks) where nothing reads the records,
        so memory stays O(1) in the number of iterations.  Direct ``step()``
        calls never touch the history (same contract as xWI).
        """
        records = [self.step() for _ in range(iterations)]
        if record_history:
            self.history.extend(records)
        return records

    def rate_history(self) -> List[Dict[FlowId, float]]:
        return [record.rates for record in self.history]

    @property
    def seconds_per_iteration(self) -> float:
        return self.params.update_interval
