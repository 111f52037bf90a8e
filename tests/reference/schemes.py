"""Scalar (per-flow dict) ``step`` of the four fluid schemes.

Each class subclasses the product simulator and overrides only ``step``
with the plain-Python formulation of the same iteration: xWI (Eq. (7)
weights, Swift's weighted max-min, the Eqs. (9)-(11) price update of
:func:`fluid_price_update`), DGD (Eqs. (3), (14)), RCP* (Eqs. (15), (16))
and DCTCP's per-RTT windows.
Construction, state and ``run`` are the product's, so a scalar and a
product simulator built on twin networks can be stepped side by side;
``tests/fluid/test_vectorized_parity.py`` and
``tests/fluid/test_scheme_backend_parity.py`` hold them to 1e-9.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.config import NumFabricParameters
from repro.fluid.dctcp import DctcpFluidSimulator, DctcpIterationRecord
from repro.fluid.dgd import DgdFluidSimulator, DgdIterationRecord
from repro.fluid.network import FlowId, LinkId
from repro.fluid.rcp import RcpIterationRecord, RcpStarFluidSimulator
from repro.fluid.xwi import _WEIGHT_FLOOR, XwiFluidSimulator, XwiIterationRecord

from reference.maxmin import weighted_max_min


def fluid_price_update(
    price: float,
    min_normalized_residual: float,
    utilization: float,
    params: NumFabricParameters,
) -> float:
    """Single xWI price update in fluid form (Eqs. (9)-(11)).

    This is the same arithmetic as
    :meth:`repro.core.xwi.XwiLinkState.update_price` but stateless, for one
    link whose utilization and minimum residual are computed analytically
    instead of measured from packets.
    """
    residual = min_normalized_residual if math.isfinite(min_normalized_residual) else 0.0
    new_price = max(price + residual - params.eta * (1.0 - utilization) * price, 0.0)
    return params.beta * price + (1.0 - params.beta) * new_price


class ScalarXwiFluidSimulator(XwiFluidSimulator):
    """xWI iterated over per-flow dicts."""

    def _path_price(self, path) -> float:
        return sum(self.prices.get(link, 0.0) for link in path)

    def _compute_weights(self) -> Dict[FlowId, float]:
        weights: Dict[FlowId, float] = {}
        for flow in self.network.flows:
            price = self._path_price(flow.path)
            cap = self.network.path_capacity(flow.flow_id)
            if flow.group_id is not None:
                group = self.network.group(flow.group_id)
                weight = self._group_weight(group, flow.flow_id, price, cap)
            else:
                weight = flow.utility.inverse_marginal_clipped(price, cap)
            weights[flow.flow_id] = max(weight, _WEIGHT_FLOOR)
        return weights

    def step(self) -> XwiIterationRecord:
        """Run one xWI iteration and return its snapshot."""
        flows = self.network.flows
        if not flows:
            record = XwiIterationRecord(self.iteration, {}, dict(self.prices), {})
            self.iteration += 1
            return record
        capacities = self.network.capacities

        weights = self._compute_weights()
        paths = {flow.flow_id: flow.path for flow in flows}
        rates = weighted_max_min(weights, paths, capacities)
        self.last_rates = dict(rates)

        # Per-link price update.
        load: Dict[LinkId, float] = {link: 0.0 for link in capacities}
        min_residual: Dict[LinkId, float] = {link: math.inf for link in capacities}
        for flow in flows:
            rate = rates[flow.flow_id]
            price = self._path_price(flow.path)
            residual = (self._marginal_utility(flow, rates) - price) / len(flow.path)
            for link in flow.path:
                load[link] += rate
                if residual < min_residual[link]:
                    min_residual[link] = residual

        for link, capacity in capacities.items():
            utilization = min(load[link] / capacity, 1.0) if capacity > 0 else 0.0
            self.prices[link] = fluid_price_update(
                self.prices[link], min_residual[link], utilization, self.params
            )

        record = XwiIterationRecord(
            iteration=self.iteration,
            rates=dict(rates),
            prices=dict(self.prices) if self.record_detail else {},
            weights=weights if self.record_detail else {},
        )
        self.iteration += 1
        return record


class ScalarDgdFluidSimulator(DgdFluidSimulator):
    """DGD iterated over per-flow dicts."""

    def _path_price(self, path) -> float:
        return sum(self.prices.get(link, 0.0) for link in path)

    def _flow_rates(self) -> Dict[FlowId, float]:
        rates: Dict[FlowId, float] = {}
        for flow in self.network.flows:
            price = self._path_price(flow.path)
            cap = self.network.path_capacity(flow.flow_id)
            limit = self.params.max_outstanding_bdp * cap
            if price <= 0.0:
                rate = limit
            else:
                rate = min(flow.utility.inverse_marginal(price), limit)
            rates[flow.flow_id] = max(rate, 0.0)
        return rates

    def step(self) -> DgdIterationRecord:
        """One price-update interval of DGD."""
        capacities = self.network.capacities
        rates = self._flow_rates()
        load = self.network.link_load(rates)
        dt = self.params.update_interval
        for link, capacity in capacities.items():
            # Queue backlog (in "capacity-seconds", i.e. normalized bytes):
            # integrates the over-subscription, drains when under-subscribed.
            # A failed (zero-capacity) link carries no traffic, so its
            # mismatch is zero by definition rather than 0/0.
            excess = (load[link] - capacity) / capacity if capacity > 0.0 else 0.0
            self.queues[link] = max(self.queues[link] + excess * dt, 0.0)
            queue_in_bdp = self.queues[link] / self.params.rtt
            # Scale the additive update by the typical price magnitude so the
            # normalized gains behave consistently across utility functions.
            price_scale = max(self.prices[link], 1e-12)
            delta = (
                self.params.utilization_gain * excess
                + self.params.queue_gain * queue_in_bdp
            )
            self.prices[link] = max(self.prices[link] + delta * price_scale, 1e-15)

        record = DgdIterationRecord(
            iteration=self.iteration,
            rates=dict(rates),
            prices=dict(self.prices) if self.record_detail else {},
            queues=dict(self.queues) if self.record_detail else {},
        )
        self.iteration += 1
        return record


class ScalarRcpStarFluidSimulator(RcpStarFluidSimulator):
    """RCP* iterated over per-flow dicts."""

    def _flow_rates(self) -> Dict[FlowId, float]:
        alpha = self.params.alpha
        rates: Dict[FlowId, float] = {}
        for flow in self.network.flows:
            # A failed link advertises a zero fair share; its ``R^-alpha``
            # term is infinite, so Eq. (16) combines to a zero rate (the
            # literal power would raise ZeroDivisionError).
            total = 0.0
            for link in flow.path:
                fair = self.fair_rates[link]
                total = float("inf") if fair <= 0.0 else total + fair ** (-alpha)
            rate = (
                total ** (-1.0 / alpha) if total > 0 else self.network.path_capacity(flow.flow_id)
            )
            limit = self.params.max_outstanding_bdp * self.network.path_capacity(flow.flow_id)
            rates[flow.flow_id] = min(rate, limit)
        return rates

    def step(self) -> RcpIterationRecord:
        capacities = self.network.capacities
        rates = self._flow_rates()
        load = self.network.link_load(rates)
        interval = self.params.update_interval
        rtt = self.params.rtt
        for link, capacity in capacities.items():
            if capacity > 0.0:
                excess = (load[link] - capacity) / capacity
                spare_fraction = (capacity - load[link]) / capacity
            else:  # failed link: no traffic, no mismatch (parity with arrays)
                excess = 0.0
                spare_fraction = 0.0
            self.queues[link] = max(self.queues[link] + excess * interval, 0.0)
            queue_in_rtt = self.queues[link] / rtt
            factor = 1.0 + (interval / rtt) * (
                self.params.gain_a * spare_fraction - self.params.gain_b * queue_in_rtt
            )
            factor = min(max(factor, 0.5), 2.0)
            new_rate = self.fair_rates[link] * factor
            self.fair_rates[link] = min(max(new_rate, capacity * 1e-6), capacity)

        record = RcpIterationRecord(
            iteration=self.iteration,
            rates=dict(rates),
            fair_rates=dict(self.fair_rates) if self.record_detail else {},
            queues=dict(self.queues) if self.record_detail else {},
        )
        self.iteration += 1
        return record


class ScalarDctcpFluidSimulator(DctcpFluidSimulator):
    """DCTCP's per-RTT window dynamics over per-flow dicts."""

    def _ensure_flow_state(self) -> None:
        for flow in self.network.flows:
            if flow.flow_id not in self.windows:
                self.windows[flow.flow_id] = self._initial_window(flow.flow_id)
                self.ecn_fraction[flow.flow_id] = 0.0
        active = {flow.flow_id for flow in self.network.flows}
        for flow_id in list(self.windows):
            if flow_id not in active:
                del self.windows[flow_id]
                del self.ecn_fraction[flow_id]

    def step(self) -> DctcpIterationRecord:
        """Advance the model by one RTT."""
        self._ensure_flow_state()
        params = self.params
        capacities = self.network.capacities
        rates = {
            flow.flow_id: self.windows[flow.flow_id] / params.rtt for flow in self.network.flows
        }
        load = self.network.link_load(rates)

        marked_links = set()
        for link, capacity in capacities.items():
            # Queue in "bits": integrate over-subscription during the RTT.
            self.queues[link] = max(
                self.queues[link] + (load[link] - capacity) * params.rtt, 0.0
            )
            marking_threshold = capacity * params.rtt * params.marking_threshold_fraction
            if self.queues[link] > marking_threshold:
                marked_links.add(link)

        for flow in self.network.flows:
            flow_id = flow.flow_id
            marked = any(link in marked_links for link in flow.path)
            observed_fraction = 1.0 if marked else 0.0
            self.ecn_fraction[flow_id] += params.gain * (
                observed_fraction - self.ecn_fraction[flow_id]
            )
            if marked:
                self.windows[flow_id] *= 1.0 - self.ecn_fraction[flow_id] / 2.0
            else:
                self.windows[flow_id] += params.mtu_bits
            self.windows[flow_id] = max(self.windows[flow_id], params.mtu_bits)

        # Delivered rates (see the product step): offered load drives the
        # queues, but no flow delivers past its narrowest link.
        delivered = {
            flow_id: min(rate, self.network.path_capacity(flow_id))
            for flow_id, rate in rates.items()
        }
        record = DctcpIterationRecord(
            iteration=self.iteration, rates=delivered, queues=dict(self.queues)
        )
        self.iteration += 1
        return record
