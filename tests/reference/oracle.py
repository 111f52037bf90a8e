"""Per-flow dual NUM solve: the Oracle's reference formulation.

:func:`solve_num` solves the same scaled dual with the same L-BFGS-B call,
warm start, feasibility rescale and max-min safeguard as
:func:`repro.fluid.oracle.solve_num`, but evaluates the dual objective and
gradient with a Python loop per flow instead of incidence products.
:func:`estimate_price_scale` is the per-link loop behind the product's
array medians.  ``tests/fluid/test_oracle.py`` holds the two solves to
1e-9 on well-conditioned instances; the perf harness gates them at 1e-6.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.oracle import (
    _MIN_RATE_FRACTION,
    OracleResult,
    _dual_minimize,
    _finish,
    _rescale_to_feasible,
    _scale_vector,
    _warm_start,
)

from reference.maxmin import max_min


def _path_price(prices: np.ndarray, link_index: Mapping[LinkId, int], path) -> float:
    # Links excluded from the dual (no flows, or failed with zero capacity)
    # contribute a price of zero.
    total = 0.0
    for link in path:
        index = link_index.get(link)
        if index is not None:
            total += prices[index]
    return float(total)


def estimate_price_scale(network: FluidNetwork) -> Dict[LinkId, float]:
    """Per-link price scale: median marginal utility at an equal split."""
    scales: Dict[LinkId, float] = {}
    for link in network.links:
        flows_here = network.flows_on_link(link)
        if not flows_here or network.capacity(link) <= 0.0:
            continue
        share = network.capacity(link) / len(flows_here)
        marginals = sorted(flow.utility.marginal(share) for flow in flows_here)
        scales[link] = max(marginals[len(marginals) // 2], 1e-300)
    return scales


def solve_num(
    network: FluidNetwork,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
    initial_prices: Optional[Mapping[LinkId, float]] = None,
    price_scale: Optional[Mapping[LinkId, float]] = None,
    safeguard: bool = True,
) -> OracleResult:
    """Solve ``max sum_i U_i(x_i)`` s.t. ``Rx <= c`` for single-path flows."""
    flows = network.flows
    if any(flow.group_id is not None for flow in flows):
        raise ValueError("network contains multipath groups; use solve_num_multipath")
    links = network.links
    if not flows:
        return OracleResult(rates={}, prices={link: 0.0 for link in links}, objective=0.0,
                            iterations=0, converged=True)
    return _solve_num_scalar(
        network, flows, links, max_iterations, tolerance, initial_prices,
        price_scale, safeguard,
    )


def _solve_num_scalar(
    network: FluidNetwork,
    flows,
    links: List[LinkId],
    max_iterations: int,
    tolerance: float,
    initial_prices: Optional[Mapping[LinkId, float]],
    price_scale: Optional[Mapping[LinkId, float]],
    safeguard: bool,
) -> OracleResult:
    """The per-flow reference implementation of the dual solve."""
    used = set()
    for flow in flows:
        used.update(flow.path)
    # Failed (zero-capacity) links are excluded like flowless ones: their
    # price stays zero and path-capacity clipping already pins every flow
    # crossing them to a zero rate, so they cannot condition the dual.
    active_links = [link for link in links if link in used and network.capacity(link) > 0.0]
    if not active_links:
        rates = {flow.flow_id: 0.0 for flow in flows}
        return OracleResult(rates=rates, prices={link: 0.0 for link in links},
                            objective=network.total_utility(rates),
                            iterations=0, converged=True)
    link_index = {link: i for i, link in enumerate(active_links)}
    capacities = np.array([network.capacity(link) for link in active_links], dtype=float)

    # Per-flow rate cap: the narrowest link on the path.  Clipping at the cap
    # makes the inner maximization bounded even when the path price is ~0.
    rate_caps = {flow.flow_id: network.path_capacity(flow.flow_id) for flow in flows}
    rate_floors = {fid: cap * _MIN_RATE_FRACTION for fid, cap in rate_caps.items()}

    if price_scale is None:
        price_scale = estimate_price_scale(network)
    scale_vec = _scale_vector(price_scale, network, active_links)
    objective_scale = float(np.max(capacities) * np.median(scale_vec))

    def primal_rates(prices: np.ndarray) -> Dict[FlowId, float]:
        rates = {}
        for flow in flows:
            q = _path_price(prices, link_index, flow.path)
            cap = rate_caps[flow.flow_id]
            if q <= 0.0:
                rate = cap
            else:
                rate = min(flow.utility.inverse_marginal(q), cap)
            rates[flow.flow_id] = max(rate, rate_floors[flow.flow_id])
        return rates

    def dual_and_gradient(z: np.ndarray) -> Tuple[float, np.ndarray]:
        prices = scale_vec * z
        rates = primal_rates(prices)
        value = float(np.dot(prices, capacities))
        load = np.zeros(len(active_links))
        for flow in flows:
            x = rates[flow.flow_id]
            q = _path_price(prices, link_index, flow.path)
            value += flow.utility.value(x) - x * q
            for link in flow.path:
                index = link_index.get(link)  # dead links are not in the dual
                if index is not None:
                    load[index] += x
        gradient = scale_vec * (capacities - load)
        return value / objective_scale, gradient / objective_scale

    z0 = _warm_start(initial_prices, active_links, scale_vec)
    result = _dual_minimize(dual_and_gradient, z0, max_iterations, tolerance)
    prices = scale_vec * np.maximum(result.x, 0.0)
    rates = primal_rates(prices)
    rates = _rescale_to_feasible(network, rates)
    objective = network.total_utility(rates)

    maxmin_rates = maxmin_objective = None
    if safeguard:
        maxmin_rates = max_min({f.flow_id: f.path for f in flows}, network.capacities)
        maxmin_objective = network.total_utility(maxmin_rates)
    price_dict = {link: 0.0 for link in links}
    for link in active_links:
        price_dict[link] = float(prices[link_index[link]])
    return _finish(network, flows, links, rates, price_dict, objective,
                   int(result.nit), bool(result.success),
                   maxmin_rates, maxmin_objective, max_iterations)
