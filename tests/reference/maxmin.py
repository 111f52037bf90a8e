"""Per-flow weighted max-min and the one-bottleneck-per-round water-fill.

:func:`weighted_max_min` is the dict form of Swift's fixed point
(progressive filling / bottleneck freezing, Bertsekas & Gallager) that the
product computes with :func:`repro.fluid.maxmin.weighted_max_min` over a
compiled incidence matrix.  :func:`waterfill_one_bottleneck` is the array
water-fill that freezes a single bottleneck link per round -- the schedule
the product's batched multi-bottleneck rounds replaced.  Both give the same
allocation as the product to 1e-9 (``tests/fluid/test_vectorized_parity.py``,
``tests/fluid/test_maxmin.py`` and the perf harness).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fluid.maxmin import FlowId, LinkId, _validate_instance


def weighted_max_min(
    weights: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """Compute the network-wide weighted max-min fair allocation.

    The algorithm repeatedly finds the bottleneck link -- the one whose
    remaining capacity divided by the total weight of its still-unfrozen
    flows is smallest -- and freezes those flows at ``weight * fair_share``.
    Complexity is O(#links * #flows) per freezing round and there are at
    most ``#links`` rounds.
    """
    flow_ids = _validate_instance(weights, paths, capacities)

    rates: Dict[FlowId, float] = {}
    if not flow_ids:
        return rates

    remaining = {link: float(capacities[link]) for link in capacities}
    # Only links actually carrying flows participate.
    link_to_flows: Dict[LinkId, List[FlowId]] = {}
    for flow_id in flow_ids:
        for link in paths[flow_id]:
            link_to_flows.setdefault(link, []).append(flow_id)

    unfrozen = set(flow_ids)
    active_links = set(link_to_flows)

    while unfrozen:
        bottleneck: Tuple[float, LinkId] = (float("inf"), None)
        for link in active_links:
            flows_here = [f for f in link_to_flows[link] if f in unfrozen]
            if not flows_here:
                continue
            total_weight = sum(weights[f] for f in flows_here)
            fair_share = remaining[link] / total_weight
            if fair_share < bottleneck[0]:
                bottleneck = (fair_share, link)
        fair_share, link = bottleneck
        if link is None:
            # Remaining flows only cross links with no capacity pressure left
            # (can happen with zero-remaining links fully consumed); give zero.
            for flow_id in unfrozen:
                rates[flow_id] = 0.0
            break
        newly_frozen = [f for f in link_to_flows[link] if f in unfrozen]
        for flow_id in newly_frozen:
            rate = weights[flow_id] * fair_share
            rates[flow_id] = rate
            for hop in paths[flow_id]:
                remaining[hop] = max(remaining[hop] - rate, 0.0)
            unfrozen.discard(flow_id)
        active_links.discard(link)

    return rates


def max_min(
    paths: Mapping[FlowId, Sequence[LinkId]], capacities: Mapping[LinkId, float]
) -> Dict[FlowId, float]:
    """Plain (unweighted) max-min fair allocation."""
    weights = {flow_id: 1.0 for flow_id in paths}
    return weighted_max_min(weights, paths, capacities)


def waterfill_one_bottleneck(
    incidence: np.ndarray,
    incidence_f: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    stats: Optional[Dict[str, int]] = None,
) -> np.ndarray:
    """Array water-fill that freezes one bottleneck link per round.

    Same arguments, allocation and ``stats`` counters (``"rounds"``,
    ``"levels"``) as :func:`repro.fluid.vectorized.waterfill_arrays`; one
    Python round per bottleneck link instead of one per dependency level.
    """
    n_links, n_flows = incidence.shape
    rates = np.zeros(n_flows)
    rounds = 0
    levels: set = set()
    if n_flows:
        remaining = capacities.astype(float).copy()
        unfrozen = np.ones(n_flows, dtype=bool)
        unfrozen_weights = weights.astype(float).copy()  # zeroed as flows freeze
        fair_share = np.empty(n_links)
        flows_left = n_flows
        while flows_left:
            link_weight = incidence_f @ unfrozen_weights
            fair_share.fill(np.inf)
            np.divide(remaining, link_weight, out=fair_share, where=link_weight > 0.0)
            bottleneck = int(np.argmin(fair_share))
            share = fair_share[bottleneck]
            if not np.isfinite(share):
                break
            frozen = np.nonzero(incidence[bottleneck] & unfrozen)[0]
            frozen_rates = weights[frozen] * share
            if stats is not None:
                levels.add(float(share))
            rates[frozen] = frozen_rates
            remaining -= incidence_f[:, frozen] @ frozen_rates
            np.maximum(remaining, 0.0, out=remaining)
            unfrozen[frozen] = False
            unfrozen_weights[frozen] = 0.0
            flows_left -= frozen.size
            rounds += 1
    if stats is not None:
        stats["rounds"] = rounds
        stats["levels"] = len(levels)
    return rates
