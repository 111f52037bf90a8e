"""Weighted max-min water-filling: the fixed point achieved by Swift.

Swift (WFQ scheduling at switches + packet-pair rate control at hosts)
drives the network to the *weighted max-min* rate allocation for the
current set of flow weights.  The fluid engine computes that fixed point
directly with the classical progressive-filling / bottleneck-freezing
algorithm (Bertsekas & Gallager), as array water-filling over a compiled
incidence matrix (:mod:`repro.fluid.vectorized`).  The per-flow dict
formulation is kept with the tests (``tests/reference/maxmin.py``) and
agrees to 1e-9 (``tests/fluid/test_vectorized_parity.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence

from repro.fluid.vectorized import CompiledMaxMin

LinkId = Hashable
FlowId = Hashable


def _validate_instance(
    weights: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> List[FlowId]:
    flow_ids = list(weights)
    if set(flow_ids) != set(paths):
        raise ValueError("weights and paths must cover the same flow ids")
    for flow_id in flow_ids:
        if weights[flow_id] <= 0:
            raise ValueError(f"flow {flow_id!r} must have a positive weight")
        path = paths[flow_id]
        if not path:
            raise ValueError(f"flow {flow_id!r} has an empty path")
        if len(set(path)) != len(path):
            raise ValueError(f"flow {flow_id!r} traverses a link twice: {tuple(path)!r}")
        for link in path:
            if link not in capacities:
                raise KeyError(f"flow {flow_id!r} references unknown link {link!r}")
    return flow_ids


def weighted_max_min(
    weights: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """Compute the network-wide weighted max-min fair allocation.

    Parameters
    ----------
    weights:
        Positive weight per flow.  At a single shared link the allocation is
        proportional to the weights.
    paths:
        Sequence of links traversed by each flow.
    capacities:
        Capacity of every link (same units as the returned rates).

    Returns
    -------
    Dict mapping flow id to its weighted max-min rate.

    Progressive filling freezes every flow on the bottleneck link -- the
    one whose remaining capacity divided by the total weight of its
    still-unfrozen flows is smallest -- at ``weight * fair_share``, batching
    independent bottlenecks into one round
    (:func:`repro.fluid.vectorized.waterfill_arrays`).  This is a
    compile-and-solve: for *repeated* solves on a static topology, compile
    the instance once with :class:`repro.fluid.vectorized.CompiledMaxMin`
    and skip the dict-to-array rebuild per call.
    """
    return CompiledMaxMin(paths, capacities).solve(weights)


def max_min(
    paths: Mapping[FlowId, Sequence[LinkId]], capacities: Mapping[LinkId, float]
) -> Dict[FlowId, float]:
    """Plain (unweighted) max-min fair allocation."""
    weights = {flow_id: 1.0 for flow_id in paths}
    return weighted_max_min(weights, paths, capacities)


def bottleneck_links(
    rates: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    tolerance: float = 1e-9,
) -> Dict[LinkId, bool]:
    """Return, per link, whether it is saturated under the given rates."""
    load: Dict[LinkId, float] = {link: 0.0 for link in capacities}
    for flow_id, rate in rates.items():
        for link in paths[flow_id]:
            load[link] += rate
    return {
        link: load[link] >= capacities[link] * (1.0 - tolerance) - tolerance
        for link in capacities
    }
