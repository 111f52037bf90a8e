"""The Oracle: a centralized solver for the NUM problem (ground truth).

The paper uses a numerical fluid model to compute the optimal allocation for
the current topology and flow set, against which the distributed schemes are
judged.  We implement two solvers:

* :func:`solve_num` -- single-path flows.  Solves the *dual* problem (over
  link prices) with L-BFGS-B.  The dual is smooth because the utilities are
  strictly concave, and its dimension is the number of links actually
  carrying flows, which is far smaller than the number of flows in
  datacenter scenarios, so this scales to thousands of flows easily.
* :func:`solve_num_multipath` -- flows grouped into multipath aggregates
  whose utility applies to the aggregate rate (resource pooling).  Solves
  the primal directly with SLSQP (suitable for the evaluation's scale of a
  few hundred sub-flows).

:func:`solve_num` evaluates the dual objective/gradient as batched array
expressions over the compiled link x flow incidence of
:mod:`repro.fluid.vectorized`, so each L-BFGS-B evaluation is a handful of
matrix products instead of a Python loop per flow.  This is what makes the
per-flow-set-change Oracle of the dynamic experiments (Fig. 5) tractable at
the paper's 10k-flow scale.  The per-flow loop formulation is kept with
the tests (``tests/reference/oracle.py``); ``tests/fluid/test_oracle.py``
pins the two together on a grid of topologies and utility families.

For repeated solves on a churning flow set (the dynamic Oracle), pass
``initial_prices`` (warm start) and a cached ``price_scale`` from
:func:`estimate_price_scale`; both cut the per-solve cost by an order of
magnitude without changing the optimum.  Better still, use
:class:`PersistentDualSolver`: it keeps prices, conditioning, curvature
state *and* the compiled incidence alive across flow-set changes (the
incidence is patched incrementally from the network's churn journal), and
replaces the scipy L-BFGS-B call -- whose per-call workspace setup is the
dominant cost of warm-started dynamic solves -- with an in-repo projected
spectral-gradient (SPG) minimizer over preallocated arrays.
:func:`solve_num` (always scipy L-BFGS-B) remains the parity reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import optimize

from repro.core.utility import _EPSILON
from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import CompiledFluidNetwork, compile_network, waterfill_arrays

_MIN_RATE_FRACTION = 1e-9

#: Flow count above which the (SLSQP) primal fallback is not attempted.
_FALLBACK_MAX_FLOWS = 400


@dataclass
class OracleResult:
    """Optimal allocation returned by the Oracle."""

    rates: Dict[FlowId, float]
    prices: Dict[LinkId, float]
    objective: float
    iterations: int
    converged: bool


def estimate_price_scale(network: FluidNetwork) -> Dict[LinkId, float]:
    """Per-link price scale: median marginal utility at an equal split.

    Optimal prices differ by many orders of magnitude across utility
    families (for example ~1e-9 for log utilities at 10 Gbps but ~1e-19 for
    alpha = 2), which wrecks the conditioning of a naive dual solve.
    :func:`solve_num` therefore optimizes over scaled prices ``z`` with
    ``p_l = scale_l * z_l`` where ``scale_l`` estimates the optimal price of
    link ``l`` as the median marginal utility of its flows at an equal-share
    allocation.  Only links with at least one flow appear in the result.

    The scale is pure conditioning: it never changes the optimum, so
    repeated dynamic solves (:class:`~repro.experiments.dynamic_fluid.OracleRatePolicy`)
    can cache it across flow-set changes instead of recomputing it per solve.
    Single-path flows only (multipath groups are rejected by the callers).
    """
    compiled = compile_network(network)
    active_idx, medians = _scale_medians(compiled)
    return {
        compiled.link_ids[idx]: value
        for idx, value in zip(active_idx.tolist(), medians.tolist())
    }


def _scale_medians(compiled: CompiledFluidNetwork) -> Tuple[np.ndarray, np.ndarray]:
    """Per-link price-scale medians on an already-compiled network.

    Returns ``(active link indices, median marginal at an equal share)`` in
    compiled link order -- the array core of :func:`estimate_price_scale`,
    shared with :class:`PersistentDualSolver`
    so the persistent path never recompiles just to refresh conditioning.
    """
    incidence = compiled.incidence
    counts = incidence.sum(axis=1)
    capacities = compiled.capacities_vector()
    # Failed (zero-capacity) links are skipped: an equal share of zero would
    # produce the _EPSILON-floored marginal (~1e30) and poison the medians.
    active = (counts > 0) & (capacities > 0.0)
    if not active.any():
        return np.empty(0, dtype=np.intp), np.empty(0)
    shares = np.where(active, capacities / np.maximum(counts, 1), 1.0)
    # One marginal per (link, flow-on-link) at that link's equal share; the
    # placeholder rate 1.0 for non-members is masked to +inf before sorting,
    # so the upper median lands on the same element a per-link sort picks.
    marginals = compiled.vec_utils.marginal(np.where(incidence, shares[:, None], 1.0))
    marginals = np.where(incidence, marginals, np.inf)
    marginals.sort(axis=1)
    active_idx = np.nonzero(active)[0]
    medians = np.maximum(marginals[active_idx, counts[active_idx] // 2], 1e-300)
    return active_idx, medians


def _scale_vector(
    price_scale: Optional[Mapping[LinkId, float]],
    network: FluidNetwork,
    active_links: List[LinkId],
) -> np.ndarray:
    """Price scale for the active links, computing or completing as needed.

    A caller-provided (cached) scale may predate the current flow set; links
    it misses fall back to the median of the provided values, which keeps
    the conditioning in the right ballpark without a full recompute.
    """
    if price_scale is None:
        price_scale = estimate_price_scale(network)
    if price_scale:
        fill = float(np.median(np.fromiter(price_scale.values(), dtype=float)))
    else:
        fill = 1.0
    return np.array([price_scale.get(link, fill) for link in active_links], dtype=float)


def solve_num(
    network: FluidNetwork,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
    initial_prices: Optional[Mapping[LinkId, float]] = None,
    price_scale: Optional[Mapping[LinkId, float]] = None,
    safeguard: bool = True,
) -> OracleResult:
    """Solve ``max sum_i U_i(x_i)`` s.t. ``Rx <= c`` for single-path flows.

    Flows that belong to a group (multipath aggregates) are not supported
    here; use :func:`solve_num_multipath`.

    Parameters
    ----------
    initial_prices:
        Warm-start prices (e.g. from the previous solve of a dynamic
        scenario); links not present start at zero.
    price_scale:
        Cached conditioning from :func:`estimate_price_scale`; computed
        fresh when omitted.
    safeguard:
        When true (default), the solution is checked against the max-min
        allocation and a primal SLSQP fallback is attempted if the dual
        stalled (very steep utilities).  Dynamic callers with
        well-conditioned utilities can disable it to shave per-solve cost.

    Links carrying no flows are excluded from the dual and reported with a
    price of exactly zero (their capacity cannot constrain anything).
    """
    flows = network.flows
    if any(flow.group_id is not None for flow in flows):
        raise ValueError("network contains multipath groups; use solve_num_multipath")
    links = network.links
    if not flows:
        return OracleResult(rates={}, prices={link: 0.0 for link in links}, objective=0.0,
                            iterations=0, converged=True)
    compiled = compile_network(network)
    vec_utils = compiled.vec_utils
    capacities_all = compiled.capacities_vector()
    # Failed (zero-capacity) links are excluded like flowless ones: their
    # price stays zero and path-capacity clipping already pins every flow
    # crossing them to a zero rate, so they cannot condition the dual.
    active = compiled.incidence.any(axis=1) & (capacities_all > 0.0)
    active_idx = np.nonzero(active)[0]
    active_links = [compiled.link_ids[i] for i in active_idx]
    incidence = compiled.incidence[active]
    incidence_f = compiled.incidence_f[active]
    capacities = capacities_all[active]

    path_caps = compiled.path_capacities(capacities_all)
    floors = path_caps * _MIN_RATE_FRACTION

    if not active_idx.size:
        rates = {flow.flow_id: 0.0 for flow in flows}
        return OracleResult(rates=rates, prices={link: 0.0 for link in links},
                            objective=network.total_utility(rates),
                            iterations=0, converged=True)

    scale_vec = _scale_vector(price_scale, network, active_links)
    objective_scale = float(np.max(capacities) * np.median(scale_vec))

    def primal_rates_vec(prices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        path_prices = incidence_f.T @ prices
        rates = vec_utils.inverse_marginal_clipped(path_prices, path_caps)
        return np.maximum(rates, floors), path_prices

    def dual_and_gradient(z: np.ndarray) -> Tuple[float, np.ndarray]:
        prices = scale_vec * z
        rates, path_prices = primal_rates_vec(prices)
        value = float(prices @ capacities + vec_utils.value(rates).sum() - rates @ path_prices)
        load = incidence_f @ rates
        gradient = scale_vec * (capacities - load)
        return value / objective_scale, gradient / objective_scale

    z0 = _warm_start(initial_prices, active_links, scale_vec)
    result = _dual_minimize(dual_and_gradient, z0, max_iterations, tolerance)
    prices = scale_vec * np.maximum(result.x, 0.0)
    rate_vec, _ = primal_rates_vec(prices)
    rate_vec = _rescale_to_feasible_arrays(incidence, incidence_f, rate_vec, capacities)
    objective = float(vec_utils.value(rate_vec).sum())
    rates = dict(zip(compiled.flow_ids, rate_vec.tolist()))

    maxmin_rates = maxmin_objective = None
    if safeguard:
        # The reference allocation must respect *all* carrying links,
        # including failed (zero-capacity) ones excluded from the dual --
        # otherwise a dead-link flow looks entitled to a positive rate and
        # the safeguard wrongly rejects the (correct) dual solution.
        carrying = compiled.incidence.any(axis=1)
        maxmin_vec = waterfill_arrays(
            compiled.incidence[carrying], compiled.incidence_f[carrying],
            np.ones(len(compiled.flow_ids)), capacities_all[carrying],
        )
        maxmin_objective = float(vec_utils.value(maxmin_vec).sum())
        maxmin_rates = dict(zip(compiled.flow_ids, maxmin_vec.tolist()))
    price_dict = {link: 0.0 for link in links}
    for position, link in enumerate(active_links):
        price_dict[link] = float(prices[position])
    return _finish(network, flows, links, rates, price_dict, objective,
                   int(result.nit), bool(result.success),
                   maxmin_rates, maxmin_objective, max_iterations)


def _dual_minimize(dual_and_gradient, z0: np.ndarray, max_iterations: int, tolerance: float):
    """The shared one-shot dual minimization (L-BFGS-B) over ``z >= 0``."""
    return optimize.minimize(
        dual_and_gradient,
        z0,
        jac=True,
        bounds=[(0.0, None)] * len(z0),
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": 1e-12},
    )


@dataclass
class _SpgResult:
    """Mirror of the scipy result fields the dual solvers consume."""

    x: np.ndarray
    nit: int
    success: bool
    step: float


#: Nonmonotone Armijo memory (Grippo-Lampariello-Lucidi reference window).
_SPG_MEMORY = 8
_SPG_ARMIJO = 1e-4
_SPG_STEP_MIN = 1e-10
_SPG_STEP_MAX = 1e10
#: Optimality threshold on the unit-step projected gradient of the *scaled*
#: dual (both the objective and the prices are O(1) after conditioning).
_SPG_PGTOL = 1e-9
#: Looser projected-gradient level below which an objective stall (ftol) is
#: accepted as convergence: BB steps are nonmonotone, so a flat objective
#: far from optimality must not stop the solve.
_SPG_STALL_PGTOL = 1e-7
_SPG_STALL_LIMIT = 3


def _spg_minimize(
    dual_and_gradient,
    z0: np.ndarray,
    max_iterations: int,
    tolerance: float,
    initial_step: Optional[float] = None,
    precondition: Optional[np.ndarray] = None,
) -> _SpgResult:
    """Preconditioned projected spectral-gradient descent over ``z >= 0``.

    The in-repo replacement for the per-call L-BFGS-B setup: a projected
    Barzilai-Borwein step with a nonmonotone Armijo line search, operating
    directly on the caller's arrays.  The dual is convex and (piecewise)
    smooth, so the spectral step converges from a warm start without
    scipy's per-call workspace allocation, bound standardization and
    Fortran round trips, which dominate warm dynamic solves (measured
    iteration counts: ``docs/PERFORMANCE.md``).

    ``precondition`` is a positive diagonal ``D`` applied to the gradient
    step (``z - step * D * g``, equivalent to plain SPG in the variables
    ``z / sqrt(D)``; the non-negativity projection stays separable).  The
    dual solvers pass ``D_l ~ 1 / (scale_l * capacity_l)`` so one step
    moves every link's price in proportion to its *relative* capacity
    residual: without it, mixing utility families whose optimal prices
    differ by many orders of magnitude (log at ~1e-10 vs alpha = 2 at
    ~1e-20) leaves the tiny-scale links practically frozen under a single
    scalar step length.

    Stops when the preconditioned projected gradient drops below
    :data:`_SPG_PGTOL` or the scaled objective stalls below ``tolerance``
    (relative) for :data:`_SPG_STALL_LIMIT` consecutive iterations while
    the projected gradient is already below :data:`_SPG_STALL_PGTOL` --
    the ``ftol`` contract of the scipy path, guarded against BB's
    nonmonotone plateaus.  ``initial_step`` carries the spectral
    (curvature) state across solves for :class:`PersistentDualSolver`.
    """
    z = np.maximum(np.asarray(z0, dtype=float), 0.0)
    f, g = dual_and_gradient(z)
    scaled = precondition is not None
    diag = precondition if scaled else None
    step_direction = diag * g if scaled else g
    if initial_step is not None and np.isfinite(initial_step) and initial_step > 0.0:
        step = initial_step
    else:
        g_norm = float(np.max(np.abs(step_direction), initial=0.0))
        step = 1.0 / g_norm if g_norm > 0.0 else 1.0
    step = min(max(step, _SPG_STEP_MIN), _SPG_STEP_MAX)
    recent = deque([f], maxlen=_SPG_MEMORY)
    stalls = 0
    nit = 0
    success = not z.size
    for nit in range(1, max_iterations + 1):
        trial = np.maximum(z - step * step_direction, 0.0)
        d = trial - z
        dg = float(d @ g)
        if dg >= 0.0:
            success = True  # no feasible descent direction: stationary point
            nit -= 1
            break
        f_ref = max(recent)
        lam = 1.0
        z_new = trial
        f_new, g_new = dual_and_gradient(z_new)
        while f_new > f_ref + _SPG_ARMIJO * lam * dg and lam > 1e-8:
            lam *= 0.5
            z_new = z + lam * d
            f_new, g_new = dual_and_gradient(z_new)
        s = z_new - z
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            # BB step in the preconditioned variables z / sqrt(D).
            step = float((s / diag) @ s) / sy if scaled else float(s @ s) / sy
        else:
            step = step * 2.0
        step = min(max(step, _SPG_STEP_MIN), _SPG_STEP_MAX)
        stalls = stalls + 1 if abs(f - f_new) <= tolerance * max(abs(f), abs(f_new), 1.0) else 0
        z, f, g = z_new, f_new, g_new
        recent.append(f)
        step_direction = diag * g if scaled else g
        projected_gradient = z - np.maximum(z - step_direction, 0.0)
        pg_norm = float(np.max(np.abs(projected_gradient), initial=0.0))
        if pg_norm <= _SPG_PGTOL or (
            stalls >= _SPG_STALL_LIMIT and pg_norm <= _SPG_STALL_PGTOL
        ):
            success = True
            break
    return _SpgResult(x=z, nit=nit, success=success, step=step)


def _warm_start(
    initial_prices: Optional[Mapping[LinkId, float]],
    active_links: List[LinkId],
    scale_vec: np.ndarray,
) -> np.ndarray:
    if initial_prices is not None:
        return np.array(
            [max(initial_prices.get(link, 0.0), 0.0) for link in active_links], dtype=float
        ) / scale_vec
    # Start at half the scale estimate itself (z = 0.5) so multi-hop paths
    # are not wildly overpriced initially.
    return np.full(len(active_links), 0.5, dtype=float)


def _finish(
    network: FluidNetwork,
    flows,
    links: List[LinkId],
    rates: Dict[FlowId, float],
    prices: Dict[LinkId, float],
    objective: float,
    iterations: int,
    success: bool,
    maxmin_rates: Optional[Dict[FlowId, float]],
    maxmin_objective: Optional[float],
    max_iterations: int,
) -> OracleResult:
    """Apply the max-min sanity check / primal fallback shared by the dual solvers.

    The optimum can never be worse than plain max-min (a feasible
    allocation).  For very steep utilities (alpha >= ~4) the dual becomes so
    ill-conditioned that L-BFGS-B can stall far from the optimum; in that
    case fall back to a primal SLSQP solve in normalized units, which is
    slower but robust for the evaluation's problem sizes.
    """
    if maxmin_objective is None:  # safeguard disabled
        return OracleResult(rates=rates, prices=prices, objective=objective,
                            iterations=iterations, converged=success)
    if (not success or objective < maxmin_objective) and len(flows) <= _FALLBACK_MAX_FLOWS:
        fallback = _solve_num_primal(network, max_iterations=max_iterations)
        if fallback.objective >= objective:
            return fallback
    if objective < maxmin_objective:
        # Even the fallback could not beat max-min (or the problem is too
        # large for it); max-min itself is a feasible, better allocation.
        return OracleResult(
            rates=maxmin_rates,
            prices={link: 0.0 for link in links},
            objective=maxmin_objective,
            iterations=iterations,
            converged=False,
        )
    return OracleResult(rates=rates, prices=prices, objective=objective,
                        iterations=iterations, converged=success)


def _cold_start_precondition(
    z0: np.ndarray,
    scale_vec: np.ndarray,
    capacities: np.ndarray,
    objective_scale: float,
    incidence_f: np.ndarray,
    curvature_alpha: np.ndarray,
    primal_rates_vec,
    path_caps: np.ndarray,
    floors: np.ndarray,
) -> np.ndarray:
    """Diagonal (Jacobi) preconditioner for *cold* SPG dual solves.

    The dual Hessian's diagonal is ``H_l = sum_{f on l} |dx_f/dq_f|`` over
    flows whose rate is strictly between floor and cap; every batched
    family is a power-law demand ``x ~ q^(-1/alpha_eff)``, so
    ``|dx/dq| = x / (alpha_eff * q)``.  Evaluated at the start point, this
    rescues instances where the median price-scale misestimates a link by
    orders of magnitude (a link shared by log and alpha = 2 flows: the
    median picks the log marginal ~1e-10 while the binding curvature sits
    at ~1e-20, and the plain relative-residual step then oscillates across
    the tiny true price for thousands of iterations).  Warm solves skip
    this -- measured on the Fig. 5 churn pattern, the relative-residual
    heuristic converges in fewer iterations from a near-optimal start.
    Links with zero measured curvature (all flows clipped) fall back to
    the heuristic.
    """
    prices0 = scale_vec * z0
    rates0, path_prices0 = primal_rates_vec(prices0)
    interior = (rates0 > floors) & (rates0 < path_caps)
    slopes = np.zeros(len(rates0))
    np.divide(
        rates0, curvature_alpha * np.maximum(path_prices0, 1e-300),
        out=slopes, where=interior,
    )
    curvature = incidence_f @ slopes
    heuristic = objective_scale / (scale_vec * capacities)
    with np.errstate(divide="ignore", over="ignore"):
        newton = objective_scale / (scale_vec**2 * curvature)
    return np.where((curvature > 0.0) & np.isfinite(newton), newton, heuristic)


class PersistentDualSolver:
    """A dual Oracle whose state survives flow-set changes.

    The dynamic experiments (Fig. 5/7) re-solve the NUM problem on *every*
    arrival/departure batch; with :func:`solve_num` each of those solves
    pays L-BFGS-B's per-call setup (workspace allocation, bound
    standardization, ``ScalarFunction`` wrappers) even when the warm start
    lands one step from the optimum.  This solver keeps everything that is
    reusable alive across flow-set changes instead:

    * **Compiled incidence** -- a private :class:`CompiledFluidNetwork`
      brought up to date via its incremental :meth:`~CompiledFluidNetwork.refresh`
      (O(path) column edits replayed from the network's churn journal)
      rather than recompiled per event.
    * **Prices** -- a full-length per-link price vector; the dual optimum
      moves little per churn event, so the previous solve's prices are the
      warm start (links temporarily without flows keep their last price as
      the guess for when they refill).
    * **Curvature** -- the spectral (Barzilai-Borwein) step carried between
      solves.
    * **Conditioning** -- the per-link price scale of
      :func:`estimate_price_scale`, refreshed only every
      ``scale_refresh_interval`` churned solves (it conditions the solver
      but never changes the optimum).

    Parity: warm persistent solves match a cold :func:`solve_num` solve of
    the same instance to well within 1e-6 relative on rates (pinned by the
    churn-trace test in ``tests/fluid/test_oracle.py`` and gated by the
    perf harness); the allocation it converges to is the same unique NUM
    optimum.  Multipath groups are rejected exactly like :func:`solve_num`.
    """

    def __init__(
        self,
        network: Optional[FluidNetwork] = None,
        tolerance: float = 1e-9,
        max_iterations: int = 2000,
        scale_refresh_interval: int = 32,
        safeguard: bool = False,
    ):
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.scale_refresh_interval = scale_refresh_interval
        self.safeguard = safeguard
        self._network = network
        self._compiled: Optional[CompiledFluidNetwork] = None
        self._prices_full: Optional[np.ndarray] = None
        self._scale_full: Optional[np.ndarray] = None
        self._scale_valid: Optional[np.ndarray] = None
        self._scale_fill = 1.0
        self._churned_solves = 0
        self._last_version: Optional[int] = None
        self._last_capacity_version: Optional[int] = None
        self._step: Optional[float] = None
        self._warm = False

    def reset(self) -> None:
        """Drop all persistent state (next solve starts cold)."""
        self._compiled = None
        self._prices_full = None
        self._scale_full = None
        self._scale_valid = None
        self._churned_solves = 0
        self._last_version = None
        self._last_capacity_version = None
        self._step = None
        self._warm = False

    def _refresh_compiled(self, network: FluidNetwork) -> CompiledFluidNetwork:
        if network is not self._network:
            self._network = network
            self.reset()
        compiled = self._compiled
        if compiled is None or compiled.refresh() == "stale":
            compiled = self._compiled = compile_network(network)
        return compiled

    def _scale_for(self, compiled: CompiledFluidNetwork, active_idx: np.ndarray) -> np.ndarray:
        """Cached per-link conditioning for the currently active links.

        Links that gained flows since the last refresh fall back to the
        median of the cached values, mirroring :func:`_scale_vector`.
        """
        if (
            self._scale_full is None
            or self._churned_solves >= self.scale_refresh_interval
        ):
            idx, medians = _scale_medians(compiled)
            n_links = len(compiled.link_ids)
            self._scale_full = np.zeros(n_links)
            self._scale_valid = np.zeros(n_links, dtype=bool)
            self._scale_full[idx] = medians
            self._scale_valid[idx] = True
            self._scale_fill = float(np.median(medians)) if medians.size else 1.0
            self._churned_solves = 0
        scale_vec = self._scale_full[active_idx]
        scale_vec[~self._scale_valid[active_idx]] = self._scale_fill
        return scale_vec

    def solve(self, network: FluidNetwork) -> OracleResult:
        """Solve the NUM problem for the network's current flow set."""
        compiled = self._refresh_compiled(network)
        flows = compiled.flows
        links = compiled.link_ids
        if network.groups or any(flow.group_id is not None for flow in flows):
            raise ValueError("network contains multipath groups; use solve_num_multipath")
        if not flows:
            return OracleResult(rates={}, prices={link: 0.0 for link in links},
                                objective=0.0, iterations=0, converged=True)
        n_links = len(links)
        if self._prices_full is None or len(self._prices_full) != n_links:
            self._prices_full = np.zeros(n_links)
            self._warm = False
        if self._last_version != compiled.version:
            self._churned_solves += 1
            self._last_version = compiled.version
        if self._last_capacity_version != network.capacity_version:
            # Capacity changed (fault injection, Fig. 10 reconfiguration):
            # the cached conditioning and the spectral step were measured on
            # the old capacities and can be arbitrarily stale, so force a
            # scale refresh and drop the curvature estimate.  Warm prices
            # survive -- the dual optimum moves continuously with capacity.
            if self._last_capacity_version is not None:
                self._scale_full = None
                self._step = None
            self._last_capacity_version = network.capacity_version

        capacities_all = compiled.capacities_vector()
        # Failed (zero-capacity) links are excluded like flowless ones: their
        # price stays zero (warm prices are retained for their restoration)
        # and path-capacity clipping pins every flow crossing them to zero.
        active = compiled.incidence.any(axis=1) & (capacities_all > 0.0)
        active_idx = np.nonzero(active)[0]
        incidence = compiled.incidence[active]
        incidence_f = compiled.incidence_f[active]
        capacities = capacities_all[active]
        path_caps = compiled.path_capacities(capacities_all)
        floors = path_caps * _MIN_RATE_FRACTION
        vec_utils = compiled.vec_utils

        if not active_idx.size:
            rates = {flow.flow_id: 0.0 for flow in flows}
            return OracleResult(rates=rates, prices={link: 0.0 for link in links},
                                objective=network.total_utility(rates),
                                iterations=0, converged=True)

        scale_vec = self._scale_for(compiled, active_idx)
        objective_scale = float(np.max(capacities) * np.median(scale_vec))

        incidence_f_t = incidence_f.T
        log_weights = vec_utils.uniform_log_weights()

        def primal_rates_vec(prices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            path_prices = incidence_f_t @ prices
            if log_weights is None:
                rates = vec_utils.inverse_marginal_clipped(path_prices, path_caps)
            else:
                # Fused all-log fast path: same elementwise arithmetic as
                # inverse_marginal_clipped, without per-family dispatch.
                rates = np.minimum(
                    log_weights / np.maximum(path_prices, _EPSILON), path_caps
                )
                np.copyto(rates, path_caps, where=path_prices <= 0.0)
            return np.maximum(rates, floors), path_prices

        def dual_and_gradient(z: np.ndarray) -> Tuple[float, np.ndarray]:
            prices = scale_vec * z
            rates, path_prices = primal_rates_vec(prices)
            if log_weights is None:
                utility_sum = vec_utils.value(rates).sum()
            else:
                utility_sum = (log_weights * np.log(np.maximum(rates, _EPSILON))).sum()
            value = float(prices @ capacities + utility_sum - rates @ path_prices)
            load = incidence_f @ rates
            gradient = scale_vec * (capacities - load)
            return value / objective_scale, gradient / objective_scale

        if self._warm:
            z0 = np.maximum(self._prices_full[active_idx], 0.0) / scale_vec
            precondition = objective_scale / (scale_vec * capacities)
        else:
            z0 = np.full(len(active_idx), 0.5)  # same cold start as _warm_start
            precondition = _cold_start_precondition(
                z0, scale_vec, capacities, objective_scale, incidence_f,
                vec_utils.curvature_alpha, primal_rates_vec, path_caps, floors,
            )
        result = _spg_minimize(
            dual_and_gradient,
            z0,
            self.max_iterations,
            self.tolerance,
            initial_step=self._step,
            precondition=precondition,
        )
        self._step = result.step
        self._warm = True
        prices = scale_vec * np.maximum(result.x, 0.0)
        self._prices_full[active_idx] = prices
        rate_vec, _ = primal_rates_vec(prices)
        rate_vec = _rescale_to_feasible_arrays(incidence, incidence_f, rate_vec, capacities)
        objective = float(vec_utils.value(rate_vec).sum())
        rates = dict(zip(compiled.flow_ids, rate_vec.tolist()))

        maxmin_rates = maxmin_objective = None
        if self.safeguard:
            # Full-capacity reference (see solve_num): failed
            # links must constrain the safeguard allocation too.
            carrying = compiled.incidence.any(axis=1)
            maxmin_vec = waterfill_arrays(
                compiled.incidence[carrying], compiled.incidence_f[carrying],
                np.ones(len(compiled.flow_ids)), capacities_all[carrying],
            )
            maxmin_objective = float(vec_utils.value(maxmin_vec).sum())
            maxmin_rates = dict(zip(compiled.flow_ids, maxmin_vec.tolist()))
        price_dict = {link: 0.0 for link in links}
        for position, link_idx in enumerate(active_idx.tolist()):
            price_dict[links[link_idx]] = float(prices[position])
        return _finish(network, flows, links, rates, price_dict, objective,
                       result.nit, result.success,
                       maxmin_rates, maxmin_objective, self.max_iterations)


def _solve_num_primal(network: FluidNetwork, max_iterations: int = 500) -> OracleResult:
    """Primal SLSQP solve for single-path flows (the dual solver's fallback)."""
    flows = network.flows
    links = network.links
    link_index = {link: i for i, link in enumerate(links)}
    flow_index = {flow.flow_id: i for i, flow in enumerate(flows)}
    capacities = np.array([network.capacity(link) for link in links], dtype=float)
    routing = np.zeros((len(links), len(flows)))
    for flow in flows:
        for link in flow.path:
            routing[link_index[link], flow_index[flow.flow_id]] = 1.0
    rate_unit = float(np.max(capacities))
    scaled_capacities = capacities / rate_unit
    floor = 1e-9

    def total_utility(y: np.ndarray) -> float:
        y = np.maximum(y, floor)
        return sum(
            flow.utility.value(y[flow_index[flow.flow_id]] * rate_unit) for flow in flows
        )

    y0 = np.array([network.path_capacity(f.flow_id) / (4.0 * rate_unit) for f in flows])
    objective_scale = max(abs(total_utility(y0)), 1e-12)

    # Analytic gradient: finite differences are hopeless here because for
    # steep utilities the objective's magnitude dwarfs the change produced
    # by SLSQP's default step.
    def negative_objective_and_gradient(y: np.ndarray):
        y = np.maximum(y, floor)
        value = total_utility(y)
        gradient = np.array(
            [
                flow.utility.marginal(y[flow_index[flow.flow_id]] * rate_unit) * rate_unit
                for flow in flows
            ]
        )
        return -value / objective_scale, -gradient / objective_scale

    constraints = [
        {"type": "ineq", "fun": lambda y, row=row: scaled_capacities[row] - routing[row] @ y,
         "jac": lambda y, row=row: -routing[row]}
        for row in range(len(links))
    ]
    result = optimize.minimize(
        negative_objective_and_gradient,
        y0,
        jac=True,
        method="SLSQP",
        bounds=[(floor, 1.0) for _ in flows],
        constraints=constraints,
        options={"maxiter": max_iterations, "ftol": 1e-12},
    )
    rates = {
        flow.flow_id: float(max(result.x[flow_index[flow.flow_id]], 0.0) * rate_unit)
        for flow in flows
    }
    rates = _rescale_to_feasible(network, rates)
    return OracleResult(
        rates=rates,
        prices={link: 0.0 for link in links},
        objective=network.total_utility(rates),
        iterations=int(result.nit),
        converged=bool(result.success),
    )


def _rescale_to_feasible_arrays(
    incidence: np.ndarray,
    incidence_f: np.ndarray,
    rates: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """Array twin of :func:`_rescale_to_feasible` (same per-flow worst-link rule)."""
    load = incidence_f @ rates
    # Zero-capacity rows cannot appear from the solvers (dead links are
    # excluded from the dual), but guard the division so direct callers
    # with faulted capacities get ratio 0 instead of 0/0 NaN.
    ratio = np.zeros_like(capacities)
    np.divide(load, capacities, out=ratio, where=capacities > 0.0)
    if not (ratio > 1.0).any():
        return rates
    worst = np.where(incidence, np.maximum(ratio, 1.0)[:, None], 1.0).max(axis=0)
    return np.where(worst > 1.0, rates / worst, rates)


def _rescale_to_feasible(network: FluidNetwork, rates: Dict[FlowId, float]) -> Dict[FlowId, float]:
    """Scale rates down uniformly per-flow so no link is oversubscribed.

    The dual solution can be very slightly infeasible due to finite solver
    tolerance; downstream convergence metrics expect a feasible reference.
    """
    load = network.link_load(rates)
    # A failed (zero-capacity) link with any load maps to an infinite
    # overload ratio, which pins every flow crossing it to exactly zero.
    overload = {
        link: (load[link] / capacity if capacity > 0.0 else np.inf)
        for link, capacity in network.capacities.items()
        if load[link] > capacity
    }
    if not overload:
        return rates
    adjusted = dict(rates)
    for flow in network.flows:
        worst = max((overload.get(link, 1.0) for link in flow.path), default=1.0)
        if worst > 1.0:
            adjusted[flow.flow_id] = rates[flow.flow_id] / worst
    return adjusted


def solve_num_multipath(
    network: FluidNetwork,
    max_iterations: int = 500,
    tolerance: float = 1e-9,
) -> OracleResult:
    """Solve the NUM problem when flows are grouped into multipath aggregates.

    The objective is ``sum_g U_g(sum of member sub-flow rates)`` plus the
    individual utilities of ungrouped flows.  Solved in the primal with
    SLSQP; intended for the evaluation's scale (hundreds of sub-flows).
    """
    flows = network.flows
    links = network.links
    link_index = {link: i for i, link in enumerate(links)}
    flow_index = {flow.flow_id: i for i, flow in enumerate(flows)}
    capacities = np.array([network.capacity(link) for link in links], dtype=float)

    if not flows:
        return OracleResult(rates={}, prices={link: 0.0 for link in links}, objective=0.0,
                            iterations=0, converged=True)

    routing = np.zeros((len(links), len(flows)))
    for flow in flows:
        for link in flow.path:
            routing[link_index[link], flow_index[flow.flow_id]] = 1.0

    groups = network.groups
    grouped_members = {m for g in groups for m in g.member_ids}
    ungrouped = [flow for flow in flows if flow.flow_id not in grouped_members]

    # Optimize in units of the largest link capacity so the variables,
    # constraints and numerical gradients are all O(1); the objective is
    # evaluated at the physical rates, so the optimum is unchanged.
    rate_unit = float(np.max(capacities))
    scaled_capacities = capacities / rate_unit
    floor = 1e-9

    # The objective magnitude varies across utility families; normalize it by
    # its value at an equal-split starting point so SLSQP's ftol behaves
    # consistently.
    def total_utility(y: np.ndarray) -> float:
        y = np.maximum(y, floor)
        x = y * rate_unit
        total = 0.0
        for group in groups:
            aggregate = sum(x[flow_index[m]] for m in group.member_ids if m in flow_index)
            total += group.utility.value(aggregate)
        for flow in ungrouped:
            total += flow.utility.value(x[flow_index[flow.flow_id]])
        return total

    y0 = np.array(
        [network.path_capacity(flow.flow_id) / (4.0 * rate_unit) for flow in flows]
    )
    objective_scale = max(abs(total_utility(y0)), 1e-12)

    def negative_objective(y: np.ndarray) -> float:
        return -total_utility(y) / objective_scale

    constraints = [
        {"type": "ineq", "fun": lambda y, row=row: scaled_capacities[row] - routing[row] @ y}
        for row in range(len(links))
    ]
    bounds = [(floor, 1.0) for _ in flows]

    result = optimize.minimize(
        negative_objective,
        y0,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": max_iterations, "ftol": tolerance},
    )
    rates = {
        flow.flow_id: float(max(result.x[flow_index[flow.flow_id]], 0.0) * rate_unit)
        for flow in flows
    }
    rates = _rescale_to_feasible(network, rates)
    objective = network.total_utility(rates)
    return OracleResult(
        rates=rates,
        prices={link: 0.0 for link in links},
        objective=objective,
        iterations=int(result.nit),
        converged=bool(result.success),
    )


def proportional_fair_single_link(capacity: float, n_flows: int) -> List[float]:
    """Closed form: proportional fairness on one link is an equal split."""
    if n_flows <= 0:
        return []
    return [capacity / n_flows] * n_flows


def alpha_fair_single_link(capacity: float, weights: List[float], alpha: float) -> List[float]:
    """Closed-form weighted alpha-fair split of a single link.

    At the optimum each flow gets ``capacity * w_i / sum w`` independent of
    alpha (for alpha > 0), because the single-link weighted alpha-fair
    problem always allocates in proportion to the weights.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive for a unique optimum")
    total = sum(weights)
    return [capacity * w / total for w in weights]
