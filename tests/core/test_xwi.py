"""Tests for the xWI update rules shared by fluid and packet-level engines."""

import math

import pytest
from reference import fluid_price_update

from repro.core.config import NumFabricParameters
from repro.core.utility import LogUtility
from repro.core.xwi import XwiLinkState, compute_flow_weight, normalized_residual


class TestComputeFlowWeight:
    def test_weight_is_inverse_marginal(self):
        utility = LogUtility()
        assert compute_flow_weight(utility, path_price=0.5, max_weight=1e12) == pytest.approx(2.0)

    def test_weight_clipped_to_path_capacity(self):
        utility = LogUtility()
        assert compute_flow_weight(utility, path_price=1e-15, max_weight=10e9) == 10e9

    def test_zero_price_gives_max_weight(self):
        assert compute_flow_weight(LogUtility(), path_price=0.0, max_weight=7.0) == 7.0


class TestNormalizedResidual:
    def test_residual_definition(self):
        utility = LogUtility()
        # U'(2) = 0.5; path price 0.3 over 2 links -> (0.5 - 0.3) / 2 = 0.1
        assert normalized_residual(utility, rate=2.0, path_price=0.3, path_length=2) == (
            pytest.approx(0.1)
        )

    def test_zero_at_optimum(self):
        utility = LogUtility()
        rate = 4.0
        residual = normalized_residual(
            utility, rate, path_price=utility.marginal(rate), path_length=3
        )
        assert residual == pytest.approx(0.0)

    def test_path_length_must_be_positive(self):
        with pytest.raises(ValueError):
            normalized_residual(LogUtility(), 1.0, 1.0, 0)


class TestXwiLinkState:
    def test_enqueue_tracks_minimum_residual(self):
        state = XwiLinkState(capacity=10e9)
        state.on_enqueue(0.5)
        state.on_enqueue(-0.2)
        state.on_enqueue(0.1)
        assert state.min_residual == pytest.approx(-0.2)

    def test_dequeue_accumulates_bytes_and_returns_price(self):
        state = XwiLinkState(capacity=10e9, price=0.7)
        assert state.on_dequeue(1500) == pytest.approx(0.7)
        state.on_dequeue(1500)
        assert state.bytes_serviced == 3000

    def test_utilization(self):
        state = XwiLinkState(capacity=10e9)
        interval = 30e-6
        # Fill exactly half the link for one interval.
        state.bytes_serviced = 10e9 * interval / 8 / 2
        assert state.utilization(interval) == pytest.approx(0.5)

    def test_utilization_capped_at_one(self):
        state = XwiLinkState(capacity=1e9)
        state.bytes_serviced = 1e12
        assert state.utilization(30e-6) == 1.0

    def test_price_update_resets_interval_state(self):
        state = XwiLinkState(capacity=10e9)
        state.on_enqueue(0.3)
        state.on_dequeue(1500)
        state.update_price(30e-6)
        assert state.bytes_serviced == 0.0
        assert state.min_residual == math.inf

    def test_fully_utilized_link_converges_to_fixed_price(self):
        """On a saturated link the price converges to U'(x) of the flows."""
        params = NumFabricParameters()
        state = XwiLinkState(capacity=10e9, params=params)
        utility = LogUtility()
        interval = params.price_update_interval
        n_flows, capacity = 4, 10e9
        optimal_price = utility.marginal(capacity / n_flows)
        for _ in range(60):
            rate = capacity / n_flows
            residual = normalized_residual(utility, rate, state.price, path_length=1)
            state.on_enqueue(residual)
            state.bytes_serviced = capacity * interval / 8  # fully utilized
            state.update_price(interval)
        assert state.price == pytest.approx(optimal_price, rel=1e-3)

    def test_idle_link_price_decays_to_zero(self):
        state = XwiLinkState(capacity=10e9, price=1.0)
        for _ in range(200):
            state.update_price(30e-6)
        assert state.price < 1e-6


class TestFluidPriceUpdate:
    def test_matches_link_state_arithmetic(self):
        params = NumFabricParameters()
        state = XwiLinkState(capacity=10e9, params=params, price=0.4)
        state.on_enqueue(0.05)
        state.bytes_serviced = 10e9 * params.price_update_interval / 8  # 100% utilization
        expected = fluid_price_update(0.4, 0.05, 1.0, params)
        assert state.update_price(params.price_update_interval) == pytest.approx(expected)

    def test_price_never_negative(self):
        params = NumFabricParameters()
        price = fluid_price_update(0.1, -10.0, 0.0, params)
        assert price >= 0.0

    def test_infinite_residual_treated_as_zero(self):
        params = NumFabricParameters()
        assert fluid_price_update(0.0, math.inf, 1.0, params) == 0.0
