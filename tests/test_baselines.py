import numpy as np
import pytest

from asms import baselines
from asms.core import (Channel, DEFAULT_DELTA_TABLE, Observation, RngStream,
                       ScenarioSpec, SimConfig)
from asms.netsim import BottleneckSim


def obs(x=10.0, y=10.0, l=20.0, j=2.0, p=0.0):
    return Observation(x, y, l, j, p, p)


def run_controller(name, capacities, x_start, p_threshold=10.0, latency=10.0):
    """Scripted single-sender run against a deterministic lossless link."""
    state = baselines.new_controller_state()
    x = x_start
    xs = []
    for cap in capacities:
        y = min(x, cap)
        overload = max(0.0, x / cap - 1.0)
        l = latency * (1.0 + min(1.0, x / cap) ** 2)
        lost = 2000.0 * overload   # crude congestion-loss signal
        action, state = baselines.controller_step(
            name, state, obs(x=x, y=y, l=l, p=lost), DEFAULT_DELTA_TABLE, p_threshold)
        x = min(200.0, max(1.0, x + action.delta_mbps))
        xs.append(x)
    return xs


class TestDelayGradientController:
    def test_latency_drop_with_full_delivery_probes_up(self):
        state = baselines.new_controller_state()
        # establish a high smoothed latency, then feed a sharp drop
        _, state = baselines.delay_gradient_controller(state, obs(l=50.0))
        action, _ = baselines.delay_gradient_controller(state, obs(l=20.0))
        assert action.delta_mbps == 1.0

    def test_rising_latency_backs_off_hard(self):
        state = baselines.new_controller_state()
        _, state = baselines.delay_gradient_controller(state, obs(l=20.0))
        action, _ = baselines.delay_gradient_controller(state, obs(l=60.0))
        assert action.delta_mbps == -5.0

    def test_loss_above_threshold_backs_off(self):
        state = baselines.new_controller_state()
        _, state = baselines.delay_gradient_controller(state, obs(l=20.0))
        action, _ = baselines.delay_gradient_controller(state, obs(l=20.0, p=25.0))
        assert action.delta_mbps == -5.0

    def test_flat_latency_holds(self):
        state = baselines.new_controller_state()
        _, state = baselines.delay_gradient_controller(state, obs(l=20.0))
        action, _ = baselines.delay_gradient_controller(state, obs(l=20.0))
        assert action.delta_mbps == 0.0

    def test_pure_function_of_state_and_obs(self):
        state = baselines.ControllerState(smoothed_latency_ms=30.0, steps=5)
        o = obs(l=25.0)
        a1, s1 = baselines.delay_gradient_controller(state, o)
        a2, s2 = baselines.delay_gradient_controller(state, o)
        assert a1 == a2 and s1 == s2


class TestBandwidthProbeController:
    def test_converges_near_capacity_fraction(self):
        # one-step-from-converged start; steady targeting tracks 0.95 * 50
        xs = run_controller("probe", [50.0] * 20, x_start=44.0)
        assert any(abs(x - 47.5) <= 5.0 for x in xs[:20])
        assert abs(xs[-1] - 47.5) <= 5.0

    def test_probe_every_eighth_step(self):
        state = baselines.new_controller_state()
        deltas = []
        for _ in range(24):
            action, state = baselines.bandwidth_probe_controller(state, obs(x=30, y=30))
            deltas.append(action.delta_mbps)
        probe_steps = [i for i, d in enumerate(deltas) if d == 5.0]
        assert probe_steps == [7, 15, 23]

    def test_capacity_drop_backs_off_fast(self):
        caps = [100.0] * 16 + [30.0] * 10
        xs = run_controller("probe", caps, x_start=50.0)
        drop_window = xs[16:]
        assert min(drop_window) < 40.0, f"never fell below 40: {drop_window}"
        below = next(i for i, x in enumerate(drop_window) if x < 40.0)
        assert below < 10

    def test_drains_after_probe_when_latency_rises(self):
        state = baselines.new_controller_state()
        for _ in range(7):
            _, state = baselines.bandwidth_probe_controller(state, obs(x=30, y=30, l=20.0))
        probe_action, state = baselines.bandwidth_probe_controller(
            state, obs(x=30, y=30, l=20.0))
        assert probe_action.delta_mbps == 5.0
        assert state.phase == "probe"
        drain_action, state = baselines.bandwidth_probe_controller(
            state, obs(x=35, y=35, l=26.0))
        assert drain_action.delta_mbps == -5.0
        assert state.phase == "drain"

    def test_loss_forces_drain(self):
        state = baselines.new_controller_state()
        for _ in range(5):
            _, state = baselines.bandwidth_probe_controller(state, obs(x=80, y=80))
        action, state = baselines.bandwidth_probe_controller(
            state, obs(x=80, y=20, p=50.0))
        assert action.delta_mbps == -5.0
        assert state.phase == "drain"


class TestControllerContracts:
    @pytest.mark.parametrize("name", baselines.CONTROLLER_NAMES)
    def test_always_emits_table_delta(self, name):
        rng = RngStream(3, name)
        state = baselines.new_controller_state()
        for _ in range(200):
            x = rng.uniform(1, 200)
            y = min(x, rng.uniform(0.5, 1.0) * x)
            lost = float(int(rng.uniform(0, 40)))
            o = Observation(x, y, rng.uniform(5, 200), 2.0, lost, lost)
            action, state = baselines.controller_step(name, state, o)
            assert action.delta_mbps in DEFAULT_DELTA_TABLE
            assert action.index == list(DEFAULT_DELTA_TABLE).index(action.delta_mbps)

    def test_unknown_controller(self):
        with pytest.raises(ValueError):
            baselines.controller_step("bogus", baselines.new_controller_state(), obs())


class TestRandomAction:
    def test_uniform_coverage(self):
        rng = RngStream(4, "rand")
        counts = np.zeros(len(DEFAULT_DELTA_TABLE))
        for _ in range(5000):
            counts[baselines.random_action(rng).index] += 1
        assert counts.min() > 800   # roughly uniform over 5 actions
