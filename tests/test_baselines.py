import numpy as np
import pytest

from asms import baselines, training
from asms.core import HyperParams, QoECoefficients, RngStream, SimConfig

# the controllers take the action table and loss threshold from the config
TABLE = SimConfig().delta_table
P_THRESHOLD = QoECoefficients().p_threshold


def obs(x=10.0, y=10.0, l=20.0, j=2.0, p=0.0):
    """One agent's (1, 6) observation row."""
    return np.array([[x, y, l, j, p, p]])


def delta(index):
    return float(TABLE[index[0]])


def run_controller(name, capacities, x_start, latency=10.0):
    """Scripted single-sender run against a deterministic lossless link."""
    state = baselines.new_controller_state(1)
    x = x_start
    xs = []
    for cap in capacities:
        y = min(x, cap)
        overload = max(0.0, x / cap - 1.0)
        l = latency * (1.0 + min(1.0, x / cap) ** 2)
        lost = 2000.0 * overload   # crude congestion-loss signal
        index, state = baselines.controller_step(
            name, state, obs(x=x, y=y, l=l, p=lost), TABLE, P_THRESHOLD)
        x = min(200.0, max(1.0, x + delta(index)))
        xs.append(x)
    return xs


class TestDelayGradientController:
    def test_latency_drop_with_full_delivery_probes_up(self):
        state = baselines.new_controller_state(1)
        # establish a high smoothed latency, then feed a sharp drop
        _, state = baselines.delay_gradient_controller(state, obs(l=50.0), TABLE, P_THRESHOLD)
        index, _ = baselines.delay_gradient_controller(state, obs(l=20.0), TABLE, P_THRESHOLD)
        assert delta(index) == 1.0

    def test_rising_latency_backs_off_hard(self):
        state = baselines.new_controller_state(1)
        _, state = baselines.delay_gradient_controller(state, obs(l=20.0), TABLE, P_THRESHOLD)
        index, _ = baselines.delay_gradient_controller(state, obs(l=60.0), TABLE, P_THRESHOLD)
        assert delta(index) == -5.0

    def test_loss_above_threshold_backs_off(self):
        state = baselines.new_controller_state(1)
        _, state = baselines.delay_gradient_controller(state, obs(l=20.0), TABLE, P_THRESHOLD)
        index, _ = baselines.delay_gradient_controller(state, obs(l=20.0, p=25.0),
                                                       TABLE, P_THRESHOLD)
        assert delta(index) == -5.0

    def test_flat_latency_holds(self):
        state = baselines.new_controller_state(1)
        _, state = baselines.delay_gradient_controller(state, obs(l=20.0), TABLE, P_THRESHOLD)
        index, _ = baselines.delay_gradient_controller(state, obs(l=20.0), TABLE, P_THRESHOLD)
        assert delta(index) == 0.0

    def test_pure_function_of_state_and_obs(self):
        state = baselines.ControllerState(
            smoothed_latency_ms=np.array([30.0]), probing=np.array([False]),
            probe_ref_latency=np.zeros(1), window=np.zeros((0, 1)), steps=5)
        o = obs(l=25.0)
        a1, s1 = baselines.delay_gradient_controller(state, o, TABLE, P_THRESHOLD)
        a2, s2 = baselines.delay_gradient_controller(state, o, TABLE, P_THRESHOLD)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(s1.smoothed_latency_ms, s2.smoothed_latency_ms)
        assert s1.steps == s2.steps == 6
        assert state.smoothed_latency_ms[0] == 30.0 and state.steps == 5


class TestBandwidthProbeController:
    def test_converges_near_capacity_fraction(self):
        # one-step-from-converged start; steady targeting tracks 0.95 * 50
        xs = run_controller("probe", [50.0] * 20, x_start=44.0)
        assert any(abs(x - 47.5) <= 5.0 for x in xs[:20])
        assert abs(xs[-1] - 47.5) <= 5.0

    def test_probe_every_eighth_step(self):
        state = baselines.new_controller_state(1)
        deltas = []
        for _ in range(24):
            index, state = baselines.bandwidth_probe_controller(state, obs(x=30, y=30),
                                                                TABLE, P_THRESHOLD)
            deltas.append(delta(index))
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
        state = baselines.new_controller_state(1)
        for _ in range(7):
            _, state = baselines.bandwidth_probe_controller(state, obs(x=30, y=30, l=20.0),
                                                            TABLE, P_THRESHOLD)
        probe_index, state = baselines.bandwidth_probe_controller(
            state, obs(x=30, y=30, l=20.0), TABLE, P_THRESHOLD)
        assert delta(probe_index) == 5.0
        assert state.probing[0]
        drain_index, state = baselines.bandwidth_probe_controller(
            state, obs(x=35, y=35, l=26.0), TABLE, P_THRESHOLD)
        assert delta(drain_index) == -5.0
        assert not state.probing[0]

    def test_loss_forces_drain(self):
        state = baselines.new_controller_state(1)
        for _ in range(5):
            _, state = baselines.bandwidth_probe_controller(state, obs(x=80, y=80),
                                                            TABLE, P_THRESHOLD)
        index, state = baselines.bandwidth_probe_controller(
            state, obs(x=80, y=20, p=50.0), TABLE, P_THRESHOLD)
        assert delta(index) == -5.0
        assert not state.probing[0]


def random_rows(rng, n):
    """n valid observation rows: received <= target, NACKs == losses."""
    x = rng.uniform(1, 200, size=n)
    y = x * rng.uniform(0.5, 1.0, size=n)
    lost = np.floor(rng.uniform(0, 14, size=n))   # above 10 about 30% of the time
    return np.column_stack((x, y, rng.uniform(5, 200, size=n), np.full(n, 2.0),
                            lost, lost))


class TestControllerContracts:
    @pytest.mark.parametrize("name", baselines.CONTROLLER_NAMES)
    def test_always_emits_table_delta(self, name):
        rng = RngStream(3, name)
        state = baselines.new_controller_state(1)
        for _ in range(200):
            index, state = baselines.controller_step(name, state, random_rows(rng, 1),
                                                     TABLE, P_THRESHOLD)
            assert index.shape == (1,)
            assert 0 <= index[0] < len(TABLE)

    def test_unknown_controller(self):
        with pytest.raises(ValueError):
            baselines.controller_step("bogus", baselines.new_controller_state(1), obs(),
                                      TABLE, P_THRESHOLD)

    @pytest.mark.parametrize("name", baselines.CONTROLLER_NAMES)
    def test_agents_step_independently(self, name):
        # one N=5 run equals five N=1 runs, column by column
        rng = RngStream(5, name)
        steps = [random_rows(rng, 5) for _ in range(40)]
        joint = baselines.new_controller_state(5)
        singles = [baselines.new_controller_state(1) for _ in range(5)]
        for rows in steps:
            index, joint = baselines.controller_step(name, joint, rows, TABLE, P_THRESHOLD)
            for i in range(5):
                one, singles[i] = baselines.controller_step(name, singles[i], rows[i:i + 1],
                                                            TABLE, P_THRESHOLD)
                assert one[0] == index[i]
        for i in range(5):
            for field in ("smoothed_latency_ms", "probing", "probe_ref_latency"):
                assert getattr(singles[i], field)[0] == getattr(joint, field)[i]
            np.testing.assert_array_equal(singles[i].window[:, 0], joint.window[:, i])


def reference_step(name, st, row, table=TABLE, p_threshold=P_THRESHOLD):
    """One agent's step written per agent with scalar branches: the reference
    the array controllers must match index for index."""
    x, y, lat, _, lost, _ = row
    zero, neg = table.index(0.0), table.index(min(table))
    pos = table.index(max(table))
    steps = st["steps"] + 1
    if name == "delay":
        prev = lat if st["steps"] == 0 else st["smoothed"]
        smoothed = prev + baselines.LATENCY_EMA * (lat - prev)
        trend = smoothed - prev
        if trend > baselines.RISE_TREND_MS or lost > p_threshold:
            index = neg
        elif trend < baselines.FALL_TREND_MS and y >= baselines.FULL_DELIVERY * x:
            index = min((v, i) for i, v in enumerate(table) if v > 0)[1]
        else:
            index = zero
        return index, dict(st, smoothed=smoothed, steps=steps)
    window = (st["window"] + [y])[-baselines.PROBE_PERIOD:]
    phase, ref = st["phase"], st["ref"]
    if lost > p_threshold or (
            phase == "probe" and ref > 0 and lat > baselines.PROBE_LATENCY_RISE * ref):
        index, phase = neg, "drain"
    elif steps % baselines.PROBE_PERIOD == 0:
        index, phase, ref = pos, "probe", lat
    else:
        target = baselines.STEADY_HEADROOM * max(window)
        index = min(range(len(table)), key=lambda i: (abs(x + table[i] - target), i))
        phase = "steady"
    return index, dict(st, window=window, phase=phase, ref=ref, steps=steps)


class TestAgainstScalarReference:
    @pytest.mark.parametrize("name", baselines.CONTROLLER_NAMES)
    def test_random_rows_match_the_reference(self, name):
        rng = RngStream(6, name)
        state = baselines.new_controller_state(5)
        refs = [dict(smoothed=0.0, phase="steady", ref=0.0, window=[], steps=0)] * 5
        for _ in range(60):
            rows = random_rows(rng, 5)
            index, state = baselines.controller_step(name, state, rows, TABLE, P_THRESHOLD)
            for i in range(5):
                want, refs[i] = reference_step(name, refs[i], rows[i].tolist())
                assert index[i] == want

    def test_steady_tie_breaks_to_the_lowest_index(self):
        # window max 30 -> steady target 28.5; from 28, holding and +1 tie
        state = baselines.new_controller_state(1)
        _, state = baselines.bandwidth_probe_controller(state, obs(x=30, y=30), TABLE, P_THRESHOLD)
        index, _ = baselines.bandwidth_probe_controller(state, obs(x=28, y=28), TABLE, P_THRESHOLD)
        assert delta(index) == 0.0


class TestRandomAction:
    def test_uniform_coverage(self, monkeypatch):
        # the random reference draws one table entry per agent-step
        seen = []
        real = training.rollout

        def spy(sim, hp, coeffs, choose):
            episode = real(sim, hp, coeffs, choose)
            seen.extend(np.asarray(TABLE)[episode.actions].ravel().tolist())
            return episode

        monkeypatch.setattr(training, "rollout", spy)
        training.evaluate_controller("random", "s1", 5, 4, SimConfig(n_agents=5),
                                     HyperParams(episode_len=200), QoECoefficients())
        counts = np.array([seen.count(d) for d in TABLE])
        assert counts.sum() == 5000
        assert counts.min() > 800   # roughly uniform over 5 actions
