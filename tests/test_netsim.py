import math

import numpy as np
import pytest

from asms.core import Channel, RngStream, ScenarioSpec, SimConfig, scenario_by_name
from asms.netsim import (BottleneckSim, LinkState, TraceWriter, advance,
                         allocate_max_min, sample_link_state)

CLEAN = ScenarioSpec("clean", Channel.fixed(100), Channel.fixed(10),
                     Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))


def water_level_oracle(targets, capacity):
    """Iteratively satisfy the smallest demand, recomputing the level."""
    targets = np.asarray(targets, dtype=float)
    if targets.sum() <= capacity:
        return targets.copy()
    alloc = np.zeros_like(targets)
    active = list(range(len(targets)))
    remaining = capacity
    while active:
        level = remaining / len(active)
        smallest = min(active, key=lambda i: targets[i])
        if targets[smallest] <= level:
            alloc[smallest] = targets[smallest]
            remaining -= targets[smallest]
            active.remove(smallest)
        else:
            for i in active:
                alloc[i] = level
            break
    return alloc


class TestSampleLinkState:
    def test_s1_capacity_in_range(self):
        rng = RngStream(0, "t")
        s1 = scenario_by_name("s1")
        for t in range(40):
            state = sample_link_state(s1, t, 40, rng)
            assert 100 <= state.capacity_mbps <= 200

    def test_s5_ramp_endpoints(self):
        rng = RngStream(0, "t")
        s5 = scenario_by_name("s5")
        start = sample_link_state(s5, 0, 40, rng)
        end = sample_link_state(s5, 39, 40, rng)
        assert start.capacity_mbps == pytest.approx(100.0)
        assert end.capacity_mbps == pytest.approx(30.0)

    def test_s6_latency_endpoint(self):
        rng = RngStream(1, "t")
        s6 = scenario_by_name("s6")
        end = sample_link_state(s6, 39, 40, rng)
        assert end.base_latency_ms == pytest.approx(20.0)

    def test_block_draw_matches_scalar_draws(self):
        s5 = scenario_by_name("s5")
        for t in (0, 17, 39):
            rng = RngStream(3, "env")

            def draw(channel):
                span = channel.at(t, 40)
                return rng.uniform(span.lo, span.hi)

            capacity = draw(s5.bandwidth)
            latency = draw(s5.latency)
            jitter = draw(s5.jitter)
            loss = draw(s5.loss_rate)
            burst_level = draw(s5.burst_loss)
            burst_active = rng.uniform() < burst_level
            block = RngStream(3, "env")
            state = sample_link_state(s5, t, 40, block, users=2)
            assert state == LinkState(t, capacity, latency, jitter, loss,
                                      burst_active, burst_level, 2)
            assert type(state.capacity_mbps) is float
            assert block.uniform() == rng.uniform()

    def test_determinism(self):
        s3 = scenario_by_name("s3")
        a = sample_link_state(s3, 5, 40, RngStream(9, "env"))
        b = sample_link_state(s3, 5, 40, RngStream(9, "env"))
        assert a == b

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            sample_link_state(CLEAN, 40, 40, RngStream(0, "t"))

    def test_loss_rate_validated(self):
        with pytest.raises(ValueError):
            LinkState(0, 100.0, 10.0, 2.0, 1.5, False, 0.0, 1)


class TestAllocateMaxMin:
    def test_demand_under_capacity(self):
        assert allocate_max_min([10, 20, 30], 100).tolist() == [10, 20, 30]

    def test_symmetric_split(self):
        assert allocate_max_min([50, 50], 60).tolist() == [30, 30]

    def test_water_filling_case(self):
        assert allocate_max_min([10, 50, 50], 90).tolist() == [10, 40, 40]

    def test_matches_oracle_randomized(self):
        rng = RngStream(3, "alloc")
        for _ in range(300):
            n = 1 + int(rng.uniform(0, 8))
            targets = rng.uniform(0, 100, size=n)
            capacity = rng.uniform(1, 250)
            got = allocate_max_min(targets, capacity)
            want = water_level_oracle(targets, capacity)
            np.testing.assert_allclose(got, want, atol=1e-9)
            assert got.sum() <= min(targets.sum(), capacity) + 1e-9
            assert np.all(got <= targets + 1e-12)

    def test_order_independent(self):
        rng = RngStream(4, "alloc")
        targets = rng.uniform(0, 60, size=6)
        perm = rng.permutation(6)
        base = allocate_max_min(targets, 90)
        shuffled = allocate_max_min(targets[perm], 90)
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            allocate_max_min([-1.0, 5.0], 10)


class TestAdvance:
    def test_uncongested_lossless(self):
        cfg = SimConfig(n_agents=1)
        state = sample_link_state(CLEAN, 0, 40, RngStream(0, "e"))
        outcome = advance(state, [10.0], cfg, RngStream(0, "e2"))
        assert outcome.received_mbps[0] == pytest.approx(10.0)
        assert outcome.lost_packets[0] == 0
        assert outcome.frame_rate[0] == pytest.approx(cfg.f_target)

    def test_congested_frame_rate(self):
        spec = ScenarioSpec("tight", Channel.fixed(60), Channel.fixed(10),
                            Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))
        cfg = SimConfig(n_agents=2)
        state = sample_link_state(spec, 0, 40, RngStream(0, "e"))
        outcome = advance(state, [50.0, 50.0], cfg, RngStream(0, "e2"))
        np.testing.assert_allclose(outcome.received_mbps, [30.0, 30.0])
        np.testing.assert_allclose(outcome.frame_rate, 0.6 * cfg.f_target)

    def test_latency_grows_with_utilization(self):
        cfg = SimConfig(n_agents=1)
        state = sample_link_state(CLEAN, 0, 40, RngStream(0, "e"))
        low = advance(state, [10.0], cfg, RngStream(0, "a"))
        high = advance(state, [100.0], cfg, RngStream(0, "b"))
        assert high.latency_ms[0] > low.latency_ms[0]
        assert high.latency_ms[0] == pytest.approx(state.base_latency_ms * 2.0)

    def test_conservation_sweep(self):
        rng = RngStream(7, "sweep")
        cfg = SimConfig(n_agents=5)
        for k in range(200):
            spec = scenario_by_name(f"s{1 + k % 6}")
            state = sample_link_state(spec, k % 40, 40, rng, users=5)
            targets = rng.uniform(1, 200, size=5)
            outcome = advance(state, targets, cfg, rng)
            assert outcome.received_mbps.sum() <= state.capacity_mbps + 1e-9
            assert np.all(outcome.received_mbps <= targets + 1e-9)
            np.testing.assert_array_equal(outcome.nacks, outcome.lost_packets)

    def test_burst_and_congestion_raise_losses(self):
        spec = ScenarioSpec("lossy", Channel.fixed(50), Channel.fixed(10),
                            Channel.fixed(2), Channel.fixed(0.01), Channel.fixed(0.0))
        cfg = SimConfig(n_agents=1)
        state = sample_link_state(spec, 0, 40, RngStream(1, "e"))
        calm = advance(state, [40.0], cfg, RngStream(5, "x"))
        bursty_state = LinkState(state.t, state.capacity_mbps, state.base_latency_ms,
                                 state.base_jitter_ms, state.loss_rate, True, 0.2,
                                 state.user_count)
        bursty = advance(bursty_state, [40.0], cfg, RngStream(5, "x"))
        assert bursty.lost_packets[0] > calm.lost_packets[0]

    def test_dimension_mismatch(self):
        state = sample_link_state(CLEAN, 0, 40, RngStream(0, "e"))
        with pytest.raises(ValueError):
            advance(state, np.zeros((2, 2)), SimConfig(), RngStream(0, "x"))


class TestBottleneckSim:
    def test_episode_determinism(self):
        cfg = SimConfig(n_agents=3)
        spec = scenario_by_name("s2")

        def as_rows(outcome):
            return [outcome.received_mbps.tolist(), outcome.latency_ms.tolist(),
                    outcome.jitter_ms.tolist(), outcome.lost_packets.tolist(),
                    outcome.nacks.tolist(), outcome.frame_rate.tolist()]

        def run(seed):
            sim = BottleneckSim(spec, cfg, 40, RngStream(seed, "env"))
            rows = [as_rows(sim.reset())]
            for t in range(40):
                _, outcome = sim.step([10.0 + t, 20.0, 30.0])
                rows.append(as_rows(outcome))
            return rows

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_episode_exhaustion(self):
        sim = BottleneckSim(CLEAN, SimConfig(n_agents=1), 2, RngStream(0, "env"))
        sim.reset()
        sim.step([10.0])
        sim.step([10.0])
        with pytest.raises(RuntimeError):
            sim.step([10.0])

    def test_users_schedule(self):
        cfg = SimConfig(n_agents=2, users_schedule=(5, 4, 3))
        sim = BottleneckSim(CLEAN, cfg, 5, RngStream(0, "env"))
        sim.reset()
        counts = []
        for _ in range(5):
            state, _ = sim.step([10.0, 10.0])
            counts.append(state.user_count)
        assert counts == [5, 4, 3, 3, 3]

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            trace = TraceWriter(fh)
            sim = BottleneckSim(CLEAN, SimConfig(n_agents=2), 3,
                                RngStream(0, "env"), trace=trace)
            sim.reset()
            for _ in range(3):
                sim.step([10.0, 20.0])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,agent,x,y,l,j,p,n,f,capacity,u"
        assert len(lines) == 1 + 3 * 2
