import copy
import math

import numpy as np
import pytest

from asms import netsim
from asms.core import (OBS_JITTER, OBS_LATENCY, OBS_LOST, OBS_NACKS, OBS_RECEIVED,
                       OBS_TARGET, Channel, HyperParams, QoECoefficients, RngStream,
                       ScenarioSpec, SimConfig, scenario_by_name)
from asms.netsim import (BottleneckSim, LinkState, TraceWriter, advance,
                         allocate_max_min, link_bounds, link_draws, link_state,
                         sample_link_state)
from asms.rl import rollout
from rng_state import rng_state, untouched

CLEAN = ScenarioSpec("clean", Channel.fixed(100), Channel.fixed(10),
                     Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))
SCENARIOS = ["s1", "s2", "s3", "s4", "s5", "s6"]


def span_at(channel, t, episode_len):
    """A channel's (lo, hi) at step t, by the per-step arithmetic that drew
    links before the simulator built its bound table once per episode: the
    table's bit-for-bit reference."""
    if episode_len <= 1 or channel.start is channel.end:
        return channel.start.lo, channel.start.hi
    frac = min(max(t, 0), episode_len - 1) / (episode_len - 1)
    return (channel.start.lo + frac * (channel.end.lo - channel.start.lo),
            channel.start.hi + frac * (channel.end.hi - channel.start.hi))


def channels(spec):
    return (spec.bandwidth, spec.latency, spec.jitter, spec.loss_rate, spec.burst_loss)


def draw(spec, t, rng, episode_len=40):
    """One step's link from a fresh table of the scenario."""
    return sample_link_state(link_bounds(spec, episode_len), t, rng)


def traced_episode(fh, n_agents, episode_len, scenario=CLEAN, episode_index=0):
    """Roll one episode holding every target and write it to a trace."""
    cfg = SimConfig(n_agents=n_agents)
    hold = cfg.delta_table.index(0.0)
    episode = rollout(BottleneckSim(scenario, cfg, episode_len, RngStream(0, "env")),
                      HyperParams(episode_len=episode_len), QoECoefficients(),
                      lambda t, rows: np.full(len(rows), hold))
    TraceWriter(fh).write(scenario.name, episode_index, episode.rows[1:], episode.frame_rate,
                          episode.capacity)
    return episode


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
        bounds = link_bounds(scenario_by_name("s1"), 40)
        for t in range(40):
            state = sample_link_state(bounds, t, rng)
            assert 100 <= state.capacity_mbps <= 200

    def test_s5_ramp_endpoints(self):
        rng = RngStream(0, "t")
        s5 = scenario_by_name("s5")
        start = draw(s5, 0, rng)
        end = draw(s5, 39, rng)
        assert start.capacity_mbps == pytest.approx(100.0)
        assert end.capacity_mbps == pytest.approx(30.0)

    def test_draw_bounds_are_the_channel_spans_then_the_coin(self):
        s5 = scenario_by_name("s5")
        lo, hi = link_bounds(s5, 40)
        assert lo.shape == hi.shape == (40, 6)
        for t in (0, 17, 39):
            spans = [span_at(c, t, 40) for c in channels(s5)]
            assert lo[t].tolist() == [span[0] for span in spans] + [0.0]
            assert hi[t].tolist() == [span[1] for span in spans] + [1.0]
        with pytest.raises(ValueError, match="step 40 outside"):
            link_draws((lo, hi), 40, RngStream(0, "t"))

    @pytest.mark.parametrize("episode_len", [1, 2, 40])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_bound_rows_equal_the_per_step_arithmetic_bit_for_bit(self, name, episode_len):
        spec = scenario_by_name(name)
        lo, hi = link_bounds(spec, episode_len)
        assert lo.shape == hi.shape == (episode_len, 6)
        for t in range(episode_len):
            spans = [span_at(c, t, episode_len) for c in channels(spec)]
            assert lo[t].tobytes() == np.array([s[0] for s in spans] + [0.0]).tobytes()
            assert hi[t].tobytes() == np.array([s[1] for s in spans] + [1.0]).tobytes()

    def test_s6_latency_endpoint(self):
        rng = RngStream(1, "t")
        s6 = scenario_by_name("s6")
        end = draw(s6, 39, rng)
        assert end.base_latency_ms == pytest.approx(20.0)

    def test_block_draw_matches_scalar_draws(self):
        s5 = scenario_by_name("s5")
        for t in (0, 17, 39):
            rng = RngStream(3, "env")

            def draw_channel(channel):
                return rng.uniform(*span_at(channel, t, 40))

            capacity = draw_channel(s5.bandwidth)
            latency = draw_channel(s5.latency)
            jitter = draw_channel(s5.jitter)
            loss = draw_channel(s5.loss_rate)
            burst_level = draw_channel(s5.burst_loss)
            burst_active = rng.uniform() < burst_level
            block = RngStream(3, "env")
            state = draw(s5, t, block)
            assert state == LinkState(capacity, latency, jitter, loss,
                                      burst_active, burst_level)
            assert type(state.capacity_mbps) is float
            assert block.uniform() == rng.uniform()

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_step_block_equals_per_step_calls(self, name):
        bounds = link_bounds(scenario_by_name(name), 40)
        steps = RngStream(5, "steps").integers(40, size=300)
        block, scalar = RngStream(7, name), RngStream(7, name)
        rows = link_draws(bounds, steps, block)
        assert rows.shape == (300, 6)
        want = []
        for t in steps.tolist():
            s = sample_link_state(bounds, t, scalar)
            want.append((s.capacity_mbps, s.base_latency_ms, s.base_jitter_ms,
                         s.loss_rate, s.burst_level, s.burst_active))
        assert [(*row[:5], row[5] < row[4]) for row in rows.tolist()] == want
        fresh = RngStream(7, name)
        fresh.uniform(size=6 * 300)
        assert rng_state(block) == rng_state(scalar) == rng_state(fresh)

    def test_steps_outside_the_episode_rejected(self):
        # negative steps too, which indexing the table would wrap silently
        bounds = link_bounds(scenario_by_name("s1"), 40)
        for steps, bad in ((np.array([0, 40]), 40), (np.array([3, -1]), -1),
                           (40, 40), (-1, -1)):
            rng = RngStream(0, "t")
            with pytest.raises(ValueError, match=f"step {bad} outside \\[0, 40\\)"):
                link_draws(bounds, steps, rng)
            assert untouched(rng)

    def test_determinism(self):
        s3 = scenario_by_name("s3")
        a = draw(s3, 5, RngStream(9, "env"))
        b = draw(s3, 5, RngStream(9, "env"))
        assert a == b

    def test_step_bounds(self):
        for t in (40, -1, np.int64(40)):
            rng = RngStream(0, "t")
            with pytest.raises(ValueError, match=f"step {t} outside"):
                draw(CLEAN, t, rng)
            assert untouched(rng)

    def test_numpy_int_step_is_the_int_step(self):
        bounds = link_bounds(scenario_by_name("s6"), 40)
        for t in (0, 17, 39):
            a, b, c = RngStream(t, "d"), RngStream(t, "d"), RngStream(t, "d")
            want = link_draws(bounds, t, a).tobytes()
            assert link_draws(bounds, np.int64(t), b).tobytes() == want
            assert link_draws(bounds, np.array([t]), c)[0].tobytes() == want

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_link_state_of_the_draws_is_the_sampled_state(self, name):
        bounds = link_bounds(scenario_by_name(name), 40)
        rng = RngStream(11, name)
        for t in (0, 17, 39):
            twin = copy.deepcopy(rng)
            assert link_state(link_draws(bounds, t, twin)) == sample_link_state(bounds, t, rng)
            assert rng_state(twin) == rng_state(rng)

    def test_coin_at_the_burst_level_is_no_burst(self):
        level = 0.25
        draws = np.array([100.0, 10.0, 2.0, 0.01, level, level])
        state = link_state(draws)
        assert state == LinkState(100.0, 10.0, 2.0, 0.01, False, level)
        draws[5] = np.nextafter(level, 0.0)
        assert link_state(draws).burst_active

    def test_loss_rate_validated(self):
        with pytest.raises(ValueError):
            LinkState(100.0, 10.0, 2.0, 1.5, False, 0.0)


def numpy_fill(demands, capacity):
    """The progressive fill over numpy scalars, as allocate_max_min ran it
    before it moved to Python floats: the bit-for-bit reference."""
    alloc = np.zeros_like(demands)
    remaining = float(capacity)
    left = demands.size
    for idx in np.argsort(demands, kind="stable"):
        give = min(float(demands[idx]), remaining / left)
        alloc[idx] = give
        remaining -= give
        left -= 1
    return alloc


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

    def test_empty_demand(self):
        got = allocate_max_min([], 5.0)
        assert got.dtype == np.float64 and got.shape == (0,)
        with pytest.raises(ValueError, match="capacity must be >= 0"):
            allocate_max_min([], -1.0)

    @pytest.mark.parametrize("n", [1, 6, 24, 100])
    def test_equals_the_numpy_fill_bit_for_bit(self, n):
        rng = RngStream(n, "alloc")
        for _ in range(50):
            targets = rng.uniform(0, 200, size=n)
            targets[:n // 3] = targets[n // 2]   # ties
            capacity = rng.uniform(0.0, 0.9) * targets.sum()   # overloaded
            assert allocate_max_min(targets, capacity).tobytes() == \
                numpy_fill(targets, capacity).tobytes()


def advance_reference(state, targets, cfg, rng):
    """advance's arithmetic with every step's demand through allocate_max_min,
    as it ran before demand that fits the link skipped it."""
    x = np.asarray(targets, dtype=np.float64)
    y = allocate_max_min(x, state.capacity_mbps)
    total_demand = float(x.sum())
    utilization = min(1.0, total_demand / state.capacity_mbps)
    overload = max(0.0, total_demand / state.capacity_mbps - 1.0)
    eff_loss = state.loss_rate + cfg.congestion_loss_coef * overload
    if state.burst_active:
        eff_loss += state.burst_level
    eff_loss = min(1.0, eff_loss)
    rows = np.empty((x.size, 6))
    rows[:, OBS_TARGET] = x
    rows[:, OBS_RECEIVED] = y
    rows[:, OBS_LATENCY] = state.base_latency_ms * (1.0 + cfg.queue_delay_coef * utilization ** 2)
    rows[:, OBS_JITTER] = state.base_jitter_ms
    sent = np.ceil(y * 1e6 / (8.0 * cfg.packet_size_bytes)).astype(np.int64)
    rows[:, OBS_LOST] = rng.binomial(sent, eff_loss)
    rows[:, OBS_NACKS] = rows[:, OBS_LOST]
    return rows, cfg.f_target * np.minimum(1.0, y / np.maximum(x, 1e-12))


class TestAdvance:
    @pytest.mark.parametrize("n", [1, 2, 6, 24])
    def test_equals_the_fill_path_bit_for_bit(self, n):
        cfg = SimConfig(n_agents=n)
        rng, ref = RngStream(n, "adv"), RngStream(n, "adv")
        for k in range(60):
            spec = scenario_by_name(SCENARIOS[k % 6])
            state = draw(spec, k % 40, rng)
            draw(spec, k % 40, ref)
            targets = rng.uniform(0, 2.5 * state.capacity_mbps / n, size=n)
            ref.uniform(size=n)
            targets[: k % 3] = 0.0
            if k % 5 == 0 and targets.sum() > 0:   # demand at capacity
                targets *= state.capacity_mbps / targets.sum()
            got = advance(state, targets, cfg, rng)
            want = advance_reference(state, targets, cfg, ref)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert rng_state(rng) == rng_state(ref)

    def test_negative_target_rejected_on_an_underloaded_link(self):
        state = LinkState(100.0, 10.0, 2.0, 0.01, False, 0.0)
        for targets in ([-1.0, 5.0], [np.nan, -1.0], [-np.inf, 3.0]):
            rng = RngStream(0, "neg")
            with pytest.raises(ValueError, match="must be >= 0"):
                advance(state, targets, SimConfig(n_agents=2), rng)
            assert untouched(rng)

    def test_uncongested_lossless(self):
        cfg = SimConfig(n_agents=1)
        state = draw(CLEAN, 0, RngStream(0, "e"))
        rows, frame_rate = advance(state, [10.0], cfg, RngStream(0, "e2"))
        assert rows[0, OBS_RECEIVED] == pytest.approx(10.0)
        assert rows[0, OBS_LOST] == 0
        assert frame_rate[0] == pytest.approx(cfg.f_target)

    def test_congested_frame_rate(self):
        spec = ScenarioSpec("tight", Channel.fixed(60), Channel.fixed(10),
                            Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))
        cfg = SimConfig(n_agents=2)
        state = draw(spec, 0, RngStream(0, "e"))
        rows, frame_rate = advance(state, [50.0, 50.0], cfg, RngStream(0, "e2"))
        np.testing.assert_allclose(rows[:, OBS_RECEIVED], [30.0, 30.0])
        np.testing.assert_allclose(frame_rate, 0.6 * cfg.f_target)

    def test_latency_grows_with_utilization(self):
        cfg = SimConfig(n_agents=1)
        state = draw(CLEAN, 0, RngStream(0, "e"))
        low, _ = advance(state, [10.0], cfg, RngStream(0, "a"))
        high, _ = advance(state, [100.0], cfg, RngStream(0, "b"))
        assert high[0, OBS_LATENCY] > low[0, OBS_LATENCY]
        assert high[0, OBS_LATENCY] == pytest.approx(state.base_latency_ms * 2.0)

    def test_conservation_sweep(self):
        rng = RngStream(7, "sweep")
        cfg = SimConfig(n_agents=5)
        for k in range(200):
            spec = scenario_by_name(f"s{1 + k % 6}")
            state = draw(spec, k % 40, rng)
            targets = rng.uniform(1, 200, size=5)
            rows, _ = advance(state, targets, cfg, rng)
            assert rows[:, OBS_RECEIVED].sum() <= state.capacity_mbps + 1e-9
            assert np.all(rows[:, OBS_RECEIVED] <= targets + 1e-9)
            np.testing.assert_array_equal(rows[:, OBS_TARGET], targets)
            np.testing.assert_array_equal(rows[:, OBS_NACKS], rows[:, OBS_LOST])

    @pytest.mark.parametrize("capacity", [2000.0, 300.0])   # uncongested, overloaded
    def test_losses_equal_one_scalar_draw_per_sender(self, capacity):
        cfg = SimConfig(n_agents=24)
        state = LinkState(capacity, 20.0, 3.0, 0.05, False, 0.0)
        targets = RngStream(3, "x").uniform(1, 40, size=24)
        targets[[4, 9]] = 0.0   # senders with no packets draw nothing
        rng, ref = RngStream(8, "loss"), RngStream(8, "loss")
        rows, frame_rate = advance(state, targets, cfg, rng)
        y = allocate_max_min(targets, capacity)
        eff_loss = 0.05 + cfg.congestion_loss_coef * max(0.0, targets.sum() / capacity - 1)
        want = [ref.binomial(math.ceil(yi * 1e6 / (8.0 * cfg.packet_size_bytes)), eff_loss)
                for yi in y]
        assert rows[:, OBS_LOST].tolist() == want and rng_state(rng) == rng_state(ref)
        assert frame_rate.tolist() == [cfg.f_target * min(1.0, yi / max(xi, 1e-12))
                                       for xi, yi in zip(targets, y)]

    def test_burst_and_congestion_raise_losses(self):
        spec = ScenarioSpec("lossy", Channel.fixed(50), Channel.fixed(10),
                            Channel.fixed(2), Channel.fixed(0.01), Channel.fixed(0.0))
        cfg = SimConfig(n_agents=1)
        state = draw(spec, 0, RngStream(1, "e"))
        calm, _ = advance(state, [40.0], cfg, RngStream(5, "x"))
        bursty_state = LinkState(state.capacity_mbps, state.base_latency_ms,
                                 state.base_jitter_ms, state.loss_rate, True, 0.2)
        bursty, _ = advance(bursty_state, [40.0], cfg, RngStream(5, "x"))
        assert bursty[0, OBS_LOST] > calm[0, OBS_LOST]

    def test_dimension_mismatch(self):
        state = draw(CLEAN, 0, RngStream(0, "e"))
        with pytest.raises(ValueError):
            advance(state, np.zeros((2, 2)), SimConfig(), RngStream(0, "x"))


class TestBottleneckSim:
    def test_episode_determinism(self):
        cfg = SimConfig(n_agents=3)
        spec = scenario_by_name("s2")

        def as_lists(rows, frame_rate, link):
            return [rows.tolist(), frame_rate.tolist(), link]

        def run(seed):
            sim = BottleneckSim(spec, cfg, 40, RngStream(seed, "env"))
            steps = [as_lists(*sim.step(0, [cfg.x_init] * 3))]
            for t in range(40):
                steps.append(as_lists(*sim.step(t, [10.0 + t, 20.0, 30.0])))
            return steps

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_bound_table_is_built_once_per_simulator(self, monkeypatch):
        spec = scenario_by_name("s6")
        built = []
        monkeypatch.setattr(netsim, "link_bounds",
                            lambda *args: built.append(args) or link_bounds(*args))
        sim = BottleneckSim(spec, SimConfig(n_agents=2), 40, RngStream(0, "env"))
        for _ in range(2):
            for t in (0, *range(40)):
                sim.step(t, [10.0, 20.0])
        assert built == [(spec, 40)]
        for got, want in zip(sim.bounds, link_bounds(spec, 40)):
            assert got.tobytes() == want.tobytes()

    def test_episode_exhaustion(self):
        rng = RngStream(0, "env")
        sim = BottleneckSim(CLEAN, SimConfig(n_agents=1), 2, rng)
        with pytest.raises(ValueError, match=r"step 2 outside \[0, 2\)"):
            sim.step(2, [10.0])
        assert untouched(rng)

    def test_streams_in_equal_states_give_the_same_step_whatever_came_before(self):
        spec, cfg = scenario_by_name("s5"), SimConfig(n_agents=3)
        sim = BottleneckSim(spec, cfg, 40, RngStream(6, "env"))
        other = BottleneckSim(spec, cfg, 40, RngStream(9, "other"))
        for t in range(7):
            sim.step(t, [10.0 + t, 20.0, 30.0])
        for t in (39, 3, 0):
            other.step(t, [5.0, 5.0, 5.0])
        other.rng = copy.deepcopy(sim.rng)
        fresh = BottleneckSim(spec, cfg, 40, copy.deepcopy(sim.rng))
        for t in (7, 7, 21, 0):
            targets = [12.0, 40.0 - t, 3.0]
            want_rows, want_rate, want_link = sim.step(t, targets)
            for twin in (other, fresh):
                rows, rate, link = twin.step(t, targets)
                assert rows.tobytes() == want_rows.tobytes()
                assert rate.tobytes() == want_rate.tobytes()
                assert link == want_link
                assert rng_state(twin.rng) == rng_state(sim.rng)

    def test_every_step_counts_the_agents_as_users(self, tmp_path):
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            traced_episode(fh, n_agents=3, episode_len=4)
        lines = path.read_text().splitlines()
        assert [line.split(",")[-1] for line in lines] == ["u"] + ["3"] * 12

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            traced_episode(fh, n_agents=2, episode_len=3)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scenario,episode,t,agent,x,y,l,j,p,n,f,capacity,u"
        assert len(lines) == 1 + 3 * 2

    def test_trace_rows_are_the_episode_record(self, tmp_path):
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            episode = traced_episode(fh, n_agents=2, episode_len=5,
                                     scenario=scenario_by_name("s5"), episode_index=3)
        cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(c[0], int(c[1]), int(c[2]), int(c[3])) for c in cells] == [
            ("s5", 3, t, i) for t in range(5) for i in range(2)]
        assert [c[5] for c in cells] == [f"{y:.6g}" for y in
                                         episode.rows[1:, :, OBS_RECEIVED].ravel()]
        assert [c[10] for c in cells] == [f"{f:.6g}" for f in episode.frame_rate.ravel()]
        assert [c[11] for c in cells] == [f"{cap:.6g}" for cap in episode.capacity
                                          for _ in range(2)]
        assert len(set(episode.capacity.tolist())) == 5   # s5's link varies per step
