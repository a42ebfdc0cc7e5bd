import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from asms import fed, nn, rl, training
from asms.core import (OBS_TARGET, ConfigError, HyperParams, QoECoefficients, RngStream,
                       SimConfig, load_config, scenario_by_name)
from asms.netsim import BottleneckSim

CFG = SimConfig(n_agents=2)
HP = HyperParams(hidden_width=8, episodes=8, fedavg_freq=2, ldp_enabled=False)
COEFFS = QoECoefficients()
AGENT_FIELDS = {"actor", "critic", "sample_count"}   # no optimizer state


def width4_agents(n):
    """n agents with distinct hidden-width-4 actors and critics."""
    rng = RngStream(0, "ckpt")
    return [rl.PPOAgent(actor=nn.init_mlp(6, 4, 5, "tanh", rng.spawn(f"a{i}")),
                        critic=nn.init_mlp(6, 4, 1, "tanh", rng.spawn(f"c{i}")))
            for i in range(n)]


def tiny_train(method="fmappo", seed=0, out_dir=None, episodes=8, hp=HP, cfg=CFG):
    return training.train(cfg, hp, COEFFS, method, ["s1", "s3"], seed=seed,
                          out_dir=out_dir, episodes=episodes)


class TestTrainLoop:
    def test_learning_curve_rows(self):
        result = tiny_train()
        assert len(result.learning_curve) == 8
        assert [r["scenario"] for r in result.learning_curve[:4]] == [
            "s1", "s3", "s1", "s3"]
        assert set(result.learning_curve[0]) == {
            "episode", "scenario", "mean_reward", "agent00_qoe", "agent01_qoe"}

    def test_aggregation_schedule(self):
        result = tiny_train()
        assert [row["episode"] for row in result.overhead] == [1, 3, 5, 7]
        assert [row["round"] for row in result.overhead] == [1, 2, 3, 4]

    def test_ippo_never_aggregates_and_diverges(self):
        result = tiny_train(method="ippo")
        assert result.overhead == []
        a, b = result.agents
        assert not np.array_equal(a.actor.theta, b.actor.theta)

    def test_one_update_per_agent_per_episode(self):
        result = tiny_train()
        assert len(result.diagnostics) == 8 * 2
        assert {row["agent"] for row in result.diagnostics} == {0, 1}

    def test_method_validation(self):
        with pytest.raises(ValueError):
            tiny_train(method="sac")

    def test_config_that_cannot_be_snapshot_fails_before_any_episode(self, tmp_path,
                                                                    monkeypatch):
        # config.cfg has one y_min line for both structs, so a run whose
        # structs disagree could not be repeated from its snapshot; a run
        # without a directory meets the same rule, so no run trains with the
        # simulator and the score flooring quality at different rates
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(training, "run_episode", no_episode)
        for out in (tmp_path / "run", None):
            with pytest.raises(ConfigError, match="SimConfig.y_min = 2.0"):
                training.train(SimConfig(n_agents=2, y_min=2.0), HP,
                               QoECoefficients(f_target=30.0), "fmappo", ["s1"], seed=0,
                               out_dir=out, episodes=1)
            assert out is None or not out.exists()

    def test_deterministic_artifacts(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        tiny_train(out_dir=out_a)
        tiny_train(out_dir=out_b)
        for name in (training.LEARNING_CURVE_FILE, training.DIAGNOSTICS_FILE,
                     training.OVERHEAD_FILE, training.MANIFEST_FILE,
                     training.CONFIG_SNAPSHOT_FILE, "learning_curve.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_changes_curve(self, tmp_path):
        r1 = tiny_train(seed=1)
        r2 = tiny_train(seed=2)
        assert r1.episode_rewards.tolist() != r2.episode_rewards.tolist()

    def test_run_directory_contents(self, tmp_path):
        out = tmp_path / "run"
        tiny_train(out_dir=out, episodes=20)
        manifest = json.loads((out / training.MANIFEST_FILE).read_text())
        assert manifest["method"] == "fmappo"
        assert manifest["episodes"] == 20
        assert manifest["scenarios"] == ["s1", "s3"]
        # checkpoints every 10 episodes plus final
        assert (out / "checkpoints" / "ep0010").is_dir()
        assert (out / "checkpoints" / "ep0020").is_dir()
        final = out / "checkpoints" / "final"
        assert (final / "agent00.actor.fmap").exists()
        assert (final / "agent01.critic.fmap").exists()
        assert (final / "global.actor.fmap").exists()
        curve = (out / training.LEARNING_CURVE_FILE).read_text().splitlines()
        assert curve[0] == "episode,scenario,mean_reward,agent00_qoe,agent01_qoe"
        assert len(curve) == 21
        diagnostics = (out / training.DIAGNOSTICS_FILE).read_text().splitlines()
        assert diagnostics[0] == ("episode,agent,policy_loss,value_loss,entropy,"
                                  "clip_fraction,mean_ratio")
        assert len(diagnostics) == 1 + 20 * 2
        overhead = (out / training.OVERHEAD_FILE).read_text().splitlines()
        assert overhead[0] == "round,episode,bytes_up_total,bytes_down_total,agents"
        assert len(overhead) == 1 + 20 // HP.fedavg_freq

    def test_config_snapshot_records_the_episodes_run(self, tmp_path):
        out = tmp_path / "run"
        tiny_train(out_dir=out, episodes=2)
        cfg, hp, coeffs = load_config(str(out / training.CONFIG_SNAPSHOT_FILE))
        assert hp.episodes == 2 != HP.episodes
        assert (cfg, dataclasses.replace(hp, episodes=HP.episodes), coeffs) == (CFG, HP, COEFFS)

    def test_run_shorter_than_fedavg_freq_writes_header_only_overhead(self, tmp_path):
        out = tmp_path / "run"
        result = tiny_train(out_dir=out, episodes=HP.fedavg_freq - 1)
        assert result.overhead == []
        assert (out / training.OVERHEAD_FILE).read_text() == (
            "round,episode,bytes_up_total,bytes_down_total,agents\n")
        manifest = json.loads((out / training.MANIFEST_FILE).read_text())
        assert manifest["aggregation_rounds"] == 0

    def test_checkpoint_loading_round_trip(self, tmp_path):
        out = tmp_path / "run"
        result = tiny_train(out_dir=out)
        agents = training.load_checkpoint_agents(out / "checkpoints" / "final")
        assert len(agents) == 2
        for loaded, trained in zip(agents, result.agents):
            assert set(vars(loaded)) == AGENT_FIELDS
            assert np.array_equal(loaded.actor.theta, trained.actor.theta)
            assert np.array_equal(loaded.critic.theta, trained.critic.theta)

    def test_checkpoint_agents_load_into_their_slots_past_99(self, tmp_path):
        agents = width4_agents(102)
        training._save_checkpoint(tmp_path, agents, None)
        loaded = training.load_checkpoint_agents(tmp_path)
        assert len(loaded) == 102
        for got, want in zip(loaded, agents):
            assert np.array_equal(got.actor.theta, want.actor.theta)
            assert np.array_equal(got.critic.theta, want.critic.theta)

    def test_agent_files_name_every_saved_agent_file(self, tmp_path):
        training._save_checkpoint(tmp_path, width4_agents(3), None)
        named = [f for i in range(3) for f in training.agent_files(tmp_path, i)]
        assert sorted(tmp_path.iterdir()) == sorted(named)
        assert named[:2] == [tmp_path / "agent00.actor.fmap", tmp_path / "agent00.critic.fmap"]
        actors = tmp_path.glob(training.agent_files(tmp_path, "*")[0].name)
        assert sorted(actors) == named[::2]

    @pytest.mark.parametrize("gone, message", [
        ("agent05.actor.fmap", "agent 5 is missing: no agent05.actor.fmap"),
        ("agent02.critic.fmap", "missing agent02.critic.fmap")])
    def test_checkpoint_with_a_gap_is_rejected(self, tmp_path, gone, message):
        agents = width4_agents(8)
        training._save_checkpoint(tmp_path, agents, None)
        (tmp_path / gone).unlink()
        with pytest.raises(ValueError, match=message):
            training.load_checkpoint_agents(tmp_path)

    def test_missing_checkpoint_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            training.load_checkpoint_agents(tmp_path)

    def test_scenarios_mix_names_and_specs(self):
        mixed = training.train(CFG, HP, COEFFS, "fmappo", ["s1", scenario_by_name("s3")],
                               seed=0, episodes=4)
        assert mixed.scenario_names == ["s1", "s3"]
        assert mixed.learning_curve == tiny_train(episodes=4).learning_curve

    def test_used_out_dir_rejected_before_writing(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "old.txt").write_text("x")
        with pytest.raises(ValueError, match=f"{out} is not empty"):
            tiny_train(out_dir=out)
        assert [p.name for p in out.iterdir()] == ["old.txt"]

    def test_empty_scenario_list_rejected_before_writing(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="at least one scenario"):
            training.train(CFG, HP, COEFFS, "fmappo", [], seed=0, out_dir=out, episodes=2)
        assert not out.exists()

    def test_samples_counted_once_per_trained_episode(self):
        # each of the 5 episodes adds its T steps; fed rounds leave the
        # counts alone
        result = tiny_train(episodes=5)
        assert [agent.sample_count for agent in result.agents] == [5 * HP.episode_len] * 2

    def test_empty_out_dir_accepted(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        tiny_train(out_dir=out, episodes=2)
        assert (out / training.LEARNING_CURVE_FILE).exists()


class TestPrefixClosure:
    def test_short_run_is_a_prefix_of_a_longer_run(self, tmp_path):
        hp = HyperParams(hidden_width=8, fedavg_freq=2)   # LDP on: fed draws too
        short, long = tmp_path / "short", tmp_path / "long"
        tiny_train(out_dir=short, episodes=10, hp=hp)
        tiny_train(out_dir=long, episodes=20, hp=hp)
        ckpt = f"{training.CHECKPOINT_DIR}/ep0010"
        names = sorted(p.name for p in (short / ckpt).iterdir())
        assert len(names) == 6   # two agents' actor and critic, the global pair
        assert names == sorted(p.name for p in (long / ckpt).iterdir())
        for name in names:
            assert (short / ckpt / name).read_bytes() == (long / ckpt / name).read_bytes()
        for table in (training.LEARNING_CURVE_FILE, training.DIAGNOSTICS_FILE):
            rows = (short / table).read_text().splitlines()
            assert rows == (long / table).read_text().splitlines()[:len(rows)]


class TestMovingAverage:
    def test_matches_naive(self):
        vals = np.array([1.0, 2.0, 6.0, 2.0, 4.0, 0.0])
        got = training.moving_average(vals, 3)
        want = [np.mean(vals[max(0, i - 2):i + 1]) for i in range(6)]
        np.testing.assert_allclose(got, want)

    def test_bit_equal_to_the_cumsum_loop(self):
        # the per-element arithmetic learning_curve.svg was drawn with
        def loop(values, window):
            csum = np.cumsum(values)
            out = np.zeros(len(values))
            for i in range(len(values)):
                lo = max(0, i - window + 1)
                out[i] = (csum[i] - (csum[lo - 1] if lo > 0 else 0.0)) / (i - lo + 1)
            return out

        rng = RngStream(4, "moving-average")
        for n, window in ((0, 3), (1, 1), (7, 20), (50, 1), (330, 20)):
            vals = rng.normal(size=n) * 100.0
            assert training.moving_average(vals, window).tobytes() == loop(vals, window).tobytes()


class TestEvaluation:
    def test_eval_agents_deterministic(self):
        result = tiny_train()
        a = training.evaluate_agents(result.agents, "s1", 3, 7, CFG, HP, COEFFS)
        b = training.evaluate_agents(result.agents, "s1", 3, 7, CFG, HP, COEFFS)
        assert a == b
        assert a.episodes == 3 and a.steps == 3 * HP.episode_len

    def test_eval_leaves_the_agents_unchanged(self):
        agents = tiny_train(episodes=3).agents

        def state(agent):
            return (set(vars(agent)), agent.sample_count, agent.actor.theta.tobytes(),
                    agent.critic.theta.tobytes())

        before = [state(agent) for agent in agents]
        assert agents[0].sample_count == 3 * HP.episode_len
        assert before[0][0] == AGENT_FIELDS
        training.evaluate_agents(agents, "s1", 2, 7, CFG, HP, COEFFS)
        training.evaluate_agents(agents, "s1", 1, 7, CFG, HP, COEFFS, greedy=False)
        assert [state(agent) for agent in agents] == before

    def test_eval_summary_fields(self):
        result = tiny_train()
        summary = training.evaluate_agents(result.agents, "s2", 2, 5, CFG, HP,
                                           COEFFS, method="fmappo")
        row = summary.row()
        assert list(row) == training.EVAL_COLUMNS
        assert row["method"] == "fmappo" and row["scenario"] == "s2"

    def test_controller_eval_labeled_simplified(self):
        summary = training.evaluate_controller("delay", "s1", 2, 3, CFG, HP, COEFFS)
        assert summary.method == "delay-simplified"
        summary = training.evaluate_controller("random", "s1", 2, 3, CFG, HP, COEFFS)
        assert summary.method == "random"

    def test_eval_csv_round_trip(self, tmp_path):
        summary = training.evaluate_controller("probe", "s4", 2, 3, CFG, HP, COEFFS)
        path = tmp_path / "eval_probe.csv"
        training.write_eval_csv(path, [summary])
        lines = path.read_text().splitlines()
        assert lines[0] == ("method,scenario,qoe_mean,qoe_std,qoe_episode_mean,"
                            "qoe_episode_std,latency_ms_mean,lost_packets_mean,"
                            "frame_rate_mean,received_mbps_mean,episodes,steps")
        assert lines[1].startswith("probe-simplified,s4,")

    @pytest.mark.parametrize("cfg, match", [
        (SimConfig(n_agents=2, y_min=2.0), "SimConfig.y_min = 2.0"),
        (SimConfig(n_agents=2, f_target=30.0), "SimConfig.f_target = 30.0")])
    def test_structs_that_disagree_raise_before_any_episode(self, monkeypatch, cfg, match):
        # one config line sets both structs' key, as in train: an evaluation
        # whose simulator and score disagree would clamp and score at two rates
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(training, "rollout", no_episode)
        monkeypatch.setattr(rl, "rollout", no_episode)
        agents, _ = training.make_agents(cfg, HP, RngStream(0, "init"))
        with pytest.raises(ConfigError, match=match):
            training.evaluate_agents(agents, "s1", 1, 0, cfg, HP, COEFFS)
        with pytest.raises(ConfigError, match=match):
            training.evaluate_controller("delay", "s1", 1, 0, cfg, HP, COEFFS)

    def test_untrained_policy_near_random(self):
        # before any training the policy is a fresh Glorot net: its behavior
        # should sit in the same band as the random controller, far from a
        # trained policy's floor or ceiling behaviors
        rng_result = training.evaluate_controller("random", "s1", 4, 11, CFG, HP, COEFFS)
        agents, _ = training.make_agents(CFG, HP, __import__("asms.core", fromlist=["RngStream"]).RngStream(0, "init"))
        fresh = training.evaluate_agents(agents, "s1", 4, 11, CFG, HP, COEFFS,
                                         greedy=False)
        assert abs(fresh.qoe_episode_mean - rng_result.qoe_episode_mean) < 3.0


class TestCriticUse:
    def test_only_build_batch_runs_the_critic(self, monkeypatch):
        agents, _ = training.make_agents(CFG, HP, RngStream(0, "init"))
        critics = [agent.critic for agent in agents]
        critic_calls = []
        real_forward = nn.forward

        def watching_forward(params, x):
            if any(c is params for c in critics):
                critic_calls.append((params, x))
            return real_forward(params, x)

        monkeypatch.setattr(nn, "forward", watching_forward)
        training.evaluate_agents(agents, "s1", 2, 7, CFG, HP, COEFFS)
        training.evaluate_agents(agents, "s1", 1, 7, CFG, HP, COEFFS, greedy=False)
        sim = BottleneckSim(scenario_by_name("s1"), CFG, HP.episode_len,
                            RngStream(1, "env"))
        episode, log_probs = rl.run_episode(sim, agents, HP, COEFFS, RngStream(1, "act"))
        rewards = episode.rewards
        assert critic_calls == []
        for i, critic in enumerate(critics):
            batch = rl.build_batch(episode, log_probs, i, critic, CFG.y_max, HP)
            # one batch forward of agent i's T+1 normalized rows
            assert len(critic_calls) == 1
            params, obs = critic_calls.pop()
            assert params is critic and obs.shape == (HP.episode_len + 1, 6)
            np.testing.assert_array_equal(obs, rl.normalize_obs(episode.rows[:, i],
                                                                 CFG.y_max))
            values = real_forward(critic, obs)[0][:, 0] * HP.value_scale
            np.testing.assert_array_equal(batch.observations, obs[:-1])
            bootstrap = values[-1]
            assert batch.returns[-1] == rewards[-1] + HP.gamma_discount * bootstrap
            np.testing.assert_array_equal(
                batch.returns, rl.compute_returns(rewards, bootstrap, HP.gamma_discount))
            np.testing.assert_array_equal(
                batch.advantages,
                rl.whiten(rl.compute_gae(rewards, values[:-1], bootstrap,
                                         HP.gamma_discount, HP.gae_lambda)))


class TestControllerEpisode:
    def test_replayed_greedy_deltas_match_run_episode(self):
        cfg = SimConfig(n_agents=3, x_init=20.0)
        spec = scenario_by_name("s5")
        agents, _ = training.make_agents(cfg, HP, RngStream(0, "init"))
        sim = BottleneckSim(spec, cfg, HP.episode_len, RngStream(4, "env"))
        episode, _ = training.run_episode(sim, agents, HP, COEFFS, RngStream(4, "act"),
                                          greedy=True)
        seen = []

        def choose(t, rows):
            seen.append((t, rows.shape))
            return episode.actions[t]

        sim = BottleneckSim(spec, cfg, HP.episode_len, RngStream(4, "env"))
        got = rl.rollout(sim, HP, COEFFS, choose)
        assert seen == [(t, (3, 6)) for t in range(HP.episode_len)]
        for name in ("rows", "actions", "frame_rate", "agent_qoe", "rewards"):
            np.testing.assert_array_equal(getattr(got, name), getattr(episode, name),
                                          err_msg=name)


class TestFederationIdentity:
    def test_single_agent_matches_ippo_bytes(self, tmp_path):
        cfg = SimConfig(n_agents=1)
        hp = HyperParams(hidden_width=8, ldp_enabled=False)
        out_a = tmp_path / "fed"
        out_b = tmp_path / "ind"
        training.train(cfg, hp, COEFFS, "fmappo", ["s1"], seed=3, out_dir=out_a,
                       episodes=6)
        training.train(cfg, hp, COEFFS, "ippo", ["s1"], seed=3, out_dir=out_b,
                       episodes=6)
        for name in (training.LEARNING_CURVE_FILE, training.DIAGNOSTICS_FILE):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        ckpt = "checkpoints/final/agent00.actor.fmap"
        assert (out_a / ckpt).read_bytes() == (out_b / ckpt).read_bytes()


class TestParameterOwnership:
    """Updates write into the agents' parameters in place, so no agent may
    share an array with another agent or with a global model."""

    def test_made_agents_carry_no_optimizer_memory(self):
        # Adam's two moment vectors per network would triple what the
        # parameters take; acting agents hold parameters only
        tracemalloc.start()
        try:
            agents, model = training.make_agents(SimConfig(n_agents=24),
                                                 HyperParams(hidden_width=128),
                                                 RngStream(0, "init"))
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(net.theta.nbytes for owner in (*agents, model)
                          for net in (owner.actor, owner.critic))
        assert traced <= 1.25 * param_bytes
        assert all(set(vars(agent)) == AGENT_FIELDS for agent in agents)

    def test_made_agents_share_no_memory(self):
        agents, model = training.make_agents(SimConfig(n_agents=3), HP, RngStream(0, "init"))
        arrays = [model.actor.theta, model.critic.theta]
        for agent in agents:
            arrays += [agent.actor.theta, agent.critic.theta]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("ldp_enabled", [True, False])
    def test_updates_after_a_round_leave_its_global_model_unchanged(self, ldp_enabled):
        hp = HyperParams(hidden_width=8, ldp_enabled=ldp_enabled)
        agents, model = training.make_agents(CFG, hp, RngStream(0, "init"))
        rng_env, rng_act, rng_upd = (RngStream(0, label) for label in ("env", "act", "upd"))
        adam = [(nn.AdamState.zeros(agent.actor.theta.size),
                 nn.AdamState.zeros(agent.critic.theta.size)) for agent in agents]

        def train_episode():
            sim = BottleneckSim(scenario_by_name("s1"), CFG, hp.episode_len, rng_env)
            episode, log_probs = rl.run_episode(sim, agents, hp, COEFFS, rng_act)
            for i, agent in enumerate(agents):
                rl.ppo_update(agent, adam[i], rl.build_batch(episode, log_probs, i, agent.critic,
                                                             CFG.y_max, hp), hp, rng_upd)

        train_episode()
        result = fed.fed_round(agents, model, hp, RngStream(0, "fed"))
        pinned = (result.model.actor.theta.tobytes(), result.model.critic.theta.tobytes())
        assert agents[0].actor.theta.tobytes() == pinned[0]
        train_episode()
        assert agents[0].actor.theta.tobytes() != pinned[0]
        assert (result.model.actor.theta.tobytes(), result.model.critic.theta.tobytes()) == pinned


class TestActionRecord:
    """Every controller's episode keeps the delta-table indices it acted by."""

    @pytest.mark.parametrize("controller", ["greedy", "stochastic", "delay", "probe", "random"])
    def test_actions_replay_the_targets(self, controller):
        cfg = SimConfig(n_agents=3, x_init=20.0)
        table = np.asarray(cfg.delta_table)
        sim = BottleneckSim(scenario_by_name("s5"), cfg, HP.episode_len, RngStream(2, "env"))
        if controller in ("greedy", "stochastic"):
            agents = tiny_train(episodes=4, cfg=cfg).agents
            episode, log_probs = training.run_episode(sim, agents, HP, COEFFS,
                                                      RngStream(2, "act"),
                                                      greedy=controller == "greedy")
        else:
            episode = training.run_controller_episode(sim, controller, HP, COEFFS,
                                                      RngStream(2, "act"))
        actions = episode.actions
        assert actions.dtype == np.int64 and actions.shape == (HP.episode_len, 3)
        assert actions.min() >= 0 and actions.max() < table.size
        targets = episode.rows[..., OBS_TARGET]
        np.testing.assert_array_equal(
            np.clip(targets[:-1] + table[actions], cfg.y_min, cfg.y_max), targets[1:])
        if controller in ("greedy", "stochastic"):
            for i, agent in enumerate(agents):
                logits, _ = nn.forward(agent.actor, rl.normalize_obs(episode.rows[:-1, i],
                                                                     cfg.y_max))
                _, logp = nn.categorical_head(logits)
                # a trained actor's log-probs tell its actions apart
                assert np.ptp(logp, axis=1).min() > 1e-3
                np.testing.assert_allclose(logp[np.arange(HP.episode_len), actions[:, i]],
                                           log_probs[:, i], rtol=1e-12, atol=0)
