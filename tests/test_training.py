import dataclasses
import json

import numpy as np
import pytest

from asms import training
from asms.core import (HyperParams, QoECoefficients, RngStream, SimConfig,
                       scenario_by_name)
from asms.netsim import BottleneckSim

CFG = SimConfig(n_agents=2)
HP = HyperParams(hidden_width=8, episodes=8, fedavg_freq=2, ldp_enabled=False)
COEFFS = QoECoefficients()


def tiny_train(method="fmappo", seed=0, out_dir=None, episodes=8, hp=HP):
    return training.train(CFG, hp, COEFFS, method, ["s1", "s3"], seed=seed,
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
        result = tiny_train(out_dir=out, episodes=20)
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

    def test_checkpoint_loading_round_trip(self, tmp_path):
        out = tmp_path / "run"
        result = tiny_train(out_dir=out)
        agents = training.load_checkpoint_agents(out / "checkpoints" / "final")
        assert len(agents) == 2
        for loaded, trained in zip(agents, result.agents):
            assert np.array_equal(loaded.actor.theta, trained.actor.theta)
            assert np.array_equal(loaded.critic.theta, trained.critic.theta)

    def test_missing_checkpoint_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            training.load_checkpoint_agents(tmp_path)


class TestMovingAverage:
    def test_matches_naive(self):
        vals = np.array([1.0, 2.0, 6.0, 2.0, 4.0, 0.0])
        got = training.moving_average(vals, 3)
        want = [np.mean(vals[max(0, i - 2):i + 1]) for i in range(6)]
        np.testing.assert_allclose(got, want)


class TestEvaluation:
    def test_eval_agents_deterministic(self):
        result = tiny_train()
        a = training.evaluate_agents(result.agents, "s1", 3, 7, CFG, HP, COEFFS)
        b = training.evaluate_agents(result.agents, "s1", 3, 7, CFG, HP, COEFFS)
        assert a == b
        assert a.episodes == 3 and a.steps == 3 * HP.episode_len

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
        assert lines[0] == ",".join(training.EVAL_COLUMNS)
        assert lines[1].startswith("probe-simplified,s4,")

    def test_untrained_policy_near_random(self):
        # before any training the policy is a fresh Glorot net: its behavior
        # should sit in the same band as the random controller, far from a
        # trained policy's floor or ceiling behaviors
        rng_result = training.evaluate_controller("random", "s1", 4, 11, CFG, HP, COEFFS)
        agents, _ = training.make_agents(CFG, HP, __import__("asms.core", fromlist=["RngStream"]).RngStream(0, "init"))
        fresh = training.evaluate_agents(agents, "s1", 4, 11, CFG, HP, COEFFS,
                                         greedy=False)
        assert abs(fresh.qoe_episode_mean - rng_result.qoe_episode_mean) < 3.0


class TestControllerEpisode:
    def test_replayed_greedy_deltas_match_run_episode(self):
        cfg = SimConfig(n_agents=3, x_init=20.0)
        spec = scenario_by_name("s5")
        agents, _ = training.make_agents(cfg, HP, RngStream(0, "init"))
        sim = BottleneckSim(spec, cfg, HP.episode_len, RngStream(4, "env"))
        trajs, want = training.run_episode(sim, agents, HP, COEFFS,
                                           RngStream(4, "act"), greedy=True)
        deltas = np.array(cfg.delta_table)[np.stack([t.actions for t in trajs], axis=1)]
        replay = iter(deltas.ravel().tolist())
        seen = []

        def decide(i, obs):
            seen.append(i)
            return next(replay)

        sim = BottleneckSim(spec, cfg, HP.episode_len, RngStream(4, "env"))
        got = training.run_controller_episode(sim, decide, HP, COEFFS)
        assert seen == [0, 1, 2] * HP.episode_len
        for name in ("rewards", "agent_qoe", "received_mbps", "latency_ms",
                     "lost_packets", "frame_rate"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
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
