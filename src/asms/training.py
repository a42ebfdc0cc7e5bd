"""Experiment orchestration: full training runs, greedy evaluation of
checkpoints and rule controllers, and the run-directory artifact layout.

A run directory is self-describing: manifest + config snapshot + CSVs +
checkpoints are enough to re-run or re-plot it. All artifacts are
byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__, fed, nn, svgplot
from .baselines import controller_step, new_controller_state, random_action
from .core import (HyperParams, Observation, QoECoefficients, RngStream,
                   ScenarioSpec, SimConfig, scenario_by_name, serialize_config)
from .netsim import BottleneckSim
from .rl import EpisodeStats, PPOAgent, build_batch, rollout, run_episode

METHODS = ("fmappo", "ippo")

LEARNING_CURVE_FILE = "learning_curve.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
OVERHEAD_FILE = "overhead.csv"
MANIFEST_FILE = "manifest.json"
CONFIG_SNAPSHOT_FILE = "config.cfg"
CHECKPOINT_DIR = "checkpoints"
CHECKPOINT_EVERY = 10


def _f(v: float) -> str:
    """Stable shortest-roundtrip float rendering for CSV cells."""
    return repr(float(v))


@dataclass
class TrainResult:
    method: str
    seed: int
    scenario_names: list[str]
    episodes: int
    learning_curve: list[dict]
    diagnostics: list[dict]
    overhead: list[dict]
    agents: list[PPOAgent]
    global_model: fed.GlobalModel
    out_dir: Path | None = None

    @property
    def episode_rewards(self) -> np.ndarray:
        return np.array([row["mean_reward"] for row in self.learning_curve])


def make_agents(cfg: SimConfig, hp: HyperParams, rng_init: RngStream,
                ) -> tuple[list[PPOAgent], fed.GlobalModel]:
    """One shared initial model broadcast to all agents (both methods start
    identically; only aggregation afterwards differs)."""
    model = fed.init_global(6, hp.hidden_width, len(cfg.delta_table), rng_init)
    agents = [PPOAgent(actor=model.actor.with_theta(model.actor.theta.copy()),
                       critic=model.critic.with_theta(model.critic.theta.copy()))
              for _ in range(cfg.n_agents)]
    return agents, model


def train(cfg: SimConfig, hp: HyperParams, coeffs: QoECoefficients, method: str,
          scenario_names: Sequence[str], seed: int, out_dir: str | Path | None = None,
          episodes: int | None = None, scenario_specs: Sequence[ScenarioSpec] | None = None,
          ) -> TrainResult:
    """Run the full training loop.

    Scenarios cycle round-robin per episode; one policy/value update per
    agent per episode; aggregation every hp.fedavg_freq episodes when the
    method is federated.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    n_episodes = hp.episodes if episodes is None else episodes
    specs = (list(scenario_specs) if scenario_specs is not None
             else [scenario_by_name(name) for name in scenario_names])
    names = [s.name for s in specs]

    rng_init = RngStream(seed, "init")
    rng_env = RngStream(seed, "env")
    rng_act = RngStream(seed, "act")
    rng_upd = RngStream(seed, "update")
    rng_fed = RngStream(seed, "fed")

    agents, model = make_agents(cfg, hp, rng_init)
    federate = method == "fmappo" and hp.fedavg_freq > 0

    curve: list[dict] = []
    diagnostics: list[dict] = []
    overhead: list[dict] = []
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    for ep in range(n_episodes):
        spec = specs[ep % len(specs)]
        sim = BottleneckSim(spec, cfg, hp.episode_len, rng_env)
        trajectories, stats = run_episode(sim, agents, hp, coeffs, rng_act)
        row = {"episode": ep, "scenario": spec.name,
               "mean_reward": float(stats.rewards.mean())}
        for i in range(cfg.n_agents):
            row[f"agent{i:02d}_qoe"] = float(stats.agent_qoe[:, i].mean())
        curve.append(row)

        ep_hp = dataclasses.replace(
            hp, entropy_coef=hp.entropy_coef_at(ep, n_episodes))
        for i, agent in enumerate(agents):
            batch = build_batch([trajectories[i]], hp)
            diag = agent.update(batch, ep_hp, rng_upd)
            diagnostics.append({
                "episode": ep, "agent": i, "policy_loss": diag.policy_loss,
                "value_loss": diag.value_loss, "entropy": diag.entropy,
                "clip_fraction": diag.clip_fraction, "mean_ratio": diag.mean_ratio,
            })

        if federate and (ep + 1) % hp.fedavg_freq == 0:
            result = fed.fed_round(agents, model, hp, rng_fed)
            model = result.model
            overhead.append({
                "round": model.round_index, "episode": ep,
                "bytes_up_total": result.bytes_up,
                "bytes_down_total": result.bytes_down, "agents": cfg.n_agents,
            })

        if out_path is not None and (ep + 1) % CHECKPOINT_EVERY == 0:
            _save_checkpoint(out_path / CHECKPOINT_DIR / f"ep{ep + 1:04d}",
                             agents, model if federate else None)

    result = TrainResult(method=method, seed=seed, scenario_names=names,
                         episodes=n_episodes, learning_curve=curve,
                         diagnostics=diagnostics, overhead=overhead,
                         agents=agents, global_model=model, out_dir=out_path)
    if out_path is not None:
        _save_checkpoint(out_path / CHECKPOINT_DIR / "final", agents,
                         model if federate else None)
        _write_run_artifacts(result, cfg, hp, coeffs)
    return result


def _save_checkpoint(path: Path, agents: Sequence[PPOAgent],
                     model: fed.GlobalModel | None) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for i, agent in enumerate(agents):
        nn.save_params(str(path / f"agent{i:02d}.actor.fmap"), agent.actor)
        nn.save_params(str(path / f"agent{i:02d}.critic.fmap"), agent.critic)
    if model is not None:
        nn.save_params(str(path / "global.actor.fmap"), model.actor)
        nn.save_params(str(path / "global.critic.fmap"), model.critic)


def load_checkpoint_agents(path: str | Path) -> list[PPOAgent]:
    """Rebuild agents from a checkpoint directory's actor/critic files."""
    path = Path(path)
    actors = sorted(path.glob("agent*.actor.fmap"))
    if not actors:
        raise FileNotFoundError(f"no agent checkpoints under {path}")
    agents = []
    for actor_file in actors:
        critic_file = Path(str(actor_file).replace(".actor.", ".critic."))
        agents.append(PPOAgent(actor=nn.load_params(str(actor_file)),
                               critic=nn.load_params(str(critic_file))))
    return agents


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_f(row[c]) if isinstance(row[c], float) else row[c]
                             for c in columns])


def _write_run_artifacts(result: TrainResult, cfg: SimConfig, hp: HyperParams,
                         coeffs: QoECoefficients) -> None:
    out = result.out_dir
    assert out is not None
    curve_cols = ["episode", "scenario", "mean_reward"] + [
        f"agent{i:02d}_qoe" for i in range(cfg.n_agents)]
    _write_csv(out / LEARNING_CURVE_FILE, result.learning_curve, curve_cols)
    _write_csv(out / DIAGNOSTICS_FILE, result.diagnostics,
               ["episode", "agent", "policy_loss", "value_loss", "entropy",
                "clip_fraction", "mean_ratio"])
    if result.method == "fmappo":
        _write_csv(out / OVERHEAD_FILE, result.overhead,
                   ["round", "episode", "bytes_up_total", "bytes_down_total", "agents"])
    (out / CONFIG_SNAPSHOT_FILE).write_text(serialize_config(cfg, hp, coeffs),
                                            encoding="utf-8")
    manifest = {
        "format": 1,
        "tool": "asms",
        "version": __version__,
        "method": result.method,
        "seed": result.seed,
        "scenarios": result.scenario_names,
        "episodes": result.episodes,
        "config_file": CONFIG_SNAPSHOT_FILE,
        "aggregation_rounds": len(result.overhead),
    }
    (out / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    rewards = [row["mean_reward"] for row in result.learning_curve]
    series = {"episode reward": rewards}
    if len(rewards) >= 10:
        window = max(5, len(rewards) // 20)
        series["moving average"] = moving_average(np.array(rewards), window).tolist()
    (out / "learning_curve.svg").write_text(
        svgplot.line_chart(series, f"training reward ({result.method})"),
        encoding="utf-8")


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average with a growing head window."""
    out = np.zeros(len(values))
    csum = np.cumsum(values)
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

EVAL_COLUMNS = ["method", "scenario", "qoe_mean", "qoe_std", "qoe_episode_mean",
                "qoe_episode_std", "latency_ms_mean", "lost_packets_mean",
                "frame_rate_mean", "received_mbps_mean", "episodes", "steps"]


@dataclass
class EvalSummary:
    method: str
    scenario: str
    qoe_mean: float
    qoe_std: float
    qoe_episode_mean: float
    qoe_episode_std: float
    latency_ms_mean: float
    lost_packets_mean: float
    frame_rate_mean: float
    received_mbps_mean: float
    episodes: int
    steps: int

    def row(self) -> dict:
        return {c: getattr(self, c) for c in EVAL_COLUMNS}


def _summarize(method: str, scenario: str, episode_stats: list[EpisodeStats]) -> EvalSummary:
    rewards = np.concatenate([s.rewards for s in episode_stats])
    per_episode = np.array([s.mean_reward for s in episode_stats])
    return EvalSummary(
        method=method, scenario=scenario,
        qoe_mean=float(rewards.mean()), qoe_std=float(rewards.std()),
        qoe_episode_mean=float(per_episode.mean()),
        qoe_episode_std=float(per_episode.std()),
        latency_ms_mean=float(np.mean([s.latency_ms.mean() for s in episode_stats])),
        lost_packets_mean=float(np.mean([s.lost_packets.mean() for s in episode_stats])),
        frame_rate_mean=float(np.mean([s.frame_rate.mean() for s in episode_stats])),
        received_mbps_mean=float(np.mean([s.received_mbps.mean() for s in episode_stats])),
        episodes=len(episode_stats), steps=int(rewards.size))


def evaluate_agents(agents: Sequence[PPOAgent], scenario: ScenarioSpec | str,
                    episodes: int, seed: int, cfg: SimConfig, hp: HyperParams,
                    coeffs: QoECoefficients, method: str = "fmappo",
                    greedy: bool = True, trace=None) -> EvalSummary:
    """Greedy (argmax) rollouts of trained agents on one scenario."""
    spec = scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    rng_env = RngStream(seed, f"eval-env/{spec.name}")
    rng_act = RngStream(seed, f"eval-act/{spec.name}")
    stats_list = []
    for _ in range(episodes):
        sim = BottleneckSim(spec, cfg, hp.episode_len, rng_env, trace=trace)
        _, stats = run_episode(sim, agents, hp, coeffs, rng_act, greedy=greedy)
        stats_list.append(stats)
    return _summarize(method, spec.name, stats_list)


def run_controller_episode(sim: BottleneckSim, decide: Callable, hp: HyperParams,
                           coeffs: QoECoefficients) -> EpisodeStats:
    """Roll one episode driven by per-agent callables (i, obs) -> target delta."""
    def choose(t: int, rows: np.ndarray) -> np.ndarray:
        return np.array([decide(i, Observation(*row))
                         for i, row in enumerate(rows.tolist())])

    return rollout(sim, hp, coeffs, choose)[1]


def evaluate_controller(name: str, scenario: ScenarioSpec | str, episodes: int,
                        seed: int, cfg: SimConfig, hp: HyperParams,
                        coeffs: QoECoefficients, trace=None) -> EvalSummary:
    """Rule-based or random controller rollouts; label marks the rule
    controllers as simplified stand-ins."""
    spec = scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    rng_env = RngStream(seed, f"eval-env/{spec.name}")
    rng_act = RngStream(seed, f"eval-act/{spec.name}")
    stats_list = []
    for _ in range(episodes):
        sim = BottleneckSim(spec, cfg, hp.episode_len, rng_env, trace=trace)
        if name == "random":
            def decide(i, obs):
                return random_action(rng_act, cfg.delta_table).delta_mbps
        else:
            states = [new_controller_state() for _ in range(cfg.n_agents)]

            def decide(i, obs, states=states):
                action, states[i] = controller_step(name, states[i], obs,
                                                    cfg.delta_table, coeffs.p_threshold)
                return action.delta_mbps
        stats_list.append(run_controller_episode(sim, decide, hp, coeffs))
    label = name if name == "random" else f"{name}-simplified"
    return _summarize(label, spec.name, stats_list)


def write_eval_csv(path: str | Path, summaries: Sequence[EvalSummary]) -> None:
    rows = [s.row() for s in summaries]
    _write_csv(Path(path), rows, EVAL_COLUMNS)


__all__ = [
    "CHECKPOINT_DIR", "CHECKPOINT_EVERY", "CONFIG_SNAPSHOT_FILE",
    "DIAGNOSTICS_FILE", "EVAL_COLUMNS", "EvalSummary", "LEARNING_CURVE_FILE",
    "MANIFEST_FILE", "METHODS", "OVERHEAD_FILE", "TrainResult",
    "evaluate_agents", "evaluate_controller", "load_checkpoint_agents",
    "make_agents", "moving_average", "run_controller_episode", "train",
    "write_eval_csv",
]
