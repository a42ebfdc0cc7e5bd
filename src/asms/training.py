"""Experiment orchestration: full training runs, greedy evaluation of
checkpoints and rule controllers, and the run-directory artifact layout.

A run directory is self-describing: manifest + config snapshot + CSVs +
checkpoints are enough to re-run or re-plot it. All artifacts are
byte-deterministic for a fixed seed. Each table declares its columns once:

- ``learning_curve.csv``: the row dict ``train`` builds per episode;
- ``diagnostics.csv``: episode, agent, then the fields of
  ``rl.UpdateDiagnostics``;
- ``overhead.csv`` (``fmappo`` runs only, possibly header-only):
  ``OVERHEAD_COLUMNS``;
- ``eval_<method>.csv``: the fields of ``EvalSummary`` (``EVAL_COLUMNS``).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__, fed, nn, svgplot
from .baselines import controller_step, new_controller_state
from .core import (OBS_DIM, OBS_LATENCY, OBS_LOST, OBS_RECEIVED, HyperParams,
                   QoECoefficients, RngStream, ScenarioSpec, SimConfig, scenario_by_name,
                   serialize_config)
from .netsim import BottleneckSim
from .rl import Episode, PPOAgent, build_batch, ppo_update, rollout, run_episode

METHODS = ("fmappo", "ippo")

LEARNING_CURVE_FILE = "learning_curve.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
OVERHEAD_FILE = "overhead.csv"
MANIFEST_FILE = "manifest.json"
CONFIG_SNAPSHOT_FILE = "config.cfg"
CHECKPOINT_DIR = "checkpoints"
CHECKPOINT_EVERY = 10
OVERHEAD_COLUMNS = ("round", "episode", "bytes_up_total", "bytes_down_total", "agents")


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
    out_dir: Path | None = None

    @property
    def episode_rewards(self) -> np.ndarray:
        return np.array([row["mean_reward"] for row in self.learning_curve])


def make_agents(cfg: SimConfig, hp: HyperParams, rng_init: RngStream,
                ) -> tuple[list[PPOAgent], fed.GlobalModel]:
    """One shared initial model broadcast to all agents (both methods start
    identically; only aggregation afterwards differs). ``fed.broadcast``
    gives each agent its own copy, which its updates write in place."""
    model = fed.init_global(OBS_DIM, hp.hidden_width, len(cfg.delta_table), rng_init)
    agents = [PPOAgent(actor=model.actor, critic=model.critic) for _ in range(cfg.n_agents)]
    fed.broadcast(model, agents)
    return agents, model


def train(cfg: SimConfig, hp: HyperParams, coeffs: QoECoefficients, method: str,
          scenarios: Sequence[ScenarioSpec | str], seed: int,
          out_dir: str | Path | None = None, episodes: int | None = None) -> TrainResult:
    """Run the full training loop, writing a run directory into ``out_dir``
    (which must be new or empty) when one is given.

    Scenarios (names or specs) cycle round-robin per episode; one
    policy/value update per agent per episode; for ``fmappo``, aggregation
    every hp.fedavg_freq episodes (``ippo`` never aggregates). No step reads
    the episode count, so a k-episode run is the first k episodes of any
    longer run at the same seed. Every run, with or without ``out_dir``,
    renders its config snapshot first, so structs that ``serialize_config``
    rejects (``y_min`` or ``f_target`` disagreeing) raise before any episode.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    n_episodes = hp.episodes if episodes is None else episodes
    if n_episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {n_episodes}")
    specs = [scenario_by_name(s) if isinstance(s, str) else s for s in scenarios]
    if not specs:
        raise ValueError("scenarios must name at least one scenario")
    names = [s.name for s in specs]
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None and out_path.exists() and any(out_path.iterdir()):
        raise ValueError(f"run directory {out_path} is not empty; use a new or empty one")
    # rendered before any work, so a config that cannot be snapshot fails
    # first; it records the episode count this run runs, so --config repeats it
    snapshot = serialize_config(cfg, dataclasses.replace(hp, episodes=n_episodes), coeffs)

    rng_init = RngStream(seed, "init")
    rng_env = RngStream(seed, "env")
    rng_act = RngStream(seed, "act")
    rng_upd = RngStream(seed, "update")
    rng_fed = RngStream(seed, "fed")

    agents, model = make_agents(cfg, hp, rng_init)
    # optimizer state belongs to training: one (actor, critic) Adam pair per
    # agent, which fed rounds leave alone, so it persists across broadcasts
    adam = [(nn.AdamState.zeros(agent.actor.theta.size),
             nn.AdamState.zeros(agent.critic.theta.size)) for agent in agents]
    federate = method == "fmappo"

    curve: list[dict] = []
    diagnostics: list[dict] = []
    overhead: list[dict] = []
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    for ep in range(n_episodes):
        spec = specs[ep % len(specs)]
        sim = BottleneckSim(spec, cfg, hp.episode_len, rng_env)
        episode, log_probs = run_episode(sim, agents, hp, coeffs, rng_act)
        row = {"episode": ep, "scenario": spec.name,
               "mean_reward": float(episode.rewards.mean())}
        for i in range(cfg.n_agents):
            row[f"agent{i:02d}_qoe"] = float(episode.agent_qoe[:, i].mean())
        curve.append(row)

        for i, agent in enumerate(agents):
            diag = ppo_update(agent, adam[i], build_batch(episode, log_probs, i, agent.critic,
                                                          cfg.y_max, hp), hp, rng_upd)
            diagnostics.append({"episode": ep, "agent": i, **dataclasses.asdict(diag)})

        if federate and (ep + 1) % hp.fedavg_freq == 0:
            result = fed.fed_round(agents, model, hp, rng_fed)
            model = result.model
            overhead.append(dict(zip(OVERHEAD_COLUMNS, (
                len(overhead) + 1, ep, result.bytes_up, result.bytes_down,
                cfg.n_agents))))

        if out_path is not None and (ep + 1) % CHECKPOINT_EVERY == 0:
            _save_checkpoint(out_path / CHECKPOINT_DIR / f"ep{ep + 1:04d}",
                             agents, model if federate else None)

    result = TrainResult(method=method, seed=seed, scenario_names=names,
                         episodes=n_episodes, learning_curve=curve,
                         diagnostics=diagnostics, overhead=overhead,
                         agents=agents, out_dir=out_path)
    if out_path is not None:
        _save_checkpoint(out_path / CHECKPOINT_DIR / "final", agents,
                         model if federate else None)
        _write_run_artifacts(result, snapshot)
    return result


def agent_files(path: Path, agent: int | str) -> tuple[Path, Path]:
    """Agent i's actor and critic files in a checkpoint directory; a str
    index such as ``"*"`` is used as is, to make glob patterns."""
    index = agent if isinstance(agent, str) else f"{agent:02d}"
    return path / f"agent{index}.actor.fmap", path / f"agent{index}.critic.fmap"


def _save_checkpoint(path: Path, agents: Sequence[PPOAgent],
                     model: fed.GlobalModel | None) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for i, agent in enumerate(agents):
        for file, params in zip(agent_files(path, i), (agent.actor, agent.critic)):
            nn.save_params(str(file), params)
    if model is not None:
        nn.save_params(str(path / "global.actor.fmap"), model.actor)
        nn.save_params(str(path / "global.critic.fmap"), model.critic)


def load_checkpoint_agents(path: str | Path) -> list[PPOAgent]:
    """Rebuild agents from a checkpoint directory's actor/critic files.

    Agent i is read from its ``agent_files``; the N actor files must be
    agents 0..N-1, each with a critic.
    """
    path = Path(path)
    actors = {f.name for f in path.glob(agent_files(path, "*")[0].name)}
    if not actors:
        raise FileNotFoundError(f"no agent checkpoints under {path}")
    agents = []
    for i in range(len(actors)):
        actor_file, critic_file = agent_files(path, i)
        if actor_file.name not in actors:
            raise ValueError(f"checkpoint {path} has {len(actors)} actor files but "
                             f"agent {i} is missing: no {actor_file.name}")
        if not critic_file.is_file():
            raise ValueError(f"checkpoint {path} is missing {critic_file.name}")
        agents.append(PPOAgent(actor=nn.load_params(str(actor_file)),
                               critic=nn.load_params(str(critic_file))))
    return agents


def write_csv(path: Path, rows: list[dict], columns: Sequence[str]) -> None:
    """A header of ``columns``, then each row's cells in that order, floats by ``_f``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_f(row[c]) if isinstance(row[c], float) else row[c]
                             for c in columns])


def _write_run_artifacts(result: TrainResult, snapshot: str) -> None:
    out = result.out_dir
    assert out is not None
    # episodes >= 1 and N >= 1, so both tables have a first row to name them
    write_csv(out / LEARNING_CURVE_FILE, result.learning_curve, list(result.learning_curve[0]))
    write_csv(out / DIAGNOSTICS_FILE, result.diagnostics, list(result.diagnostics[0]))
    if result.method == "fmappo":
        write_csv(out / OVERHEAD_FILE, result.overhead, OVERHEAD_COLUMNS)
    (out / CONFIG_SNAPSHOT_FILE).write_text(snapshot, encoding="utf-8")
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
    csum = np.cumsum(values)
    i = np.arange(len(csum))
    lo = np.maximum(i - window + 1, 0)
    return (csum - np.concatenate(([0.0], csum))[lo]) / (i - lo + 1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

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
        return dataclasses.asdict(self)


EVAL_COLUMNS = [f.name for f in dataclasses.fields(EvalSummary)]


def _summarize(method: str, scenario: str, episodes: list[Episode]) -> EvalSummary:
    rewards = np.concatenate([e.rewards for e in episodes])
    per_episode = np.array([float(e.rewards.mean()) for e in episodes])

    def mean_of_means(column: int) -> float:   # over the scored rows, not the warm-up
        return float(np.mean([e.rows[1:, :, column].mean() for e in episodes]))

    return EvalSummary(
        method=method, scenario=scenario,
        qoe_mean=float(rewards.mean()), qoe_std=float(rewards.std()),
        qoe_episode_mean=float(per_episode.mean()),
        qoe_episode_std=float(per_episode.std()),
        latency_ms_mean=mean_of_means(OBS_LATENCY),
        lost_packets_mean=mean_of_means(OBS_LOST),
        frame_rate_mean=float(np.mean([e.frame_rate.mean() for e in episodes])),
        received_mbps_mean=mean_of_means(OBS_RECEIVED),
        episodes=len(episodes), steps=int(rewards.size))


def _evaluate(label: str, scenario: ScenarioSpec | str, episodes: int, seed: int,
              cfg: SimConfig, hp: HyperParams, coeffs: QoECoefficients, trace,
              episode: Callable[[BottleneckSim, RngStream], Episode]) -> EvalSummary:
    """The loop both evaluations share: ``episode(sim, rng_act)`` per episode, each written to
    the ``netsim.TraceWriter`` ``trace`` if given; as in ``train``, bad structs raise first."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    serialize_config(cfg, hp, coeffs)
    spec = scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    rng_act = RngStream(seed, f"eval-act/{spec.name}")
    sim = BottleneckSim(spec, cfg, hp.episode_len, RngStream(seed, f"eval-env/{spec.name}"))
    done = [episode(sim, rng_act) for _ in range(episodes)]
    if trace is not None:
        for index, e in enumerate(done):
            trace.write(spec.name, index, e.rows[1:], e.frame_rate, e.capacity)
    return _summarize(label, spec.name, done)


def evaluate_agents(agents: Sequence[PPOAgent], scenario: ScenarioSpec | str,
                    episodes: int, seed: int, cfg: SimConfig, hp: HyperParams,
                    coeffs: QoECoefficients, method: str = "fmappo",
                    greedy: bool = True, trace=None) -> EvalSummary:
    """Rollouts of trained agents on one scenario, each agent's argmax
    action when ``greedy`` and a draw from its policy otherwise; the agents
    are left unchanged."""
    return _evaluate(method, scenario, episodes, seed, cfg, hp, coeffs, trace,
                     lambda sim, rng_act: run_episode(sim, agents, hp, coeffs, rng_act,
                                                      greedy=greedy)[0])


def run_controller_episode(sim: BottleneckSim, name: str, hp: HyperParams,
                           coeffs: QoECoefficients, rng_act: RngStream) -> Episode:
    """Roll one episode of the rule controller ``name`` from a fresh state,
    or of one uniform delta-table draw per agent-step for ``random``."""
    table = sim.cfg.delta_table
    state = new_controller_state(sim.cfg.n_agents)

    def choose(t: int, rows: np.ndarray) -> np.ndarray:
        nonlocal state
        if name == "random":
            return rng_act.integers(len(table), size=len(rows))
        index, state = controller_step(name, state, rows, table, coeffs.p_threshold)
        return index

    return rollout(sim, hp, coeffs, choose)


def evaluate_controller(name: str, scenario: ScenarioSpec | str, episodes: int,
                        seed: int, cfg: SimConfig, hp: HyperParams,
                        coeffs: QoECoefficients, trace=None) -> EvalSummary:
    """Rule-based or random controller rollouts; label marks the rule
    controllers as simplified stand-ins."""
    label = name if name == "random" else f"{name}-simplified"
    return _evaluate(label, scenario, episodes, seed, cfg, hp, coeffs, trace,
                     lambda sim, rng_act: run_controller_episode(sim, name, hp, coeffs,
                                                                 rng_act))


def write_eval_csv(path: str | Path, summaries: Sequence[EvalSummary]) -> None:
    write_csv(Path(path), [s.row() for s in summaries], EVAL_COLUMNS)


__all__ = [
    "CHECKPOINT_DIR", "CHECKPOINT_EVERY", "CONFIG_SNAPSHOT_FILE",
    "DIAGNOSTICS_FILE", "EVAL_COLUMNS", "EvalSummary", "LEARNING_CURVE_FILE",
    "MANIFEST_FILE", "METHODS", "OVERHEAD_COLUMNS", "OVERHEAD_FILE", "TrainResult",
    "agent_files", "evaluate_agents", "evaluate_controller", "load_checkpoint_agents",
    "make_agents", "moving_average", "run_controller_episode", "train",
    "write_csv", "write_eval_csv",
]
