"""Per-agent PPO: rollout collection, advantage estimation, and the
clipped-ratio policy / mean-squared-error value updates.

All agents share the environment's global reward but train entirely on
their own observations and parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import nn
from .core import HyperParams, Observation, QoECoefficients, RngStream
from .netsim import BottleneckSim, LinkOutcome
from .qoe import compute_qoe, global_reward

# Fixed feature scaling of the 6 observation fields: bitrates by y_max,
# latency by 200 ms, jitter by 50 ms, packet counts by 100.
LATENCY_SCALE_MS = 200.0
JITTER_SCALE_MS = 50.0
PACKET_SCALE = 100.0
OBS_CLIP = 5.0


class NonFiniteLossError(RuntimeError):
    """Raised when a training loss stops being finite; the update is aborted."""


def normalize_obs(rows: np.ndarray, y_max: float = 200.0) -> np.ndarray:
    """Affine-scale (..., 6) observation rows, in ``Observation`` field order,
    into bounded features."""
    scale = np.array([y_max, y_max, LATENCY_SCALE_MS, JITTER_SCALE_MS,
                      PACKET_SCALE, PACKET_SCALE])
    return np.clip(np.asarray(rows, dtype=np.float64) / scale, 0.0, OBS_CLIP)


@dataclass(frozen=True)
class Trajectory:
    """One agent's episode: everything the update step needs."""

    observations: np.ndarray    # (T, 6) normalized features
    actions: np.ndarray         # (T,) int indices into the delta table
    log_probs: np.ndarray       # (T,) behavior log-probs
    values: np.ndarray          # (T,) critic estimates V(s_t)
    rewards: np.ndarray         # (T,) shared global rewards
    bootstrap_value: float      # V(s_T)

    def __post_init__(self) -> None:
        t = self.observations.shape[0]
        for name in ("actions", "log_probs", "values", "rewards"):
            if getattr(self, name).shape != (t,):
                raise ValueError(f"{name} must have length {t}")
        if np.any(self.log_probs > 1e-9):
            raise ValueError("log-probs must be <= 0")

    def __len__(self) -> int:
        return self.observations.shape[0]


def select_action(policy: nn.ModelParams, obs_vec: np.ndarray,
                  rng: RngStream) -> tuple[int, float, float]:
    """Sample from the categorical head; returns (index, log-prob, entropy)."""
    logits, _ = nn.forward(policy, obs_vec)
    probs, logp, entropy = nn.categorical_head(logits)
    u = rng.uniform()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    idx = min(idx, probs.size - 1)
    return idx, float(logp[idx]), entropy


def greedy_action(policy: nn.ModelParams, obs_vec: np.ndarray) -> tuple[int, float]:
    """Argmax of the categorical head; returns (index, log-prob)."""
    logits, _ = nn.forward(policy, obs_vec)
    _, logp, _ = nn.categorical_head(logits)
    idx = int(np.argmax(logits))
    return idx, float(logp[idx])


def compute_gae(traj: Trajectory, gamma: float, lam: float) -> np.ndarray:
    """Advantages by the backward recursion adv_t = delta_t + gamma*lam*adv_{t+1},
    with delta_t = r_t + gamma*V(s_{t+1}) - V(s_t) bootstrapped at the end."""
    t_len = len(traj)
    values_ext = np.append(traj.values, traj.bootstrap_value)
    deltas = traj.rewards + gamma * values_ext[1:] - values_ext[:-1]
    adv = np.zeros(t_len)
    running = 0.0
    for t in range(t_len - 1, -1, -1):
        running = deltas[t] + gamma * lam * running
        adv[t] = running
    return adv


def compute_returns(traj: Trajectory, gamma: float) -> np.ndarray:
    """Discounted reward-to-go with a gamma^(T-t)-weighted terminal bootstrap."""
    t_len = len(traj)
    returns = np.zeros(t_len)
    running = float(traj.bootstrap_value)
    for t in range(t_len - 1, -1, -1):
        running = traj.rewards[t] + gamma * running
        returns[t] = running
    return returns


def clipped_objective(new_log_prob: float, old_log_prob: float,
                      advantage: float, clip_eps: float) -> float:
    """Single-sample clipped surrogate: min of the ratio-weighted advantage
    and its clipped-band bound."""
    if not (0.0 < clip_eps < 1.0):
        raise ValueError("clip_eps must be in (0, 1)")
    ratio = np.exp(new_log_prob - old_log_prob)
    bound = (1.0 + clip_eps) * advantage if advantage >= 0 else (1.0 - clip_eps) * advantage
    return float(min(ratio * advantage, bound))


def whiten(values: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance rescale; passthrough for single samples."""
    if values.size <= 1:
        return values.copy()
    centered = values - values.mean()
    std = values.std()
    if std < 1e-12:
        return centered
    return centered / std


@dataclass(frozen=True)
class TrainBatch:
    observations: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray    # whitened
    returns: np.ndarray

    def __len__(self) -> int:
        return self.observations.shape[0]


def build_batch(trajectories: Sequence[Trajectory], hp: HyperParams) -> TrainBatch:
    """Flatten trajectories into one update batch with whitened advantages."""
    if len(trajectories) == 0:
        raise ValueError("no trajectories")
    adv = np.concatenate([compute_gae(t, hp.gamma_discount, hp.gae_lambda)
                          for t in trajectories])
    rets = np.concatenate([compute_returns(t, hp.gamma_discount) for t in trajectories])
    return TrainBatch(
        observations=np.concatenate([t.observations for t in trajectories]),
        actions=np.concatenate([t.actions for t in trajectories]),
        old_log_probs=np.concatenate([t.log_probs for t in trajectories]),
        advantages=whiten(adv),
        returns=rets,
    )


def policy_loss_and_grad(actor: nn.ModelParams, obs: np.ndarray, actions: np.ndarray,
                         old_log_probs: np.ndarray, advantages: np.ndarray,
                         clip_eps: float, entropy_coef: float,
                         ) -> tuple[float, np.ndarray, dict]:
    """Mean clipped-surrogate loss (negated, plus entropy bonus) and its exact
    gradient. Samples on the clipped branch contribute no policy gradient."""
    n = obs.shape[0]
    logits, cache = nn.forward(actor, obs)
    probs, logp, entropy = nn.categorical_head(logits)
    rows = np.arange(n)
    lp_taken = logp[rows, actions]
    ratio = np.exp(lp_taken - old_log_probs)
    bound = np.where(advantages >= 0, (1.0 + clip_eps) * advantages,
                     (1.0 - clip_eps) * advantages)
    ratio_adv = ratio * advantages
    objective = np.minimum(ratio_adv, bound)
    unclipped = ratio_adv <= bound
    loss = -float(objective.mean()) - entropy_coef * float(entropy.mean())

    # d(-mean objective)/d logp_taken, zero where the clip bound is active
    dlp = -(ratio * advantages * unclipped) / n
    dlogits = dlp[:, None] * (-probs)
    dlogits[rows, actions] += dlp
    # entropy bonus: dH/dz_k = -p_k (log p_k + H)
    dlogits += (entropy_coef / n) * probs * (logp + entropy[:, None])

    grad = nn.backward(actor, cache, dlogits)
    stats = {
        "mean_ratio": float(ratio.mean()),
        "clip_fraction": float(1.0 - unclipped.mean()),
        "entropy": float(entropy.mean()),
    }
    return loss, grad, stats


def value_loss_and_grad(critic: nn.ModelParams, obs: np.ndarray,
                        returns: np.ndarray, value_scale: float = 1.0,
                        ) -> tuple[float, np.ndarray]:
    """Mean squared error of the value head against the return targets.

    The head predicts returns / value_scale; minimizing in the scaled space
    has the same argmin but keeps gradient norms commensurate with the
    clipping threshold when returns span hundreds of reward units.
    """
    out, cache = nn.forward(critic, obs)
    v = out[:, 0]
    err = v - returns / value_scale
    loss = float((err ** 2).mean())
    grad = nn.backward(critic, cache, (2.0 * err / err.size)[:, None])
    return loss, grad


def critic_value(critic: nn.ModelParams, obs_vec: np.ndarray,
                 value_scale: float) -> float:
    """State value in reward units (undoes the critic's internal scaling)."""
    out, _ = nn.forward(critic, obs_vec)
    return float(out[0]) * value_scale


@dataclass
class UpdateDiagnostics:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    mean_ratio: float


def ppo_update(actor: nn.ModelParams, critic: nn.ModelParams,
               actor_adam: nn.AdamState, critic_adam: nn.AdamState,
               batch: TrainBatch, hp: HyperParams, rng: RngStream,
               ) -> tuple[nn.ModelParams, nn.ModelParams, nn.AdamState,
                          nn.AdamState, UpdateDiagnostics]:
    """Several epochs of shuffled minibatch ascent on the clipped surrogate
    (plus entropy bonus) and descent on the value MSE."""
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    agg = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
           "clip_fraction": 0.0, "mean_ratio": 0.0}
    n_batches = 0
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.minibatch):
            sel = order[start:start + hp.minibatch]
            ploss, pgrad, stats = policy_loss_and_grad(
                actor, batch.observations[sel], batch.actions[sel],
                batch.old_log_probs[sel], batch.advantages[sel],
                hp.clip_eps, hp.entropy_coef)
            vloss, vgrad = value_loss_and_grad(
                critic, batch.observations[sel], batch.returns[sel],
                hp.value_scale)
            if not (np.isfinite(ploss) and np.isfinite(vloss)):
                raise NonFiniteLossError(
                    f"non-finite loss (policy={ploss}, value={vloss})")
            actor, actor_adam = nn.adam_step(actor, actor_adam, pgrad, hp.lr, hp.grad_clip)
            critic, critic_adam = nn.adam_step(critic, critic_adam, vgrad, hp.lr, hp.grad_clip)
            agg["policy_loss"] += ploss
            agg["value_loss"] += vloss
            agg["entropy"] += stats["entropy"]
            agg["clip_fraction"] += stats["clip_fraction"]
            agg["mean_ratio"] += stats["mean_ratio"]
            n_batches += 1
    diag = UpdateDiagnostics(**{k: v / n_batches for k, v in agg.items()})
    return actor, critic, actor_adam, critic_adam, diag


@dataclass
class PPOAgent:
    """Actor/critic pair plus optimizer state for one streaming client."""

    actor: nn.ModelParams
    critic: nn.ModelParams
    actor_adam: nn.AdamState = field(default=None)  # type: ignore[assignment]
    critic_adam: nn.AdamState = field(default=None)  # type: ignore[assignment]
    sample_count: int = 0   # steps collected since the last aggregation

    def __post_init__(self) -> None:
        if self.actor_adam is None:
            self.actor_adam = nn.AdamState.zeros(self.actor.theta.size)
        if self.critic_adam is None:
            self.critic_adam = nn.AdamState.zeros(self.critic.theta.size)

    def update(self, batch: TrainBatch, hp: HyperParams, rng: RngStream) -> UpdateDiagnostics:
        (self.actor, self.critic, self.actor_adam, self.critic_adam,
         diag) = ppo_update(self.actor, self.critic, self.actor_adam,
                            self.critic_adam, batch, hp, rng)
        return diag


@dataclass
class EpisodeStats:
    """Step-level aggregates of one episode, shared by training and eval."""

    rewards: np.ndarray        # (T,) global reward per step
    agent_qoe: np.ndarray      # (T, N)
    received_mbps: np.ndarray  # (T, N)
    latency_ms: np.ndarray     # (T, N)
    lost_packets: np.ndarray   # (T, N)
    frame_rate: np.ndarray     # (T, N)

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean())


def score_episode(rows: np.ndarray, frame_rate: np.ndarray, step_users: np.ndarray,
                  coeffs: QoECoefficients, mode: str = "mean",
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-step experience scores and pooled rewards for a finished episode.

    ``rows`` is (T, N, 6) in ``Observation`` field order; each agent-step is
    validated as an ``Observation`` when it is scored. The fluctuation term
    needs each step's successor bitrate, so scoring happens after the
    rollout; the final step compares against itself.
    """
    t_len, n, _ = rows.shape
    steps = rows.tolist()
    rates = frame_rate.tolist()
    agent_qoe = np.zeros((t_len, n))
    rewards = np.zeros(t_len)
    for t in range(t_len):
        successor = steps[min(t + 1, t_len - 1)]
        for i in range(n):
            agent_qoe[t, i] = compute_qoe(Observation(*steps[t][i]), rates[t][i],
                                          successor[i][1], int(step_users[t]), coeffs)
        rewards[t] = global_reward(agent_qoe[t], mode=mode)
    return rewards, agent_qoe


def rollout(sim: BottleneckSim, hp: HyperParams, coeffs: QoECoefficients,
            choose: Callable[[int, np.ndarray], np.ndarray],
            ) -> tuple[np.ndarray, EpisodeStats]:
    """Roll and score one episode of ``hp.episode_len`` steps.

    Each step, ``choose(t, rows)`` maps the agents' (N, 6) observation rows
    to N target deltas; the targets are clamped to [y_min, y_max] and applied
    jointly to the link. Returns the (T+1, N, 6) rows, the warm-up
    observation first, and the episode's statistics.
    """
    cfg = sim.cfg
    t_len = hp.episode_len
    rows = np.zeros((t_len + 1, cfg.n_agents, 6))
    frame_rate = np.zeros((t_len, cfg.n_agents))
    step_users = np.zeros(t_len, dtype=np.int64)
    outcome = sim.reset()
    targets = np.full(cfg.n_agents, sim.episode_x_init)
    rows[0] = _observation_rows(targets, outcome)
    for t in range(t_len):
        targets = np.clip(targets + choose(t, rows[t]), cfg.y_min, cfg.y_max)
        state, outcome = sim.step(targets)
        rows[t + 1] = _observation_rows(targets, outcome)
        frame_rate[t] = outcome.frame_rate
        step_users[t] = state.user_count
    rewards, agent_qoe = score_episode(rows[1:], frame_rate, step_users, coeffs,
                                       cfg.reward_mode)
    stats = EpisodeStats(rewards=rewards, agent_qoe=agent_qoe,
                         received_mbps=rows[1:, :, 1].copy(),
                         latency_ms=rows[1:, :, 2].copy(),
                         lost_packets=rows[1:, :, 4].copy(), frame_rate=frame_rate)
    return rows, stats


def _observation_rows(targets: np.ndarray, outcome: LinkOutcome) -> np.ndarray:
    return np.column_stack((targets, outcome.received_mbps, outcome.latency_ms,
                            outcome.jitter_ms, outcome.lost_packets, outcome.nacks))


def run_episode(sim: BottleneckSim, agents: Sequence[PPOAgent], hp: HyperParams,
                coeffs: QoECoefficients, rng: RngStream, greedy: bool = False,
                ) -> tuple[list[Trajectory], EpisodeStats]:
    """Roll one episode: every agent picks a bitrate delta from its own
    observation, the link applies the joint targets, and all agents log the
    identical pooled reward.

    The fluctuation term of the final step's score reuses that step's own
    bitrate (no look-ahead exists past the episode).
    """
    cfg = sim.cfg
    n = cfg.n_agents
    if len(agents) != n:
        raise ValueError(f"need {n} agents, got {len(agents)}")
    t_len = hp.episode_len
    table = np.asarray(cfg.delta_table, dtype=np.float64)
    features = np.zeros((t_len, n, 6))
    actions = np.zeros((t_len, n), dtype=np.int64)
    log_probs = np.zeros((t_len, n))
    values = np.zeros((t_len, n))

    def choose(t: int, rows: np.ndarray) -> np.ndarray:
        features[t] = normalize_obs(rows, cfg.y_max)
        for i, agent in enumerate(agents):
            vec = features[t, i]
            if greedy:
                actions[t, i], log_probs[t, i] = greedy_action(agent.actor, vec)
            else:
                actions[t, i], log_probs[t, i], _ = select_action(agent.actor, vec, rng)
            values[t, i] = critic_value(agent.critic, vec, hp.value_scale)
        return table[actions[t]]

    rows, stats = rollout(sim, hp, coeffs, choose)
    last = normalize_obs(rows[-1], cfg.y_max)
    trajectories = [
        Trajectory(observations=features[:, i], actions=actions[:, i],
                   log_probs=log_probs[:, i], values=values[:, i],
                   rewards=stats.rewards.copy(),
                   bootstrap_value=critic_value(agent.critic, last[i], hp.value_scale))
        for i, agent in enumerate(agents)
    ]
    for agent in agents:
        agent.sample_count += t_len
    return trajectories, stats


__all__ = [
    "EpisodeStats", "NonFiniteLossError", "PPOAgent", "TrainBatch", "Trajectory",
    "UpdateDiagnostics", "build_batch", "clipped_objective", "compute_gae",
    "compute_returns", "critic_value", "greedy_action", "normalize_obs",
    "policy_loss_and_grad", "ppo_update", "rollout", "run_episode", "score_episode",
    "select_action", "value_loss_and_grad", "whiten",
]
