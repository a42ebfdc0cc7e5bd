"""Per-agent PPO: rollout collection, advantage estimation, and the
clipped-ratio policy / mean-squared-error value updates.

All agents share the environment's global reward but train entirely on
their own observations and parameters.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import nn
from .core import OBS_DIM, OBS_TARGET, HyperParams, QoECoefficients, RngStream
from .netsim import BottleneckSim
from .qoe import compute_qoe

# Fixed feature scaling of the 6 observation fields: bitrates by y_max,
# latency by 200 ms, jitter by 50 ms, packet counts by 100.
LATENCY_SCALE_MS = 200.0
JITTER_SCALE_MS = 50.0
PACKET_SCALE = 100.0
OBS_CLIP = 5.0


class NonFiniteLossError(RuntimeError):
    """Raised when a training loss stops being finite; the update is aborted."""


def normalize_obs(rows: np.ndarray, y_max: float) -> np.ndarray:
    """Affine-scale (..., 6) observation rows (columns ``core.OBS_*``) into
    bounded features."""
    scale = np.array([y_max, y_max, LATENCY_SCALE_MS, JITTER_SCALE_MS, PACKET_SCALE, PACKET_SCALE])
    return (np.asarray(rows, dtype=np.float64) / scale).clip(0.0, OBS_CLIP)


@dataclass(frozen=True)
class Episode:
    """One finished episode of N users on one link: the only record rollouts
    produce, read by training, evaluation, the update batches and the per-step
    trace alike (``netsim.TraceWriter.write`` takes its rows and ``capacity``)."""

    rows: np.ndarray         # (T+1, N, 6) columns core.OBS_*; row 0 is the warm-up
    actions: np.ndarray      # (T, N) int64 indices into the delta table
    frame_rate: np.ndarray   # (T, N) delivered frame rates
    agent_qoe: np.ndarray    # (T, N) per-agent-step scores
    rewards: np.ndarray      # (T,) pooled rewards, the mean of each step's N scores
    capacity: np.ndarray     # (T,) link capacity in Mbps the simulator drew each step


def pick_actions(logits: np.ndarray, rng: RngStream | None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One action per row of (N, K) logits and its log-prob under the
    categorical head: each row's argmax when ``rng`` is None, else a draw by
    inverse CDF from one block of N uniforms, row i taking the i-th."""
    probs, logp = nn.categorical_head(logits)
    if rng is None:
        idx = np.asarray(logits).argmax(axis=1)
    else:
        u = rng.uniform(size=probs.shape[0])
        # the count of cumulative probabilities <= u is searchsorted(side="right");
        # rounding can leave the last one below 1, hence the clip
        below = np.add.accumulate(probs, axis=1) <= u[:, None]
        idx = np.minimum(np.add.reduce(below, axis=1), probs.shape[1] - 1)
    return idx, logp[np.arange(idx.size), idx]


def _backward_recursion(x: np.ndarray, c: float, start: float) -> np.ndarray:
    """out_t = x_t + c*out_{t+1} for t = T-1 down to 0, from out_T = start."""
    out = np.zeros(x.size)
    running = start
    for t in range(x.size - 1, -1, -1):
        running = x[t] + c * running
        out[t] = running
    return out


def compute_gae(rewards: np.ndarray, values: np.ndarray, bootstrap: float,
                gamma: float, lam: float) -> np.ndarray:
    """Advantages by the backward recursion adv_t = delta_t + gamma*lam*adv_{t+1},
    with delta_t = r_t + gamma*V(s_{t+1}) - V(s_t) bootstrapped at the end."""
    values_ext = np.append(values, bootstrap)
    deltas = rewards + gamma * values_ext[1:] - values_ext[:-1]
    return _backward_recursion(deltas, gamma * lam, 0.0)


def compute_returns(rewards: np.ndarray, bootstrap: float, gamma: float) -> np.ndarray:
    """Discounted reward-to-go with a gamma^(T-t)-weighted terminal bootstrap."""
    return _backward_recursion(rewards, gamma, float(bootstrap))


def clipped_objective(new_log_prob: np.ndarray, old_log_prob: np.ndarray,
                      advantage: np.ndarray, clip_eps: float,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample clipped surrogate, the min of the ratio-weighted advantage
    and its clipped-band bound; the mask of samples on the unclipped branch
    (the only ones with a policy gradient); and the probability ratio."""
    if not (0.0 < clip_eps < 1.0):
        raise ValueError("clip_eps must be in (0, 1)")
    ratio = np.exp(new_log_prob - old_log_prob)
    ratio_adv = ratio * advantage
    bound = np.where(advantage >= 0, (1.0 + clip_eps) * advantage,
                     (1.0 - clip_eps) * advantage)
    return np.minimum(ratio_adv, bound), ratio_adv <= bound, ratio


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


def build_batch(episode: Episode, log_probs: np.ndarray, i: int, critic: nn.ModelParams,
                y_max: float, hp: HyperParams) -> TrainBatch:
    """Agent i's update batch from a policy episode and the (T, N) log-probs
    of its actions, with whitened advantages from agent i's critic.

    Agent i's T+1 rows are normalized here; ``normalize_obs`` is elementwise,
    so these are the features its actor saw. The critic values them in one
    batch forward, and its scaled output is returned to reward units.
    Advantages and returns are per-agent 1-D recursions for speed: a (T, N)
    recursion over all agents gives the same bits but is slower at these
    agent counts.
    """
    obs = normalize_obs(episode.rows[:, i], y_max)
    rewards = episode.rewards
    values = nn.forward(critic, obs)[0][:, 0] * hp.value_scale
    adv = compute_gae(rewards, values[:-1], values[-1], hp.gamma_discount, hp.gae_lambda)
    return TrainBatch(
        observations=obs[:-1],
        actions=episode.actions[:, i],
        old_log_probs=log_probs[:, i],
        advantages=whiten(adv),
        returns=compute_returns(rewards, values[-1], hp.gamma_discount),
    )


def policy_loss_and_grad(actor: nn.ModelParams, obs: np.ndarray, actions: np.ndarray,
                         old_log_probs: np.ndarray, advantages: np.ndarray,
                         clip_eps: float, entropy_coef: float,
                         out: nn.ModelParams | None = None,
                         ) -> tuple[float, np.ndarray, dict]:
    """Mean clipped-surrogate loss (negated, plus entropy bonus) and its exact
    gradient, written into the gradient buffer ``out`` when given (as
    ``nn.backward`` does). Samples on the clipped branch contribute no
    policy gradient."""
    n = obs.shape[0]
    logits, cache = nn.forward(actor, obs)
    probs, logp = nn.categorical_head(logits)
    entropy = -np.add.reduce(probs * logp, axis=1)
    rows = np.arange(n)
    lp_taken = logp[rows, actions]
    objective, unclipped, ratio = clipped_objective(lp_taken, old_log_probs, advantages,
                                                    clip_eps)
    # x.sum() / n is ndarray.mean's arithmetic without its Python wrapper
    mean_entropy = float(entropy.sum() / n)
    loss = -float(objective.sum() / n) - entropy_coef * mean_entropy

    # d(-mean objective)/d logp_taken, zero where the clip bound is active
    dlp = -(ratio * advantages * unclipped) / n
    dlogits = dlp[:, None] * (-probs)
    dlogits[rows, actions] += dlp
    # entropy bonus: dH/dz_k = -p_k (log p_k + H)
    dlogits += (entropy_coef / n) * probs * (logp + entropy[:, None])

    grad = nn.backward(actor, cache, dlogits, out)
    stats = {
        "mean_ratio": float(ratio.sum() / n),
        "clip_fraction": 1.0 - np.count_nonzero(unclipped) / n,
        "entropy": mean_entropy,
    }
    return loss, grad, stats


def value_loss_and_grad(critic: nn.ModelParams, obs: np.ndarray,
                        returns: np.ndarray, value_scale: float,
                        out: nn.ModelParams | None = None,
                        ) -> tuple[float, np.ndarray]:
    """Mean squared error of the value head against the return targets, and
    its gradient, written into the gradient buffer ``out`` when given (as
    ``nn.backward`` does).

    The head predicts returns / value_scale; minimizing in the scaled space
    has the same argmin but keeps gradient norms commensurate with the
    clipping threshold when returns span hundreds of reward units.
    """
    values, cache = nn.forward(critic, obs)
    err = values[:, 0] - returns / value_scale
    loss = float((err ** 2).sum() / err.size)
    grad = nn.backward(critic, cache, (2.0 * err / err.size)[:, None], out)
    return loss, grad


@dataclass
class UpdateDiagnostics:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    mean_ratio: float


def ppo_update(agent: PPOAgent, adam: tuple[nn.AdamState, nn.AdamState],
               batch: TrainBatch, hp: HyperParams, rng: RngStream) -> UpdateDiagnostics:
    """Several epochs of shuffled minibatch ascent on the clipped surrogate
    (plus entropy bonus) and descent on the value MSE, written in place into
    the agent's parameters and into ``adam``, the (actor, critic) pair of
    Adam states that the trainer keeps for this agent; the agent's
    ``sample_count`` grows by the batch's length.

    Each minibatch's gradients go into one actor and one critic buffer held
    for this call only.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    actor_adam, critic_adam = adam
    actor_grad = agent.actor.with_theta(np.zeros(agent.actor.theta.size))
    critic_grad = agent.critic.with_theta(np.zeros(agent.critic.theta.size))
    per_batch = []   # one UpdateDiagnostics-ordered tuple per minibatch
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.minibatch):
            sel = order[start:start + hp.minibatch]
            ploss, pgrad, stats = policy_loss_and_grad(
                agent.actor, batch.observations[sel], batch.actions[sel],
                batch.old_log_probs[sel], batch.advantages[sel],
                hp.clip_eps, hp.entropy_coef, actor_grad)
            vloss, vgrad = value_loss_and_grad(
                agent.critic, batch.observations[sel], batch.returns[sel],
                hp.value_scale, critic_grad)
            if not (np.isfinite(ploss) and np.isfinite(vloss)):
                raise NonFiniteLossError(
                    f"non-finite loss (policy={ploss}, value={vloss})")
            nn.adam_step(agent.actor, actor_adam, pgrad, hp.lr, hp.grad_clip)
            nn.adam_step(agent.critic, critic_adam, vgrad, hp.lr, hp.grad_clip)
            per_batch.append((ploss, vloss, stats["entropy"], stats["clip_fraction"],
                              stats["mean_ratio"]))
    agent.sample_count += n
    # left to right from 0.0: np.mean adds 8 or more values in partial sums,
    # and the builtin sum is compensated from Python 3.12 on
    return UpdateDiagnostics(*(functools.reduce(operator.add, col, 0.0) / len(per_batch)
                               for col in zip(*per_batch)))


@dataclass
class PPOAgent:
    """Actor/critic pair of one streaming client; ``ppo_update`` trains it
    in place. The agent holds no optimizer state: an agent that only acts
    needs none, and the trainer keeps each agent's Adam states."""

    actor: nn.ModelParams
    critic: nn.ModelParams
    sample_count: int = field(init=False)   # read only by benchmarks/tracer.py (item 24)

    def __post_init__(self) -> None:
        self.sample_count = 0


def score_episode(rows: np.ndarray, frame_rate: np.ndarray,
                  coeffs: QoECoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Per-step experience scores and pooled rewards for a finished episode.

    ``rows`` is (T, N, 6) with columns ``core.OBS_*``, scored as one block
    by ``compute_qoe``; every step counts all N agents as users, and its
    reward is the mean of its N scores. The fluctuation term needs each
    step's successor, so scoring happens after the rollout.
    """
    rows = np.asarray(rows, dtype=np.float64)
    _, n, _ = rows.shape
    if n == 0:
        raise ValueError("an episode needs at least one agent")
    agent_qoe = compute_qoe(rows, frame_rate, n, coeffs)
    return agent_qoe.sum(axis=1) / n, agent_qoe


def rollout(sim: BottleneckSim, hp: HyperParams, coeffs: QoECoefficients,
            choose: Callable[[int, np.ndarray], np.ndarray]) -> Episode:
    """Roll and score one episode of ``hp.episode_len`` steps, after a warm-up
    ``sim.step(0, ...)`` with every target at ``x_init``.

    Each step t, ``choose(t, rows)`` maps the (N, 6) observation rows to (N,)
    int indices into ``cfg.delta_table``, which ``Episode.actions`` keeps;
    a non-integer result raises ``TypeError``, and an index outside the
    table ``ValueError``. Each agent's delta moves its ``OBS_TARGET``
    column; the new targets, clamped to [y_min, y_max], are applied jointly
    to the link, whose drawn capacity ``Episode.capacity`` keeps.
    """
    cfg = sim.cfg
    t_len = hp.episode_len
    table = np.asarray(cfg.delta_table, dtype=np.float64)
    rows = np.zeros((t_len + 1, cfg.n_agents, OBS_DIM))
    actions = np.zeros((t_len, cfg.n_agents), dtype=np.int64)
    frame_rate = np.zeros((t_len, cfg.n_agents))
    capacity = np.zeros(t_len)
    rows[0], _, _ = sim.step(0, [cfg.x_init] * cfg.n_agents)
    for t in range(t_len):
        index, chosen = actions[t], np.asarray(choose(t, rows[t]))
        if chosen.dtype.kind not in "iu":   # bool casts same_kind too
            raise TypeError(f"step {t}: action indices must be integers, got {chosen.dtype}")
        np.copyto(index, chosen, casting="same_kind")
        if index.min() < 0 or index.max() >= table.size:
            raise ValueError(f"step {t}: action indices {index.tolist()} are not all "
                             f"in [0, {table.size})")
        targets = (rows[t, :, OBS_TARGET] + table[index]).clip(cfg.y_min, cfg.y_max)
        rows[t + 1], frame_rate[t], link = sim.step(t, targets)
        capacity[t] = link.capacity_mbps
    rewards, agent_qoe = score_episode(rows[1:], frame_rate, coeffs)
    return Episode(rows=rows, actions=actions, frame_rate=frame_rate, agent_qoe=agent_qoe,
                   rewards=rewards, capacity=capacity)


def run_episode(sim: BottleneckSim, agents: Sequence[PPOAgent], hp: HyperParams,
                coeffs: QoECoefficients, rng: RngStream, greedy: bool = False,
                ) -> tuple[Episode, np.ndarray]:
    """Roll one episode: every agent picks a bitrate delta from its own
    observation, the link applies the joint targets, and all agents log the
    identical pooled reward. Returns the episode and the (T, N) log-probs of
    its actions.

    Only the actors run, and the agents are left as they were;
    ``build_batch`` values the states at update time.
    """
    cfg = sim.cfg
    n = cfg.n_agents
    if len(agents) != n:
        raise ValueError(f"need {n} agents, got {len(agents)}")
    n_actions = len(cfg.delta_table)
    actors = [agent.actor for agent in agents]
    for actor in actors:
        if (actor.in_dim, actor.out_dim) != (OBS_DIM, n_actions):
            raise ValueError(f"actor maps {actor.in_dim} inputs to {actor.out_dim} actions; the "
                             f"config needs {OBS_DIM} inputs to {n_actions} actions")
    log_probs = np.zeros((hp.episode_len, n))
    logits = np.empty((n, n_actions))

    def choose(t: int, rows: np.ndarray) -> np.ndarray:
        # one 1-D forward per agent: a stacked forward over all actors is
        # bit-equal on one host and took 184 µs against 469 µs for 24 agents,
        # but the benchmark asserts that rollouts make nn.forward.b1 calls
        for i, (actor, vec) in enumerate(zip(actors, normalize_obs(rows, cfg.y_max))):
            logits[i] = nn.forward(actor, vec)[0]
        index, log_probs[t] = pick_actions(logits, None if greedy else rng)
        return index

    return rollout(sim, hp, coeffs, choose), log_probs


__all__ = [
    "Episode", "NonFiniteLossError", "PPOAgent", "TrainBatch", "UpdateDiagnostics",
    "build_batch", "clipped_objective", "compute_gae", "compute_returns",
    "normalize_obs", "pick_actions",
    "policy_loss_and_grad", "ppo_update", "rollout", "run_episode", "score_episode",
    "value_loss_and_grad", "whiten",
]
