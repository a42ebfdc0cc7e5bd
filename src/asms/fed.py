"""Federated coordination: bounded, noise-perturbed uploads of local model
updates, weighted server-side averaging, and byte accounting per round.

Updates are whole-parameter deltas against the last broadcast global model,
clipped per coordinate so the Laplace perturbation has a well-defined
sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .core import HyperParams, RngStream


@dataclass(frozen=True)
class GlobalModel:
    round_index: int
    actor: nn.ModelParams
    critic: nn.ModelParams


@dataclass(frozen=True)
class LocalUpdate:
    """One agent's (possibly perturbed) upload."""

    actor: nn.ModelParams
    critic: nn.ModelParams
    sample_count: int
    bytes_up: int

    def __post_init__(self) -> None:
        if self.sample_count < 0:
            raise ValueError("sample_count must be >= 0")


def init_global(obs_dim: int, hidden: int, action_count: int,
                rng: RngStream) -> GlobalModel:
    """Fresh actor (tanh, categorical) and critic (relu, scalar) at round 0."""
    actor = nn.init_mlp(obs_dim, hidden, action_count, "tanh", rng, head="categorical")
    critic = nn.init_mlp(obs_dim, hidden, 1, "relu", rng, head="scalar")
    return GlobalModel(round_index=0, actor=actor, critic=critic)


def clip_update(params_new: np.ndarray, params_old: np.ndarray,
                clip_bound: float) -> np.ndarray:
    """Bound the update per coordinate: old + clip(new - old, +/-clip_bound)."""
    if params_new.shape != params_old.shape:
        raise ValueError("parameter vectors must have equal length")
    if clip_bound <= 0:
        raise ValueError("clip bound must be > 0")
    delta = np.clip(params_new - params_old, -clip_bound, clip_bound)
    return params_old + delta


def ldp_perturb(theta: np.ndarray, sensitivity: float, privacy_eps: float,
                rng: RngStream) -> np.ndarray:
    """Add per-coordinate Laplace(sensitivity/privacy_eps) noise.

    Zero sensitivity is an exact no-op (consumes no randomness).
    """
    if privacy_eps <= 0:
        raise ValueError("privacy budget must be > 0")
    if sensitivity < 0:
        raise ValueError("sensitivity must be >= 0")
    if sensitivity == 0.0:
        return theta.copy()
    return theta + rng.laplace(sensitivity / privacy_eps, size=theta.size)


def _weighted_mean(vectors: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    # Baseline-shifted accumulation: identical inputs return bit-identical
    # output regardless of the weights.
    norm = weights / weights.sum()
    base = vectors[0]
    acc = np.zeros_like(base)
    for w, vec in zip(norm, vectors):
        acc += w * (vec - base)
    return base + acc


def fedavg(updates: Sequence[LocalUpdate], weights: Sequence[float],
           round_index: int = 0) -> GlobalModel:
    """Weight-normalized coordinate-wise average of the uploaded models."""
    if len(updates) == 0:
        raise ValueError("no updates to aggregate")
    if len(weights) != len(updates):
        raise ValueError("one weight per update required")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be >= 0")
    if w.sum() <= 0:
        raise ValueError("weights must not all be zero")
    ref = updates[0]
    for u in updates[1:]:
        if u.actor.shapes != ref.actor.shapes or u.critic.shapes != ref.critic.shapes:
            raise ValueError("update shapes do not match")
    actor_theta = _weighted_mean([u.actor.theta for u in updates], w)
    critic_theta = _weighted_mean([u.critic.theta for u in updates], w)
    return GlobalModel(round_index=round_index + 1,
                       actor=ref.actor.with_theta(actor_theta),
                       critic=ref.critic.with_theta(critic_theta))


def make_local_update(actor: nn.ModelParams, critic: nn.ModelParams,
                      reference: GlobalModel, hp: HyperParams, rng: RngStream,
                      sample_count: int) -> LocalUpdate:
    """Clip the agent's drift from the reference model and perturb it for
    upload; with LDP disabled the raw parameters ship unchanged."""
    if hp.ldp_enabled:
        actor_theta = clip_update(actor.theta, reference.actor.theta, hp.ldp_clip)
        critic_theta = clip_update(critic.theta, reference.critic.theta, hp.ldp_clip)
        actor_theta = ldp_perturb(actor_theta, hp.ldp_clip, hp.ldp_eps, rng)
        critic_theta = ldp_perturb(critic_theta, hp.ldp_clip, hp.ldp_eps, rng)
        up_actor = actor.with_theta(actor_theta)
        up_critic = critic.with_theta(critic_theta)
    else:
        up_actor = actor.with_theta(actor.theta.copy())
        up_critic = critic.with_theta(critic.theta.copy())
    return LocalUpdate(actor=up_actor, critic=up_critic, sample_count=sample_count,
                       bytes_up=update_upload_bytes(up_actor, up_critic))


def broadcast(model: GlobalModel, agents: Sequence) -> int:
    """Copy the global parameters into every agent; returns bytes sent down."""
    for agent in agents:
        agent.actor = model.actor.with_theta(model.actor.theta.copy())
        agent.critic = model.critic.with_theta(model.critic.theta.copy())
    return update_upload_bytes(model.actor, model.critic) * len(agents)


@dataclass(frozen=True)
class FedRoundResult:
    model: GlobalModel
    bytes_up: int
    bytes_down: int


def fed_round(agents: Sequence, model: GlobalModel, hp: HyperParams,
              rng: RngStream) -> FedRoundResult:
    """One synchronous aggregation: upload perturbed updates, average them
    weighted by per-agent sample counts (uniform when equal), broadcast.

    Agents' sample counters reset; Adam state persists across the broadcast.
    """
    updates = [make_local_update(agent.actor, agent.critic, model, hp, rng,
                                 agent.sample_count) for agent in agents]
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    weights = counts if counts.sum() > 0 else np.ones(len(updates))
    new_model = fedavg(updates, weights, round_index=model.round_index)
    bytes_down = broadcast(new_model, agents)
    for agent in agents:
        agent.sample_count = 0
    return FedRoundResult(model=new_model,
                          bytes_up=sum(u.bytes_up for u in updates),
                          bytes_down=bytes_down)


def update_upload_bytes(actor: nn.ModelParams, critic: nn.ModelParams) -> int:
    """Serialized size of one device's per-round upload."""
    return nn.serialized_size(actor) + nn.serialized_size(critic)


__all__ = [
    "FedRoundResult", "GlobalModel", "LocalUpdate", "broadcast", "clip_update",
    "fed_round", "fedavg", "init_global", "ldp_perturb", "make_local_update",
    "update_upload_bytes",
]
