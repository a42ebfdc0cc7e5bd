"""Federated coordination: bounded, noise-perturbed uploads of local model
updates, server-side averaging, and byte accounting per round.

An upload is one device's ``(actor_theta, critic_theta)`` vector pair. With
LDP on, each part is the device's parameters with their drift from the last
broadcast global model clipped per coordinate, so the Laplace perturbation
added to it has a well-defined sensitivity. ``fedavg`` averages the uploads
part by part, and ``fed_round`` wraps the averaged parts in the next
``GlobalModel``. Uploads weigh equally: every device trains on
``episode_len`` samples per episode, so FedAvg's sample-count weights are
equal, and equal weights normalize to the same bits whatever their value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import nn
from .core import HyperParams, RngStream


@dataclass(frozen=True)
class GlobalModel:
    actor: nn.ModelParams
    critic: nn.ModelParams


def init_global(obs_dim: int, hidden: int, action_count: int,
                rng: RngStream) -> GlobalModel:
    """Fresh actor (tanh, categorical) and critic (relu, scalar)."""
    actor = nn.init_mlp(obs_dim, hidden, action_count, "tanh", rng)
    critic = nn.init_mlp(obs_dim, hidden, 1, "relu", rng)
    return GlobalModel(actor=actor, critic=critic)


def clip_update(params_new: np.ndarray, params_old: np.ndarray,
                clip_bound: float) -> np.ndarray:
    """Bound the update per coordinate: old + clip(new - old, +/-clip_bound)."""
    if params_new.shape != params_old.shape:
        raise ValueError("parameter vectors must have equal length")
    if clip_bound <= 0:
        raise ValueError("clip bound must be > 0")
    delta = params_new - params_old
    np.clip(delta, -clip_bound, clip_bound, out=delta)
    delta += params_old
    return delta


def ldp_perturb(theta: np.ndarray, sensitivity: float, privacy_eps: float,
                rng: RngStream) -> np.ndarray:
    """Add per-coordinate Laplace(sensitivity/privacy_eps) noise.

    ``RngStream.laplace`` owns the scale rules: zero sensitivity adds zeros
    and draws nothing, so the result equals ``theta`` under ``==`` (a -0.0
    entry comes back as +0.0), and a negative one raises.
    """
    if privacy_eps <= 0:
        raise ValueError("privacy budget must be > 0")
    noise = rng.laplace(sensitivity / privacy_eps, size=theta.size)
    noise += theta
    return noise


def fedavg(uploads: Iterable[Sequence[np.ndarray]],
           weights: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Weight-normalized coordinate-wise average of the uploads, part by part.

    The uploads are consumed one at a time, in order, each folded into
    running sums of its weighted drift from the first upload, so a generator
    of uploads is held one upload at a time (besides the first).
    """
    w = np.asarray(weights, dtype=np.float64)
    it = iter(uploads)
    first = next(it, None)
    if first is None:
        raise ValueError("no updates to aggregate")
    if np.any(w < 0):
        raise ValueError("weights must be >= 0")
    if w.sum() <= 0:
        raise ValueError("weights must not all be zero")
    norm = w / w.sum()
    # Baseline-shifted accumulation: identical inputs return bit-identical
    # output regardless of the weights.
    acc = [np.zeros_like(base) for base in first]
    for i, up in enumerate(itertools.chain((first,), it)):
        if i == norm.size:
            raise ValueError("one weight per update required")
        if len(up) != len(first) or any(p.shape != q.shape for p, q in zip(up, first)):
            raise ValueError("update shapes do not match")
        for a, part, base in zip(acc, up, first):
            a += norm[i] * (part - base)
    if i + 1 != norm.size:
        raise ValueError("one weight per update required")
    return tuple(base + a for base, a in zip(first, acc))


def make_local_update(actor: nn.ModelParams, critic: nn.ModelParams,
                      reference: GlobalModel, hp: HyperParams,
                      rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The agent's upload: each part's drift from the reference model clipped
    and perturbed, actor first; with LDP disabled the raw parameters ship
    unchanged and uncopied. Such an upload is the agent's live parameter
    vector, which its next update rewrites in place, so it must be consumed
    before that (``fed_round`` averages it at once)."""
    if not hp.ldp_enabled:
        return actor.theta, critic.theta
    return tuple(ldp_perturb(clip_update(new.theta, old.theta, hp.ldp_clip),
                             hp.ldp_clip, hp.ldp_eps, rng)
                 for new, old in ((actor, reference.actor), (critic, reference.critic)))


def broadcast(model: GlobalModel, agents: Sequence) -> None:
    """Give every agent its own copy of the global parameters.

    Updates write into an agent's parameters in place, so a shared array
    would let one agent's update move the others and the global model, which
    the next round's uploads are clipped against. Each agent gets fresh
    arrays rather than a write into its old ones, which callers holding the
    pre-round parameters may still read.
    """
    for agent in agents:
        agent.actor = model.actor.with_theta(model.actor.theta.copy())
        agent.critic = model.critic.with_theta(model.critic.theta.copy())


@dataclass(frozen=True)
class FedRoundResult:
    model: GlobalModel
    bytes_up: int
    bytes_down: int


def fed_round(agents: Sequence, model: GlobalModel, hp: HyperParams,
              rng: RngStream) -> FedRoundResult:
    """One synchronous aggregation: upload perturbed updates, average them
    with equal weights, as FedAvg's sample counts are (every device trains
    on ``episode_len`` samples per episode), and broadcast.

    The broadcast is the only change a round makes to the agents. They hold
    no optimizer state; a trainer's Adam states persist across it.
    """
    # a generator: the server holds one upload at a time
    uploads = (make_local_update(agent.actor, agent.critic, model, hp, rng)
               for agent in agents)
    actor_theta, critic_theta = fedavg(uploads, np.ones(len(agents)))
    new_model = GlobalModel(actor=model.actor.with_theta(actor_theta),
                            critic=model.critic.with_theta(critic_theta))
    broadcast(new_model, agents)
    # every device sends and receives one actor and one critic of these shapes
    total = update_upload_bytes(model.actor, model.critic) * len(agents)
    return FedRoundResult(model=new_model, bytes_up=total, bytes_down=total)


def update_upload_bytes(actor: nn.ModelParams, critic: nn.ModelParams) -> int:
    """Serialized size of one device's per-round upload."""
    return nn.serialized_size(actor) + nn.serialized_size(critic)


__all__ = [
    "FedRoundResult", "GlobalModel", "broadcast", "clip_update", "fed_round",
    "fedavg", "init_global", "ldp_perturb", "make_local_update",
    "update_upload_bytes",
]
