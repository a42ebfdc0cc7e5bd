"""Discrete-time bottleneck-link simulator.

N senders share one link at a 1-second step granularity. Each step the link's
conditions are drawn from a scenario profile, the joint target bitrates are
reduced to received bitrates by max-min fair sharing, and per-sender loss,
latency, and delivered frame rate are derived from the load.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .core import RngStream, ScenarioSpec, SimConfig


@dataclass(frozen=True)
class LinkState:
    """Link conditions drawn for one step."""

    t: int
    capacity_mbps: float
    base_latency_ms: float
    base_jitter_ms: float
    loss_rate: float
    burst_active: bool
    burst_level: float   # loss added while a burst is active
    user_count: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate <= 1.0):
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if self.capacity_mbps <= 0:
            raise ValueError("capacity must be positive")


@dataclass(frozen=True)
class LinkOutcome:
    """Per-agent delivery results for one step (parallel arrays)."""

    received_mbps: np.ndarray
    latency_ms: np.ndarray
    jitter_ms: np.ndarray
    lost_packets: np.ndarray
    nacks: np.ndarray
    frame_rate: np.ndarray


def sample_link_state(spec: ScenarioSpec, t: int, episode_len: int,
                      rng: RngStream, users: int = 1) -> LinkState:
    """Draw the link conditions for step t.

    Fixed channels sample uniformly from their range; ramp channels first
    interpolate the range endpoints linearly from the start range at t=0 to
    the end range at t=episode_len-1. The five channels and the burst coin
    come from one block of six uniforms.
    """
    if not (0 <= t < episode_len):
        raise ValueError(f"step {t} outside [0, {episode_len})")
    spans = [channel.at(t, episode_len) for channel in
             (spec.bandwidth, spec.latency, spec.jitter, spec.loss_rate, spec.burst_loss)]
    lo = np.array([span.lo for span in spans] + [0.0])
    hi = np.array([span.hi for span in spans] + [1.0])
    capacity, latency, jitter, loss, burst_level, coin = rng.uniform(lo, hi, size=6).tolist()
    return LinkState(t=t, capacity_mbps=capacity, base_latency_ms=latency,
                     base_jitter_ms=jitter, loss_rate=loss,
                     burst_active=coin < burst_level, burst_level=burst_level,
                     user_count=users)


def allocate_max_min(targets: Sequence[float], capacity: float) -> np.ndarray:
    """Max-min fair share of ``capacity`` among the requested ``targets``.

    Progressive filling: repeatedly satisfy the smallest unmet demand with an
    equal split of what remains. The result is order-independent and gives
    y_i = min(x_i, water level) with sum(y) = min(sum(x), capacity).
    """
    demands = np.asarray(targets, dtype=np.float64)
    if demands.size == 0:
        return demands.copy()
    if np.any(demands < 0) or capacity < 0:
        raise ValueError("targets and capacity must be >= 0")
    if demands.sum() <= capacity:
        return demands.copy()
    alloc = np.zeros_like(demands)
    remaining = float(capacity)
    order = np.argsort(demands, kind="stable")
    left = demands.size
    for idx in order:
        share = remaining / left
        give = min(float(demands[idx]), share)
        alloc[idx] = give
        remaining -= give
        left -= 1
    return alloc


def advance(state: LinkState, targets: Sequence[float], cfg: SimConfig,
            rng: RngStream) -> LinkOutcome:
    """Apply one step's joint targets to the link.

    Latency rises with utilization as base * (1 + coef * U^2) with
    U = min(1, sum(x)/capacity). Losses are binomial per sender over the
    packets actually delivered-rate worth of traffic, with the loss
    probability raised by an active burst and by overload beyond capacity.
    """
    x = np.asarray(targets, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("targets must be a non-empty 1-D sequence")

    y = allocate_max_min(x, state.capacity_mbps)
    total_demand = float(x.sum())
    utilization = min(1.0, total_demand / state.capacity_mbps)
    latency = state.base_latency_ms * (1.0 + cfg.queue_delay_coef * utilization ** 2)
    overload = max(0.0, total_demand / state.capacity_mbps - 1.0)
    eff_loss = state.loss_rate + cfg.congestion_loss_coef * overload
    if state.burst_active:
        eff_loss += state.burst_level
    eff_loss = min(1.0, eff_loss)

    n = x.size
    latency_arr = np.full(n, latency)
    jitter_arr = np.full(n, state.base_jitter_ms)
    lost = np.zeros(n)
    frame_rate = np.zeros(n)
    bits_per_packet = 8.0 * cfg.packet_size_bytes
    for i in range(n):
        sent = math.ceil(y[i] * 1e6 / bits_per_packet)
        lost[i] = rng.binomial(sent, eff_loss)
        frame_rate[i] = cfg.f_target * min(1.0, y[i] / max(x[i], 1e-12))

    return LinkOutcome(received_mbps=y, latency_ms=latency_arr,
                       jitter_ms=jitter_arr, lost_packets=lost,
                       nacks=lost.copy(), frame_rate=frame_rate)


class BottleneckSim:
    """Steps one scenario episode: draws link states, applies joint targets.

    Single-owner object; run independent instances (distinct RngStreams) for
    parallel episodes.
    """

    def __init__(self, spec: ScenarioSpec, cfg: SimConfig, episode_len: int,
                 rng: RngStream, trace: "TraceWriter | None" = None):
        self.spec = spec
        self.cfg = cfg
        self.episode_len = episode_len
        self.rng = rng
        self.trace = trace
        self.t = 0
        self.last_state: LinkState | None = None
        self.episode_x_init = cfg.x_init

    def reset(self) -> LinkOutcome:
        """Start an episode: a warmup step at t=0 with the initial targets
        produces the first outcome.

        With x_init_spread > 0 each episode draws its starting bitrate
        log-uniformly around x_init (exploring starts); all senders share it.
        """
        self.t = 0
        x0 = self.cfg.x_init
        if self.cfg.x_init_spread > 0:
            x0 *= math.exp(self.rng.uniform(-self.cfg.x_init_spread,
                                            self.cfg.x_init_spread))
            x0 = min(self.cfg.y_max, max(self.cfg.y_min, x0))
        self.episode_x_init = x0
        state = sample_link_state(self.spec, 0, self.episode_len, self.rng,
                                  users=self.cfg.users_at(0))
        targets = [x0] * self.cfg.n_agents
        outcome = advance(state, targets, self.cfg, self.rng)
        self.last_state = state
        return outcome

    def step(self, targets: Sequence[float]) -> tuple[LinkState, LinkOutcome]:
        if len(targets) != self.cfg.n_agents:
            raise ValueError(f"expected {self.cfg.n_agents} targets, got {len(targets)}")
        if self.t >= self.episode_len:
            raise RuntimeError("episode exhausted; call reset()")
        state = sample_link_state(self.spec, self.t, self.episode_len, self.rng,
                                  users=self.cfg.users_at(self.t))
        outcome = advance(state, targets, self.cfg, self.rng)
        if self.trace is not None:
            self.trace.record(state, targets, outcome)
        self.last_state = state
        self.t += 1
        return state, outcome


class TraceWriter:
    """Optional per-step CSV trace: one row per (step, agent)."""

    HEADER = ["t", "agent", "x", "y", "l", "j", "p", "n", "f", "capacity", "u"]

    def __init__(self, fh: IO[str]):
        self._writer = csv.writer(fh, lineterminator="\n")
        self._writer.writerow(self.HEADER)

    def record(self, state: LinkState, targets: Sequence[float], outcome: LinkOutcome) -> None:
        for i in range(len(targets)):
            self._writer.writerow([
                state.t, i,
                f"{targets[i]:.6g}", f"{outcome.received_mbps[i]:.6g}",
                f"{outcome.latency_ms[i]:.6g}", f"{outcome.jitter_ms[i]:.6g}",
                int(outcome.lost_packets[i]), int(outcome.nacks[i]),
                f"{outcome.frame_rate[i]:.6g}", f"{state.capacity_mbps:.6g}",
                state.user_count,
            ])


__all__ = ["BottleneckSim", "LinkOutcome", "LinkState", "TraceWriter",
           "advance", "allocate_max_min", "sample_link_state"]
