"""Discrete-time bottleneck-link simulator.

N senders share one link at a 1-second step granularity. Each step the link's
conditions are drawn from a scenario profile, the joint target bitrates are
reduced to received bitrates by max-min fair sharing, and per-sender loss,
latency, and delivered frame rate are derived from the load. A step yields
(N, 6) observation rows (columns ``core.OBS_*``), (N,) frame rates and the
drawn link; ``BottleneckSim.step(t, targets)`` works it out from t, the
targets and the simulator's stream alone, so the caller keeps the clock.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .core import (OBS_DIM, OBS_JITTER, OBS_LATENCY, OBS_LOST, OBS_NACKS, OBS_RECEIVED,
                   OBS_TARGET, RngStream, ScenarioSpec, SimConfig)


@dataclass(frozen=True)
class LinkState:
    """Link conditions drawn for one step."""

    capacity_mbps: float
    base_latency_ms: float
    base_jitter_ms: float
    loss_rate: float
    burst_active: bool
    burst_level: float   # loss added while a burst is active

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate <= 1.0):
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if self.capacity_mbps <= 0:
            raise ValueError("capacity must be positive")


def link_bounds(spec: ScenarioSpec, episode_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``lo``/``hi`` (T, 6) of the six uniforms that draw each step's link:
    the bandwidth, latency, jitter, loss-rate and burst-loss spans, then the
    burst coin's [0, 1].

    Each channel's range moves linearly from its start range at t=0 to its
    end range at t=T-1 (a fixed channel's two are equal).
    """
    channels = (spec.bandwidth, spec.latency, spec.jitter, spec.loss_rate, spec.burst_loss)
    start, end = (np.array([[getattr(c, side).lo for c in channels] + [0.0],
                            [getattr(c, side).hi for c in channels] + [1.0]])
                  for side in ("start", "end"))
    frac = np.arange(episode_len)[:, None, None] / max(episode_len - 1, 1)
    lo, hi = (start + frac * (end - start)).transpose(1, 0, 2)
    return lo, hi


def link_draws(bounds: tuple[np.ndarray, np.ndarray], steps: int | np.ndarray,
               rng: RngStream) -> np.ndarray:
    """The six uniforms within rows ``steps`` of ``link_bounds`` that draw a
    link, from one block: (6,) for an int step, and for an (n,) int array of
    steps the (n, 6) rows of n int-step calls in order, stream state
    included."""
    lo, hi = bounds
    if isinstance(steps, (int, np.integer)):   # one step, checked in Python
        if not 0 <= steps < len(lo):
            raise ValueError(f"step {steps} outside [0, {len(lo)})")
        return rng.uniform(lo[steps], hi[steps], size=lo.shape[1])
    t = np.asarray(steps)
    outside = t[(t < 0) | (t >= len(lo))]
    if outside.size:
        raise ValueError(f"step {outside[0]} outside [0, {len(lo)})")
    lo, hi = lo[t], hi[t]
    return rng.uniform(lo.ravel(), hi.ravel(), size=lo.size).reshape(lo.shape)


def link_state(draws: np.ndarray) -> LinkState:
    """The ``LinkState`` of six ``link_draws`` values; the burst is active
    when the coin falls below the burst level."""
    capacity, latency, jitter, loss, burst_level, coin = draws.tolist()
    return LinkState(capacity_mbps=capacity, base_latency_ms=latency,
                     base_jitter_ms=jitter, loss_rate=loss,
                     burst_active=coin < burst_level, burst_level=burst_level)


def sample_link_state(bounds: tuple[np.ndarray, np.ndarray], t: int,
                      rng: RngStream) -> LinkState:
    """Draw the link conditions for step t (``link_draws`` of one step)."""
    return link_state(link_draws(bounds, t, rng))


def allocate_max_min(targets: Sequence[float], capacity: float) -> np.ndarray:
    """Max-min fair share of ``capacity`` among the requested ``targets``.

    Progressive filling: repeatedly satisfy the smallest unmet demand with an
    equal split of what remains. The result is order-independent and gives
    y_i = min(x_i, water level) with sum(y) = min(sum(x), capacity).
    """
    demands = np.asarray(targets, dtype=np.float64)
    if np.any(demands < 0) or capacity < 0:
        raise ValueError("targets and capacity must be >= 0")
    if demands.sum() <= capacity:
        return demands.copy()
    # the fill runs over Python floats: numpy scalars cost more per operation
    wants = demands.tolist()
    alloc = [0.0] * len(wants)
    remaining = float(capacity)
    left = len(wants)
    for idx in np.argsort(demands, kind="stable").tolist():
        give = min(wants[idx], remaining / left)
        alloc[idx] = give
        remaining -= give
        left -= 1
    return np.array(alloc)


def advance(state: LinkState, targets: Sequence[float], cfg: SimConfig,
            rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Apply one step's joint targets to the link; returns the (N, 6)
    observation rows and the (N,) delivered frame rates.

    Latency rises with utilization as base * (1 + coef * U^2) with
    U = min(1, sum(x)/capacity). Each sender's losses are binomial over the
    packets its received bitrate sends in the step, with the loss probability
    raised by an active burst and by overload beyond capacity; one block
    draw covers all N senders, in sender order. Every lost packet is NACKed
    once.
    """
    x = np.asarray(targets, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("targets must be a non-empty 1-D sequence")

    total_demand = float(np.add.reduce(x))
    # demand that fits is received in full; fmin.reduce < 0 iff any target < 0
    y = (x if total_demand <= state.capacity_mbps and np.fmin.reduce(x) >= 0
         else allocate_max_min(x, state.capacity_mbps))
    utilization = min(1.0, total_demand / state.capacity_mbps)
    overload = max(0.0, total_demand / state.capacity_mbps - 1.0)
    eff_loss = state.loss_rate + cfg.congestion_loss_coef * overload
    if state.burst_active:
        eff_loss += state.burst_level
    eff_loss = min(1.0, eff_loss)

    n = x.size
    rows = np.empty((n, OBS_DIM))
    rows[:, OBS_TARGET] = x
    rows[:, OBS_RECEIVED] = y
    rows[:, OBS_LATENCY] = state.base_latency_ms * (1.0 + cfg.queue_delay_coef * utilization ** 2)
    rows[:, OBS_JITTER] = state.base_jitter_ms
    sent = np.ceil(y * 1e6 / (8.0 * cfg.packet_size_bytes)).astype(np.int64)
    rows[:, OBS_LOST] = rng.binomial(sent, eff_loss)
    rows[:, OBS_NACKS] = rows[:, OBS_LOST]
    return rows, cfg.f_target * np.minimum(1.0, y / np.maximum(x, 1e-12))


class BottleneckSim:
    """One scenario's link: ``step(t, targets)`` draws step t's link from the
    stream and applies the joint targets to it. It keeps no step state, so
    the caller owns the clock; a step outside [0, episode_len) raises
    ``ValueError`` before any draw. Single-owner object; run independent
    instances (distinct RngStreams) for parallel episodes.
    """

    def __init__(self, spec: ScenarioSpec, cfg: SimConfig, episode_len: int,
                 rng: RngStream):
        self.cfg = cfg
        self.rng = rng
        self.bounds = link_bounds(spec, episode_len)

    def step(self, t: int, targets: Sequence[float]) -> tuple[np.ndarray, np.ndarray, LinkState]:
        """Step t's (N, 6) rows, (N,) frame rates and drawn link."""
        if len(targets) != self.cfg.n_agents:
            raise ValueError(f"expected {self.cfg.n_agents} targets, got {len(targets)}")
        link = sample_link_state(self.bounds, t, self.rng)
        return (*advance(link, targets, self.cfg, self.rng), link)


class TraceWriter:
    """Per-step CSV trace: ``write`` appends a finished episode's (T, N, 6)
    scored rows, (T, N) frame rates and (T,) link capacities as one row per
    (step, agent), named by its scenario and episode; every agent counts as
    a user, so ``u`` is N."""

    HEADER = ["scenario", "episode", "t", "agent", "x", "y", "l", "j", "p", "n", "f",
              "capacity", "u"]

    def __init__(self, fh: IO[str]):
        self._writer = csv.writer(fh, lineterminator="\n")
        self._writer.writerow(self.HEADER)

    def write(self, scenario: str, episode: int, rows: np.ndarray, frame_rate: np.ndarray,
              capacity: np.ndarray) -> None:
        for t, step in enumerate(rows.tolist()):
            for i, (x, y, l, j, p, n) in enumerate(step):
                self._writer.writerow([
                    scenario, episode, t, i, f"{x:.6g}", f"{y:.6g}", f"{l:.6g}", f"{j:.6g}",
                    int(p), int(n), f"{frame_rate[t, i]:.6g}", f"{capacity[t]:.6g}", len(step),
                ])


__all__ = ["BottleneckSim", "LinkState", "TraceWriter", "advance", "allocate_max_min",
           "link_bounds", "link_draws", "link_state", "sample_link_state"]
