"""Comparison controllers.

Two deliberately simplified rule-based congestion controllers stand in for
full delay-based and bandwidth-probing stacks at the simulator's 1-second
decision granularity, plus a uniformly random reference. Outputs from the
rule controllers are labeled "simplified" wherever they surface in reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from .core import ActionDelta, DEFAULT_DELTA_TABLE, Observation, RngStream

LATENCY_EMA = 0.3
RISE_TREND_MS = 2.0       # per-step latency growth that triggers backoff
FALL_TREND_MS = -1.0      # latency must be actively falling to probe up
FULL_DELIVERY = 0.95
PROBE_PERIOD = 8
PROBE_LATENCY_RISE = 1.10
STEADY_HEADROOM = 0.95


@dataclass(frozen=True)
class ControllerState:
    """Rolling estimates a rule controller carries between steps."""

    smoothed_latency_ms: float = 0.0
    latency_trend: float = 0.0
    bandwidth_estimate: float = 0.0
    phase: str = "steady"             # probe | drain | steady
    window: tuple[float, ...] = ()    # recent received bitrates
    steps: int = 0
    probe_ref_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_estimate < 0 or self.smoothed_latency_ms < 0:
            raise ValueError("estimates must be >= 0")
        if self.phase not in ("probe", "drain", "steady"):
            raise ValueError(f"unknown phase {self.phase!r}")


def new_controller_state() -> ControllerState:
    return ControllerState()


def _most_negative(table: Sequence[float]) -> ActionDelta:
    idx = min(range(len(table)), key=lambda i: table[i])
    return ActionDelta(idx, float(table[idx]))


def _most_positive(table: Sequence[float]) -> ActionDelta:
    idx = max(range(len(table)), key=lambda i: table[i])
    return ActionDelta(idx, float(table[idx]))


def _zero(table: Sequence[float]) -> ActionDelta:
    idx = list(table).index(0.0)
    return ActionDelta(idx, 0.0)


def _smallest_positive(table: Sequence[float]) -> ActionDelta:
    pos = [(v, i) for i, v in enumerate(table) if v > 0]
    v, idx = min(pos)
    return ActionDelta(idx, float(v))


def _toward(table: Sequence[float], current: float, target: float) -> ActionDelta:
    idx = min(range(len(table)), key=lambda i: (abs(current + table[i] - target), i))
    return ActionDelta(idx, float(table[idx]))


def delay_gradient_controller(state: ControllerState, obs: Observation,
                              table: Sequence[float] = DEFAULT_DELTA_TABLE,
                              p_threshold: float = 10.0,
                              ) -> tuple[ActionDelta, ControllerState]:
    """Latency-trend rate control (simplified stand-in for delay-based CC).

    Backs off hard when smoothed latency climbs or losses cross the
    threshold; nudges up one step only while latency is actively falling and
    the link is delivering essentially the full target; otherwise holds.
    """
    if state.steps == 0:
        smoothed = obs.latency_ms
        trend = 0.0
    else:
        smoothed = state.smoothed_latency_ms + LATENCY_EMA * (
            obs.latency_ms - state.smoothed_latency_ms)
        trend = smoothed - state.smoothed_latency_ms

    if trend > RISE_TREND_MS or obs.lost_packets > p_threshold:
        action = _most_negative(table)
    elif trend < FALL_TREND_MS and obs.received_mbps >= FULL_DELIVERY * obs.target_mbps:
        action = _smallest_positive(table)
    else:
        action = _zero(table)

    next_state = dataclasses.replace(
        state, smoothed_latency_ms=smoothed, latency_trend=trend,
        steps=state.steps + 1)
    return action, next_state


def bandwidth_probe_controller(state: ControllerState, obs: Observation,
                               table: Sequence[float] = DEFAULT_DELTA_TABLE,
                               p_threshold: float = 10.0,
                               ) -> tuple[ActionDelta, ControllerState]:
    """Probe-and-drain rate control (simplified stand-in for model-based CC).

    Tracks the delivered-bitrate maximum over an 8-step window as the
    bandwidth estimate and steers the target to 95% of it; every 8th step
    probes with the largest positive delta, draining afterwards if latency
    rose more than 10%. Above-threshold loss forces an immediate drain.
    """
    window = (state.window + (obs.received_mbps,))[-PROBE_PERIOD:]
    smoothed = obs.latency_ms if state.steps == 0 else (
        state.smoothed_latency_ms + LATENCY_EMA * (obs.latency_ms - state.smoothed_latency_ms))
    trend = 0.0 if state.steps == 0 else smoothed - state.smoothed_latency_ms
    steps = state.steps + 1
    phase = state.phase
    probe_ref = state.probe_ref_latency

    if obs.lost_packets > p_threshold:
        phase = "drain"
        action = _most_negative(table)
    elif phase == "probe" and probe_ref > 0 and obs.latency_ms > PROBE_LATENCY_RISE * probe_ref:
        phase = "drain"
        action = _most_negative(table)
    elif steps % PROBE_PERIOD == 0:
        phase = "probe"
        probe_ref = obs.latency_ms
        action = _most_positive(table)
    else:
        phase = "steady"
        target = STEADY_HEADROOM * max(window)
        action = _toward(table, obs.target_mbps, target)

    next_state = ControllerState(
        smoothed_latency_ms=smoothed, latency_trend=trend,
        bandwidth_estimate=max(window), phase=phase, window=window,
        steps=steps, probe_ref_latency=probe_ref)
    return action, next_state


def random_action(rng: RngStream, table: Sequence[float] = DEFAULT_DELTA_TABLE) -> ActionDelta:
    """Uniform draw from the delta table (the no-learning reference)."""
    idx = rng.integers(len(table))
    return ActionDelta(idx, float(table[idx]))


CONTROLLER_NAMES = ("delay", "probe")


def controller_step(name: str, state: ControllerState, obs: Observation,
                    table: Sequence[float] = DEFAULT_DELTA_TABLE,
                    p_threshold: float = 10.0) -> tuple[ActionDelta, ControllerState]:
    if name == "delay":
        return delay_gradient_controller(state, obs, table, p_threshold)
    if name == "probe":
        return bandwidth_probe_controller(state, obs, table, p_threshold)
    raise ValueError(f"unknown controller {name!r}")


__all__ = [
    "CONTROLLER_NAMES", "ControllerState", "bandwidth_probe_controller",
    "controller_step", "delay_gradient_controller",
    "new_controller_state", "random_action",
]
