"""Comparison controllers.

Two deliberately simplified rule-based congestion controllers stand in for
full delay-based and bandwidth-probing stacks at the simulator's 1-second
decision granularity. Outputs from the rule controllers are labeled
"simplified" wherever they surface in reports; the uniformly random
reference lives in ``training.run_controller_episode``.

All N agents step together. Each step a controller reads the step's (N, 6)
observation rows, one row per agent with columns ``core.OBS_*``, and
returns (N,) indices into the delta table plus the next
``ControllerState``. Agents never read each other's rows or state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import OBS_LATENCY, OBS_LOST, OBS_RECEIVED, OBS_TARGET

LATENCY_EMA = 0.3
RISE_TREND_MS = 2.0       # per-step latency growth that triggers backoff
FALL_TREND_MS = -1.0      # latency must be actively falling to probe up
FULL_DELIVERY = 0.95
PROBE_PERIOD = 8
PROBE_LATENCY_RISE = 1.10
STEADY_HEADROOM = 0.95


@dataclass(frozen=True)
class ControllerState:
    """Rolling per-agent estimates a rule controller carries between steps."""

    smoothed_latency_ms: np.ndarray   # (N,)
    probing: np.ndarray               # (N,) bool: the last step was a probe
    probe_ref_latency: np.ndarray     # (N,) latency when the last probe began
    window: np.ndarray                # (k <= PROBE_PERIOD, N) recent received bitrates
    steps: int = 0                    # shared: all agents step together


def new_controller_state(n_agents: int) -> ControllerState:
    return ControllerState(smoothed_latency_ms=np.zeros(n_agents),
                           probing=np.zeros(n_agents, dtype=bool),
                           probe_ref_latency=np.zeros(n_agents),
                           window=np.zeros((0, n_agents)))


def delay_gradient_controller(state: ControllerState, rows: np.ndarray, table: Sequence[float],
                              p_threshold: float) -> tuple[np.ndarray, ControllerState]:
    """Latency-trend rate control (simplified stand-in for delay-based CC).

    Backs off hard when smoothed latency climbs or losses cross the
    threshold; nudges up one step only while latency is actively falling and
    the link is delivering essentially the full target; otherwise holds.
    """
    vals = np.asarray(table, dtype=np.float64)
    latency = rows[:, OBS_LATENCY]
    # the first step starts the average at the latency itself (trend 0)
    prev = latency if state.steps == 0 else state.smoothed_latency_ms
    smoothed = prev + LATENCY_EMA * (latency - prev)
    trend = smoothed - prev

    backoff = (trend > RISE_TREND_MS) | (rows[:, OBS_LOST] > p_threshold)
    probe_up = ((trend < FALL_TREND_MS)
                & (rows[:, OBS_RECEIVED] >= FULL_DELIVERY * rows[:, OBS_TARGET]))
    smallest_positive = np.where(vals > 0, vals, np.inf).argmin()
    index = np.select([backoff, probe_up],
                      [vals.argmin(), smallest_positive], np.flatnonzero(vals == 0.0)[0])
    return index, dataclasses.replace(state, smoothed_latency_ms=smoothed,
                                      steps=state.steps + 1)


def bandwidth_probe_controller(state: ControllerState, rows: np.ndarray, table: Sequence[float],
                               p_threshold: float) -> tuple[np.ndarray, ControllerState]:
    """Probe-and-drain rate control (simplified stand-in for model-based CC).

    Tracks the delivered-bitrate maximum over an 8-step window as the
    bandwidth estimate and steers the target to 95% of it; every 8th step
    probes with the largest positive delta, draining afterwards if latency
    rose more than 10%. Above-threshold loss forces an immediate drain.
    """
    vals = np.asarray(table, dtype=np.float64)
    latency = rows[:, OBS_LATENCY]
    window = np.vstack((state.window, rows[None, :, OBS_RECEIVED]))[-PROBE_PERIOD:]
    steps = state.steps + 1
    ref = state.probe_ref_latency
    drain = ((rows[:, OBS_LOST] > p_threshold)
             | (state.probing & (ref > 0) & (latency > PROBE_LATENCY_RISE * ref)))

    if steps % PROBE_PERIOD == 0:
        index = np.where(drain, vals.argmin(), vals.argmax())
        probing = ~drain
        ref = np.where(drain, ref, latency)
    else:
        # nearest delta to the steady target; argmin breaks ties to the lowest index
        target = STEADY_HEADROOM * window.max(axis=0)
        toward = np.abs(rows[:, OBS_TARGET, None] + vals - target[:, None]).argmin(axis=1)
        index = np.where(drain, vals.argmin(), toward)
        probing = np.zeros_like(drain)

    return index, dataclasses.replace(state, probing=probing, probe_ref_latency=ref,
                                      window=window, steps=steps)


CONTROLLER_NAMES = ("delay", "probe")


def controller_step(name: str, state: ControllerState, rows: np.ndarray,
                    table: Sequence[float], p_threshold: float,
                    ) -> tuple[np.ndarray, ControllerState]:
    if name == "delay":
        return delay_gradient_controller(state, rows, table, p_threshold)
    if name == "probe":
        return bandwidth_probe_controller(state, rows, table, p_threshold)
    raise ValueError(f"unknown controller {name!r}")


__all__ = [
    "CONTROLLER_NAMES", "ControllerState", "bandwidth_probe_controller",
    "controller_step", "delay_gradient_controller", "new_controller_state",
]
