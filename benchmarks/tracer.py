"""Instrumentation for the asms benchmark, applied from outside the package.

Two instruments patch public callables of ``asms`` while they are installed
and restore the originals on exit:

* ``EpisodeClock`` is the light probe used by the untraced runs. It records
  one timestamp per episode, which is all the end-to-end metrics need.
* ``Tracer`` records a span at every layer boundary named in ``SPANNED``,
  and counts at a few more. Spans are kept in memory as
  parallel typed arrays of (name, start, end, parent) and turned into
  per-layer metrics, or written out, only after the traced work ends.

A function that another module imported by name is looked up in that
module's namespace, so every binding of the original object in any loaded
``asms`` module is replaced, not just the defining one.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Span name -> "module.attribute" of the callable it wraps. Methods are
# named "module.Class.method".
SPANNED = {
    "core.rng.uniform": "core.RngStream.uniform",
    "core.rng.binomial": "core.RngStream.binomial",
    "core.rng.laplace": "core.RngStream.laplace",
    "netsim.step": "netsim.BottleneckSim.step",
    "netsim.sample_link_state": "netsim.sample_link_state",
    "qoe.fit_coefficients": "qoe.fit_coefficients",
    "nn.backward": "nn.backward",
    "nn.params_to_bytes": "nn.params_to_bytes",
    "rl.run_episode": "rl.run_episode",
    "rl.score_episode": "rl.score_episode",
    "rl.build_batch": "rl.build_batch",
    "rl.ppo_update": "rl.ppo_update",
    "fed.make_local_update": "fed.make_local_update",
    "training.train": "training.train",
    "training.run_controller_episode": "training.run_controller_episode",
    "baselines.controller_step": "baselines.controller_step",
}

# Wrapped by hand in Tracer.installed: nn.forward, nn.adam_step,
# nn.save_params, netsim.advance and fed.fed_round, which also count; and
# qoe.compute_qoe and core.RngStream.raw, which only count, because a span
# would cost as much as the call it wraps.

def _resolve(path: str):
    """Return (owner, attribute) for "module.attr" or "module.Class.attr"."""
    parts = path.split(".")
    owner = sys.modules[f"asms.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patches:
    """Replacements of asms callables, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, path: str, make_wrapper) -> None:
        owner, attr = _resolve(path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "asms" or name.startswith("asms."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Untraced runs: one timestamp per episode
# ---------------------------------------------------------------------------

class EpisodeClock:
    """Episode wall times and agent-step counts, recorded at episode entry.

    Inside ``training.train`` an episode runs from the start of its rollout
    to the start of the next one (or to the return of ``train``), so it
    covers rollout, update, federation and checkpoint writes. Outside
    ``train`` a policy episode is one ``run_episode`` call. Controller
    episodes are kept apart.
    """

    def __init__(self):
        self.episode_ms: list[float] = []
        self.controller_ms: list[float] = []
        self.agent_steps = 0
        self._train_starts: list[list[float]] = []

    def take(self) -> tuple[list[float], list[float], int]:
        """Episode and controller-episode ms and agent steps since the last take."""
        out = (self.episode_ms, self.controller_ms, self.agent_steps)
        self.episode_ms, self.controller_ms, self.agent_steps = [], [], 0
        return out

    @contextmanager
    def installed(self):
        patches = _Patches()
        clock = time.perf_counter
        try:
            def wrap_train(fn):
                def train(*args, **kwargs):
                    starts: list[float] = []
                    self._train_starts.append(starts)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        end = clock()
                        self._train_starts.pop()
                        edges = starts + [end]
                        self.episode_ms.extend(
                            1e3 * (b - a) for a, b in zip(edges, edges[1:]))
                return train

            def wrap_run_episode(fn):
                def run_episode(sim, agents, hp, *args, **kwargs):
                    self.agent_steps += len(agents) * hp.episode_len
                    start = clock()
                    if self._train_starts:
                        self._train_starts[-1].append(start)
                    out = fn(sim, agents, hp, *args, **kwargs)
                    if not self._train_starts:
                        self.episode_ms.append(1e3 * (clock() - start))
                    return out
                return run_episode

            def wrap_controller_episode(fn):
                def run_controller_episode(sim, decide, hp, *args, **kwargs):
                    self.agent_steps += sim.cfg.n_agents * hp.episode_len
                    start = clock()
                    out = fn(sim, decide, hp, *args, **kwargs)
                    self.controller_ms.append(1e3 * (clock() - start))
                    return out
                return run_controller_episode

            patches.rebind("training.train", wrap_train)
            patches.rebind("rl.run_episode", wrap_run_episode)
            patches.rebind("training.run_controller_episode", wrap_controller_episode)
            yield self
        finally:
            patches.restore()


# ---------------------------------------------------------------------------
# Traced runs: spans and counters at every layer boundary
# ---------------------------------------------------------------------------

class SpanLog:
    """Spans as parallel arrays; index i is one span, parent -1 is a root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
                "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy()}

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        The program is single-threaded, so children never overlap each
        other and the covered part of a parent is the sum of its children.
        """
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def spanned(self, name: str, fn):
        """Wrap fn so each call records one span."""
        nid = self.intern(name)
        ids, starts, ends, parents, stack = (self.name_id, self.start, self.end,
                                             self.parent, self.stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return wrapper


class Tracer:
    """Spans plus the counters that the per-layer metrics need."""

    def __init__(self):
        self.log = SpanLog()
        self.counts = {
            "qoe.compute_qoe.calls": 0, "core.rng.raw.calls": 0, "core.rng.raw.words": 0,
            "nn.adam.clipped": 0, "nn.adam.skipped": 0, "nn.save_params.bytes": 0,
            "netsim.advance.calls": 0, "netsim.advance.overload": 0,
            "netsim.advance.burst": 0, "fed.bytes_up": 0, "fed.bytes_down": 0,
        }
        # (previous global actor, agent actors, weights, clip, aggregate actor)
        self.fed_rounds: list[tuple] = []

    @contextmanager
    def installed(self):
        patches = _Patches()
        log, counts = self.log, self.counts
        try:
            for name, path in SPANNED.items():
                patches.rebind(path, lambda fn, name=name: log.spanned(name, fn))

            def wrap_compute_qoe(fn):
                def compute_qoe(*args, **kwargs):
                    counts["qoe.compute_qoe.calls"] += 1
                    return fn(*args, **kwargs)
                return compute_qoe

            def wrap_raw(fn):
                def raw(rng, n):
                    counts["core.rng.raw.calls"] += 1
                    counts["core.rng.raw.words"] += n
                    return fn(rng, n)
                return raw

            def wrap_forward(fn):
                single = log.spanned("nn.forward.b1", fn)
                batch = log.spanned("nn.forward.batch", fn)

                def forward(params, x):
                    return (single if np.ndim(x) == 1 else batch)(params, x)
                return forward

            def wrap_adam_step(fn):
                traced = log.spanned("nn.adam_step", fn)

                def adam_step(params, state, grad, lr, grad_clip=0.5):
                    out = traced(params, state, grad, lr, grad_clip)
                    if out[0] is params:
                        counts["nn.adam.skipped"] += 1
                    elif grad_clip > 0 and float(np.dot(grad, grad)) > grad_clip ** 2:
                        counts["nn.adam.clipped"] += 1
                    return out
                return adam_step

            def wrap_save_params(fn):
                traced = log.spanned("nn.save_params", fn)

                def save_params(path, params):
                    size = traced(path, params)
                    counts["nn.save_params.bytes"] += size
                    return size
                return save_params

            def wrap_advance(fn):
                traced = log.spanned("netsim.advance", fn)

                def advance(state, targets, cfg, rng):
                    counts["netsim.advance.calls"] += 1
                    counts["netsim.advance.overload"] += (
                        float(np.sum(targets)) > state.capacity_mbps)
                    counts["netsim.advance.burst"] += bool(state.burst_active)
                    return traced(state, targets, cfg, rng)
                return advance

            def wrap_fed_round(fn):
                traced = log.spanned("fed.fed_round", fn)

                def fed_round(agents, model, hp, rng):
                    # The agents' parameter arrays are replaced, never written
                    # in place, so references taken here stay valid and the
                    # noise-to-signal ratio is computed after the traced work.
                    before = [agent.actor.theta for agent in agents]
                    weights = [agent.sample_count for agent in agents]
                    clip = hp.ldp_clip if hp.ldp_enabled and hp.ldp_clip > 0 else None
                    result = traced(agents, model, hp, rng)
                    counts["fed.bytes_up"] += result.bytes_up
                    counts["fed.bytes_down"] += result.bytes_down
                    self.fed_rounds.append((model.actor.theta, before, weights, clip,
                                            result.model.actor.theta))
                    return result
                return fed_round

            patches.rebind("qoe.compute_qoe", wrap_compute_qoe)
            patches.rebind("core.RngStream.raw", wrap_raw)
            patches.rebind("nn.forward", wrap_forward)
            patches.rebind("nn.adam_step", wrap_adam_step)
            patches.rebind("nn.save_params", wrap_save_params)
            patches.rebind("netsim.advance", wrap_advance)
            patches.rebind("fed.fed_round", wrap_fed_round)
            yield self
        finally:
            patches.restore()

    # -- reduction, after the traced work --------------------------------

    def span_table(self) -> dict[str, dict]:
        """calls, total ms, self ms and each call's ms, per span name."""
        a = self.log.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        self_ns = self.log.self_ns()
        table = {}
        for nid, name in enumerate(self.log.names):
            mask = a["name_id"] == nid
            table[name] = {"calls": int(mask.sum()), "ms": float(dur[mask].sum()) / 1e6,
                           "self_ms": float(self_ns[mask].sum()) / 1e6,
                           "durations_ms": dur[mask] / 1e6}
        return table

    def fed_params_to_bytes_calls(self) -> int:
        """params_to_bytes calls made under a fed span (byte counting)."""
        a = self.log.arrays()
        names = self.log.names
        if "nn.params_to_bytes" not in names:
            return 0
        target = names.index("nn.params_to_bytes")
        fed_ids = {i for i, n in enumerate(names) if n.startswith("fed.")}
        total = 0
        for idx in np.flatnonzero(a["name_id"] == target):
            p = a["parent"][idx]
            while p >= 0 and a["name_id"][p] not in fed_ids:
                p = a["parent"][p]
            total += p >= 0
        return int(total)

    def noise_to_signal(self) -> float:
        """Mean over rounds of |aggregate - clean mean| / |clean mean - previous
        global|, on the actor; the clean mean applies the same per-coordinate
        clip and sample-count weights as the upload, without the noise."""
        ratios = []
        for prev, thetas, weights, clip, aggregate in self.fed_rounds:
            w = np.asarray(weights, dtype=np.float64)
            if w.sum() <= 0:
                w = np.ones(len(thetas))
            stacked = np.stack(thetas)
            if clip is not None:
                stacked = prev + np.clip(stacked - prev, -clip, clip)
            clean = np.average(stacked, axis=0, weights=w)
            signal = float(np.linalg.norm(clean - prev))
            if signal > 0:
                ratios.append(float(np.linalg.norm(aggregate - clean)) / signal)
        return float(np.mean(ratios)) if ratios else 0.0
