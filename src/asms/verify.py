"""Self-contained verification suite: independent oracles, invariant sweeps,
and the seeded learning-behavior checks.

Every check is deterministic under its seed and returns a measured value so
failures are diagnosable. The gradient checks honor the
ASMS_VERIFY_CORRUPT_GRADIENT environment hook (scales the analytic gradient
by 1.01) so the suite's own failure path can be exercised.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import baselines, fed, netsim, nn, qoe, rl, training
from .core import (Channel, HyperParams, Observation, QoECoefficients,
                   RngStream, ScenarioSpec, SimConfig, builtin_scenarios,
                   default_hyperparams)

CORRUPT_GRADIENT_ENV = "ASMS_VERIFY_CORRUPT_GRADIENT"


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _corruption_factor() -> float:
    return 1.01 if os.environ.get(CORRUPT_GRADIENT_ENV) else 1.0


# ---------------------------------------------------------------------------
# Math oracles
# ---------------------------------------------------------------------------

def check_gradient_actor(seed: int) -> CheckResult:
    """Analytic policy-loss gradient vs central finite differences."""
    rng = RngStream(seed, "verify/grad-actor")
    corrupt = _corruption_factor()
    worst = 0.0
    t0 = time.time()
    for k in range(20):
        hidden = 8 + int(rng.uniform(0, 12))
        actor = nn.init_mlp(6, hidden, 5, "tanh", rng.spawn(f"net{k}"))
        n = 6
        obs = rng.uniform(0, 2, size=n * 6).reshape(n, 6)
        actions = rng.integers(5, size=n)
        old_lp = np.log(np.full(n, 0.2)) + rng.uniform(-0.3, 0.3, size=n)
        adv = rng.uniform(-2, 2, size=n)

        def loss(p):
            l, g, _ = rl.policy_loss_and_grad(p, obs, actions, old_lp, adv, 0.2, 0.01)
            return l, g * corrupt

        worst = max(worst, nn.grad_check(actor, loss, rng.spawn(f"fd{k}"), n_coords=60))
    dt = time.time() - t0
    return CheckResult("gradient-actor", worst < 1e-4 and dt < 30,
                       f"max rel err {worst:.3e} (limit 1e-4), {dt:.1f}s over 20 nets")


def check_gradient_critic(seed: int) -> CheckResult:
    """Analytic value-loss gradient vs central finite differences.

    A finite difference that bumps a ReLU across its kink measures a
    different branch than the analytic gradient, so a net's inputs are
    redrawn while any hidden pre-activation lies within 1e-3 of zero.
    """
    rng = RngStream(seed, "verify/grad-critic")
    corrupt = _corruption_factor()
    worst = 0.0
    t0 = time.time()
    for k in range(20):
        hidden = 8 + int(rng.uniform(0, 12))
        critic = nn.init_mlp(6, hidden, 1, "relu", rng.spawn(f"net{k}"))
        n = 6
        obs = rng.uniform(0, 2, size=n * 6).reshape(n, 6)
        while _relu_margin(critic, obs) < 1e-3:
            obs = rng.uniform(0, 2, size=n * 6).reshape(n, 6)
        rets = rng.uniform(-3, 3, size=n)

        def loss(p):
            l, g = rl.value_loss_and_grad(p, obs, rets)
            return l, g * corrupt

        worst = max(worst, nn.grad_check(critic, loss, rng.spawn(f"fd{k}"), n_coords=60))
    dt = time.time() - t0
    return CheckResult("gradient-critic", worst < 1e-4 and dt < 30,
                       f"max rel err {worst:.3e} (limit 1e-4), {dt:.1f}s over 20 nets")


def _relu_margin(params: nn.ModelParams, obs: np.ndarray) -> float:
    """Smallest |pre-activation| over both hidden layers."""
    _, (_, z1, _, z2, _, _) = nn.forward(params, obs)
    return float(min(np.abs(z1).min(), np.abs(z2).min()))


def _traj_from(rewards: np.ndarray, values: np.ndarray, bootstrap: float) -> rl.Trajectory:
    t = rewards.size
    return rl.Trajectory(observations=np.zeros((t, 6)), actions=np.zeros(t, dtype=np.int64),
                         log_probs=np.full(t, -1.0), values=values, rewards=rewards,
                         bootstrap_value=bootstrap)


def gae_direct_sum(rewards: np.ndarray, values: np.ndarray, bootstrap: float,
                   gamma: float, lam: float) -> np.ndarray:
    """Brute-force double sum of (gamma*lam)^l * delta_{t+l}."""
    t_len = rewards.size
    ext = np.append(values, bootstrap)
    deltas = rewards + gamma * ext[1:] - ext[:-1]
    out = np.zeros(t_len)
    for t in range(t_len):
        out[t] = sum((gamma * lam) ** l * deltas[t + l] for l in range(t_len - t))
    return out


def returns_direct_sum(rewards: np.ndarray, bootstrap: float, gamma: float) -> np.ndarray:
    """Brute-force truncated discounted sum with terminal bootstrap."""
    t_len = rewards.size
    out = np.zeros(t_len)
    for t in range(t_len):
        out[t] = sum(gamma ** i * rewards[t + i] for i in range(t_len - t))
        out[t] += gamma ** (t_len - t) * bootstrap
    return out


def check_gae_oracle(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/gae")
    worst = 0.0
    for t_len in (1, 5, 40):
        for _ in range(5):
            r = rng.uniform(-2, 2, size=t_len)
            v = rng.uniform(-2, 2, size=t_len)
            boot = rng.uniform(-2, 2)
            traj = _traj_from(r, v, boot)
            fast = rl.compute_gae(traj, 0.95, 0.95)
            slow = gae_direct_sum(r, v, boot, 0.95, 0.95)
            worst = max(worst, float(np.abs(fast - slow).max()))
    return CheckResult("gae-recursion-vs-sum", worst < 1e-10,
                       f"max abs diff {worst:.3e} (limit 1e-10), T in {{1,5,40}}")


def check_returns_oracle(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/returns")
    worst = 0.0
    for t_len in (1, 5, 40):
        for _ in range(5):
            r = rng.uniform(-2, 2, size=t_len)
            v = rng.uniform(-2, 2, size=t_len)
            boot = rng.uniform(-2, 2)
            traj = _traj_from(r, v, boot)
            fast = rl.compute_returns(traj, 0.95)
            slow = returns_direct_sum(r, boot, 0.95)
            worst = max(worst, float(np.abs(fast - slow).max()))
    return CheckResult("returns-recursion-vs-sum", worst < 1e-10,
                       f"max abs diff {worst:.3e} (limit 1e-10), T in {{1,5,40}}")


def check_clip_function(seed: int) -> CheckResult:
    """Six analytic cases: sign(adv) x ratio below/inside/above the band."""
    eps = 0.2
    cases = [
        # (ratio, adv, expected)   band is [0.8, 1.2]
        (0.5, 2.0, 1.0),     # adv>0, below band: min(1.0, 2.4) = r*adv
        (1.0, 2.0, 2.0),     # adv>0, inside: r*adv
        (1.5, 2.0, 2.4),     # adv>0, above: (1+eps)*adv
        (0.5, -1.0, -0.8),   # adv<0, below: (1-eps)*adv
        (1.0, -1.0, -1.0),   # adv<0, inside: r*adv
        (1.5, -1.0, -1.5),   # adv<0, above: r*adv
    ]
    worst = 0.0
    for ratio, adv, expected in cases:
        got = rl.clipped_objective(math.log(ratio), 0.0, adv, eps)
        worst = max(worst, abs(got - expected))
    return CheckResult("clip-function-cases", worst < 1e-12,
                       f"6/6 analytic cases, max abs err {worst:.1e}")


def waterfill_oracle(targets: np.ndarray, capacity: float) -> np.ndarray:
    """Independent allocation oracle: bisect the water level."""
    if targets.sum() <= capacity:
        return targets.copy()
    lo, hi = 0.0, float(targets.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.minimum(targets, mid).sum() > capacity:
            hi = mid
        else:
            lo = mid
    return np.minimum(targets, 0.5 * (lo + hi))


def check_allocation_oracle(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/alloc")
    worst = 0.0
    worst_conserve = 0.0
    for _ in range(1000):
        n = 1 + int(rng.uniform(0, 8))
        targets = rng.uniform(0, 100, size=n)
        capacity = rng.uniform(1, 300)
        got = netsim.allocate_max_min(targets, capacity)
        want = waterfill_oracle(targets, capacity)
        worst = max(worst, float(np.abs(got - want).max()))
        worst_conserve = max(worst_conserve,
                             abs(got.sum() - min(targets.sum(), capacity)))
        if np.any(got > targets + 1e-12):
            return CheckResult("allocation-oracle", False, "allocation exceeded a demand")
    return CheckResult("allocation-oracle", worst < 1e-6 and worst_conserve < 1e-9,
                       f"1000 instances: max diff vs oracle {worst:.2e}, "
                       f"conservation err {worst_conserve:.2e} (limit 1e-9)")


def check_fedavg_oracle(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/fedavg")
    shapes = ((3, 4), (4, 2))
    worst = 0.0
    for trial in range(20):
        n_up = 2 + int(rng.uniform(0, 5))
        ups = []
        for i in range(n_up):
            actor = nn.ModelParams(shapes=shapes, theta=rng.uniform(-1, 1, size=nn.flat_size(shapes)),
                                   activation="tanh", head="categorical")
            critic = nn.ModelParams(shapes=shapes, theta=rng.uniform(-1, 1, size=nn.flat_size(shapes)),
                                    activation="relu", head="scalar")
            ups.append(fed.LocalUpdate(i, actor, critic, 40, 0))
        w = rng.uniform(0.1, 3.0, size=n_up)
        got = fed.fedavg(ups, w).actor.theta
        want = sum(wi * u.actor.theta for wi, u in zip(w, ups)) / w.sum()
        worst = max(worst, float(np.abs(got - want).max()))
        # permutation invariance
        perm = rng.permutation(n_up)
        got_p = fed.fedavg([ups[i] for i in perm], w[perm]).actor.theta
        worst = max(worst, float(np.abs(got_p - got).max()))
    # identical-input fixed point must be bit-exact
    base = ups[0]
    clones = [dataclasses.replace(base, agent_id=i) for i in range(4)]
    agg = fed.fedavg(clones, [1.0, 2.0, 3.0, 4.0])
    fixed = (np.array_equal(agg.actor.theta, base.actor.theta)
             and np.array_equal(agg.critic.theta, base.critic.theta))
    return CheckResult("fedavg-oracle", worst < 1e-12 and fixed,
                       f"max diff vs weighted-mean oracle {worst:.2e} (limit 1e-12), "
                       f"identical-input fixed point bit-exact: {fixed}")


def check_ldp_statistics(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/ldp")
    draws = rng.laplace(1.0, size=1_000_000)
    mean = float(draws.mean())
    var = float(draws.var())
    theta = rng.uniform(-1, 1, size=1000)
    noop = fed.ldp_perturb(theta, 0.0, 1.0, rng)
    exact = np.array_equal(noop, theta)
    ok = abs(mean) < 0.005 and abs(var - 2.0) <= 0.04 and exact
    return CheckResult("ldp-laplace-statistics", ok,
                       f"1e6 draws at b=1: mean {mean:+.4f} (|.|<0.005), "
                       f"var {var:.4f} (2 +/- 0.04); zero-sensitivity no-op: {exact}")


# ---------------------------------------------------------------------------
# Pinned-value checks
# ---------------------------------------------------------------------------

REFERENCE_HYPERPARAMS = {
    "gamma_discount": 0.95,
    "gae_lambda": 0.95,
    "clip_eps": 0.2,
    "minibatch": 64,
    "lr": 0.0003,
    "epochs": 10,
    "grad_clip": 0.5,
    "policy_update_freq": 40,
    "fedavg_freq": 4,
    "hidden_width": 128,
    "episode_len": 40,
    "episodes": 330,
    # parsed-but-unused baseline-family rows
    "replay_buffer_size": 5000,
    "target_update_coef": 0.005,
    "sac_critics": 2,
    "entropy_temperature": 0.2,
}

REFERENCE_SCENARIOS = {
    # name: (bandwidth lo/hi or (start, end)), latency, jitter, loss, burst
    "s1": ((100, 200), (10, 30), (2, 5), 0.001, 0.0),
    "s2": ((50, 100), (30, 50), (5, 10), 0.005, 0.005),
    "s3": ((20, 80), (50, 100), (10, 20), 0.01, 0.01),
    "s4": ((200, 500), (5, 10), (1, 3), 0.001, 0.0),
    "s5": ((100, 30), (50, 100), (5, 20), (0.005, 0.05), 0.10),
    "s6": ((30, 100), (100, 20), (20, 5), (0.02, 0.005), (0.05, 0.0)),
}


def check_hyperparam_table(seed: int) -> CheckResult:
    hp = default_hyperparams()
    bad = [k for k, v in REFERENCE_HYPERPARAMS.items() if getattr(hp, k) != v]
    return CheckResult("hyperparameter-defaults", not bad,
                       "all reference rows match" if not bad else f"mismatched: {bad}")


def check_scenario_ranges(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/scenarios")
    t_len = 40
    n_samples = 10_000
    for spec in builtin_scenarios():
        for k in range(n_samples):
            t = int(rng.uniform(0, t_len))
            state = netsim.sample_link_state(spec, t, t_len, rng)
            for value, channel in ((state.capacity_mbps, spec.bandwidth),
                                   (state.base_latency_ms, spec.latency),
                                   (state.base_jitter_ms, spec.jitter),
                                   (state.loss_rate, spec.loss_rate),
                                   (state.burst_level, spec.burst_loss)):
                span = channel.at(t, t_len)
                if not (span.lo - 1e-9 <= value <= span.hi + 1e-9):
                    return CheckResult(
                        "scenario-ranges", False,
                        f"{spec.name} t={t}: {value} outside [{span.lo}, {span.hi}]")
        # ramp endpoints must hit the arrow targets exactly (point ranges)
        first = netsim.sample_link_state(spec, 0, t_len, rng)
        last = netsim.sample_link_state(spec, t_len - 1, t_len, rng)
        for value, channel in ((first.capacity_mbps, spec.bandwidth),
                               (first.base_latency_ms, spec.latency)):
            span = channel.at(0, t_len)
            if not (span.lo - 1e-9 <= value <= span.hi + 1e-9):
                return CheckResult("scenario-ranges", False,
                                   f"{spec.name} start endpoint off: {value}")
        for value, channel in ((last.capacity_mbps, spec.bandwidth),
                               (last.base_latency_ms, spec.latency)):
            span = channel.at(t_len - 1, t_len)
            if not (span.lo - 1e-9 <= value <= span.hi + 1e-9):
                return CheckResult("scenario-ranges", False,
                                   f"{spec.name} end endpoint off: {value}")
    return CheckResult("scenario-ranges", True,
                       f"{n_samples} samples x 6 scenarios x 5 channels in range; "
                       f"ramp endpoints hit their targets")


def check_episode_structure(seed: int) -> CheckResult:
    """A real (downsized) 330-episode run: 40-step trajectories, one update
    per agent per episode, aggregation every 4 episodes -> 82 rounds."""
    cfg = SimConfig(n_agents=2)
    hp = dataclasses.replace(default_hyperparams(), hidden_width=8,
                             ldp_enabled=False)
    coeffs = QoECoefficients()
    result = training.train(cfg, hp, coeffs, "fmappo",
                            ["s1", "s2", "s3", "s4", "s5", "s6"], seed=seed)
    rounds = len(result.overhead)
    updates = len(result.diagnostics)
    round_eps = [row["episode"] for row in result.overhead[:3]]
    ok = (rounds == 82 and updates == 330 * 2
          and round_eps == [3, 7, 11]
          and len(result.learning_curve) == 330)
    return CheckResult("episode-structure", ok,
                       f"330 episodes, T={hp.episode_len}: {rounds} rounds (expect 82), "
                       f"{updates} agent-updates (expect 660), first rounds after "
                       f"episodes {[e + 1 for e in round_eps]}")


def check_comm_overhead(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/overhead")
    actor = nn.init_mlp(6, 128, 5, "tanh", rng)
    critic = nn.init_mlp(6, 128, 1, "relu", rng)
    per_device = fed.update_upload_bytes(actor, critic)
    mb = per_device / 1e6
    ok = 0.25 <= mb <= 1.0   # within 2x of the ~0.5 MB reference figure
    return CheckResult("comm-overhead-size", ok,
                       f"upload {per_device} B/device/round = {mb:.3f} MB "
                       f"(in [0.25, 1.0]); 6 devices: {6 * per_device / 1e6:.2f} MB/round")


# ---------------------------------------------------------------------------
# Numerics and model plumbing
# ---------------------------------------------------------------------------

def check_forward_oracle(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/forward")
    worst = 0.0
    for k in range(10):
        params = nn.init_mlp(6, 16, 5, "tanh" if k % 2 else "relu", rng.spawn(str(k)))
        x = rng.uniform(-2, 2, size=6)
        got, _ = nn.forward(params, x)
        (w1, b1), (w2, b2), (w3, b3) = params.layers()
        act = np.tanh if params.activation == "tanh" else lambda z: np.maximum(z, 0)
        want = act(act(x @ w1 + b1) @ w2 + b2) @ w3 + b3
        worst = max(worst, float(np.abs(got - want).max()))
    return CheckResult("forward-matmul-oracle", worst < 1e-12,
                       f"max abs diff vs straight-line oracle {worst:.2e} (limit 1e-12)")


def check_softmax_properties(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/softmax")
    p, lp, ent = nn.categorical_head(np.zeros(5))
    uniform_ok = np.abs(p - 0.2).max() < 1e-12 and abs(ent - math.log(5)) < 1e-12
    p2, _, _ = nn.categorical_head(np.array([1000.0, 0.0]))
    stable_ok = np.isfinite(p2).all() and abs(p2[0] - 1.0) < 1e-12
    worst = 0.0
    for _ in range(100):
        logits = rng.uniform(-30, 30, size=7)
        p3, lp3, _ = nn.categorical_head(logits)
        worst = max(worst, float(np.abs(np.exp(lp3) - p3).max()))
        p4, _, _ = nn.categorical_head(logits + 123.456)
        worst = max(worst, float(np.abs(p4 - p3).max()))
    ok = uniform_ok and stable_ok and worst < 1e-12
    return CheckResult("softmax-properties", ok,
                       f"uniform/overflow cases ok; exp(logp)=p and shift "
                       f"invariance max err {worst:.2e} (limit 1e-12)")


def check_checkpoint_roundtrip(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/ckpt")
    params = nn.init_mlp(6, 32, 5, "tanh", rng)
    blob = nn.params_to_bytes(params)
    back = nn.params_from_bytes(blob)
    identical = (np.array_equal(back.theta, params.theta)
                 and back.shapes == params.shapes
                 and back.activation == params.activation)
    corrupted = bytearray(blob)
    corrupted[len(blob) // 2] ^= 0xFF
    try:
        nn.params_from_bytes(bytes(corrupted))
        detects = False
    except nn.CheckpointError:
        detects = True
    return CheckResult("checkpoint-roundtrip", identical and detects,
                       f"bit-identical roundtrip: {identical}; CRC catches "
                       f"corruption: {detects}")


def check_netsim_invariants(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/netsim")
    cfg = SimConfig(n_agents=4)
    specs = builtin_scenarios()
    worst_excess = 0.0
    for k in range(1000):
        spec = specs[k % len(specs)]
        state = netsim.sample_link_state(spec, k % 40, 40, rng, users=4)
        targets = rng.uniform(1, 200, size=4)
        outcome = netsim.advance(state, targets, cfg, rng)
        worst_excess = max(worst_excess,
                           float(outcome.received_mbps.sum()) - state.capacity_mbps)
        if np.any(outcome.received_mbps > targets + 1e-12):
            return CheckResult("netsim-invariants", False, "received exceeded target")
        sent = np.ceil(outcome.received_mbps * 1e6 / (8 * cfg.packet_size_bytes))
        if np.any(outcome.lost_packets > sent):
            return CheckResult("netsim-invariants", False, "lost more than sent")
    # lossless uncongested link must deliver perfectly
    clean = ScenarioSpec("clean", Channel.fixed(100), Channel.fixed(10),
                         Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))
    state = netsim.sample_link_state(clean, 0, 40, rng)
    outcome = netsim.advance(state, [10.0, 20.0], SimConfig(n_agents=2), rng)
    lossless = outcome.lost_packets.sum() == 0 and np.allclose(
        outcome.received_mbps, [10.0, 20.0])
    # raising one agent's target never lowers its own share (same seed)
    mono_ok = True
    for k in range(200):
        targets = rng.uniform(1, 120, size=4)
        cap = rng.uniform(10, 250)
        base = netsim.allocate_max_min(targets, cap)
        bumped = targets.copy()
        i = k % 4
        bumped[i] += rng.uniform(0, 50)
        after = netsim.allocate_max_min(bumped, cap)
        if after[i] < base[i] - 1e-9:
            mono_ok = False
            break
    ok = worst_excess <= 1e-9 and lossless and mono_ok
    return CheckResult("netsim-invariants", ok,
                       f"capacity excess max {worst_excess:.2e} (limit 1e-9); "
                       f"lossless case exact: {lossless}; own-target monotone: {mono_ok}")


def check_rng_determinism(seed: int) -> CheckResult:
    a = RngStream(seed, "agent")
    b = RngStream(seed, "agent")
    same = np.array_equal(a.uniform(size=10_000), b.uniform(size=10_000))
    c = RngStream(seed, "environment")
    differs = not np.array_equal(RngStream(seed, "agent").uniform(size=100),
                                 c.uniform(size=100))
    d = RngStream(seed, "agent")
    chunked = np.concatenate([d.uniform(size=7) for _ in range(100)])
    e = RngStream(seed, "agent")
    whole = e.uniform(size=700)
    chunk_ok = np.array_equal(chunked, whole)
    ok = same and differs and chunk_ok
    return CheckResult("rng-determinism", ok,
                       f"equal seeds identical over 1e4 draws: {same}; distinct "
                       f"streams differ: {differs}; chunking-invariant: {chunk_ok}")


def check_binomial_sampler(seed: int) -> CheckResult:
    rng = RngStream(seed, "verify/binomial")
    n, p, k = 1000, 0.05, 4000
    draws = np.array([rng.binomial(n, p) for _ in range(k)])
    mean = float(draws.mean())
    var = float(draws.var())
    exp_mean, exp_var = n * p, n * p * (1 - p)
    ok = (abs(mean - exp_mean) < 0.7 and abs(var - exp_var) / exp_var < 0.15
          and draws.max() <= n and draws.min() >= 0
          and rng.binomial(50, 0.0) == 0 and rng.binomial(50, 1.0) == 50)
    return CheckResult("binomial-sampler", ok,
                       f"Binomial(1000, 0.05) over {k} draws: mean {mean:.2f} "
                       f"(expect 50), var {var:.1f} (expect 47.5)")


def check_qoe_values(seed: int) -> CheckResult:
    c = QoECoefficients()
    worst = abs(qoe.quality(c.y_min, c.y_min))
    worst = max(worst, abs(qoe.quality(math.e * c.y_min, c.y_min) - 1.0))
    worst = max(worst, abs(qoe.quality(50, 1) - math.log(50)))
    # all-terms-zero anchor
    obs0 = Observation(c.y_min, c.y_min, 0.0, 0.0, 0.0, 0.0)
    worst = max(worst, abs(qoe.compute_qoe(obs0, c.f_target, c.y_min, 0, c)))
    # lone disruption term
    obs1 = Observation(c.y_min, c.y_min, 0.0, 0.0, c.p_threshold + 4, c.p_threshold + 4)
    worst = max(worst, abs(qoe.compute_qoe(obs1, c.f_target, c.y_min, 0, c) + 2.0))
    # straight-line oracle on a fixed input vector
    obs2 = Observation(40.0, 32.0, 55.0, 4.0, 24.0, 24.0)
    got = qoe.compute_qoe(obs2, 48.0, 20.0, 4, c)
    q_now, q_next = math.log(32.0), math.log(20.0)
    want = (1.0 * q_now * math.exp(-4 / 6) - 0.4 * abs(48.0 - 60.0)
            - 0.2 * 55.0 / (32.0 + 1e-6) - 0.6 * abs(q_next - q_now)
            - 0.5 * max(0.0, 24.0 - 10.0))
    worst = max(worst, abs(got - want))
    # monotonicity sweeps
    rng = RngStream(seed, "verify/qoe")
    mono_ok = True
    prev = None
    for y in np.linspace(1.0, 100.0, 25):
        val = qoe.compute_qoe(Observation(100.0, y, 0.0, 0.0, 0.0, 0.0),
                              c.f_target, y, 1, c)
        if prev is not None and val < prev - 1e-12:
            mono_ok = False
        prev = val
    for field, lo, hi in (("latency", 0.0, 300.0), ("loss", 0.0, 200.0)):
        prev = None
        for v in np.linspace(lo, hi, 25):
            obs = (Observation(50.0, 50.0, v, 0.0, 0.0, 0.0) if field == "latency"
                   else Observation(50.0, 50.0, 10.0, 0.0, v, v))
            val = qoe.compute_qoe(obs, c.f_target, 50.0, 1, c)
            if prev is not None and val > prev + 1e-12:
                mono_ok = False
            prev = val
    ok = worst < 1e-9 and mono_ok
    return CheckResult("qoe-model-values", ok,
                       f"hand-evaluated anchors max err {worst:.2e}; "
                       f"monotone in bitrate/latency/loss: {mono_ok}")


def check_fit_recovery(seed: int) -> CheckResult:
    """Criterion: noiseless synthetic ratings recover their generating grid
    point exactly; sigma=0.2 noise stays within one grid step per weight."""
    truth = QoECoefficients(alpha=1.0, beta=0.4, gamma=0.2, delta1=0.6, delta2=0.5)
    rng = RngStream(seed, "verify/fit")
    clean = qoe.synthetic_ratings(truth, rng.spawn("clean"))
    fit = qoe.fit_coefficients(clean)
    exact = all(abs(getattr(fit.coefficients, k) - getattr(truth, k)) < 1e-12
                for k in ("alpha", "beta", "gamma", "delta1", "delta2"))
    exact = exact and fit.rmse < 1e-9
    noisy = qoe.synthetic_ratings(truth, rng.spawn("noisy"), noise_sigma=0.2)
    fit_n = qoe.fit_coefficients(noisy)
    step_ok = all(abs(getattr(fit_n.coefficients, k) - getattr(truth, k)) <= 0.1 + 1e-9
                  for k in ("alpha", "beta", "gamma", "delta1", "delta2"))
    sens = qoe.coefficient_sensitivity(truth, clean)
    optimum = all(r >= sens.baseline_rmse - 1e-12
                  for pair in sens.perturbed.values() for r in pair)
    ok = exact and step_ok and optimum
    w = fit_n.coefficients
    return CheckResult("qoe-fit-recovery", ok,
                       f"noiseless exact: {exact}; sigma=0.2 within one grid step: "
                       f"{step_ok} (got {w.alpha:.1f},{w.beta:.1f},{w.gamma:.1f},"
                       f"{w.delta1:.1f},{w.delta2:.1f}); perturbations never beat "
                       f"the optimum: {optimum}")


def check_federation_identity(seed: int) -> CheckResult:
    """Criterion: N=1 with LDP off runs byte-identically to independent
    training (same seed): learning curve, diagnostics, and final weights."""
    cfg = SimConfig(n_agents=1)
    hp = dataclasses.replace(default_hyperparams(), hidden_width=32,
                             ldp_enabled=False)
    coeffs = QoECoefficients()
    with tempfile.TemporaryDirectory() as tmp:
        out_a = Path(tmp) / "fmappo"
        out_b = Path(tmp) / "ippo"
        training.train(cfg, hp, coeffs, "fmappo", ["s1", "s3"], seed=seed,
                       out_dir=out_a, episodes=24)
        training.train(cfg, hp, coeffs, "ippo", ["s1", "s3"], seed=seed,
                       out_dir=out_b, episodes=24)
        same = {}
        for name in (training.LEARNING_CURVE_FILE, training.DIAGNOSTICS_FILE):
            same[name] = (out_a / name).read_bytes() == (out_b / name).read_bytes()
        ckpt = f"{training.CHECKPOINT_DIR}/final/agent00.actor.fmap"
        same["final-actor"] = (out_a / ckpt).read_bytes() == (out_b / ckpt).read_bytes()
        ckpt_c = f"{training.CHECKPOINT_DIR}/final/agent00.critic.fmap"
        same["final-critic"] = (out_a / ckpt_c).read_bytes() == (out_b / ckpt_c).read_bytes()
    ok = all(same.values())
    return CheckResult("federation-identity", ok,
                       "byte-identical: " + ", ".join(f"{k}={v}" for k, v in same.items()))


# ---------------------------------------------------------------------------
# Learning-behavior checks (seeded, minutes-scale)
# ---------------------------------------------------------------------------

STEADY_50 = ScenarioSpec("steady50", Channel.fixed(50), Channel.fixed(10),
                         Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))

ROUND_ROBIN = ("s1", "s2", "s3", "s4", "s5", "s6")


def learning_config() -> tuple[SimConfig, HyperParams, QoECoefficients]:
    """The scripted multi-agent training config for the behavior checks:
    defaults plus a weak LDP budget (eps=100) so desk-scale updates are not
    drowned by privacy noise, a conservative initial bitrate so the first
    episodes are not dominated by burst-loss cliffs, and a slightly larger
    entropy bonus so policies stay hedged at this training budget."""
    cfg = SimConfig(n_agents=6, x_init=5.0)
    hp = dataclasses.replace(default_hyperparams(), ldp_eps=100.0,
                             entropy_coef=0.02)
    return cfg, hp, QoECoefficients()


ORDERING_EVAL_EPISODES = 30


def single_agent_config() -> tuple[SimConfig, HyperParams, QoECoefficients]:
    """The scripted single-agent sanity config (federation degenerates to
    identity, so LDP is off)."""
    cfg = SimConfig(n_agents=1)
    hp = dataclasses.replace(default_hyperparams(), ldp_enabled=False)
    return cfg, hp, QoECoefficients()


def check_single_agent_sanity(seed: int) -> CheckResult:
    """Criterion: on a stationary lossless 50 Mbps link, trained reward over
    the last 20 of 100 episodes beats a random policy by >= 30% for at
    least 4 of 5 seeds."""
    cfg, hp, coeffs = single_agent_config()
    wins = []
    details = []
    for s in range(seed, seed + 5):
        result = training.train(cfg, hp, coeffs, "fmappo", ["steady50"], seed=s,
                                episodes=100, scenario_specs=[STEADY_50])
        learned = float(result.episode_rewards[-20:].mean())
        rand = training.evaluate_controller("random", STEADY_50, 20, s, cfg, hp, coeffs)
        baseline = rand.qoe_episode_mean
        margin = (learned - baseline) / max(abs(baseline), 1e-9)
        wins.append(margin >= 0.30)
        details.append(f"seed {s}: learned {learned:.3f} vs random {baseline:.3f} "
                       f"(+{100 * margin:.0f}%)")
    ok = sum(wins) >= 4
    return CheckResult("single-agent-sanity", ok,
                       f"{sum(wins)}/5 seeds beat random by >=30%; " + "; ".join(details))


def check_convergence_shape(seed: int) -> CheckResult:
    """Criterion: the 200-episode moving-average reward is non-decreasing over
    its final third within a 5%-of-range band for at least 4 of 5 seeds."""
    cfg, hp, coeffs = learning_config()
    # multiple of the 6-scenario curriculum so every window has the same
    # scenario composition; otherwise mix jitter swamps the trend
    window = 30
    passes = []
    details = []
    for s in range(seed, seed + 5):
        result = training.train(cfg, hp, coeffs, "fmappo", ROUND_ROBIN, seed=s,
                                episodes=200)
        ma = training.moving_average(result.episode_rewards, window)
        span = float(ma.max() - ma.min())
        band = 0.05 * span
        start = (2 * len(ma)) // 3
        running_max = -np.inf
        worst_drop = 0.0
        for v in ma[start:]:
            running_max = max(running_max, v)
            worst_drop = max(worst_drop, running_max - v)
        passes.append(worst_drop <= band)
        details.append(f"seed {s}: worst drop {worst_drop:.3f} vs band {band:.3f}")
    ok = sum(passes) >= 4
    return CheckResult("convergence-shape", ok,
                       f"{sum(passes)}/5 seeds non-decreasing final third; " + "; ".join(details))


def check_method_ordering(seed: int) -> CheckResult:
    """Criterion: after 150 episodes, federated >= independent on s3 and s5,
    and both learned methods >= each rule controller on s5 (each comparison
    needs 4 of 5 seeds; ties break toward pass).

    Evaluation rolls the stochastic policy PPO actually optimizes; argmax
    extraction at this training scale turns mild logit biases into
    degenerate constant behaviors.
    """
    cfg, hp, coeffs = learning_config()
    eval_eps = 30
    comparisons = {name: [] for name in
                   ("fmappo>=ippo@s3", "fmappo>=ippo@s5", "fmappo>=delay@s5",
                    "fmappo>=probe@s5", "ippo>=delay@s5", "ippo>=probe@s5")}
    details = []
    for s in range(seed, seed + 5):
        scores = {}
        for method in ("fmappo", "ippo"):
            result = training.train(cfg, hp, coeffs, method, ROUND_ROBIN, seed=s,
                                    episodes=150)
            for scen in ("s3", "s5"):
                summary = training.evaluate_agents(result.agents, scen, eval_eps,
                                                   1000 + s, cfg, hp, coeffs, method,
                                                   greedy=False)
                scores[f"{method}@{scen}"] = summary.qoe_episode_mean
        for ctrl in ("delay", "probe"):
            summary = training.evaluate_controller(ctrl, "s5", eval_eps, 1000 + s,
                                                   cfg, hp, coeffs)
            scores[f"{ctrl}@s5"] = summary.qoe_episode_mean
        comparisons["fmappo>=ippo@s3"].append(scores["fmappo@s3"] >= scores["ippo@s3"])
        comparisons["fmappo>=ippo@s5"].append(scores["fmappo@s5"] >= scores["ippo@s5"])
        comparisons["fmappo>=delay@s5"].append(scores["fmappo@s5"] >= scores["delay@s5"])
        comparisons["fmappo>=probe@s5"].append(scores["fmappo@s5"] >= scores["probe@s5"])
        comparisons["ippo>=delay@s5"].append(scores["ippo@s5"] >= scores["delay@s5"])
        comparisons["ippo>=probe@s5"].append(scores["ippo@s5"] >= scores["probe@s5"])
        details.append("seed {}: ".format(s) + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(scores.items())))
    tallies = {k: sum(v) for k, v in comparisons.items()}
    ok = all(t >= 4 for t in tallies.values())
    summary = "; ".join(f"{k}: {t}/5" for k, t in tallies.items())
    return CheckResult("method-ordering", ok, summary + " || " + " | ".join(details))


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

ORACLE_CHECKS: list[Callable[[int], CheckResult]] = [
    check_rng_determinism,
    check_hyperparam_table,
    check_scenario_ranges,
    check_allocation_oracle,
    check_netsim_invariants,
    check_binomial_sampler,
    check_qoe_values,
    check_fit_recovery,
    check_forward_oracle,
    check_softmax_properties,
    check_gradient_actor,
    check_gradient_critic,
    check_gae_oracle,
    check_returns_oracle,
    check_clip_function,
    check_checkpoint_roundtrip,
    check_fedavg_oracle,
    check_ldp_statistics,
    check_comm_overhead,
    check_federation_identity,
    check_episode_structure,
]

LEARNING_CHECKS: list[Callable[[int], CheckResult]] = [
    check_single_agent_sanity,
    check_convergence_shape,
    check_method_ordering,
]


def run_checks(seed: int = 0, full: bool = False,
               only: Sequence[str] | None = None,
               report: Callable[[CheckResult], None] | None = None) -> list[CheckResult]:
    checks = list(ORACLE_CHECKS) + (list(LEARNING_CHECKS) if full else [])
    results = []
    for fn in checks:
        if only and not any(token in fn.__name__ for token in only):
            continue
        result = fn(seed)
        results.append(result)
        if report is not None:
            report(result)
    return results


__all__ = [
    "CheckResult", "CORRUPT_GRADIENT_ENV", "LEARNING_CHECKS", "ORACLE_CHECKS",
    "REFERENCE_HYPERPARAMS", "REFERENCE_SCENARIOS", "ROUND_ROBIN", "STEADY_50",
    "gae_direct_sum", "learning_config", "returns_direct_sum", "run_checks",
    "single_agent_config", "waterfill_oracle",
] + [fn.__name__ for fn in ORACLE_CHECKS + LEARNING_CHECKS]
