"""Self-contained verification suite: independent oracles, invariant sweeps,
and the seeded learning-behavior checks.

Every check is deterministic under its seed and returns ``(passed, detail)``,
where the detail carries the measured value so failures are diagnosable.
Details and verdicts carry seeded values only, so two runs at one seed print
the same lines; how long a check takes is the benchmark's to measure. The
``ORACLE_CHECKS`` and ``LEARNING_CHECKS`` tables name each check, in run
order; ``run_checks`` selects from them and builds the ``CheckResult``s. The
gradient checks honor the ASMS_VERIFY_CORRUPT_GRADIENT environment hook
(scales the analytic gradient by 1.01) so the suite's own failure path can be
exercised.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import fed, netsim, nn, qoe, rl, training
from .core import (OBS_LATENCY, OBS_LOST, OBS_NACKS, OBS_RECEIVED, OBS_TARGET, Channel,
                   HyperParams, QoECoefficients, RngStream, ScenarioSpec, SimConfig,
                   builtin_scenarios)

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

def _finite_difference_check(seed: int, label: str, activation: str, n_out: int,
                             draw: Callable) -> tuple[bool, str]:
    """Analytic loss gradient vs central finite differences over 20 small
    nets; ``draw(net, rng)`` draws a batch and returns the net's loss."""
    rng = RngStream(seed, f"verify/{label}")
    corrupt = _corruption_factor()
    worst = 0.0
    for k in range(20):
        hidden = 8 + int(rng.uniform(0, 12))
        net = nn.init_mlp(6, hidden, n_out, activation, rng.spawn(f"net{k}"))
        loss_and_grad = draw(net, rng)

        def loss(p):
            l, g = loss_and_grad(p)
            return l, g * corrupt

        worst = max(worst, nn.grad_check(net, loss, rng.spawn(f"fd{k}"), n_coords=60))
    return worst < 1e-4, f"max rel err {worst:.3e} (limit 1e-4) over 20 nets"


def check_gradient_actor(seed: int) -> tuple[bool, str]:
    """Analytic policy-loss gradient vs central finite differences.

    A finite difference that bumps a probability ratio across a clip bound,
    1 +/- clip_eps, measures a different branch than the analytic gradient,
    so a batch's old log-probabilities are redrawn while any ratio lies
    within 1e-3 of a bound.
    """
    def draw(actor, rng):
        n, clip_eps = 6, 0.2
        obs = rng.uniform(0, 2, size=n * 6).reshape(n, 6)
        actions = rng.integers(5, size=n)
        lp_taken = nn.categorical_head(nn.forward(actor, obs)[0])[1][np.arange(n), actions]
        margin = 0.0
        while margin < 1e-3:   # distance of the nearest ratio from 1 +/- clip_eps
            old_lp = np.log(np.full(n, 0.2)) + rng.uniform(-0.3, 0.3, size=n)
            margin = np.abs(np.abs(np.exp(lp_taken - old_lp) - 1.0) - clip_eps).min()
        adv = rng.uniform(-2, 2, size=n)
        return lambda p: rl.policy_loss_and_grad(p, obs, actions, old_lp, adv,
                                                 clip_eps, 0.01)[:2]

    return _finite_difference_check(seed, "grad-actor", "tanh", 5, draw)


def check_gradient_critic(seed: int) -> tuple[bool, str]:
    """Analytic value-loss gradient vs central finite differences.

    A finite difference that bumps a ReLU across its kink measures a
    different branch than the analytic gradient, so a net's inputs are
    redrawn while any hidden pre-activation lies within 1e-3 of zero.
    """
    def draw(critic, rng):
        n = 6
        obs = rng.uniform(0, 2, size=n * 6).reshape(n, 6)
        while _relu_margin(critic, obs) < 1e-3:
            obs = rng.uniform(0, 2, size=n * 6).reshape(n, 6)
        rets = rng.uniform(-3, 3, size=n)
        return lambda p: rl.value_loss_and_grad(p, obs, rets, 1.0)

    return _finite_difference_check(seed, "grad-critic", "relu", 1, draw)


def _relu_margin(params: nn.ModelParams, obs: np.ndarray) -> float:
    """Smallest |pre-activation| over both hidden layers."""
    _, (_, z1, _, z2, _) = nn.forward(params, obs)
    return float(min(np.abs(z1).min(), np.abs(z2).min()))


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


def _recursion_vs_sum(seed: int, label: str, fast: Callable,
                      slow: Callable) -> tuple[bool, str]:
    """Max abs diff of ``fast(r, v, boot)`` vs ``slow(r, v, boot)`` over 15
    random episodes of 1, 5 and 40 steps."""
    rng = RngStream(seed, f"verify/{label}")
    worst = 0.0
    for t_len in (1, 5, 40):
        for _ in range(5):
            r = rng.uniform(-2, 2, size=t_len)
            v = rng.uniform(-2, 2, size=t_len)
            boot = rng.uniform(-2, 2)
            worst = max(worst, float(np.abs(fast(r, v, boot) - slow(r, v, boot)).max()))
    return worst < 1e-10, f"max abs diff {worst:.3e} (limit 1e-10), T in {{1,5,40}}"


def check_gae_oracle(seed: int) -> tuple[bool, str]:
    return _recursion_vs_sum(seed, "gae",
                             lambda r, v, boot: rl.compute_gae(r, v, boot, 0.95, 0.95),
                             lambda r, v, boot: gae_direct_sum(r, v, boot, 0.95, 0.95))


def check_returns_oracle(seed: int) -> tuple[bool, str]:
    # the loop also draws v, the V(s_t) that returns ignore; skipping that
    # draw would shift every later one and change the seeded result
    return _recursion_vs_sum(seed, "returns",
                             lambda r, v, boot: rl.compute_returns(r, boot, 0.95),
                             lambda r, v, boot: returns_direct_sum(r, boot, 0.95))


def check_clip_function(seed: int) -> tuple[bool, str]:
    """Six analytic cases: sign(adv) x ratio below/inside/above the band,
    through the objective and mask the policy loss uses."""
    ratio, adv, expected, unclipped = np.array([
        # band is [0.8, 1.2]; unclipped marks the r*adv branch
        (0.5, 2.0, 1.0, 1),     # adv>0, below band: min(1.0, 2.4) = r*adv
        (1.0, 2.0, 2.0, 1),     # adv>0, inside: r*adv
        (1.5, 2.0, 2.4, 0),     # adv>0, above: (1+eps)*adv
        (0.5, -1.0, -0.8, 0),   # adv<0, below: (1-eps)*adv
        (1.0, -1.0, -1.0, 1),   # adv<0, inside: r*adv
        (1.5, -1.0, -1.5, 1),   # adv<0, above: r*adv
    ]).T
    got, mask, _ = rl.clipped_objective(np.log(ratio), np.zeros(6), adv, 0.2)
    worst = float(np.abs(got - expected).max())
    masks_ok = np.array_equal(mask, unclipped == 1)
    return (worst < 1e-12 and masks_ok,
            f"6/6 analytic cases, max abs err {worst:.1e}; unclipped masks match: {masks_ok}")


def waterfill_oracle(targets: np.ndarray, capacity: float) -> np.ndarray:
    """Independent allocation oracle: bisect the water level for up to 200
    halvings. Once the midpoint equals the bound it would replace, every
    later step repeats it, so the loop stops there with the same level."""
    if targets.sum() <= capacity:
        return targets.copy()
    lo, hi = 0.0, float(targets.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.minimum(targets, mid).sum() > capacity:
            if mid == hi:
                break
            hi = mid
        else:
            if mid == lo:
                break
            lo = mid
    return np.minimum(targets, 0.5 * (lo + hi))


def check_allocation_oracle(seed: int) -> tuple[bool, str]:
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
            return False, "allocation exceeded a demand"
    return (worst < 1e-6 and worst_conserve < 1e-9,
            f"1000 instances: max diff vs oracle {worst:.2e}, "
            f"conservation err {worst_conserve:.2e} (limit 1e-9)")


def check_fedavg_oracle(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, "verify/fedavg")
    size = nn.flat_size(((3, 4), (4, 2)))
    worst = 0.0
    for trial in range(20):
        n_up = 2 + int(rng.uniform(0, 5))
        ups = [(rng.uniform(-1, 1, size=size), rng.uniform(-1, 1, size=size))
               for _ in range(n_up)]
        w = rng.uniform(0.1, 3.0, size=n_up)
        got = fed.fedavg(ups, w)
        for k, part in enumerate(got):
            want = sum(wi * up[k] for wi, up in zip(w, ups)) / w.sum()
            worst = max(worst, float(np.abs(part - want).max()))
        # permutation invariance
        perm = rng.permutation(n_up)
        got_p = fed.fedavg([ups[i] for i in perm], w[perm])
        worst = max(worst, max(float(np.abs(p - q).max()) for p, q in zip(got_p, got)))
    # identical-input fixed point must be bit-exact
    base = ups[0]
    averaged = fed.fedavg([base] * 4, [1.0, 2.0, 3.0, 4.0])
    fixed = all(np.array_equal(p, q) for p, q in zip(averaged, base))
    return (worst < 1e-12 and fixed,
            f"max diff vs weighted-mean oracle {worst:.2e} (limit 1e-12), "
            f"identical-input fixed point bit-exact: {fixed}")


def check_ldp_statistics(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, "verify/ldp")
    # 1e6 draws in 16 blocks, one held at a time: the mean and variance come
    # from the blocks' summed values and summed squares
    n, blocks = 1_000_000, 16
    total = squares = 0.0
    for _ in range(blocks):
        draws = rng.laplace(1.0, size=n // blocks)
        total += float(np.add.reduce(draws))
        squares += float(draws.dot(draws))
    mean = total / n
    var = squares / n - mean * mean
    theta = rng.uniform(-1, 1, size=1000)
    noop = fed.ldp_perturb(theta, 0.0, 1.0, rng)
    exact = np.array_equal(noop, theta)
    ok = abs(mean) < 0.005 and abs(var - 2.0) <= 0.04 and exact
    return ok, (f"1e6 draws at b=1: mean {mean:+.4f} (|.|<0.005), "
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

_F, _R = Channel.fixed, Channel.ramp   # a fixed range [lo, hi]; a ramp start -> end
REFERENCE_SCENARIOS = {
    # name: bandwidth, latency, jitter, loss rate, burst loss
    "s1": (_F(100, 200), _F(10, 30), _F(2, 5), _F(0.001), _F(0.0)),
    "s2": (_F(50, 100), _F(30, 50), _F(5, 10), _F(0.005), _F(0.005)),
    "s3": (_F(20, 80), _F(50, 100), _F(10, 20), _F(0.01), _F(0.01)),
    "s4": (_F(200, 500), _F(5, 10), _F(1, 3), _F(0.001), _F(0.0)),
    "s5": (_R(100, 30), _R(50, 100), _R(5, 20), _R(0.005, 0.05), _F(0.10)),
    "s6": (_R(30, 100), _R(100, 20), _R(20, 5), _R(0.02, 0.005), _R(0.05, 0.0)),
}


def check_hyperparam_table(seed: int) -> tuple[bool, str]:
    hp = HyperParams()
    bad = [k for k, v in REFERENCE_HYPERPARAMS.items() if getattr(hp, k) != v]
    return not bad, f"mismatched: {bad}" if bad else "all reference rows match"


def _sample_failure(name: str, bounds: tuple[np.ndarray, np.ndarray], t: int,
                    row: np.ndarray) -> str:
    """Why one drawn sample fails: LinkState's own invariant message, or its
    first channel outside row t of its scenario's ``netsim.link_bounds``."""
    try:
        netsim.link_state(row)
    except ValueError as err:
        return f"{name} t={t}: {err}"
    value, low, high = next((value, low, high) for value, low, high in
                            zip(row[:5].tolist(), bounds[0][t].tolist(),
                                bounds[1][t].tolist())
                            if not (low - 1e-9 <= value <= high + 1e-9))
    return f"{name} t={t}: {value} outside [{low}, {high}]"


def check_scenario_ranges(seed: int) -> tuple[bool, str]:
    """Six reference channel tables; each scenario's 10,000 link states,
    drawn at random steps by one ``netsim.link_draws`` block, in their step's
    bounds and within LinkState's invariants; ``sample_link_state`` at t=0
    and t=T-1 gives every named field within its channel's start/end span."""
    specs = builtin_scenarios()
    table = {s.name: (s.bandwidth, s.latency, s.jitter, s.loss_rate, s.burst_loss)
             for s in specs}
    bad = sorted(k for k in table.keys() | REFERENCE_SCENARIOS.keys()
                 if table.get(k) != REFERENCE_SCENARIOS.get(k))
    if bad:
        return False, f"channels of {bad} differ from the reference table"
    rng = RngStream(seed, "verify/scenarios")
    t_len = 40
    n_samples = 10_000
    for spec in specs:
        lo, hi = bounds = netsim.link_bounds(spec, t_len)
        t = rng.uniform(0, t_len, size=n_samples).astype(np.int64)
        draws = netsim.link_draws(bounds, t, rng)
        values = draws[:, :5]
        ok = ((lo[t, :5] - 1e-9 <= values) & (values <= hi[t, :5] + 1e-9)).all(axis=1)
        ok &= (values[:, 0] > 0) & (values[:, 3] >= 0.0) & (values[:, 3] <= 1.0)
        if not ok.all():
            k = int(np.argmin(ok))
            return False, _sample_failure(spec.name, bounds, int(t[k]), draws[k])
        # ramp endpoints must hit the arrow targets exactly (point ranges);
        # every named field is tested, so a draw given the wrong field fails
        for t_end, end in ((0, "start"), (t_len - 1, "end")):
            state = netsim.sample_link_state(bounds, t_end, rng)
            for value, channel in ((state.capacity_mbps, spec.bandwidth),
                                   (state.base_latency_ms, spec.latency),
                                   (state.base_jitter_ms, spec.jitter),
                                   (state.loss_rate, spec.loss_rate),
                                   (state.burst_level, spec.burst_loss)):
                span = getattr(channel, end)
                if not (span.lo - 1e-9 <= value <= span.hi + 1e-9):
                    return False, f"{spec.name} {end} endpoint off: {value}"
    return True, (f"channels match the table; {n_samples} samples x 6 scenarios "
                  f"x 5 channels in range; ramp endpoints hit their targets")


def check_episode_structure(seed: int) -> tuple[bool, str]:
    """A real (downsized) 330-episode run: 40-step trajectories, one update
    per agent per episode, aggregation every 4 episodes -> 82 rounds."""
    cfg = SimConfig(n_agents=2)
    hp = HyperParams(hidden_width=8, ldp_enabled=False)
    coeffs = QoECoefficients()
    result = training.train(cfg, hp, coeffs, "fmappo", ROUND_ROBIN, seed=seed)
    rounds = len(result.overhead)
    updates = len(result.diagnostics)
    round_eps = [row["episode"] for row in result.overhead[:3]]
    ok = (rounds == 82 and updates == 330 * 2
          and round_eps == [3, 7, 11]
          and len(result.learning_curve) == 330)
    return ok, (f"330 episodes, T={hp.episode_len}: {rounds} rounds (expect 82), "
                f"{updates} agent-updates (expect 660), first rounds after "
                f"episodes {[e + 1 for e in round_eps]}")


def check_comm_overhead(seed: int) -> tuple[bool, str]:
    model = fed.init_global(6, 128, 5, RngStream(seed, "verify/overhead"))
    per_device = fed.update_upload_bytes(model.actor, model.critic)
    mb = per_device / 1e6
    ok = 0.25 <= mb <= 1.0   # within 2x of the ~0.5 MB reference figure
    return ok, (f"upload {per_device} B/device/round = {mb:.3f} MB "
                f"(in [0.25, 1.0]); 6 devices: {6 * per_device / 1e6:.2f} MB/round")


# ---------------------------------------------------------------------------
# Numerics and model plumbing
# ---------------------------------------------------------------------------

def check_forward_oracle(seed: int) -> tuple[bool, str]:
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
    return worst < 1e-12, f"max abs diff vs straight-line oracle {worst:.2e} (limit 1e-12)"


def check_softmax_properties(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, "verify/softmax")
    p, lp = nn.categorical_head(np.zeros((1, 5)))
    ent = -float((p * lp).sum())
    uniform_ok = np.abs(p - 0.2).max() < 1e-12 and abs(ent - math.log(5)) < 1e-12
    p2, _ = nn.categorical_head(np.array([[1000.0, 0.0]]))
    stable_ok = np.isfinite(p2).all() and abs(p2[0, 0] - 1.0) < 1e-12
    worst = 0.0
    for _ in range(100):
        logits = rng.uniform(-30, 30, size=7)[None, :]
        p3, lp3 = nn.categorical_head(logits)
        worst = max(worst, float(np.abs(np.exp(lp3) - p3).max()))
        p4, _ = nn.categorical_head(logits + 123.456)
        worst = max(worst, float(np.abs(p4 - p3).max()))
    ok = uniform_ok and stable_ok and worst < 1e-12
    return ok, (f"uniform/overflow cases ok; exp(logp)=p and shift "
                f"invariance max err {worst:.2e} (limit 1e-12)")


def check_checkpoint_roundtrip(seed: int) -> tuple[bool, str]:
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
    return (identical and detects,
            f"bit-identical roundtrip: {identical}; CRC catches corruption: {detects}")


def check_netsim_invariants(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, "verify/netsim")
    cfg = SimConfig(n_agents=4)
    bounds = [netsim.link_bounds(spec, 40) for spec in builtin_scenarios()]
    worst_excess = 0.0
    for k in range(1000):
        state = netsim.sample_link_state(bounds[k % len(bounds)], k % 40, rng)
        targets = rng.uniform(1, 200, size=4)
        rows, _ = netsim.advance(state, targets, cfg, rng)
        received = rows[:, OBS_RECEIVED]
        worst_excess = max(worst_excess, float(received.sum()) - state.capacity_mbps)
        if np.any(received > targets + 1e-12):
            return False, "received exceeded target"
        sent = np.ceil(received * 1e6 / (8 * cfg.packet_size_bytes))
        if np.any(rows[:, OBS_LOST] > sent):
            return False, "lost more than sent"
    # lossless uncongested link must deliver perfectly
    clean = ScenarioSpec("clean", Channel.fixed(100), Channel.fixed(10),
                         Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))
    state = netsim.sample_link_state(netsim.link_bounds(clean, 1), 0, rng)
    rows, _ = netsim.advance(state, [10.0, 20.0], SimConfig(n_agents=2), rng)
    lossless = rows[:, OBS_LOST].sum() == 0 and np.allclose(
        rows[:, OBS_RECEIVED], [10.0, 20.0])
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
    return ok, (f"capacity excess max {worst_excess:.2e} (limit 1e-9); "
                f"lossless case exact: {lossless}; own-target monotone: {mono_ok}")


def check_rng_determinism(seed: int) -> tuple[bool, str]:
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
    return ok, (f"equal seeds identical over 1e4 draws: {same}; distinct "
                f"streams differ: {differs}; chunking-invariant: {chunk_ok}")


def check_binomial_sampler(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, "verify/binomial")
    n, p, k = 1000, 0.05, 4000
    draws = rng.binomial(np.full(k, n), p)   # the draws of k scalar calls, as one block
    mean = float(draws.mean())
    var = float(draws.var())
    exp_mean, exp_var = n * p, n * p * (1 - p)
    ok = (abs(mean - exp_mean) < 0.7 and abs(var - exp_var) / exp_var < 0.15
          and draws.max() <= n and draws.min() >= 0
          and rng.binomial(50, 0.0) == 0 and rng.binomial(50, 1.0) == 50)
    return ok, (f"Binomial(1000, 0.05) over {k} draws: mean {mean:.2f} "
                f"(expect 50), var {var:.1f} (expect 47.5)")


def check_qoe_values(seed: int) -> tuple[bool, str]:
    c = QoECoefficients()
    worst = abs(qoe.quality(c.y_min, c.y_min))
    worst = max(worst, abs(qoe.quality(math.e * c.y_min, c.y_min) - 1.0))
    worst = max(worst, abs(qoe.quality(50, 1) - math.log(50)))
    # all-terms-zero anchor
    obs0 = (c.y_min, c.y_min, 0.0, 0.0, 0.0, 0.0)
    worst = max(worst, abs(qoe.compute_qoe([obs0], c.f_target, 0, c)[0]))
    # lone disruption term
    obs1 = (c.y_min, c.y_min, 0.0, 0.0, c.p_threshold + 4, c.p_threshold + 4)
    worst = max(worst, abs(qoe.compute_qoe([obs1], c.f_target, 0, c)[0] + 2.0))
    # straight-line oracle on a fixed input vector, its successor receiving 20 Mbps
    obs2 = (40.0, 32.0, 55.0, 4.0, 24.0, 24.0)
    got = qoe.compute_qoe([obs2, (20.0, 20.0, 0.0, 0.0, 0.0, 0.0)], 48.0, 4, c)[0]
    q_now, q_next = math.log(32.0), math.log(20.0)
    want = (1.0 * q_now * math.exp(-4 / 6) - 0.4 * abs(48.0 - 60.0)
            - 0.2 * 55.0 / (32.0 + 1e-6) - 0.6 * abs(q_next - q_now)
            - 0.5 * max(0.0, 24.0 - 10.0))
    worst = max(worst, abs(got - want))
    # monotonicity sweeps, 25 rows each, scored as one step: up in bitrate,
    # down in latency and in loss
    sweeps = np.tile([50.0, 50.0, 10.0, 0.0, 0.0, 0.0], (3, 25, 1))
    sweeps[0, :, OBS_TARGET], sweeps[0, :, OBS_LATENCY] = 100.0, 0.0
    sweeps[0, :, OBS_RECEIVED] = np.linspace(1.0, 100.0, 25)
    sweeps[1, :, OBS_LATENCY] = np.linspace(0.0, 300.0, 25)
    sweeps[2, :, OBS_LOST] = sweeps[2, :, OBS_NACKS] = np.linspace(0.0, 200.0, 25)
    bitrate, latency, loss = qoe.compute_qoe(sweeps[None], c.f_target, 1, c)[0]
    mono_ok = bool(np.all(bitrate[1:] >= bitrate[:-1] - 1e-12)
                   and all(np.all(s[1:] <= s[:-1] + 1e-12) for s in (latency, loss)))
    ok = worst < 1e-9 and mono_ok
    return ok, (f"hand-evaluated anchors max err {worst:.2e}; "
                f"monotone in bitrate/latency/loss: {mono_ok}")


def check_fit_recovery(seed: int) -> tuple[bool, str]:
    """Criterion: noiseless synthetic ratings recover their generating
    weights exactly; sigma=0.2 noise stays within 0.1 per weight."""
    truth = QoECoefficients(alpha=1.0, beta=0.4, gamma=0.2, delta1=0.6, delta2=0.5)
    rng = RngStream(seed, "verify/fit")
    clean = qoe.synthetic_ratings(truth, rng.spawn("clean"))
    fit = qoe.fit_coefficients(clean)
    exact = bool(np.all(np.abs(fit.coefficients.weights() - truth.weights()) < 1e-12)
                 and fit.rmse < 1e-9)
    noisy = qoe.synthetic_ratings(truth, rng.spawn("noisy"), noise_sigma=0.2)
    got = qoe.fit_coefficients(noisy).coefficients.weights()
    step_ok = bool(np.all(np.abs(got - truth.weights()) <= 0.1 + 1e-9))
    sens = qoe.coefficient_sensitivity(truth, clean)
    optimum = all(r >= sens.baseline_rmse - 1e-12
                  for pair in sens.perturbed.values() for r in pair)
    ok = exact and step_ok and optimum
    return ok, (f"noiseless exact: {exact}; sigma=0.2 within 0.1: "
                f"{step_ok} (got {','.join(f'{v:.1f}' for v in got)}); "
                f"perturbations never beat the optimum: {optimum}")


def check_federation_identity(seed: int) -> tuple[bool, str]:
    """Criterion: N=1 with LDP off runs byte-identically to independent
    training (same seed): learning curve, diagnostics, and final weights."""
    cfg = SimConfig(n_agents=1)
    hp = HyperParams(hidden_width=32, ldp_enabled=False)
    coeffs = QoECoefficients()
    with tempfile.TemporaryDirectory() as tmp:
        out_a = Path(tmp) / "fmappo"
        out_b = Path(tmp) / "ippo"
        training.train(cfg, hp, coeffs, "fmappo", ["s1", "s3"], seed=seed,
                       out_dir=out_a, episodes=24)
        training.train(cfg, hp, coeffs, "ippo", ["s1", "s3"], seed=seed,
                       out_dir=out_b, episodes=24)
        actor, critic = training.agent_files(Path(training.CHECKPOINT_DIR) / "final", 0)
        files = [(training.LEARNING_CURVE_FILE, training.LEARNING_CURVE_FILE),
                 (training.DIAGNOSTICS_FILE, training.DIAGNOSTICS_FILE),
                 ("final-actor", actor), ("final-critic", critic)]
        same = {label: (out_a / name).read_bytes() == (out_b / name).read_bytes()
                for label, name in files}
    return all(same.values()), "byte-identical: " + ", ".join(
        f"{k}={v}" for k, v in same.items())


# ---------------------------------------------------------------------------
# Learning-behavior checks (seeded, minutes-scale)
# ---------------------------------------------------------------------------

STEADY_50 = ScenarioSpec("steady50", Channel.fixed(50), Channel.fixed(10),
                         Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))

ROUND_ROBIN = tuple(spec.name for spec in builtin_scenarios())


def learning_config() -> tuple[SimConfig, HyperParams, QoECoefficients]:
    """The scripted multi-agent training config for the behavior checks:
    defaults plus a weak LDP budget (eps=100) so desk-scale updates are not
    drowned by privacy noise, a conservative initial bitrate so the first
    episodes are not dominated by burst-loss cliffs, and a slightly larger
    entropy bonus so policies stay hedged at this training budget."""
    cfg = SimConfig(n_agents=6, x_init=5.0)
    hp = HyperParams(ldp_eps=100.0, entropy_coef=0.02)
    return cfg, hp, QoECoefficients()


ORDERING_EVAL_EPISODES = 30

# method-ordering's comparisons, as (winner, loser, scenario): the winner's
# eval score must be >= the loser's on that scenario
ORDERING = (("fmappo", "ippo", "s3"), ("fmappo", "ippo", "s5"), ("fmappo", "delay", "s5"),
            ("fmappo", "probe", "s5"), ("ippo", "delay", "s5"), ("ippo", "probe", "s5"))


def single_agent_config() -> tuple[SimConfig, HyperParams, QoECoefficients]:
    """The scripted single-agent sanity config (federation degenerates to
    identity, so LDP is off)."""
    cfg = SimConfig(n_agents=1)
    hp = HyperParams(ldp_enabled=False)
    return cfg, hp, QoECoefficients()


def check_single_agent_sanity(seed: int) -> tuple[bool, str]:
    """Criterion: on a stationary lossless 50 Mbps link, trained reward over
    the last 20 of 100 episodes beats a random policy by >= 30% for at
    least 4 of 5 seeds."""
    cfg, hp, coeffs = single_agent_config()
    wins = []
    details = []
    for s in range(seed, seed + 5):
        result = training.train(cfg, hp, coeffs, "fmappo", [STEADY_50], seed=s,
                                episodes=100)
        learned = float(result.episode_rewards[-20:].mean())
        rand = training.evaluate_controller("random", STEADY_50, 20, s, cfg, hp, coeffs)
        baseline = rand.qoe_episode_mean
        margin = (learned - baseline) / max(abs(baseline), 1e-9)
        wins.append(margin >= 0.30)
        details.append(f"seed {s}: learned {learned:.3f} vs random {baseline:.3f} "
                       f"(+{100 * margin:.0f}%)")
    return sum(wins) >= 4, (f"{sum(wins)}/5 seeds beat random by >=30%; "
                            + "; ".join(details))


def check_convergence_shape(seed: int) -> tuple[bool, str]:
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
        tail = ma[(2 * len(ma)) // 3:]
        worst_drop = float((np.maximum.accumulate(tail) - tail).max())
        passes.append(worst_drop <= band)
        details.append(f"seed {s}: worst drop {worst_drop:.3f} vs band {band:.3f}")
    return sum(passes) >= 4, (f"{sum(passes)}/5 seeds non-decreasing final third; "
                              + "; ".join(details))


def check_method_ordering(seed: int) -> tuple[bool, str]:
    """Criterion: after 150 episodes, federated >= independent on s3 and s5,
    and both learned methods >= each rule controller on s5 (each comparison
    needs 4 of 5 seeds; ties break toward pass).

    Evaluation rolls the stochastic policy PPO actually optimizes; argmax
    extraction at this training scale turns mild logit biases into
    degenerate constant behaviors.
    """
    cfg, hp, coeffs = learning_config()
    eval_eps = ORDERING_EVAL_EPISODES
    tallies = {f"{w}>={l}@{scen}": 0 for w, l, scen in ORDERING}
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
        for w, l, scen in ORDERING:
            tallies[f"{w}>={l}@{scen}"] += scores[f"{w}@{scen}"] >= scores[f"{l}@{scen}"]
        details.append(f"seed {s}: " + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(scores.items())))
    summary = "; ".join(f"{k}: {t}/5" for k, t in tallies.items())
    return (all(t >= 4 for t in tallies.values()),
            summary + " || " + " | ".join(details))


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

# Each check function and the name it reports, in run order.
ORACLE_CHECKS: dict[Callable[[int], tuple[bool, str]], str] = {
    check_rng_determinism: "rng-determinism",
    check_hyperparam_table: "hyperparameter-defaults",
    check_scenario_ranges: "scenario-ranges",
    check_allocation_oracle: "allocation-oracle",
    check_netsim_invariants: "netsim-invariants",
    check_binomial_sampler: "binomial-sampler",
    check_qoe_values: "qoe-model-values",
    check_fit_recovery: "qoe-fit-recovery",
    check_forward_oracle: "forward-matmul-oracle",
    check_softmax_properties: "softmax-properties",
    check_gradient_actor: "gradient-actor",
    check_gradient_critic: "gradient-critic",
    check_gae_oracle: "gae-recursion-vs-sum",
    check_returns_oracle: "returns-recursion-vs-sum",
    check_clip_function: "clip-function-cases",
    check_checkpoint_roundtrip: "checkpoint-roundtrip",
    check_fedavg_oracle: "fedavg-oracle",
    check_ldp_statistics: "ldp-laplace-statistics",
    check_comm_overhead: "comm-overhead-size",
    check_federation_identity: "federation-identity",
    check_episode_structure: "episode-structure",
}

LEARNING_CHECKS: dict[Callable[[int], tuple[bool, str]], str] = {
    check_single_agent_sanity: "single-agent-sanity",
    check_convergence_shape: "convergence-shape",
    check_method_ordering: "method-ordering",
}


def run_checks(seed: int = 0, full: bool = False,
               only: Sequence[str] | None = None,
               report: Callable[[CheckResult], None] | None = None) -> list[CheckResult]:
    """Run the oracle checks, plus the learning checks when ``full``. With
    ``only``, a check runs when a stripped, non-empty token occurs in its
    function name or its reported name (``-`` and ``_`` alike); a token that
    selects no check, or an ``only`` without a non-empty token, raises
    ValueError before any check runs."""
    checks = {**ORACLE_CHECKS, **(LEARNING_CHECKS if full else {})}
    if only is not None:
        tokens = [t.strip() for t in only if t.strip()]

        def selects(token: str, fn: Callable) -> bool:
            key = token.replace("-", "_")
            return key in fn.__name__ or key in checks[fn].replace("-", "_")

        unmatched = [t for t in tokens if not any(selects(t, fn) for fn in checks)]
        if unmatched or not tokens:
            raise ValueError(f"no check matches {unmatched or list(only)}"
                             + ("" if full else " (learning checks need --full)"))
        checks = {fn: name for fn, name in checks.items()
                  if any(selects(t, fn) for t in tokens)}
    results = []
    for fn, name in checks.items():
        passed, detail = fn(seed)
        results.append(CheckResult(name, bool(passed), detail))
        if report is not None:
            report(results[-1])
    return results


__all__ = [
    "CheckResult", "CORRUPT_GRADIENT_ENV", "LEARNING_CHECKS", "ORACLE_CHECKS", "ORDERING",
    "REFERENCE_HYPERPARAMS", "REFERENCE_SCENARIOS", "ROUND_ROBIN", "STEADY_50",
    "gae_direct_sum", "learning_config", "returns_direct_sum", "run_checks",
    "single_agent_config", "waterfill_oracle",
] + [fn.__name__ for fn in [*ORACLE_CHECKS, *LEARNING_CHECKS]]
