import dataclasses
import math

import numpy as np
import pytest

from asms import netsim, nn, qoe, rl
from asms.core import (OBS_RECEIVED, OBS_TARGET, Channel, HyperParams, QoECoefficients,
                       RngStream, ScenarioSpec, SimConfig, default_hyperparams,
                       scenario_by_name)
from asms.netsim import BottleneckSim, advance, link_bounds, sample_link_state
from rng_state import rng_state

STEADY = ScenarioSpec("steady", Channel.fixed(80), Channel.fixed(10),
                      Channel.fixed(2), Channel.fixed(0.0), Channel.fixed(0.0))


class TestNormalizeObs:
    def test_zero_observation(self):
        assert np.array_equal(rl.normalize_obs(np.zeros(6), y_max=200.0), np.zeros(6))

    def test_scale_anchor(self):
        vec = rl.normalize_obs([200.0, 100.0, 0.0, 0.0, 0.0, 0.0], y_max=200.0)
        assert vec[0] == pytest.approx(1.0)
        assert vec[1] == pytest.approx(0.5)

    def test_documented_scaling_constants(self):
        vec = rl.normalize_obs([100.0, 50.0, 100.0, 25.0, 50.0, 40.0], y_max=200.0)
        np.testing.assert_allclose(
            vec, [100 / 200, 50 / 200, 100 / 200, 25 / 50, 50 / 100, 40 / 100])

    def test_clipped_at_five(self):
        vec = rl.normalize_obs([100.0, 1.0, 5000.0, 1000.0, 5000.0, 5000.0], y_max=200.0)
        assert vec.max() == 5.0

    def test_equals_the_per_call_scale_arithmetic_bit_for_bit(self):
        rows = RngStream(3, "obs").uniform(0, 900, size=240).reshape(10, 4, 6)
        rows[0, 0] = [-0.0, 0.0, np.nan, np.inf, -3.0, 1e-300]
        for y_max in (200.0, 100, 37.5, 200.0):
            scale = np.array([y_max, y_max, rl.LATENCY_SCALE_MS, rl.JITTER_SCALE_MS,
                              rl.PACKET_SCALE, rl.PACKET_SCALE])
            want = np.clip(rows / scale, 0.0, rl.OBS_CLIP)
            assert rl.normalize_obs(rows, y_max).tobytes() == want.tobytes()
            assert rl.normalize_obs(rows[3, 1], y_max).tobytes() == want[3, 1].tobytes()


def select_action_reference(policy, obs_vec, rng):
    """The per-agent stochastic pick that run_episode made one agent at a
    time: (index, log-prob)."""
    logits, _ = nn.forward(policy, obs_vec)
    probs, logp = nn.categorical_head(logits[None, :])
    u = rng.uniform()
    idx = min(int(np.searchsorted(np.cumsum(probs[0]), u, side="right")), probs.shape[1] - 1)
    return idx, float(logp[0, idx])


def greedy_action_reference(policy, obs_vec):
    """The per-agent greedy pick: (index, log-prob)."""
    logits, _ = nn.forward(policy, obs_vec)
    _, logp = nn.categorical_head(logits[None, :])
    idx = int(np.argmax(logits))
    return idx, float(logp[0, idx])


def pick_actions_reference(logits, rng):
    """pick_actions' arithmetic through np.argmax, np.cumsum and
    ndarray.sum, as it ran before it called the ufuncs directly."""
    probs, logp = nn.categorical_head(logits)
    if rng is None:
        idx = np.argmax(logits, axis=1)
    else:
        u = rng.uniform(size=probs.shape[0])
        idx = np.minimum((np.cumsum(probs, axis=1) <= u[:, None]).sum(axis=1),
                         probs.shape[1] - 1)
    return idx, logp[np.arange(idx.size), idx]


class FixedUniforms:
    """Stands in for the action stream: hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def uniform(self, size):
        assert size == self.u.size
        return self.u


def logits_block(n, seed):
    """(n, 5) logits from n distinct actors, one batch-1 forward each."""
    rng = RngStream(seed, "logits")
    actors = [nn.init_mlp(6, 8, 5, "tanh", rng.spawn(f"a{i}")) for i in range(n)]
    obs = rng.uniform(0, 2, size=(n * 6)).reshape(n, 6)
    return np.stack([nn.forward(actor, row)[0] for actor, row in zip(actors, obs)])


class TestSelectAction:
    """rl.pick_actions, against the per-agent references above."""

    @pytest.mark.parametrize("n", [1, 6, 24])
    def test_head_rows_equal_the_single_row_head(self, n):
        logits = np.concatenate([logits_block(n, n), 30.0 * logits_block(n, n + 1)])
        probs, logp = nn.categorical_head(logits)
        for i, row in enumerate(logits):
            p1, lp1 = nn.categorical_head(row[None, :])
            assert np.array_equal(probs[i], p1[0]) and np.array_equal(logp[i], lp1[0])

    @pytest.mark.parametrize("n", [1, 6, 24])
    def test_stochastic_pick_equals_scalar_searchsorted(self, n):
        logits = logits_block(n, 10 + n)
        probs, logp = nn.categorical_head(logits)
        cums = np.cumsum(probs, axis=1)
        below_one = np.nextafter(1.0, 0.0)
        u_sets = [RngStream(n, "u").uniform(size=n), np.full(n, below_one),
                  np.zeros(n), cums[:, 1],   # u exactly on a cumulative probability
                  np.where(np.arange(n) % 2 == 0, cums[:, 3], below_one)]
        for u in u_sets:
            idx, lp = rl.pick_actions(logits, FixedUniforms(u))
            want = [min(int(np.searchsorted(np.cumsum(probs[i]), u[i], side="right")), 4)
                    for i in range(n)]
            assert idx.tolist() == want
            assert lp.tolist() == [logp[i, k] for i, k in enumerate(want)]
        if n == 24:   # some row sums short of u < 1, so the clip to K-1 acts
            assert np.any(cums[:, -1] <= below_one)

    @pytest.mark.parametrize("n", [1, 6, 24])
    def test_greedy_pick_is_the_row_argmax(self, n):
        logits = logits_block(n, 20 + n)
        _, logp = nn.categorical_head(logits)
        idx, lp = rl.pick_actions(logits, None)
        assert idx.tolist() == [int(np.argmax(row)) for row in logits]
        assert lp.tolist() == [logp[i, k] for i, k in enumerate(idx)]

    @pytest.mark.parametrize("n", [1, 2, 6, 24])
    def test_equals_the_wrapped_arithmetic_bit_for_bit(self, n):
        for seed in range(30):
            logits = logits_block(n, seed) * (1 + seed % 4) ** 3
            for stochastic in (True, False):
                got_rng, want_rng = RngStream(seed, "act"), RngStream(seed, "act")
                got = rl.pick_actions(logits, got_rng if stochastic else None)
                want = pick_actions_reference(logits, want_rng if stochastic else None)
                assert [a.dtype for a in got] == [a.dtype for a in want]
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
                assert rng_state(got_rng) == rng_state(want_rng)

    def test_uniform_logits_frequencies(self):
        # a zero-weight net gives uniform logits over 5 actions
        actor = nn.init_mlp(6, 4, 5, "tanh", RngStream(0, "a"))
        actor = actor.with_theta(np.zeros_like(actor.theta))
        n = 100_000
        logits, _ = nn.forward(actor, np.ones((n, 6)))
        idx, _ = rl.pick_actions(logits, RngStream(1, "sample"))
        counts = np.bincount(idx, minlength=5)
        # chi-squared against uniform: 4 dof, p>0.01 -> stat < 13.28
        expected = n / 5
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 13.28, f"chi2={chi2}, counts={counts}"

    def test_dominant_logit(self):
        actor = nn.init_mlp(6, 4, 5, "tanh", RngStream(0, "a"))
        theta = np.zeros_like(actor.theta)
        # bias the last layer's third output by +20 (the flat vector ends
        # with the output biases)
        theta[-5 + 2] = 20.0
        actor = actor.with_theta(theta)
        logits, _ = nn.forward(actor, np.full((5000, 6), 0.5))
        np.testing.assert_array_equal(logits[0], [0.0, 0.0, 20.0, 0.0, 0.0])
        idx, _ = rl.pick_actions(logits, RngStream(2, "s"))
        assert np.mean(idx == 2) >= 0.999

    def test_seeded_determinism(self):
        logits = logits_block(20, 7)
        run1, _ = rl.pick_actions(logits, RngStream(9, "s"))
        run2, _ = rl.pick_actions(logits, RngStream(9, "s"))
        assert run1.tolist() == run2.tolist()
        assert len(set(run1.tolist())) > 1   # the draws do vary within one block

    def test_log_prob_matches_head(self):
        actor = nn.init_mlp(6, 8, 5, "tanh", RngStream(3, "a"))
        logits, _ = nn.forward(actor, np.full((1, 6), 0.3))
        (idx,), (lp,) = rl.pick_actions(logits, RngStream(4, "s"))
        _, logp = nn.categorical_head(logits)
        assert lp == pytest.approx(float(logp[0, idx]))

    def test_block_equals_per_agent_reference_picks(self):
        rng = RngStream(5, "agents")
        actors = [nn.init_mlp(6, 8, 5, "tanh", rng.spawn(f"a{i}")) for i in range(24)]
        obs = rng.uniform(0, 1, size=24 * 6).reshape(24, 6)
        logits = np.stack([nn.forward(a, row)[0] for a, row in zip(actors, obs)])
        block_rng, seq_rng = RngStream(6, "act"), RngStream(6, "act")
        idx, lp = rl.pick_actions(logits, block_rng)
        seq = [select_action_reference(a, row, seq_rng) for a, row in zip(actors, obs)]
        assert idx.tolist() == [s[0] for s in seq] and lp.tolist() == [s[1] for s in seq]
        assert rng_state(block_rng) == rng_state(seq_rng)
        idx, lp = rl.pick_actions(logits, None)
        seq = [greedy_action_reference(a, row) for a, row in zip(actors, obs)]
        assert idx.tolist() == [s[0] for s in seq] and lp.tolist() == [s[1] for s in seq]


class TestGae:
    def test_single_step(self):
        adv = rl.compute_gae(np.array([1.0]), np.array([0.0]), 0.0, 0.95, 0.95)
        assert adv[0] == pytest.approx(1.0)

    def test_lambda_zero_is_td_error(self):
        rng = RngStream(5, "gae")
        r = rng.uniform(-1, 1, size=10)
        v = rng.uniform(-1, 1, size=10)
        boot = rng.uniform(-1, 1)
        adv = rl.compute_gae(r, v, boot, 0.9, 0.0)
        ext = np.append(v, boot)
        deltas = r + 0.9 * ext[1:] - ext[:-1]
        np.testing.assert_allclose(adv, deltas, atol=1e-12)

    def test_recursion_matches_double_sum(self):
        rng = RngStream(6, "gae")
        for t_len in (1, 5, 40, 64):
            r = rng.uniform(-2, 2, size=t_len)
            v = rng.uniform(-2, 2, size=t_len)
            boot = rng.uniform(-2, 2)
            fast = rl.compute_gae(r, v, boot, 0.95, 0.95)
            ext = np.append(v, boot)
            deltas = r + 0.95 * ext[1:] - ext[:-1]
            slow = np.array([
                sum((0.95 * 0.95) ** l * deltas[t + l] for l in range(t_len - t))
                for t in range(t_len)])
            np.testing.assert_allclose(fast, slow, atol=1e-10)


def gae_own_loop(rewards, values, bootstrap, gamma, lam):
    """Advantages by a loop of their own, the reference compute_gae must match."""
    values_ext = np.append(values, bootstrap)
    deltas = rewards + gamma * values_ext[1:] - values_ext[:-1]
    adv = np.zeros(rewards.size)
    running = 0.0
    for t in range(rewards.size - 1, -1, -1):
        running = deltas[t] + gamma * lam * running
        adv[t] = running
    return adv


def returns_own_loop(rewards, bootstrap, gamma):
    """Reward-to-go by a loop of its own, the reference compute_returns must match."""
    returns = np.zeros(rewards.size)
    running = float(bootstrap)
    for t in range(rewards.size - 1, -1, -1):
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


@pytest.mark.parametrize("t_len", [1, 5, 40])
def test_gae_and_returns_equal_their_own_loops_bit_for_bit(t_len):
    rng = RngStream(t_len, "recursion")
    hp = HyperParams()
    for gamma, lam in ((hp.gamma_discount, hp.gae_lambda), (0.9, 0.0), (1.0, 1.0), (0.37, 0.81)):
        r = rng.uniform(-50, 50, size=t_len)
        v = rng.uniform(-50, 50, size=t_len)
        boot = rng.uniform(-50, 50)
        assert (rl.compute_gae(r, v, boot, gamma, lam).tobytes()
                == gae_own_loop(r, v, boot, gamma, lam).tobytes())
        assert (rl.compute_returns(r, boot, gamma).tobytes()
                == returns_own_loop(r, boot, gamma).tobytes())


class TestReturns:
    def test_all_zero(self):
        assert np.all(rl.compute_returns(np.zeros(5), 0.0, 0.95) == 0.0)

    def test_undiscounted_sum(self):
        returns = rl.compute_returns(np.ones(3), 0.0, 1.0)
        np.testing.assert_allclose(returns, [3.0, 2.0, 1.0])

    def test_matches_direct_sum_with_bootstrap(self):
        rng = RngStream(7, "ret")
        t_len = 40
        r = rng.uniform(-2, 2, size=t_len)
        boot = rng.uniform(-2, 2)
        fast = rl.compute_returns(r, boot, 0.95)
        slow = np.array([
            sum(0.95 ** i * r[t + i] for i in range(t_len - t))
            + 0.95 ** (t_len - t) * boot
            for t in range(t_len)])
        np.testing.assert_allclose(fast, slow, atol=1e-10)


class TestClippedObjective:
    def test_on_policy_point(self):
        val, unclipped, _ = rl.clipped_objective(-1.0, -1.0, 1.7, 0.2)
        assert val == pytest.approx(1.7) and unclipped

    def test_positive_advantage_clipped(self):
        val, unclipped, _ = rl.clipped_objective(math.log(1.5), 0.0, 2.0, 0.2)
        assert val == pytest.approx(2.4) and not unclipped

    def test_negative_advantage_branch(self):
        val, unclipped, _ = rl.clipped_objective(math.log(0.5), 0.0, -1.0, 0.2)
        assert val == pytest.approx(-0.8) and not unclipped

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            rl.clipped_objective(0.0, 0.0, 1.0, 1.5)


class TestWhiten:
    def test_moments(self):
        vals = RngStream(8, "w").uniform(-10, 10, size=200)
        white = rl.whiten(vals)
        assert abs(white.mean()) < 1e-9
        assert abs(white.std() - 1.0) < 1e-6

    def test_single_sample_passthrough(self):
        assert rl.whiten(np.array([3.5]))[0] == 3.5

    def test_constant_batch(self):
        assert np.all(rl.whiten(np.full(10, 2.0)) == 0.0)


def synthetic_batch(seed=0, n=40):
    rng = RngStream(seed, "batch")
    actor = nn.init_mlp(6, 16, 5, "tanh", rng.spawn("actor"))
    critic = nn.init_mlp(6, 16, 1, "relu", rng.spawn("critic"))
    obs = rng.uniform(0, 1.5, size=n * 6).reshape(n, 6)
    actions = rng.integers(5, size=n)
    logits, _ = nn.forward(actor, obs)
    _, logp = nn.categorical_head(logits)
    old_lp = logp[np.arange(n), actions]
    batch = rl.TrainBatch(observations=obs, actions=actions, old_log_probs=old_lp,
                          advantages=rl.whiten(rng.uniform(-2, 2, size=n)),
                          returns=rng.uniform(-3, 3, size=n))
    return actor, critic, batch


def adam_pair(agent):
    """A fresh (actor, critic) pair of Adam states for ``agent``, as the
    trainer keeps one per agent."""
    return (nn.AdamState.zeros(agent.actor.theta.size),
            nn.AdamState.zeros(agent.critic.theta.size))


class TestPpoUpdate:
    def test_initial_ratios_are_one(self):
        actor, critic, batch = synthetic_batch()
        _, grad, stats = rl.policy_loss_and_grad(
            actor, batch.observations, batch.actions, batch.old_log_probs,
            batch.advantages, 0.2, 0.0)
        assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-8)
        assert stats["clip_fraction"] == 0.0

    def test_clipped_samples_give_zero_gradient(self):
        actor, _, _ = synthetic_batch(seed=3)
        obs = np.full((1, 6), 0.5)
        logits, _ = nn.forward(actor, obs)
        _, logp = nn.categorical_head(logits)
        action = np.array([2])
        # behavior log-prob far below current: ratio = 3.0 > 1+eps, adv > 0
        old_lp = logp[0, 2] - math.log(3.0)
        _, grad, stats = rl.policy_loss_and_grad(
            actor, obs, action, np.array([old_lp]), np.array([1.0]), 0.2, 0.0)
        assert stats["clip_fraction"] == 1.0
        assert np.all(grad == 0.0)

    def test_unclipped_sample_gradient_nonzero(self):
        actor, _, _ = synthetic_batch(seed=3)
        obs = np.full((1, 6), 0.5)
        logits, _ = nn.forward(actor, obs)
        _, logp = nn.categorical_head(logits)
        _, grad, _ = rl.policy_loss_and_grad(
            actor, obs, np.array([2]), np.array([logp[0, 2]]),
            np.array([1.0]), 0.2, 0.0)
        assert np.any(grad != 0.0)

    def test_policy_gradient_direction_single_sample(self):
        hp = HyperParams(minibatch=1, epochs=1, entropy_coef=0.0)
        actor, critic, _ = synthetic_batch(seed=4)
        obs = np.full((1, 6), 0.4)
        logits, _ = nn.forward(actor, obs)
        _, logp_before = nn.categorical_head(logits)
        action = np.array([1])
        batch = rl.TrainBatch(observations=obs, actions=action,
                              old_log_probs=np.array([float(logp_before[0, 1])]),
                              advantages=np.array([2.0]),
                              returns=np.array([0.0]))
        agent = rl.PPOAgent(actor=actor, critic=critic)
        rl.ppo_update(agent, adam_pair(agent), batch, hp, RngStream(0, "u"))
        logits2, _ = nn.forward(agent.actor, obs)
        _, logp_after = nn.categorical_head(logits2)
        assert float(logp_after[0, 1]) > float(logp_before[0, 1])

    def test_value_loss_strictly_decreases_over_epochs(self):
        _, critic, batch = synthetic_batch(seed=5)
        state = nn.AdamState.zeros(critic.theta.size)
        losses = []
        for _ in range(10):
            loss, grad = rl.value_loss_and_grad(critic, batch.observations,
                                                batch.returns, 1.0)
            losses.append(loss)
            nn.adam_step(critic, state, grad, 3e-4, HyperParams().grad_clip)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_update_diagnostics_finite(self):
        actor, critic, batch = synthetic_batch(seed=6)
        hp = default_hyperparams()
        before = actor.theta.copy()
        agent = rl.PPOAgent(actor=actor, critic=critic)
        adam = adam_pair(agent)
        diag = rl.ppo_update(agent, adam, batch, hp, RngStream(1, "u"))
        for v in (diag.policy_loss, diag.value_loss, diag.entropy,
                  diag.clip_fraction, diag.mean_ratio):
            assert math.isfinite(v)
        assert not np.array_equal(agent.actor.theta, before)
        steps = -(-len(batch) // hp.minibatch) * hp.epochs
        assert adam[0].step == adam[1].step == steps
        rl.ppo_update(agent, adam, batch, hp, RngStream(2, "u"))
        assert adam[0].step == adam[1].step == 2 * steps   # the pair carries on

    def test_agent_holds_no_optimizer_state(self):
        actor, critic, batch = synthetic_batch(seed=6)
        agent = rl.PPOAgent(actor=actor, critic=critic)
        assert [f.name for f in dataclasses.fields(agent)] == ["actor", "critic", "sample_count"]
        rl.ppo_update(agent, adam_pair(agent), batch, HyperParams(minibatch=16, epochs=1),
                      RngStream(1, "u"))
        assert set(vars(agent)) == {"actor", "critic", "sample_count"}

    def test_diagnostics_average_left_to_right(self, monkeypatch):
        # a compensated sum of [1e16, 1.0, -1e16] gives 1.0, so a mean of 1/3
        losses = iter([1e16, 1.0, -1e16])
        real = rl.policy_loss_and_grad

        def stub(*args):
            _, grad, stats = real(*args)
            return next(losses), grad, stats

        monkeypatch.setattr(rl, "policy_loss_and_grad", stub)
        actor, critic, batch = synthetic_batch(seed=6, n=30)
        hp = HyperParams(minibatch=10, epochs=1)
        agent = rl.PPOAgent(actor=actor, critic=critic)
        diag = rl.ppo_update(agent, adam_pair(agent), batch, hp, RngStream(1, "u"))
        assert diag.policy_loss == 0.0

    def test_counts_the_samples_it_trains_on(self):
        actor, critic, batch = synthetic_batch(seed=6, n=30)
        agent = rl.PPOAgent(actor=actor, critic=critic)
        hp = HyperParams(minibatch=8, epochs=3)
        adam = adam_pair(agent)
        for k in (1, 2):
            rl.ppo_update(agent, adam, batch, hp, RngStream(k, "u"))
            assert agent.sample_count == 30 * k   # once per batch, not per epoch

    def test_update_writes_into_the_agents_own_arrays(self):
        actor, critic, batch = synthetic_batch(seed=7)
        agent = rl.PPOAgent(actor=actor, critic=critic)
        adam = adam_pair(agent)
        arrays = (actor.theta, critic.theta, adam[0].m, adam[1].v)
        kept = [a.copy() for a in arrays]
        rl.ppo_update(agent, adam, batch, HyperParams(minibatch=16, epochs=2), RngStream(2, "u"))
        assert agent.actor is actor and agent.critic is critic
        now = (agent.actor.theta, agent.critic.theta, adam[0].m, adam[1].v)
        assert all(a is b for a, b in zip(now, arrays))   # the same objects ...
        assert not any(np.array_equal(a, k) for a, k in zip(arrays, kept))   # ... rewritten

    def test_losses_write_gradients_into_out_bit_equal(self):
        actor, critic, batch = synthetic_batch(seed=8)
        policy_args = (actor, batch.observations, batch.actions, batch.old_log_probs,
                       batch.advantages, 0.2, 0.01)
        loss, fresh, stats = rl.policy_loss_and_grad(*policy_args)
        _, again, _ = rl.policy_loss_and_grad(*policy_args)
        buf = actor.with_theta(np.zeros(actor.theta.size))
        buf.theta.fill(np.nan)
        loss2, written, stats2 = rl.policy_loss_and_grad(*policy_args, buf)
        assert written is buf.theta and not np.shares_memory(fresh, again)
        assert (loss2, written.tobytes(), stats2) == (loss, fresh.tobytes(), stats)
        vloss, vfresh = rl.value_loss_and_grad(critic, batch.observations, batch.returns, 2.0)
        vbuf = critic.with_theta(np.zeros(critic.theta.size))
        vbuf.theta.fill(np.nan)
        vloss2, vwritten = rl.value_loss_and_grad(critic, batch.observations,
                                                  batch.returns, 2.0, vbuf)
        assert vwritten is vbuf.theta
        assert (vloss2, vwritten.tobytes()) == (vloss, vfresh.tobytes())

    def test_entropy_equals_the_old_heads_bit_for_bit(self):
        # the per-row entropy -sum(p * logp) that categorical_head returned
        # beside its probabilities, and the loss and gradient built on it
        actor, _, batch = synthetic_batch(seed=9)
        n = len(batch)
        logits, cache = nn.forward(actor, batch.observations)
        shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
        total = np.add.reduce(np.exp(shifted), axis=1, keepdims=True)
        probs, logp = np.exp(shifted) / total, shifted - np.log(total)
        entropy = -np.add.reduce(probs * logp, axis=1)
        rows = np.arange(n)
        objective, unclipped, ratio = rl.clipped_objective(
            logp[rows, batch.actions], batch.old_log_probs, batch.advantages, 0.2)
        for coef in (0.0, 0.01, 0.5):
            loss, grad, stats = rl.policy_loss_and_grad(
                actor, batch.observations, batch.actions, batch.old_log_probs,
                batch.advantages, 0.2, coef)
            mean_entropy = float(entropy.sum() / n)
            assert stats["entropy"] == mean_entropy
            assert loss == -float(objective.sum() / n) - coef * mean_entropy
            dlp = -(ratio * batch.advantages * unclipped) / n
            dlogits = dlp[:, None] * (-probs)
            dlogits[rows, batch.actions] += dlp
            dlogits += (coef / n) * probs * (logp + entropy[:, None])
            assert grad.tobytes() == nn.backward(actor, cache, dlogits).tobytes()

    def test_empty_batch_rejected(self):
        actor, critic, _ = synthetic_batch()
        empty = rl.TrainBatch(observations=np.zeros((0, 6)),
                              actions=np.zeros(0, dtype=np.int64),
                              old_log_probs=np.zeros(0), advantages=np.zeros(0),
                              returns=np.zeros(0))
        agent = rl.PPOAgent(actor=actor, critic=critic)
        with pytest.raises(ValueError):
            rl.ppo_update(agent, adam_pair(agent), empty, default_hyperparams(),
                          RngStream(0, "u"))


def make_agents(n, seed=0, hidden=8):
    rng = RngStream(seed, "agents")
    return [rl.PPOAgent(actor=nn.init_mlp(6, hidden, 5, "tanh", rng.spawn(f"a{i}")),
                        critic=nn.init_mlp(6, hidden, 1, "relu", rng.spawn(f"c{i}")))
            for i in range(n)]


class TestScoreEpisode:
    def test_scores_each_agent_step_and_rejects_one_bad_row(self):
        coeffs = QoECoefficients()
        rows = np.tile([10.0, 8.0, 20.0, 2.0, 30.0, 30.0], (5, 4, 1))
        rows[4, :, OBS_RECEIVED] = 6.0
        frame_rate = np.full((5, 4), 48.0)
        rewards, agent_qoe = rl.score_episode(rows, frame_rate, coeffs)
        last_two = qoe.compute_qoe(rows[3:, 1].tolist(), 48.0, 4, coeffs)
        assert agent_qoe[3, 1] == last_two[0]
        assert agent_qoe[4, 1] == last_two[1]
        np.testing.assert_array_equal(rewards, agent_qoe.mean(axis=1))
        rows[2, 3, OBS_RECEIVED] = 10.5
        with pytest.raises(ValueError, match="received bitrate exceeds"):
            rl.score_episode(rows, frame_rate, coeffs)

    def test_every_step_counts_all_agents_as_users(self):
        coeffs = QoECoefficients()
        rng = RngStream(2, "score")
        y = rng.uniform(2.0, 50.0, size=6).reshape(3, 2)
        latency = rng.uniform(5.0, 50.0, size=6).reshape(3, 2)
        rows = np.stack([y, y, latency, np.full((3, 2), 2.0),
                         np.zeros((3, 2)), np.zeros((3, 2))], axis=-1)
        frame_rate = np.full((3, 2), 60.0)
        _, agent_qoe = rl.score_episode(rows, frame_rate, coeffs)
        for users, same in ((2, True), (1, False), (3, False)):
            want = np.stack([qoe.compute_qoe(rows[:, i].tolist(), 60.0, users, coeffs)
                             for i in range(2)], axis=1).tolist()
            assert (agent_qoe.tolist() == want) is same


class TestRollout:
    def test_rows_begin_with_the_warm_up_row(self):
        cfg = SimConfig(n_agents=3, x_init=10.0)
        hp = HyperParams(episode_len=6)
        coeffs = QoECoefficients()
        up = cfg.delta_table.index(1.0)
        episode = rl.rollout(BottleneckSim(STEADY, cfg, 6, RngStream(2, "env")), hp, coeffs,
                             lambda t, rows: np.full(len(rows), up))
        warm_up, _, _ = BottleneckSim(STEADY, cfg, 6, RngStream(2, "env")).step(0, [10.0] * 3)
        assert isinstance(episode, rl.Episode)
        assert episode.rows.shape == (7, 3, 6)
        assert episode.actions.tolist() == [[up] * 3] * 6
        np.testing.assert_array_equal(episode.rows[0], warm_up)
        assert episode.rows[:, :, OBS_TARGET].tolist() == [[10.0 + t] * 3 for t in range(7)]
        # only the T stepped rows are scored
        rewards, agent_qoe = rl.score_episode(episode.rows[1:], episode.frame_rate, coeffs)
        np.testing.assert_array_equal(episode.agent_qoe, agent_qoe)
        np.testing.assert_array_equal(episode.rewards, rewards)

    def test_capacity_is_what_the_simulator_drew(self, monkeypatch):
        drawn, steps = [], []

        def recording(bounds, t, rng):
            steps.append(t)
            drawn.append(sample_link_state(bounds, t, rng))
            return drawn[-1]

        monkeypatch.setattr(netsim, "sample_link_state", recording)
        cfg = SimConfig(n_agents=2)
        hold = cfg.delta_table.index(0.0)
        episode = rl.rollout(BottleneckSim(scenario_by_name("s5"), cfg, 6, RngStream(4, "env")),
                             HyperParams(episode_len=6), QoECoefficients(),
                             lambda t, rows: np.full(len(rows), hold))
        # the warm-up draws first; each of the T steps draws one link after it
        assert steps == [0, 0, 1, 2, 3, 4, 5]
        assert episode.capacity.shape == (6,)
        assert episode.capacity.tolist() == [link.capacity_mbps for link in drawn[1:]]

    def test_warm_up_row_is_a_link_draw_at_step_0_advanced_at_x_init(self):
        cfg = SimConfig(n_agents=3, x_init=12.0)
        spec = scenario_by_name("s5")
        hold = cfg.delta_table.index(0.0)
        episode = rl.rollout(BottleneckSim(spec, cfg, 6, RngStream(7, "env")),
                             HyperParams(episode_len=6), QoECoefficients(),
                             lambda t, rows: np.full(len(rows), hold))
        twin = RngStream(7, "env")
        state = sample_link_state(link_bounds(spec, 6), 0, twin)
        warm_up, _ = advance(state, [cfg.x_init] * 3, cfg, twin)
        assert episode.rows[0].tobytes() == warm_up.tobytes()

    # a chooser returning deltas, not indices: np.ones once moved every
    # target by table[1] and -5.0 wrapped to table[-5], both silently
    @pytest.mark.parametrize("result, error", [
        (lambda n: np.ones(n), TypeError), (lambda n: np.full(n, -5.0), TypeError),
        (lambda n: np.arange(n) % 2 == 0, TypeError),
        (lambda n: np.full(n, -1), ValueError), (lambda n: np.arange(n) + 4, ValueError)],
        ids=["ones", "minus-five", "mask", "index-minus-one", "index-past-the-table"])
    def test_chooser_result_outside_the_index_contract_raises(self, result, error):
        cfg = SimConfig(n_agents=2)
        sim = BottleneckSim(STEADY, cfg, 3, RngStream(0, "env"))
        with pytest.raises(error):
            rl.rollout(sim, HyperParams(episode_len=3), QoECoefficients(),
                       lambda t, rows: result(len(rows)))


    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32])
    def test_narrow_integer_chooser_results_are_kept(self, dtype):
        cfg = SimConfig(n_agents=3, x_init=10.0)
        hp = HyperParams(episode_len=4)
        picks = np.arange(12).reshape(4, 3) % len(cfg.delta_table)
        episode = rl.rollout(BottleneckSim(STEADY, cfg, 4, RngStream(3, "env")), hp,
                             QoECoefficients(), lambda t, rows: picks[t].astype(dtype))
        assert episode.actions.dtype == np.int64
        assert episode.actions.tolist() == picks.tolist()


class TestRunEpisode:
    def test_trajectory_lengths_and_shared_rewards(self):
        cfg = SimConfig(n_agents=3, x_init=10.0)
        hp = HyperParams(episode_len=40, hidden_width=8)
        coeffs = QoECoefficients()
        sim = BottleneckSim(STEADY, cfg, 40, RngStream(0, "env"))
        agents = make_agents(3)
        episode, log_probs = rl.run_episode(sim, agents, hp, coeffs, RngStream(0, "act"))
        assert episode.rows.shape == (41, 3, 6)
        assert episode.actions.shape == log_probs.shape == (40, 3)
        assert episode.frame_rate.shape == episode.agent_qoe.shape == (40, 3)
        assert episode.rewards.shape == (40,)
        np.testing.assert_array_equal(episode.rewards, episode.agent_qoe.sum(axis=1) / 3)
        # samples are counted where training happens, not here
        assert all(agent.sample_count == 0 for agent in agents)

    @pytest.mark.parametrize("greedy", [False, True])
    def test_matches_per_agent_reference_picks(self, greedy):
        cfg = SimConfig(n_agents=6, x_init=10.0)
        hp = HyperParams(episode_len=12, hidden_width=8)
        coeffs = QoECoefficients()
        agents = make_agents(6)
        s5 = scenario_by_name("s5")
        episode, log_probs = rl.run_episode(BottleneckSim(s5, cfg, 12, RngStream(1, "env")),
                                            agents, hp, coeffs, RngStream(1, "act"),
                                            greedy=greedy)
        act_rng = RngStream(1, "act")
        picks = []

        def choose(t, rows):
            feats = rl.normalize_obs(rows, cfg.y_max)
            picks.append([greedy_action_reference(a.actor, f) if greedy
                          else select_action_reference(a.actor, f, act_rng)
                          for a, f in zip(agents, feats)])
            return np.array([idx for idx, _ in picks[-1]])

        rl.rollout(BottleneckSim(s5, cfg, 12, RngStream(1, "env")), hp, coeffs, choose)
        assert episode.actions.tolist() == [[idx for idx, _ in step] for step in picks]
        assert log_probs.tolist() == [[lp for _, lp in step] for step in picks]

    def test_seeded_determinism(self):
        cfg = SimConfig(n_agents=2, x_init=10.0)
        hp = HyperParams(episode_len=10, hidden_width=8)
        coeffs = QoECoefficients()

        def run(seed):
            sim = BottleneckSim(STEADY, cfg, 10, RngStream(seed, "env"))
            episode, _ = rl.run_episode(sim, make_agents(2), hp, coeffs, RngStream(seed, "act"))
            return episode.actions.tolist(), episode.rewards.tolist()

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_greedy_mode_ignores_action_rng(self):
        cfg = SimConfig(n_agents=2, x_init=10.0)
        hp = HyperParams(episode_len=8, hidden_width=8)
        coeffs = QoECoefficients()
        out = []
        for act_seed in (1, 2):
            sim = BottleneckSim(STEADY, cfg, 8, RngStream(3, "env"))
            episode, _ = rl.run_episode(sim, make_agents(2), hp, coeffs,
                                        RngStream(act_seed, "act"), greedy=True)
            out.append(episode.actions.tolist())
        assert out[0] == out[1]

    def test_targets_stay_in_bounds(self):
        cfg = SimConfig(n_agents=2, x_init=1.0, y_min=1.0, y_max=20.0)
        hp = HyperParams(episode_len=30, hidden_width=8)
        coeffs = QoECoefficients()
        sim = BottleneckSim(STEADY, cfg, 30, RngStream(4, "env"))
        episode, _ = rl.run_episode(sim, make_agents(2), hp, coeffs, RngStream(4, "act"))
        targets = episode.rows[..., OBS_TARGET]
        assert targets.min() >= cfg.y_min - 1e-9
        assert targets.max() <= cfg.y_max + 1e-9

    def test_agent_count_mismatch(self):
        cfg = SimConfig(n_agents=3)
        sim = BottleneckSim(STEADY, cfg, 5, RngStream(0, "env"))
        with pytest.raises(ValueError):
            rl.run_episode(sim, make_agents(2), HyperParams(episode_len=5),
                           QoECoefficients(), RngStream(0, "act"))

    def test_action_head_must_fit_the_delta_table(self):
        cfg = SimConfig(n_agents=2, delta_table=(-1.0, 0.0, 1.0))
        sim = BottleneckSim(STEADY, cfg, 5, RngStream(0, "env"))
        with pytest.raises(ValueError, match="6 inputs to 5 actions.*3 actions"):
            rl.run_episode(sim, make_agents(2), HyperParams(episode_len=5),
                           QoECoefficients(), RngStream(0, "act"))


def build_batch_reference(episode, log_probs, i, critic, y_max, hp):
    """build_batch as it ran when run_episode stored the normalized features
    of the whole (T+1, N, 6) episode and the critic valued agent i's column
    of them."""
    obs = rl.normalize_obs(episode.rows, y_max)[:, i]
    rewards = episode.rewards
    values = nn.forward(critic, obs)[0][:, 0] * hp.value_scale
    adv = rl.compute_gae(rewards, values[:-1], values[-1], hp.gamma_discount, hp.gae_lambda)
    return rl.TrainBatch(observations=obs[:-1], actions=episode.actions[:, i],
                         old_log_probs=log_probs[:, i], advantages=rl.whiten(adv),
                         returns=rl.compute_returns(rewards, values[-1], hp.gamma_discount))


class TestBuildBatch:
    @pytest.mark.parametrize("n", [1, 2, 6, 24])
    def test_equals_the_stored_features_arithmetic_bit_for_bit(self, n):
        cfg = SimConfig(n_agents=n)
        hp = HyperParams(episode_len=40, hidden_width=8)
        agents = make_agents(n, seed=n)
        sim = BottleneckSim(scenario_by_name("s5"), cfg, 40, RngStream(n, "env"))
        episode, log_probs = rl.run_episode(sim, agents, hp, QoECoefficients(),
                                            RngStream(n, "act"))
        for i, agent in enumerate(agents):
            got = rl.build_batch(episode, log_probs, i, agent.critic, cfg.y_max, hp)
            want = build_batch_reference(episode, log_probs, i, agent.critic, cfg.y_max, hp)
            for field in dataclasses.fields(rl.TrainBatch):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                assert a.tobytes() == b.tobytes(), field.name
