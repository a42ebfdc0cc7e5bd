
import numpy as np
import pytest

from asms import fed, nn, training
from asms.core import HyperParams, QoECoefficients, RngStream, SimConfig
from asms.rl import PPOAgent
from rng_state import rng_state


def small_update(seed, agent_id=0, shapes=((4, 3), (3, 2))):
    """An (actor_theta, critic_theta) upload."""
    rng = RngStream(seed, f"up{agent_id}")
    size = nn.flat_size(shapes)
    return rng.uniform(-1, 1, size=size), rng.uniform(-1, 1, size=size)


def make_agents(model, n):
    return [PPOAgent(actor=model.actor.with_theta(model.actor.theta.copy()),
                     critic=model.critic.with_theta(model.critic.theta.copy()))
            for _ in range(n)]


class TestInitGlobal:
    def test_round_zero_and_broadcast_identity(self):
        model = fed.init_global(6, 16, 5, RngStream(0, "g"))
        agents = make_agents(model, 4)
        fed.broadcast(model, agents)
        for agent in agents:
            assert np.array_equal(agent.actor.theta, model.actor.theta)
            assert np.array_equal(agent.critic.theta, model.critic.theta)

    def test_deterministic_under_seed(self):
        a = fed.init_global(6, 16, 5, RngStream(3, "g"))
        b = fed.init_global(6, 16, 5, RngStream(3, "g"))
        assert np.array_equal(a.actor.theta, b.actor.theta)
        assert np.array_equal(a.critic.theta, b.critic.theta)

    def test_actor_critic_structure(self):
        model = fed.init_global(6, 16, 5, RngStream(1, "g"))
        assert model.actor.activation == "tanh" and model.actor.out_dim == 5
        assert model.critic.activation == "relu" and model.critic.out_dim == 1


class TestClipUpdate:
    def test_within_bounds_unchanged(self):
        old = np.zeros(5)
        new = np.array([0.05, -0.03, 0.0, 0.09, -0.09])
        np.testing.assert_array_equal(fed.clip_update(new, old, 0.1), new)

    def test_saturation(self):
        old = np.zeros(3)
        new = np.array([0.3, -0.3, 0.05])
        np.testing.assert_allclose(fed.clip_update(new, old, 0.1), [0.1, -0.1, 0.05])

    def test_bound_property_random(self):
        rng = RngStream(2, "clip")
        old = rng.uniform(-1, 1, size=100)
        new = rng.uniform(-1, 1, size=100)
        out = fed.clip_update(new, old, 0.07)
        assert np.abs(out - old).max() <= 0.07 + 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fed.clip_update(np.zeros(3), np.zeros(4), 0.1)


class TestLdpPerturb:
    def test_zero_sensitivity_is_noop(self):
        rng = RngStream(0, "ldp")
        theta = rng.uniform(-1, 1, size=50)
        state = rng_state(rng)
        out = fed.ldp_perturb(theta, 0.0, 1.0, rng)
        assert np.array_equal(out, theta)
        assert out is not theta
        assert rng_state(rng) == state   # drew nothing

    def test_seeded_determinism(self):
        theta = np.zeros(100)
        a = fed.ldp_perturb(theta, 0.1, 1.0, RngStream(5, "n"))
        b = fed.ldp_perturb(theta, 0.1, 1.0, RngStream(5, "n"))
        assert np.array_equal(a, b)

    def test_noise_scale(self):
        theta = np.zeros(200_000)
        out = fed.ldp_perturb(theta, 1.0, 1.0, RngStream(6, "n"))
        assert abs(float(out.var()) - 2.0) < 0.05   # Var = 2 b^2, b = 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            fed.ldp_perturb(np.zeros(3), 0.1, 0.0, RngStream(0, "n"))
        with pytest.raises(ValueError):
            fed.ldp_perturb(np.zeros(3), -0.1, 1.0, RngStream(0, "n"))


class TestFedavg:
    def test_identical_updates_fixed_point_bit_exact(self):
        base = small_update(1)
        clones = [base] * 5
        actor, critic = fed.fedavg(clones, [0.2, 1.0, 3.0, 0.5, 2.2])
        assert np.array_equal(actor, base[0])
        assert np.array_equal(critic, base[1])

    def test_scalar_weighted_mean(self):
        a = (np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        b = (np.array([4.0, 0.0]), np.array([4.0, 0.0]))
        actor, critic = fed.fedavg([a, b], [1.0, 3.0])
        assert actor[0] == pytest.approx(3.0)
        assert critic[0] == pytest.approx(3.0)

    def test_matches_weighted_mean_oracle(self):
        ups = [small_update(s, agent_id=s) for s in range(6)]
        rng = RngStream(9, "w")
        w = rng.uniform(0.1, 2.0, size=6)
        got = fed.fedavg(ups, w)
        for k in range(2):
            want = sum(wi * u[k] for wi, u in zip(w, ups)) / w.sum()
            np.testing.assert_allclose(got[k], want, atol=1e-12)

    def test_permutation_invariance(self):
        ups = [small_update(s, agent_id=s) for s in range(5)]
        w = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        base = fed.fedavg(ups, w)
        perm = [3, 0, 4, 2, 1]
        shuffled = fed.fedavg([ups[i] for i in perm], w[perm])
        for k in range(2):
            np.testing.assert_allclose(shuffled[k], base[k], atol=1e-12)

    def test_convex_hull_per_coordinate(self):
        ups = [small_update(s, agent_id=s) for s in range(4)]
        w = np.array([1.0, 1.0, 2.0, 0.5])
        out = fed.fedavg(ups, w)
        for k in range(2):
            stack = np.stack([u[k] for u in ups])
            assert np.all(out[k] >= stack.min(axis=0) - 1e-12)
            assert np.all(out[k] <= stack.max(axis=0) + 1e-12)

    def test_equal_weights_normalize_to_the_same_bits(self):
        # fed_round passes weights of 1 where FedAvg's equal sample counts
        # would stand: any common value normalizes to the same quotients
        ups = [small_update(s, agent_id=s) for s in range(256)]
        for n in range(1, 257):
            want = [p.tobytes() for p in fed.fedavg(ups[:n], np.ones(n))]
            for c in (1, 40, 160, 13200):
                got = fed.fedavg(ups[:n], [c] * n)
                assert [p.tobytes() for p in got] == want, (n, c)

    def test_rejects_bad_weights(self):
        ups = [small_update(0), small_update(1, 1)]
        with pytest.raises(ValueError):
            fed.fedavg(ups, [0.0, 0.0])
        with pytest.raises(ValueError):
            fed.fedavg(ups, [-1.0, 2.0])
        with pytest.raises(ValueError):
            fed.fedavg([], [])

    def test_rejects_shape_mismatch(self):
        a = small_update(0)
        b = small_update(1, 1, shapes=((4, 2), (2, 2)))
        with pytest.raises(ValueError):
            fed.fedavg([a, b], [1.0, 1.0])

    def test_generator_of_uploads_equals_the_list(self):
        ups = [small_update(s, agent_id=s) for s in range(5)]
        w = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        from_list = fed.fedavg(ups, w)
        from_generator = fed.fedavg((up for up in ups), w)
        assert [p.tobytes() for p in from_generator] == [p.tobytes() for p in from_list]

    def test_generator_checks_each_upload_as_it_arrives(self):
        a = small_update(0)
        b = small_update(1, 1, shapes=((4, 2), (2, 2)))
        with pytest.raises(ValueError, match="update shapes do not match"):
            fed.fedavg((up for up in (a, b)), [1.0, 1.0])
        with pytest.raises(ValueError, match="one weight per update required"):
            fed.fedavg((a for _ in range(3)), [1.0, 1.0])
        with pytest.raises(ValueError, match="one weight per update required"):
            fed.fedavg((a for _ in range(1)), [1.0, 1.0])
        with pytest.raises(ValueError, match="no updates to aggregate"):
            fed.fedavg(iter(()), [1.0])


class TestMakeLocalUpdate:
    def drifted(self):
        model = fed.init_global(6, 8, 5, RngStream(0, "g"))
        rng = RngStream(1, "drift")
        actor = model.actor.with_theta(
            model.actor.theta + rng.uniform(-0.3, 0.3, size=model.actor.theta.size))
        critic = model.critic.with_theta(
            model.critic.theta + rng.uniform(-0.3, 0.3, size=model.critic.theta.size))
        return actor, critic, model

    def test_ldp_clips_then_perturbs_actor_first(self):
        hp = HyperParams(ldp_eps=2.0, ldp_clip=0.05)
        actor, critic, model = self.drifted()
        got = fed.make_local_update(actor, critic, model, hp, RngStream(7, "fed"))
        noise = RngStream(7, "fed")
        for part, new, old in zip(got, (actor, critic), (model.actor, model.critic)):
            want = (old.theta + np.clip(new.theta - old.theta, -0.05, 0.05)
                    + noise.laplace(0.05 / 2.0, size=new.theta.size))
            np.testing.assert_array_equal(part, want)

    def test_ldp_off_uploads_parameters_unchanged(self):
        hp = HyperParams(ldp_enabled=False)
        actor, critic, model = self.drifted()
        rng = RngStream(7, "fed")
        got = fed.make_local_update(actor, critic, model, hp, rng)
        assert got[0] is actor.theta and got[1] is critic.theta
        assert rng.uniform() == RngStream(7, "fed").uniform()   # drew nothing


class TestFedRound:
    def test_round_index_increments(self):
        # a round is numbered by the overhead rows before it; the model keeps no count
        hp = HyperParams(hidden_width=8, fedavg_freq=1, episode_len=5)
        result = training.train(SimConfig(n_agents=2), hp, QoECoefficients(), "fmappo",
                                ["s1"], seed=0, episodes=3)
        assert [row["round"] for row in result.overhead] == [1, 2, 3]
        assert [row["episode"] for row in result.overhead] == [0, 1, 2]

    def test_single_agent_no_noise_identity(self):
        hp = HyperParams(ldp_enabled=False)
        model = fed.init_global(6, 8, 5, RngStream(0, "g"))
        agents = make_agents(model, 1)
        drift = RngStream(1, "d").uniform(-0.5, 0.5, size=agents[0].actor.theta.size)
        agents[0].actor = agents[0].actor.with_theta(agents[0].actor.theta + drift)
        expected = agents[0].actor.theta.copy()
        result = fed.fed_round(agents, model, hp, RngStream(2, "fed"))
        assert np.array_equal(result.model.actor.theta, expected)
        assert np.array_equal(agents[0].actor.theta, expected)

    def test_agents_bit_identical_after_round(self):
        hp = HyperParams(ldp_eps=2.0, ldp_clip=0.05)
        model = fed.init_global(6, 8, 5, RngStream(1, "g"))
        agents = make_agents(model, 4)
        rng = RngStream(3, "drift")
        for agent in agents:
            agent.actor = agent.actor.with_theta(
                agent.actor.theta + rng.uniform(-0.2, 0.2, size=agent.actor.theta.size))
            agent.sample_count = 160
        result = fed.fed_round(agents, model, hp, RngStream(4, "fed"))
        for agent in agents[1:]:
            assert np.array_equal(agent.actor.theta, agents[0].actor.theta)
            assert np.array_equal(agent.critic.theta, agents[0].critic.theta)
        assert np.array_equal(agents[0].actor.theta, result.model.actor.theta)
        # the broadcast is the only change a round makes to the agents
        assert all(agent.sample_count == 160 for agent in agents)

    def test_round_ignores_sample_counts(self):
        hp = HyperParams(ldp_eps=2.0, ldp_clip=0.05)
        model = fed.init_global(6, 8, 5, RngStream(1, "g"))

        def run(counts):
            agents = make_agents(model, len(counts))
            rng = RngStream(3, "drift")
            for agent, count in zip(agents, counts):
                agent.actor = agent.actor.with_theta(
                    agent.actor.theta + rng.uniform(-0.2, 0.2, size=agent.actor.theta.size))
                agent.sample_count = count
            result = fed.fed_round(agents, model, hp, RngStream(4, "fed"))
            return ([result.model.actor.theta.tobytes(), result.model.critic.theta.tobytes()],
                    [(agent.actor.theta.tobytes(), agent.critic.theta.tobytes())
                     for agent in agents])

        assert run((0, 40, 120, 7)) == run((40, 40, 40, 40))

    def test_clipping_bounds_upload_drift(self):
        hp = HyperParams(ldp_eps=1e9, ldp_clip=0.01)   # negligible noise
        model = fed.init_global(6, 8, 5, RngStream(2, "g"))
        agents = make_agents(model, 1)
        big = np.full(agents[0].actor.theta.size, 5.0)
        agents[0].actor = agents[0].actor.with_theta(model.actor.theta + big)
        result = fed.fed_round(agents, model, hp, RngStream(5, "fed"))
        drift = result.model.actor.theta - model.actor.theta
        assert np.abs(drift).max() <= 0.01 + 1e-6

    def test_bytes_accounting_matches_serialization(self):
        hp = HyperParams(ldp_enabled=False)
        model = fed.init_global(6, 8, 5, RngStream(3, "g"))
        agents = make_agents(model, 3)
        per_device = fed.update_upload_bytes(model.actor, model.critic)
        result = fed.fed_round(agents, model, hp, RngStream(6, "fed"))
        assert result.bytes_up == 3 * per_device
        assert result.bytes_down == 3 * per_device

    def test_default_architecture_upload_size(self):
        rng = RngStream(0, "size")
        actor = nn.init_mlp(6, 128, 5, "tanh", rng)
        critic = nn.init_mlp(6, 128, 1, "relu", rng)
        per_device = fed.update_upload_bytes(actor, critic)
        assert per_device == (46 + 8 * 18053) + (46 + 8 * 17537)
        assert 0.25e6 <= per_device <= 1.0e6
