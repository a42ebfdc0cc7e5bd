import math

import numpy as np
import pytest

from asms.core import (ConfigError, Channel, HyperParams, Observation,
                       QoECoefficients, RngStream, SimConfig, Span,
                       builtin_scenarios, default_hyperparams,
                       default_qoe_coefficients, default_sim_config,
                       load_config, parse_config_text,
                       scenario_by_name, serialize_config, validate_delta_table)


class TestObservation:
    def test_valid(self):
        obs = Observation(10.0, 8.0, 20.0, 3.0, 5.0, 5.0)
        assert obs.as_tuple() == (10.0, 8.0, 20.0, 3.0, 5.0, 5.0)

    def test_received_cannot_exceed_target(self):
        with pytest.raises(ValueError):
            Observation(10.0, 11.0, 20.0, 3.0, 5.0, 5.0)

    def test_nacks_cannot_exceed_losses(self):
        with pytest.raises(ValueError):
            Observation(10.0, 8.0, 20.0, 3.0, 5.0, 6.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Observation(10.0, 8.0, -1.0, 3.0, 5.0, 5.0)


class TestDeltaTable:
    def test_must_have_single_zero(self):
        with pytest.raises(ConfigError):
            validate_delta_table((-1.0, 1.0))

    def test_must_be_symmetric(self):
        with pytest.raises(ConfigError):
            validate_delta_table((-2.0, 0.0, 1.0))


class TestHyperparams:
    def test_reference_defaults(self):
        hp = default_hyperparams()
        assert hp.lr == 0.0003
        assert hp.clip_eps == 0.2
        assert hp.episode_len == 40
        assert hp.gamma_discount == 0.95
        assert hp.gae_lambda == 0.95
        assert hp.minibatch == 64
        assert hp.epochs == 10
        assert hp.grad_clip == 0.5
        assert hp.policy_update_freq == 40
        assert hp.fedavg_freq == 4
        assert hp.hidden_width == 128
        assert hp.episodes == 330
        # parsed-but-unused rows still carry their reference values
        assert hp.replay_buffer_size == 5000
        assert hp.target_update_coef == 0.005
        assert hp.sac_critics == 2
        assert hp.entropy_temperature == 0.2

    def test_discount_bounds(self):
        with pytest.raises(ValueError):
            HyperParams(gamma_discount=1.5)
        with pytest.raises(ValueError):
            HyperParams(gamma_discount=0.0)

    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            HyperParams(gae_lambda=-0.1)


class TestScenarios:
    def test_six_scenarios(self):
        specs = builtin_scenarios()
        assert [s.name for s in specs] == ["s1", "s2", "s3", "s4", "s5", "s6"]

    def test_s1_bandwidth(self):
        s1 = scenario_by_name("s1")
        assert (s1.bandwidth.start.lo, s1.bandwidth.start.hi) == (100, 200)
        assert not s1.bandwidth.is_ramp

    def test_s4_latency(self):
        s4 = scenario_by_name("s4")
        assert (s4.latency.start.lo, s4.latency.start.hi) == (5, 10)

    def test_s5_bandwidth_ramps_down(self):
        s5 = scenario_by_name("s5")
        assert s5.bandwidth.is_ramp
        assert s5.bandwidth.at(0, 40) == Span(100, 100)
        assert s5.bandwidth.at(39, 40) == Span(30, 30)

    def test_s6_latency_ramps_to_20(self):
        s6 = scenario_by_name("s6")
        assert s6.latency.at(39, 40) == Span(20, 20)

    def test_loss_rates_are_fractions(self):
        for spec in builtin_scenarios():
            for ch in (spec.loss_rate, spec.burst_loss):
                assert ch.start.hi <= 1.0 and ch.end.hi <= 1.0

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario_by_name("s9")


class TestQoECoefficients:
    def test_defaults(self):
        c = default_qoe_coefficients()
        assert (c.alpha, c.beta, c.gamma, c.delta1, c.delta2) == (1.0, 0.4, 0.2, 0.6, 0.5)
        assert c.eps_small == 1e-6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QoECoefficients(beta=-0.1)

    def test_y_min_positive(self):
        with pytest.raises(ValueError):
            QoECoefficients(y_min=0.0)


class TestConfigParsing:
    def test_empty_gives_defaults(self):
        cfg, hp, coeffs = parse_config_text("")
        assert cfg == default_sim_config()
        assert hp == default_hyperparams()
        assert coeffs == default_qoe_coefficients()

    def test_single_override(self):
        _, hp, _ = parse_config_text("lr = 0.001\n")
        assert hp.lr == 0.001
        assert hp.clip_eps == default_hyperparams().clip_eps

    def test_comments_and_blanks(self):
        _, hp, _ = parse_config_text("# note\n\nlr = 0.001  # inline\n")
        assert hp.lr == 0.001

    def test_invariant_violation_names_key(self):
        with pytest.raises(ConfigError, match="gamma_discount"):
            parse_config_text("gamma_discount = 1.5\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("lr = 0.001\nbogus = 3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("lr = 0.1\nlr = 0.2\n")

    def test_bool_and_tuple_values(self):
        cfg, hp, _ = parse_config_text(
            "ldp_enabled = false\ndelta_table = -2,0,2\nusers_schedule = 6,5,4\n")
        assert hp.ldp_enabled is False
        assert cfg.delta_table == (-2.0, 0.0, 2.0)
        assert cfg.users_schedule == (6, 5, 4)

    def test_f_target_feeds_both_structs(self):
        cfg, _, coeffs = parse_config_text("f_target = 90\n")
        assert cfg.f_target == 90.0
        assert coeffs.f_target == 90.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_round_trip(self):
        cfg = SimConfig(n_agents=3, users_schedule=(3, 3, 2), reward_mode="sum")
        hp = HyperParams(lr=0.001, ldp_enabled=False)
        coeffs = QoECoefficients(beta=0.7)
        text = serialize_config(cfg, hp, coeffs)
        cfg2, hp2, coeffs2 = parse_config_text(text)
        assert (cfg2, hp2, coeffs2) == (cfg, hp, coeffs)

    def test_default_round_trip(self):
        trio = (default_sim_config(), default_hyperparams(), default_qoe_coefficients())
        assert parse_config_text(serialize_config(*trio)) == trio


class TestRngStream:
    def test_determinism_10k(self):
        a = RngStream(7, "agent").uniform(size=10_000)
        b = RngStream(7, "agent").uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, "agent").uniform(size=100)
        b = RngStream(7, "environment").uniform(size=100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(7, "agent").uniform(size=100)
        b = RngStream(8, "agent").uniform(size=100)
        assert not np.array_equal(a, b)

    def test_chunking_invariance(self):
        whole = RngStream(3, "x").uniform(size=120)
        r = RngStream(3, "x")
        parts = np.concatenate([r.uniform(size=k) for k in (1, 7, 30, 82)])
        assert np.array_equal(whole, parts)

    def test_uniform_bounds(self):
        draws = RngStream(1, "u").uniform(2.0, 5.0, size=1000)
        assert draws.min() >= 2.0 and draws.max() < 5.0

    def test_spawn_independent(self):
        root = RngStream(5, "root")
        child = root.spawn("sub")
        before = root._counter
        child.uniform(size=10)
        assert root._counter == before

    def test_permutation(self):
        perm = RngStream(2, "p").permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_binomial_edges(self):
        r = RngStream(4, "b")
        assert r.binomial(100, 0.0) == 0
        assert r.binomial(100, 1.0) == 100
        assert r.binomial(0, 0.5) == 0
        draws = [r.binomial(20, 0.3) for _ in range(500)]
        assert 0 <= min(draws) and max(draws) <= 20
        assert abs(np.mean(draws) - 6.0) < 0.5

    def test_laplace_moments(self):
        draws = RngStream(9, "l").laplace(2.0, size=200_000)
        assert abs(float(draws.mean())) < 0.03
        assert abs(float(draws.var()) - 8.0) < 0.25

    def test_normal_moments(self):
        draws = RngStream(9, "n").normal(size=100_000)
        assert abs(float(draws.mean())) < 0.02
        assert abs(float(draws.std()) - 1.0) < 0.02
