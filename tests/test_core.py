import copy
import dataclasses
import warnings

import numpy as np
import pytest

from asms import core
from asms.core import (OBS_LATENCY, ConfigError, HyperParams,
                       QoECoefficients, RngStream, SimConfig, Span,
                       builtin_scenarios, check_obs_rows, default_hyperparams,
                       load_config, parse_config_text,
                       scenario_by_name, serialize_config, validate_delta_table)
from asms.netsim import link_bounds
from rng_state import generator_state, rng_state, untouched


class TestObsRows:
    def test_valid(self):
        rows = check_obs_rows([10, 8, 20, 3, 5, 5])
        assert rows.dtype == np.float64
        assert rows.tolist() == [10.0, 8.0, 20.0, 3.0, 5.0, 5.0]
        assert check_obs_rows(rows) is rows

    def test_received_cannot_exceed_target(self):
        with pytest.raises(ValueError, match="received"):
            check_obs_rows([10.0, 11.0, 20.0, 3.0, 5.0, 5.0])

    def test_nacks_cannot_exceed_losses(self):
        with pytest.raises(ValueError, match="NACKs"):
            check_obs_rows([10.0, 8.0, 20.0, 3.0, 5.0, 6.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_obs_rows([10.0, 8.0, -1.0, 3.0, 5.0, 5.0])

    def test_one_bad_row_in_a_block_is_found(self):
        rows = np.tile([10.0, 8.0, 20.0, 3.0, 5.0, 5.0], (4, 3, 1))
        check_obs_rows(rows)
        rows[2, 1, OBS_LATENCY] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_obs_rows(rows)
        with pytest.raises(ValueError, match="shape"):
            check_obs_rows(np.zeros((4, 5)))


class TestDeltaTable:
    def test_must_have_single_zero(self):
        with pytest.raises(ConfigError):
            validate_delta_table((-1.0, 1.0))

    def test_must_be_symmetric(self):
        with pytest.raises(ConfigError):
            validate_delta_table((-2.0, 0.0, 1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_entries_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="finite"):
            validate_delta_table((-value, 0.0, value))


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

    def test_ldp_clip_must_be_positive(self):
        with pytest.raises(ValueError, match="ldp_clip"):
            HyperParams(ldp_clip=0.0)
        with pytest.raises(ConfigError, match="ldp_clip"):
            parse_config_text("ldp_enabled = true\nldp_clip = 0\n")

    def test_fedavg_freq_must_be_at_least_one(self):
        # ippo is the one way to train without federating
        with pytest.raises(ValueError, match="fedavg_freq must be >= 1"):
            HyperParams(fedavg_freq=0)
        with pytest.raises(ConfigError, match="fedavg_freq"):
            parse_config_text("fedavg_freq = 0\n")


class TestScenarios:
    def test_six_scenarios(self):
        specs = builtin_scenarios()
        assert [s.name for s in specs] == ["s1", "s2", "s3", "s4", "s5", "s6"]

    def test_s1_bandwidth(self):
        s1 = scenario_by_name("s1")
        assert (s1.bandwidth.start.lo, s1.bandwidth.start.hi) == (100, 200)
        assert s1.bandwidth.start == s1.bandwidth.end

    def test_s4_latency(self):
        s4 = scenario_by_name("s4")
        assert (s4.latency.start.lo, s4.latency.start.hi) == (5, 10)

    def test_fixed_channel_spans_are_floats_at_every_step(self):
        lo, hi = link_bounds(scenario_by_name("s1"), 40)
        assert lo.dtype == hi.dtype == np.float64
        for t in (0, 17, 39):
            assert (lo[t, 1], hi[t, 1]) == (10.0, 30.0)

    def test_s5_bandwidth_ramps_down(self):
        s5 = scenario_by_name("s5")
        assert s5.bandwidth.start != s5.bandwidth.end
        assert (s5.bandwidth.start, s5.bandwidth.end) == (Span(100, 100), Span(30, 30))
        lo, hi = link_bounds(s5, 40)
        assert (lo[0, 0], hi[0, 0], lo[39, 0], hi[39, 0]) == (100, 100, 30, 30)
        assert np.all(np.diff(lo[:, 0]) < 0)

    def test_s6_latency_ramps_to_20(self):
        s6 = scenario_by_name("s6")
        assert s6.latency.end == Span(20, 20)
        lo, hi = link_bounds(s6, 40)
        assert (lo[39, 1], hi[39, 1]) == (20, 20)

    def test_loss_rates_are_fractions(self):
        for spec in builtin_scenarios():
            for ch in (spec.loss_rate, spec.burst_loss):
                assert ch.start.hi <= 1.0 and ch.end.hi <= 1.0

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario 's9'"):
            scenario_by_name("s9")


class TestQoECoefficients:
    def test_defaults(self):
        c = QoECoefficients()
        assert (c.alpha, c.beta, c.gamma, c.delta1, c.delta2) == (1.0, 0.4, 0.2, 0.6, 0.5)
        assert c.eps_small == 1e-6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QoECoefficients(beta=-0.1)

    def test_y_min_positive(self):
        with pytest.raises(ValueError):
            QoECoefficients(y_min=0.0)


# every config key but the unused ones, with its default; y_min and f_target
# once each (their defaults agree)
CONFIG_DEFAULTS = {f.name: f.default for struct in core._CONFIG_STRUCTS
                   for f in dataclasses.fields(struct) if f.name not in core._UNUSED_KEYS}


def non_default(value):
    """A valid value of the default's type that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 3
    if isinstance(value, tuple):
        return tuple(v / 3 for v in value)
    pytest.fail(f"no non-default value for a {type(value).__name__} field")


def with_key(key, value):
    """The default (SimConfig, HyperParams, QoECoefficients) with key set to
    value in every struct that has it."""
    return tuple(dataclasses.replace(obj, **{key: value})
                 if key in {f.name for f in dataclasses.fields(obj)} else obj
                 for obj in (struct() for struct in core._CONFIG_STRUCTS))


class TestConfigParsing:
    def test_empty_gives_the_default_constructors(self):
        assert parse_config_text("") == (SimConfig(), HyperParams(), QoECoefficients())

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
        cfg, hp, _ = parse_config_text("ldp_enabled = false\ndelta_table = -2,0,2\n")
        assert hp.ldp_enabled is False
        assert cfg.delta_table == (-2.0, 0.0, 2.0)

    def test_f_target_feeds_both_structs(self):
        cfg, _, coeffs = parse_config_text("f_target = 90\n")
        assert cfg.f_target == 90.0
        assert coeffs.f_target == 90.0

    def test_y_min_feeds_both_structs(self):
        cfg, _, coeffs = parse_config_text("y_min = 2.0\n")
        assert cfg.y_min == 2.0
        assert coeffs.y_min == 2.0

    @pytest.mark.parametrize("key, default, other", [
        ("policy_update_freq", "40", "20"), ("replay_buffer_size", "5000", "100"),
        ("target_update_coef", "0.005", "0.01"), ("sac_critics", "2", "1"),
        ("entropy_temperature", "0.2", "0.1")])
    def test_unused_keys_accept_only_their_default(self, key, default, other):
        assert parse_config_text(f"{key} = {default}\n") == (
            SimConfig(), HyperParams(), QoECoefficients())
        with pytest.raises(ConfigError, match=f"{key} is unused"):
            parse_config_text(f"{key} = {other}\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        "y_max", "congestion_loss_coef", "queue_delay_coef", "f_target",
        "lr", "grad_clip", "entropy_coef", "value_scale", "ldp_eps",
        "ldp_clip", "alpha", "beta", "gamma", "delta1", "delta2", "p_threshold",
        "eps_small"])
    def test_non_finite_float_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigError, match=f"invalid value for '{key}': {key} must be finite"):
            parse_config_text(f"{key} = {value}\n")

    # "need 0 < y_min <= x_init <= y_max" names every set key of the pair;
    # the error blames the longest, and the first set in the file on a tie
    @pytest.mark.parametrize("text, blamed", [
        ("y_min = 50\nx_init = 3\n", "x_init"),
        ("x_init = 3\ny_min = 50\n", "x_init"),
        ("y_max = 1\ny_min = 2\n", "y_max"),
        ("y_min = 2\ny_max = 1\n", "y_min")],
        ids=["y_min,x_init", "x_init,y_min", "y_max,y_min", "y_min,y_max"])
    def test_error_blames_the_longest_set_key_the_message_names(self, text, blamed):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert str(exc.value) == (f"invalid value for '{blamed}': "
                                  "need 0 < y_min <= x_init <= y_max")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_round_trip(self):
        cfg = SimConfig(n_agents=3, delta_table=(-2.0, 0.0, 2.0))
        hp = HyperParams(lr=0.001, ldp_enabled=False)
        coeffs = QoECoefficients(beta=0.7)
        text = serialize_config(cfg, hp, coeffs)
        cfg2, hp2, coeffs2 = parse_config_text(text)
        assert (cfg2, hp2, coeffs2) == (cfg, hp, coeffs)

    def test_default_round_trip(self):
        trio = (SimConfig(), HyperParams(), QoECoefficients())
        assert parse_config_text(serialize_config(*trio)) == trio

    @pytest.mark.parametrize("key", list(CONFIG_DEFAULTS))
    def test_every_key_round_trips_at_a_non_default_value(self, key):
        default = CONFIG_DEFAULTS[key]
        trio = with_key(key, non_default(default))
        assert trio != with_key(key, default)
        parsed = parse_config_text(serialize_config(*trio))
        assert parsed == trio
        assert {type(getattr(o, key)) for o in parsed if hasattr(o, key)} == {type(default)}

    @pytest.mark.parametrize("sim, qoe_coeffs, key", [
        (SimConfig(y_min=2.0), QoECoefficients(f_target=30.0), "y_min"),
        (SimConfig(), QoECoefficients(f_target=30.0), "f_target")], ids=["y_min", "f_target"])
    def test_shared_keys_that_disagree_are_not_serialized(self, sim, qoe_coeffs, key):
        with pytest.raises(ConfigError, match=f"SimConfig.{key} = .*QoECoefficients.{key} = "
                                              "[^:]*: one config key sets both"):
            serialize_config(sim, HyperParams(), qoe_coeffs)


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

    # "root" hashes to 2^63 or more and "environment" below it; numpy sends a
    # key list that mixes the two kinds through float64
    @pytest.mark.parametrize("seed", [0, 7, -1, 2**63])
    @pytest.mark.parametrize("label", ["root", "environment"])
    def test_philox_key_is_the_exact_seed_and_label_hash(self, seed, label):
        rng = RngStream(seed, label)
        assert (core._fnv1a64(label.encode()) >= 2**63) == (label == "root")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            key = rng_state(RngStream(seed, label))["state"]["key"]
        assert key == [seed % 2**64, core._fnv1a64(label.encode())]
        assert rng.seed == seed % 2**64

    @pytest.mark.parametrize("label", ["root", "environment"])
    def test_negative_seeds_differ(self, label):
        draws = [RngStream(seed, label).uniform(size=8).tolist() for seed in (-1, -2, -1000)]
        assert draws[0] != draws[1] != draws[2] != draws[0]

    def test_chunking_invariance(self):
        whole = RngStream(3, "x").uniform(size=120)
        r = RngStream(3, "x")
        parts = np.concatenate([r.uniform(size=k) for k in (1, 7, 30, 82)])
        assert np.array_equal(whole, parts)
        # one block of N integers equals N single draws (the random controller)
        block = RngStream(4, "rand").integers(5, size=24)
        r = RngStream(4, "rand")
        assert block.tolist() == [int(r.integers(5, size=1)[0]) for _ in range(24)]

    def test_uniform_bounds(self):
        draws = RngStream(1, "u").uniform(2.0, 5.0, size=1000)
        assert draws.min() >= 2.0 and draws.max() < 5.0

    def test_spawn_independent(self):
        root = RngStream(5, "root")
        child = root.spawn("sub")
        child.uniform(size=10)
        assert untouched(root)

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

    def test_laplace_scale_zero_draws_nothing(self):
        r = RngStream(9, "l0")
        assert r.laplace(0.0, size=5).tolist() == [0.0] * 5 and untouched(r)
        with pytest.raises(ValueError, match="scale"):
            r.laplace(-1.0, size=5)

    def test_normal_moments(self):
        draws = RngStream(9, "n").normal(size=100_000)
        assert abs(float(draws.mean())) < 0.02
        assert abs(float(draws.std()) - 1.0) < 0.02

    @pytest.mark.parametrize("draw", [lambda r: r.raw(-3), lambda r: r.uniform(size=-1),
                                      lambda r: r.permutation(-1), lambda r: r.normal(-2),
                                      lambda r: r.laplace(1.0, -2), lambda r: r.laplace(0.0, -2),
                                      lambda r: r.integers(3, -1)])
    def test_negative_sizes_rejected_before_drawing(self, draw):
        r = RngStream(2, "neg")
        r.raw(4)
        before = rng_state(r)
        with pytest.raises(ValueError, match="negative"):
            draw(r)
        assert rng_state(r) == before

    @pytest.mark.parametrize("bound", [0, -2])
    def test_integers_bound_below_one_rejected_before_drawing(self, bound):
        r = RngStream(2, "int")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_exclusive"):
                r.integers(bound, size=3)
        assert untouched(r)

    def test_scalar_uniform_is_the_one_value_array_draw(self):
        bounds = [(0.0, 1.0), (-2, 2), (0, 40), (1, 300), (2.5, 80.0), (-0.3, 0.3), (5, 5)]
        for seed in range(200):
            for lo, hi in bounds:
                scalar = RngStream(seed, "scalar").uniform(lo, hi)
                block = RngStream(seed, "scalar").uniform(lo, hi, size=1)[0]
                assert type(scalar) is float and scalar.hex() == float(block).hex()

    def test_deepcopy_is_an_exact_peek(self):
        r = RngStream(5, "copy")
        r.uniform(size=3)   # mid-way through a Philox block of four words
        draws = (lambda s: s.uniform(size=7), lambda s: s.binomial(np.array([40, 0, 900]), 0.3),
                 lambda s: s.laplace(0.5, size=5), lambda s: s.uniform(1.0, 9.0),
                 lambda s: s.binomial(25, 0.6))
        for draw in draws:
            before = rng_state(r)
            peek = copy.deepcopy(r)
            seen = draw(peek)
            assert rng_state(r) == before   # drawing from the copy leaves r where it was
            got = draw(r)
            assert np.asarray(got).tobytes() == np.asarray(seen).tobytes()
            assert rng_state(r) == rng_state(peek)


class TestBlockBinomial:
    @pytest.mark.parametrize("n_entries", [1, 6, 24])
    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.3, 1.0])
    def test_equals_sequential_scalar_draws(self, n_entries, p):
        for seed in range(20):
            counts = RngStream(seed, "counts").integers(3000, size=n_entries) - 500
            if n_entries > 1:   # pin entries that draw nothing
                counts[seed % n_entries] = 0
                counts[(seed + 1) % n_entries] = -3
            block_rng, seq_rng = RngStream(seed, "b"), RngStream(seed, "b")
            block = block_rng.binomial(counts, p)
            seq = [seq_rng.binomial(int(n), p) for n in counts]
            assert block.dtype == np.int64 and block.tolist() == seq
            assert rng_state(block_rng) == rng_state(seq_rng)
            # p of 0 or 1, or no positive count, draws nothing
            assert untouched(block_rng) == (not (0 < p < 1 and np.any(counts > 0)))

    def test_scalar_n_returns_an_int(self):
        r = RngStream(4, "b")
        for p in (0.0, 0.3, 1.0):
            assert type(r.binomial(40, p)) is int
            assert type(r.binomial(np.int64(40), p)) is int
        assert r.binomial(-2, 1.0) == 0 and r.binomial(7, 1.0) == 7
        before = rng_state(r)
        assert r.binomial(-2, 0.5) == 0
        assert r.binomial(np.array([0, -1, 5]), 0.0).tolist() == [0, 0, 0]
        assert r.binomial(np.array([0, -1]), 0.5).tolist() == [0, 0]
        assert rng_state(r) == before   # nothing drawn


class TestBinomialAgainstNumpy:
    """``binomial`` is numpy's sampler behind the stream's edge contracts,
    at any grid of p and any stream position."""

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.05, 0.3, 0.77, 0.99, 1.0, 1.5])
    def test_equals_numpy_on_the_clamped_counts(self, p):
        for n_entries in range(1, 31):
            counts = RngStream(n_entries, "counts").integers(700, size=n_entries) - 200
            counts[n_entries // 2] = 0
            got_rng = RngStream(n_entries, "b")
            want_gen = copy.deepcopy(got_rng._gen)
            for _ in range(3):
                got = got_rng.binomial(counts, p)
                live = np.maximum(counts, 0)
                want = (np.zeros_like(live) if p <= 0 else live if p >= 1
                        else want_gen.binomial(live, p))
                assert got.dtype == np.int64 and got.shape == counts.shape
                assert got.tolist() == want.tolist()
                assert np.all((got >= 0) & (got <= live))
            assert rng_state(got_rng) == generator_state(want_gen)
        for n in (-5, 0, 1, 40, 1000, np.int64(300)):   # scalar n
            got_rng = RngStream(7, "s")
            want_gen = copy.deepcopy(got_rng._gen)
            got = got_rng.binomial(n, p)
            live = max(int(n), 0)
            want = 0 if p <= 0 else live if p >= 1 else int(want_gen.binomial(live, p))
            assert type(got) is int and got == want
            assert rng_state(got_rng) == generator_state(want_gen)

    @pytest.mark.parametrize("offset", [0, 1, 1000, 1022])
    @pytest.mark.parametrize("counts", [[100], [100, 50, 80], [0, 100, -4, 80],
                                        [100, 50, 80, 7, 300, 20], [400, 9000, 30, 0, 5]])
    def test_any_stream_position_keeps_entry_order(self, offset, counts):
        # offsets that are not a multiple of four start mid-way through a
        # Philox block of four words
        block_rng, seq_rng = RngStream(0, "pos"), RngStream(0, "pos")
        for rng in (block_rng, seq_rng):
            rng.uniform(size=offset)
        block = block_rng.binomial(np.array(counts), 0.3)
        seq = [seq_rng.binomial(n, 0.3) for n in counts]
        assert block.tolist() == seq
        assert rng_state(block_rng) == rng_state(seq_rng)

    @pytest.mark.parametrize("n_entries", [2, 7, 24])
    @pytest.mark.parametrize("p", [1e-4, 0.3])
    def test_sampler_switch_keeps_entry_order(self, n_entries, p):
        # numpy inverts the CDF when n * min(p, 1 - p) <= 30 and runs BTPE
        # above; every other entry here is large enough to cross over
        counts = RngStream(n_entries, "counts").integers(60, size=n_entries) + 10
        counts[1::2] = (counts[1::2] + 50) * 10_000
        if n_entries > 2:
            counts[2] = 0
        assert np.any(counts * p > 30) and np.any((counts * p <= 30) & (counts > 0))
        for seed in range(5):
            block_rng, seq_rng = RngStream(seed, "switch"), RngStream(seed, "switch")
            block = block_rng.binomial(counts, p)
            seq = [seq_rng.binomial(int(n), p) for n in counts]
            assert block.tolist() == seq and np.all(block <= counts)
            assert rng_state(block_rng) == rng_state(seq_rng)


class TestDrawChunking:
    @pytest.mark.parametrize("draw", [
        lambda r, k: r.raw(k), lambda r, k: r.normal(k), lambda r, k: r.laplace(0.7, k),
        lambda r, k: r.binomial(np.full(k, 150), 0.4),
    ], ids=["raw", "normal", "laplace", "binomial"])
    def test_any_chunking_equals_one_call(self, draw):
        sizes = [0, 1000, 30, 1024, 1023, 2, 3000, 1]
        sizes += RngStream(11, "sizes").integers(3001, size=20).tolist()
        whole_rng = RngStream(3, "chunks")
        r = RngStream(3, "chunks")
        parts = np.concatenate([draw(r, k) for k in sizes])
        assert parts.tobytes() == draw(whole_rng, len(parts)).tobytes()
        assert rng_state(r) == rng_state(whole_rng)

    def test_unit_uniform_bounds_spell_one_draw(self):
        for size in (1, 2, 6, 40, 1500):
            want = RngStream(size, "u")._gen.random(size).tobytes()
            for bounds in ((), (0.0, 1.0), (0, 1), (np.float64(0.0), np.float64(1.0))):
                assert RngStream(size, "u").uniform(*bounds, size=size).tobytes() == want

    def test_raw_returns_its_own_writable_array(self):
        r = RngStream(6, "raw")
        words = r.raw(8)
        peek = copy.deepcopy(r)
        assert words.dtype == np.uint64 and words.flags.writeable
        words[:] = 0
        assert np.array_equal(r.raw(8), peek.raw(8))   # the stream did not see the write
