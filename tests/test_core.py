import copy
import dataclasses
import math
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

    @pytest.mark.parametrize("draw", [lambda r: r.raw(-3), lambda r: r.uniform(size=-1),
                                      lambda r: r.permutation(-1)])
    def test_negative_sizes_rejected_before_drawing(self, draw):
        r = RngStream(2, "neg")
        first = r.raw(4)
        with pytest.raises(ValueError, match="negative"):
            draw(r)
        assert r._counter == 4
        assert not np.isin(r.raw(3), first).any()   # no word is handed out twice

    @pytest.mark.parametrize("bound", [0, -2])
    def test_integers_bound_below_one_rejected_before_drawing(self, bound):
        r = RngStream(2, "int")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_exclusive"):
                r.integers(bound, size=3)
        assert r._counter == 0


def reference_binomial(rng, n, p):
    """One binomial draw as a scalar call made it before draws were blocked:
    the reference the block draw must equal, results and counter."""
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    log_q = math.log1p(-p)
    successes = pos = 0
    while True:
        chunk = max(16, int((n - pos) * p * 1.3) + 16)
        u = rng.uniform(size=chunk)
        skips = np.floor(np.log1p(-u) / log_q).astype(np.int64) + 1
        positions = pos + np.cumsum(skips)
        inside = int(np.searchsorted(positions, n, side="right"))
        if inside < chunk:
            return successes + inside
        successes += chunk
        pos = int(positions[-1])


def old_unit_uniform(rng, size):
    """``uniform(size=...)`` at bounds 0 and 1 by the general arithmetic."""
    u01 = (rng.raw(size) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return 0.0 + (1.0 - 0.0) * u01


def old_block_binomial(rng, n, p):
    """``binomial`` as one numpy search over every entry, as it ran before
    calls of a few entries were resolved in Python ints: the reference both
    branches must equal, results and counter."""
    counts = np.atleast_1d(np.asarray(n, dtype=np.int64))
    out = np.zeros(counts.shape, dtype=np.int64)
    live = np.flatnonzero(counts > 0)
    if p >= 1.0:
        out[live] = counts[live]
    elif p > 0.0 and live.size:
        log_q = math.log1p(-p)
        trials = counts[live]
        chunks = np.maximum(16, (trials * p * 1.3).astype(np.int64) + 16)
        ends = np.cumsum(chunks)
        starts = ends - chunks
        counter = rng._counter
        u = old_unit_uniform(rng, int(ends[-1]))
        pos = np.cumsum(np.floor(np.log1p(-u) / log_q).astype(np.int64) + 1)
        base = pos[starts - 1]
        base[0] = 0
        inside = np.searchsorted(pos, base + trials, side="right") - starts
        out[live] = inside
        full = inside >= chunks
        if full.any():
            j = int(full.argmax())
            rng._counter = counter + int(starts[j])
            for i in range(int(live[j]), counts.size):
                out[i] = reference_binomial(rng, int(counts[i]), p)
    return int(out[0]) if np.ndim(n) == 0 else out


class ZeroRun(RngStream):
    """A stream whose raw words are 0 at counters in [lo, hi): those
    uniforms are 0, so every trial they decide succeeds. Counts its draws."""

    def __init__(self, seed, lo=0, hi=0):
        super().__init__(seed, "zero-run")
        self.lo, self.hi = lo, hi
        self.draws = 0

    def raw(self, n):
        self.draws += 1
        idx = np.arange(self._counter, self._counter + n)
        words = super().raw(n)
        words[(idx >= self.lo) & (idx < self.hi)] = 0
        return words


def block_and_sequential(make_rng, counts, p):
    """(block result, sequential results, block stream, sequential stream)."""
    block_rng, seq_rng = make_rng(), make_rng()
    block = block_rng.binomial(np.asarray(counts), p)
    seq = [reference_binomial(seq_rng, int(n), p) for n in counts]
    return block, seq, block_rng, seq_rng


class TestBlockBinomial:
    @pytest.mark.parametrize("n_entries", [1, 6, 24])
    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.3, 1.0])
    def test_equals_sequential_scalar_draws(self, n_entries, p):
        for seed in range(20):
            counts = RngStream(seed, "counts").integers(3000, size=n_entries) - 500
            if n_entries > 1:   # pin entries that draw nothing
                counts[seed % n_entries] = 0
                counts[(seed + 1) % n_entries] = -3
            block, seq, block_rng, seq_rng = block_and_sequential(
                lambda: ZeroRun(seed), counts, p)
            assert block.dtype == np.int64 and block.tolist() == seq
            assert block_rng._counter == seq_rng._counter
            # no entry overflows here, so every entry's draws are one block
            assert block_rng.draws == int(0 < p < 1 and np.any(counts > 0))

    @pytest.mark.parametrize("n_entries", [1, 6, 24])
    @pytest.mark.parametrize("p", [1e-4, 0.3])
    def test_first_chunk_overflow_finishes_in_entry_order(self, n_entries, p):
        counts = RngStream(n_entries, "counts").integers(400, size=n_entries) + 60
        if n_entries > 2:
            counts[1] = 0
        first_chunks = [max(16, int(n * p * 1.3) + 16) for n in counts if n > 0]
        starts = []
        probe = ZeroRun(0)   # no zeros: where each entry starts drawing
        for n in counts:
            starts.append(probe._counter)
            reference_binomial(probe, int(n), p)
        for k in sorted({0, n_entries // 2, n_entries - 1}):
            for extra in (0, 5, 100):
                chunk = max(16, int(counts[k] * p * 1.3) + 16)
                make = lambda: ZeroRun(0, starts[k], starts[k] + chunk + extra)
                block, seq, block_rng, seq_rng = block_and_sequential(make, counts, p)
                assert seq_rng._counter > sum(first_chunks)   # entry k did overflow
                assert block.tolist() == seq and block_rng._counter == seq_rng._counter

    def test_scalar_n_returns_an_int(self):
        r = RngStream(4, "b")
        for p in (0.0, 0.3, 1.0):
            assert type(r.binomial(40, p)) is int
        assert r.binomial(-2, 1.0) == 0 and r.binomial(7, 1.0) == 7
        before = r._counter
        assert r.binomial(np.array([0, -1, 5]), 0.0).tolist() == [0, 0, 0]
        assert r.binomial(np.array([0, -1]), 0.5).tolist() == [0, 0]
        assert r._counter == before   # nothing drawn


class TestBinomialBranches:
    """Both branches of ``binomial`` (Python ints up to _FEW_ENTRIES
    entries, one numpy search above) against the one-search arithmetic."""

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.05, 0.3, 0.77, 0.99, 1.0, 1.5])
    def test_equals_the_one_search_arithmetic(self, p):
        for n_entries in range(1, 31):
            counts = RngStream(n_entries, "counts").integers(700, size=n_entries) - 200
            counts[n_entries // 2] = 0
            got_rng, want_rng = RngStream(n_entries, "b"), RngStream(n_entries, "b")
            for _ in range(3):
                got = got_rng.binomial(counts, p)
                want = old_block_binomial(want_rng, counts, p)
                assert got.dtype == np.int64 and got.tolist() == want.tolist()
                assert got_rng._counter == want_rng._counter
        for n in (-5, 0, 1, 40, 1000, np.int64(300)):   # scalar n
            got_rng, want_rng = RngStream(7, "s"), RngStream(7, "s")
            got = got_rng.binomial(n, p)
            assert type(got) is int and got == old_block_binomial(want_rng, n, p)
            assert got_rng._counter == want_rng._counter

    @pytest.mark.parametrize("offset", [0, 500, 1000, 1020])
    @pytest.mark.parametrize("counts", [[100], [100, 50, 80], [0, 100, -4, 80],
                                        [100, 50, 80, 7, 300, 20], [400, 9000, 30, 0, 5]])
    def test_forced_rewinds_equal_the_one_search_arithmetic(self, offset, counts):
        # zeros fill the first live entry's first chunk, so it rewinds there
        got_rng, want_rng = ZeroRun(0, offset, offset + 200), ZeroRun(0, offset, offset + 200)
        for rng in (got_rng, want_rng):
            rng.raw(offset)
        got = got_rng.binomial(np.array(counts), 0.3)
        want = old_block_binomial(want_rng, np.array(counts), 0.3)
        assert got.tolist() == want.tolist() and got_rng._counter == want_rng._counter
        first = next(n for n in counts if n > 0)
        assert max(got) >= int(first * 0.3 * 1.3) + 16   # a first chunk overflowed

    def test_unit_uniform_is_the_general_arithmetic(self):
        for size in (1, 2, 6, 40, 1500):
            want = old_unit_uniform(RngStream(size, "u"), size).tobytes()
            for bounds in ((), (0.0, 1.0), (0, 1), (np.float64(0.0), np.float64(1.0))):
                assert RngStream(size, "u").uniform(*bounds, size=size).tobytes() == want


def direct_words(rng, start, n):
    """Words start..start+n-1 of ``rng``'s stream from one _mix64 evaluation:
    the reference every block-served draw must equal."""
    idx = np.arange(start, start + n, dtype=np.uint64)
    return core._mix64(rng._key + idx * np.uint64(core._GAMMA))


class DirectRaw(RngStream):
    """A stream that computes every request directly, as raw did before it
    served words from a block."""

    def raw(self, n):
        words = direct_words(self, self._counter, n)
        self._counter += n
        return words


class DirectZeroRun(ZeroRun, DirectRaw):
    """ZeroRun over direct words: its ``super().raw`` is DirectRaw's."""


class TestWordBlock:
    def test_any_chunking_equals_one_mix(self):
        sizes = [0, 1000, 30, core._BLOCK, core._BLOCK - 1, 2, 3000, 1]
        sizes += RngStream(11, "sizes").integers(3001, size=60).tolist()
        sizes += RngStream(12, "sizes").integers(200, size=60).tolist()
        for seed in range(3):
            r = RngStream(seed, "block")
            got = np.concatenate([r.raw(n) for n in sizes])
            assert r._counter == sum(sizes)
            assert np.array_equal(got, direct_words(r, 0, sum(sizes)))

    @pytest.mark.parametrize("offset", [0, 500, 1000, 1020])
    @pytest.mark.parametrize("counts", [[100, 50, 80], [400, 9000, 30]])
    def test_binomial_rewind_keeps_results_and_counter(self, offset, counts):
        # zeros fill entry 0's first chunk, so the block draw rewinds to it;
        # at offset 1000 that draw straddles the block's end and refills it,
        # and 9000 trials make a first draw of 1,024 words or more
        make = lambda cls: cls(0, offset, offset + 200)
        block_rng, direct_rng = make(ZeroRun), make(DirectZeroRun)
        for rng in (block_rng, direct_rng):
            rng.raw(offset)
        block = block_rng.binomial(np.array(counts), 0.3)
        direct = direct_rng.binomial(np.array(counts), 0.3)
        assert block.tolist() == direct.tolist()
        assert block[0] >= int(counts[0] * 0.3 * 1.3) + 16   # entry 0's first chunk overflowed
        assert block_rng._counter == direct_rng._counter

    def test_copy_mid_block_draws_the_next_words(self):
        r = RngStream(5, "copy")
        r.raw(300)
        twin = copy.copy(r)
        fresh = RngStream(5, "copy")
        fresh._counter = 300
        for n in (10, 20, 900, 5, 2000):
            want = direct_words(fresh, fresh._counter, n)
            assert np.array_equal(fresh.raw(n), want) and np.array_equal(twin.raw(n), want)
        assert np.array_equal(r.raw(10), direct_words(r, 300, 10))   # r did not move

    def test_counter_set_back_before_the_block(self):
        r = RngStream(5, "back")
        r.raw(1000)
        r.raw(100)   # refills the block at counter 1000
        r._counter = 10
        assert np.array_equal(r.raw(5), direct_words(r, 10, 5))

    def test_raw_returns_its_own_writable_array(self):
        r = ZeroRun(6, lo=0, hi=4)
        words = r.raw(8)
        assert words.flags.writeable and not np.shares_memory(words, r._block)
        assert words[:4].tolist() == [0] * 4
        assert np.array_equal(r.raw(8), direct_words(r, 8, 8))
        r._counter = 0
        assert r.raw(1)[0] == 0   # the zeros went into the copy, not the block

    def test_scalar_uniform_is_the_one_word_array_draw(self):
        bounds = [(0.0, 1.0), (-2, 2), (0, 40), (1, 300), (2.5, 80.0), (-0.3, 0.3), (5, 5)]
        for seed in range(200):
            for lo, hi in bounds:
                scalar = RngStream(seed, "scalar").uniform(lo, hi)
                block = RngStream(seed, "scalar").uniform(lo, hi, size=1)[0]
                assert type(scalar) is float and scalar.hex() == float(block).hex()
