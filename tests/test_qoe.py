import dataclasses
import math
import re

import numpy as np
import pytest

from asms import qoe, rl
from asms.core import (OBS_LATENCY, OBS_LOST, OBS_RECEIVED, OBS_TARGET, HyperParams,
                       QoECoefficients, RngStream, SimConfig, scenario_by_name)
from asms.netsim import BottleneckSim
from ratings_io import write_ratings_csv

C = QoECoefficients()


def qoe_features_reference(row, frame_rate, next_received_mbps, users, c):
    """The scalar per-row features that scored one agent-step at a time,
    with libm logs."""
    def quality(y):
        return math.log(max(y, c.y_min) / c.y_min)

    q_now, q_next = quality(row[OBS_RECEIVED]), quality(next_received_mbps)
    return np.array([
        q_now * math.exp(-users / c.u_max),
        -abs(frame_rate - c.f_target),
        -row[OBS_LATENCY] / (row[OBS_RECEIVED] + c.eps_small),
        -abs(q_next - q_now),
        -max(0.0, row[OBS_LOST] - c.p_threshold),
    ])


def score_episode_reference(rows, frame_rate, c):
    """The nested loop that scored a (T, N, 6) episode: each agent-step's
    weighted features added left to right, then each step's scores summed
    and divided by N. Returns (rewards, agent_qoe)."""
    t_len, n, _ = rows.shape
    steps, rates = rows.tolist(), frame_rate.tolist()
    agent_qoe, rewards = np.zeros((t_len, n)), np.zeros(t_len)
    for t in range(t_len):
        successor = steps[min(t + 1, t_len - 1)]
        for i in range(n):
            feats = qoe_features_reference(
                steps[t][i], rates[t][i], successor[i][OBS_RECEIVED], n, c)
            agent_qoe[t, i] = sum(f * w for f, w in zip(feats.tolist(), c.weights().tolist()))
        rewards[t] = float(np.sum(agent_qoe[t])) / n
    return rewards, agent_qoe


def record_features_reference(record, c):
    """The per-row loop that reduced a ratings trace to its mean features.
    Returns (per-row features, their mean)."""
    rows, rates, users = record.rows.tolist(), record.frame_rate.tolist(), record.users.tolist()
    per_row = [qoe_features_reference(row, rates[i], rows[min(i + 1, len(rows) - 1)][OBS_RECEIVED],
                                      users[i], c) for i, row in enumerate(rows)]
    feats = np.zeros(5)
    for f in per_row:
        feats += f
    return np.array(per_row), feats / len(rows)


def random_rollout(scenario, n, seed):
    """One 40-step episode at N=n under uniformly random bitrate moves:
    the scored (T, N, 6) rows, the frame rates and the episode record."""
    cfg = SimConfig(n_agents=n)
    sim = BottleneckSim(scenario_by_name(scenario), cfg, 40, RngStream(seed, f"env/{scenario}"))
    pick = RngStream(seed, f"pick/{scenario}")

    def choose(t, rows):
        return pick.integers(len(cfg.delta_table), size=len(rows))

    episode = rl.rollout(sim, HyperParams(episode_len=40), C, choose)
    return episode.rows[1:], episode.frame_rate, episode


class TestQuality:
    def test_floor_is_zero(self):
        assert qoe.quality(C.y_min, C.y_min) == 0.0

    def test_ln_e(self):
        assert qoe.quality(math.e * C.y_min, C.y_min) == pytest.approx(1.0)

    def test_ln_50(self):
        assert qoe.quality(50, 1) == pytest.approx(3.9120, abs=1e-4)

    def test_below_floor_clamps_and_counts(self):
        before = qoe.quality_clamp_count()
        assert qoe.quality(0.25, 1.0) == 0.0
        assert qoe.quality_clamp_count() - before == 1

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            qoe.quality(1.0, 0.0)


class TestDisruptionPenalty:
    """The loss term, feature column 4: packets lost beyond the threshold."""

    @staticmethod
    def penalty(lost):
        return -qoe.qoe_features([(50.0, 50.0, 10.0, 0.0, lost, lost)], C.f_target, 1, C)[0, 4]

    def test_boundary(self):
        assert self.penalty(C.p_threshold) == 0.0

    def test_linear_excess(self):
        assert self.penalty(C.p_threshold + 4) == 4.0

    def test_below_threshold(self):
        assert self.penalty(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            qoe.qoe_features([(50.0, 50.0, 10.0, 0.0, -1.0, 0.0)], C.f_target, 1, C)

    def test_column_of_a_block(self):
        rows = np.tile([50.0, 50.0, 10.0, 0.0, 0.0, 0.0], (2, 3, 1))
        rows[..., OBS_LOST] = [[0.0, 10.0, 11.0], [14.0, 2.0, 30.0]]
        feats = qoe.qoe_features(rows, C.f_target, 1, C)
        assert feats.shape == (2, 3, 5)
        assert (-feats[..., 4]).tolist() == [[0.0, 0.0, 1.0], [4.0, 0.0, 20.0]]

    def test_lone_row_rejected(self):
        with pytest.raises(ValueError, match=re.escape("got (6,)")):
            qoe.qoe_features((50.0, 50.0, 10.0, 0.0, 0.0, 0.0), C.f_target, 1, C)


class TestComputeQoe:
    def test_all_terms_vanish(self):
        obs = (C.y_min, C.y_min, 0.0, 0.0, 0.0, 0.0)
        assert qoe.compute_qoe([obs], C.f_target, 0, C)[0] == pytest.approx(0.0)

    def test_lone_disruption_term(self):
        obs = (C.y_min, C.y_min, 0.0, 0.0, C.p_threshold + 4, C.p_threshold + 4)
        assert qoe.compute_qoe([obs], C.f_target, 0, C)[0] == pytest.approx(-2.0)

    def test_against_straight_line_oracle(self):
        obs = (60.0, 45.0, 80.0, 6.0, 30.0, 30.0)
        successor = (15.0, 15.0, 0.0, 0.0, 0.0, 0.0)
        got = qoe.compute_qoe([obs, successor], 45.0, 5, C)[0]
        q_now = math.log(45.0 / 1.0)
        q_next = math.log(15.0 / 1.0)
        want = (1.0 * q_now * math.exp(-5 / 6)
                - 0.4 * abs(45.0 - 60.0)
                - 0.2 * 80.0 / (45.0 + 1e-6)
                - 0.6 * abs(q_next - q_now)
                - 0.5 * max(0.0, 30.0 - 10.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_bitrate(self):
        vals = [qoe.compute_qoe([(150.0, y, 0.0, 0.0, 0.0, 0.0)], C.f_target, 1, C)[0]
                for y in np.linspace(1, 150, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_down_in_density(self):
        obs = (50.0, 50.0, 0.0, 0.0, 0.0, 0.0)
        vals = [qoe.compute_qoe([obs], C.f_target, u, C)[0] for u in range(0, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_down_in_frame_mismatch(self):
        obs = (50.0, 50.0, 10.0, 0.0, 0.0, 0.0)
        vals = [qoe.compute_qoe([obs], C.f_target - d, 1, C)[0] for d in (0, 5, 10, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_stability_term_symmetry(self):
        a = (50.0, 40.0, 10.0, 0.0, 0.0, 0.0)
        b = (50.0, 20.0, 10.0, 0.0, 0.0, 0.0)
        pen_ab = qoe.qoe_features([a, b], C.f_target, 1, C)[0, 3]
        pen_ba = qoe.qoe_features([b, a], C.f_target, 1, C)[0, 3]
        assert pen_ab == pytest.approx(pen_ba)


class TestGlobalReward:
    """Each step's reward pools its N agent scores by their mean."""

    @staticmethod
    def score_one_step(received):
        """(rewards, agent scores) of one step whose agents differ only in
        received bitrate."""
        rows = np.zeros((1, len(received), 6))
        rows[0, :, OBS_TARGET] = rows[0, :, OBS_RECEIVED] = received
        rows[0, :, OBS_LATENCY] = 10.0
        return rl.score_episode(rows, np.full((1, len(received)), C.f_target), C)

    def test_singleton(self):
        rewards, agent_qoe = self.score_one_step([5.0])
        assert rewards[0] == agent_qoe[0, 0]

    def test_mean(self):
        rewards, agent_qoe = self.score_one_step([2.0, 5.0, 40.0])
        assert rewards[0] == pytest.approx(agent_qoe[0].sum() / 3)

    def test_permutation_invariant(self):
        rng = RngStream(0, "gr")
        received = rng.uniform(1.0, 80.0, size=9)
        perm = rng.permutation(9)
        rewards, _ = self.score_one_step(received)
        assert rewards[0] == pytest.approx(self.score_one_step(received[perm])[0][0])

    def test_copies_identity(self):
        for k in (1, 3, 7):
            rewards, agent_qoe = self.score_one_step([30.0] * k)
            assert rewards[0] == pytest.approx(agent_qoe[0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one agent"):
            rl.score_episode(np.zeros((4, 0, 6)), np.zeros((4, 0)), C)


class TestClampCount:
    @pytest.mark.parametrize("starved", [0, 1, 2])
    def test_one_clamped_agent_step_counts_once(self, starved):
        rows = np.tile([5.0, 5.0, 10.0, 0.0, 0.0, 0.0], (3, 1, 1))
        rows[starved, 0, OBS_RECEIVED] = 0.5 * C.y_min
        before = qoe.quality_clamp_count()
        rl.score_episode(rows, np.full((3, 1), C.f_target), C)
        assert qoe.quality_clamp_count() - before == 1


class TestKernelMatchesScalarReference:
    """The array kernel reproduces the scalar scoring loops bit for bit."""

    @pytest.mark.parametrize("n", [1, 6, 24, 100])
    def test_score_episode(self, n):
        below = 0
        for scenario in ("s1", "s2", "s3", "s4", "s5", "s6"):
            rows, frame_rate, episode = random_rollout(scenario, n, seed=n)
            rewards, agent_qoe = score_episode_reference(rows, frame_rate, C)
            before = qoe.quality_clamp_count()
            got_rewards, got_qoe = rl.score_episode(rows, frame_rate, C)
            clamped = int((rows[..., OBS_RECEIVED] < C.y_min).sum())
            assert qoe.quality_clamp_count() - before == clamped
            assert got_qoe.tobytes() == agent_qoe.tobytes() == episode.agent_qoe.tobytes()
            assert got_rewards.tobytes() == rewards.tobytes() == episode.rewards.tobytes()
            below += clamped
        if n >= 24:
            assert below > 0   # the crowded link starves some streams below y_min

    def test_quality_takes_libm_logs(self):
        # numpy's SIMD log can miss libm's last bit: on an AVX-512 x86-64 host,
        # for about 0.35% of inputs in [1, 2)
        y = C.y_min * RngStream(6, "log").uniform(1.0, 2.0, size=20000)
        want = [math.log(v / C.y_min) for v in y.tolist()]
        assert qoe.quality(y, C.y_min).tolist() == want

    def test_record_features_with_a_user_count_per_row(self):
        # user counts up to 200 include density factors where numpy's exp
        # misses libm's last bit
        records = qoe.synthetic_ratings(TRUTH, RngStream(6, "ref"), n_records=12)
        rng = RngStream(6, "users")
        for record in records:
            varied = dataclasses.replace(record, users=rng.integers(201, size=len(record.users)))
            want_rows, want = record_features_reference(varied, C)
            got_rows = qoe.qoe_features(varied.rows, varied.frame_rate, varied.users, C)
            assert got_rows.tobytes() == want_rows.tobytes()
            assert qoe.record_features(varied, C).tobytes() == want.tobytes()


TRUTH = QoECoefficients(alpha=1.0, beta=0.4, gamma=0.2, delta1=0.6, delta2=0.5)


class TestFitting:
    def test_noiseless_exact_recovery(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(0, "fit"), n_records=40)
        fit = qoe.fit_coefficients(records)
        for k in ("alpha", "beta", "gamma", "delta1", "delta2"):
            assert getattr(fit.coefficients, k) == pytest.approx(getattr(TRUTH, k))
        assert fit.rmse < 1e-9
        assert fit.r_squared > 0.999999

    def test_noisy_recovery_within_one_step(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(1, "fit"), noise_sigma=0.2)
        fit = qoe.fit_coefficients(records)
        for k in ("alpha", "beta", "gamma", "delta1", "delta2"):
            assert abs(getattr(fit.coefficients, k) - getattr(TRUTH, k)) <= 0.1 + 1e-9

    def test_needs_two_records(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(0, "fit"), n_records=1)
        with pytest.raises(ValueError):
            qoe.fit_coefficients(records)

    @pytest.mark.parametrize("factor", [1.0, 0.5])
    def test_scale_is_stated_by_the_normalization(self, factor):
        # any positive multiple of the weights gives the same ratings, so the
        # fit reports the multiple whose largest weight is 1
        weights = dict(alpha=1.0, beta=0.4, gamma=0.2, delta1=0.6, delta2=0.4)
        truth = dataclasses.replace(TRUTH, **{k: factor * v for k, v in weights.items()})
        records = qoe.synthetic_ratings(truth, RngStream(0, "fit"), n_records=40)
        fit = qoe.fit_coefficients(records)
        assert {k: getattr(fit.coefficients, k) for k in weights} == weights
        assert fit.rmse < 1e-9

    def test_flipped_ratings_never_fit_a_falling_score(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(0, "fit"), n_records=40)
        flipped = [dataclasses.replace(r, mos=6.0 - r.mos) for r in records]
        fit = qoe.fit_coefficients(flipped)
        assert fit.scale >= 0
        assert np.all(fit.coefficients.weights() >= 0)
        assert fit.rmse > 0.5   # an honestly poor fit, not the truth's exact one

    def test_flat_ratings_fit_zero_weights(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(2, "fit"), n_records=6)
        flat = [dataclasses.replace(r, mos=3.0) for r in records]
        with np.errstate(all="raise"):
            fit = qoe.fit_coefficients(flat)
        assert fit.coefficients.weights().tolist() == [0.0] * 5
        assert (fit.scale, fit.offset, fit.rmse, fit.r_squared) == (0, 3, 0, None)


class TestRatingsRecord:
    def test_invalid_row_rejected(self):
        rows = np.tile([10.0, 8.0, 20.0, 2.0, 3.0, 3.0], (4, 1))
        qoe.RatingsRecord("s1", rows, np.full(4, 60.0), np.full(4, 2), 3.0)
        rows[2, OBS_RECEIVED] = 11.0
        with pytest.raises(ValueError, match="received"):
            qoe.RatingsRecord("s1", rows, np.full(4, 60.0), np.full(4, 2), 3.0)

    def test_one_frame_rate_and_user_count_per_row(self):
        rows = np.tile([10.0, 8.0, 20.0, 2.0, 3.0, 3.0], (4, 1))
        with pytest.raises(ValueError, match="frame rate and user count"):
            qoe.RatingsRecord("s1", rows, np.full(3, 60.0), np.full(4, 2), 3.0)


class TestSensitivity:
    def test_all_zero_weights_all_deltas_zero(self):
        zero = QoECoefficients(alpha=0, beta=0, gamma=0, delta1=0, delta2=0)
        records = qoe.synthetic_ratings(TRUTH, RngStream(3, "s"), n_records=8)
        result = qoe.coefficient_sensitivity(zero, records)
        assert result.mean_abs_change == pytest.approx(0.0)

    def test_perturbations_never_beat_exact_optimum(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(4, "s"), n_records=24)
        result = qoe.coefficient_sensitivity(TRUTH, records)
        assert result.baseline_rmse < 1e-9
        for lo, hi in result.perturbed.values():
            assert lo >= result.baseline_rmse - 1e-12
            assert hi >= result.baseline_rmse - 1e-12

    def test_a_score_that_falls_as_ratings_rise_gets_no_alignment(self):
        # the alignment keeps a >= 0, so the score's exact reversal fits no
        # better than the ratings' mean
        records = qoe.synthetic_ratings(TRUTH, RngStream(4, "s"), n_records=24)
        flipped = [dataclasses.replace(r, mos=6.0 - r.mos) for r in records]
        result = qoe.coefficient_sensitivity(TRUTH, flipped)
        assert result.baseline_rmse == pytest.approx(np.std([r.mos for r in flipped]))

    def test_reports_all_five_weights(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(5, "s"), n_records=8,
                                        noise_sigma=0.1)
        result = qoe.coefficient_sensitivity(TRUTH, records)
        assert sorted(result.perturbed) == ["alpha", "beta", "delta1", "delta2", "gamma"]
        assert result.mean_rel_change is not None and result.mean_rel_change >= 0


class TestRatingsCsv:
    def test_round_trip(self, tmp_path):
        records = qoe.synthetic_ratings(TRUTH, RngStream(6, "csv"), n_records=6,
                                        trace_len=5, noise_sigma=0.1)
        path = tmp_path / "ratings.csv"
        write_ratings_csv(str(path), records)
        back = qoe.load_ratings_csv(str(path))
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.scenario == b.scenario
            assert b.mos == pytest.approx(a.mos, abs=1e-5)
            assert a.rows.shape == b.rows.shape
            assert b.rows[0, OBS_RECEIVED] == pytest.approx(a.rows[0, OBS_RECEIVED], rel=1e-5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="nope.csv"):
            qoe.load_ratings_csv(str(tmp_path / "nope.csv"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            qoe.load_ratings_csv(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            qoe.load_ratings_csv(str(path))

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(qoe.RATINGS_HEADER) + "\n"
                        "s1,0,10,8,20,2,0,0,60,3,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            qoe.load_ratings_csv(str(path))

    def test_invalid_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(qoe.RATINGS_HEADER) + "\n"
                        "s1,0,10,8,20,2,0,0,60,3,4.0\n"
                        "s1,1,10,12,20,2,0,0,60,3,4.0\n")
        with pytest.raises(ValueError, match="line 3: observation received"):
            qoe.load_ratings_csv(str(path))

    def test_mos_change_mid_trial_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(qoe.RATINGS_HEADER) + "\n"
                        "s1,0,10,8,20,2,0,0,60,3,4.0\n"
                        "s1,1,10,8,20,2,0,0,60,3,3.5\n")
        with pytest.raises(ValueError, match="MOS changed"):
            qoe.load_ratings_csv(str(path))

    @pytest.mark.parametrize("mos, shown", [("7", "7.0"), ("nan", "nan"), ("0.5", "0.5")])
    def test_bad_mos_reports_path_and_line(self, tmp_path, mos, shown):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(qoe.RATINGS_HEADER) + "\n"
                        f"s1,0,10,8,20,2,0,0,60,3,{mos}\n"
                        f"s1,1,10,8,20,2,0,0,60,3,{mos}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{str(path)!r} line 2: mos must be within [1, 5], got {shown}")):
            qoe.load_ratings_csv(str(path))
