import dataclasses
import math

import numpy as np
import pytest

from asms import qoe
from asms.core import OBS_RECEIVED, QoECoefficients, RngStream
from ratings_io import write_ratings_csv

C = QoECoefficients()


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
    def test_boundary(self):
        assert qoe.disruption_penalty(C.p_threshold, C.p_threshold) == 0.0

    def test_linear_excess(self):
        assert qoe.disruption_penalty(C.p_threshold + 4, C.p_threshold) == 4.0

    def test_below_threshold(self):
        assert qoe.disruption_penalty(0, 10) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            qoe.disruption_penalty(-1, 10)


class TestComputeQoe:
    def test_all_terms_vanish(self):
        obs = (C.y_min, C.y_min, 0.0, 0.0, 0.0, 0.0)
        assert qoe.compute_qoe(obs, C.f_target, C.y_min, 0, C) == pytest.approx(0.0)

    def test_lone_disruption_term(self):
        obs = (C.y_min, C.y_min, 0.0, 0.0, C.p_threshold + 4, C.p_threshold + 4)
        assert qoe.compute_qoe(obs, C.f_target, C.y_min, 0, C) == pytest.approx(-2.0)

    def test_against_straight_line_oracle(self):
        obs = (60.0, 45.0, 80.0, 6.0, 30.0, 30.0)
        got = qoe.compute_qoe(obs, 45.0, 15.0, 5, C)
        q_now = math.log(45.0 / 1.0)
        q_next = math.log(15.0 / 1.0)
        want = (1.0 * q_now * math.exp(-5 / 6)
                - 0.4 * abs(45.0 - 60.0)
                - 0.2 * 80.0 / (45.0 + 1e-6)
                - 0.6 * abs(q_next - q_now)
                - 0.5 * max(0.0, 30.0 - 10.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_bitrate(self):
        vals = [qoe.compute_qoe((150.0, y, 0.0, 0.0, 0.0, 0.0),
                                C.f_target, y, 1, C)
                for y in np.linspace(1, 150, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_down_in_density(self):
        obs = (50.0, 50.0, 0.0, 0.0, 0.0, 0.0)
        vals = [qoe.compute_qoe(obs, C.f_target, 50.0, u, C) for u in range(0, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_down_in_frame_mismatch(self):
        obs = (50.0, 50.0, 10.0, 0.0, 0.0, 0.0)
        vals = [qoe.compute_qoe(obs, C.f_target - d, 50.0, 1, C) for d in (0, 5, 10, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_stability_term_symmetry(self):
        a = (50.0, 40.0, 10.0, 0.0, 0.0, 0.0)
        b = (50.0, 20.0, 10.0, 0.0, 0.0, 0.0)
        pen_ab = qoe.qoe_features(a, C.f_target, 20.0, 1, C)[3]
        pen_ba = qoe.qoe_features(b, C.f_target, 40.0, 1, C)[3]
        assert pen_ab == pytest.approx(pen_ba)


class TestGlobalReward:
    def test_singleton(self):
        assert qoe.global_reward([0.5]) == 0.5

    def test_mean(self):
        assert qoe.global_reward([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_permutation_invariant(self):
        rng = RngStream(0, "gr")
        vals = rng.uniform(-5, 5, size=9)
        perm = rng.permutation(9)
        assert qoe.global_reward(vals.tolist()) == pytest.approx(
            qoe.global_reward(vals[perm].tolist()))

    def test_copies_identity(self):
        for k in (1, 3, 7):
            assert qoe.global_reward([0.7] * k) == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            qoe.global_reward([])


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

    def test_empty_grid_rejected(self):
        records = qoe.synthetic_ratings(TRUTH, RngStream(0, "fit"), n_records=4)
        with pytest.raises(ValueError):
            qoe.fit_coefficients(records, grid=((), (), (), (), ()))

    def test_tie_break_lexicographic(self):
        # constant ratings make every candidate equal-RMSE; first grid point wins
        records = qoe.synthetic_ratings(TRUTH, RngStream(2, "fit"), n_records=6)
        flat = [dataclasses.replace(r, mos=3.0) for r in records]
        fit = qoe.fit_coefficients(flat, grid=((0.3, 0.1), (0.2,), (0.2,), (0.2,), (0.2,)))
        assert fit.coefficients.alpha == 0.3

    def test_blocks_give_the_unblocked_fit(self, monkeypatch):
        records = qoe.synthetic_ratings(TRUTH, RngStream(1, "fit"), n_records=24,
                                        noise_sigma=0.2)
        grid = ((0.2, 0.6, 1.0),) + ((0.0, 0.2, 0.4, 0.6),) * 4
        monkeypatch.setattr(qoe, "FIT_BLOCK_ROWS", 10 ** 9)
        whole = qoe.fit_coefficients(records, grid)
        monkeypatch.setattr(qoe, "FIT_BLOCK_ROWS", 7)
        assert qoe.fit_coefficients(records, grid) == whole
        # a tie across blocks still breaks to the first candidate
        monkeypatch.setattr(qoe, "FIT_BLOCK_ROWS", 1)
        flat = [dataclasses.replace(r, mos=3.0) for r in records]
        fit = qoe.fit_coefficients(flat, grid=((0.3, 0.1), (0.2,), (0.2,), (0.2,), (0.2,)))
        assert fit.coefficients.alpha == 0.3


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
