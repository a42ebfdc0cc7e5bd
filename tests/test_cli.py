import json
import os

import pytest

from asms import cli, qoe, verify
from asms.core import QoECoefficients, RngStream


def run_cli(*argv):
    return cli.main(list(argv))


TRAIN_ARGS = ["--scenarios", "s1,s3", "--episodes", "6", "--seed", "3"]


@pytest.fixture()
def tiny_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_agents = 2\nhidden_width = 8\nfedavg_freq = 2\n"
                   "ldp_enabled = false\n")
    return str(cfg)


@pytest.fixture()
def trained_run(tmp_path, tiny_cfg):
    out = tmp_path / "run"
    code = run_cli("train", "--config", tiny_cfg, "--out", str(out), *TRAIN_ARGS)
    assert code == 0
    return out


class TestTrain:
    def test_writes_artifacts(self, trained_run):
        assert (trained_run / "learning_curve.csv").exists()
        assert (trained_run / "diagnostics.csv").exists()
        assert (trained_run / "overhead.csv").exists()
        assert (trained_run / "manifest.json").exists()
        assert (trained_run / "checkpoints" / "final").is_dir()

    def test_byte_identical_reruns(self, tmp_path, tiny_cfg):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("train", "--config", tiny_cfg, "--out", str(out_a), *TRAIN_ARGS) == 0
        assert run_cli("train", "--config", tiny_cfg, "--out", str(out_b), *TRAIN_ARGS) == 0
        assert (out_a / "learning_curve.csv").read_bytes() == \
            (out_b / "learning_curve.csv").read_bytes()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamma_discount = 1.5\n")
        code = run_cli("train", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert code == 2
        assert "gamma_discount" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, tmp_path):
        code = run_cli("train", "--out", str(tmp_path / "x"), "--scenarios", "s9")
        assert code == 2

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("train")   # missing --out
        assert exc.value.code == 1


class TestEval:
    def test_checkpoint_eval(self, trained_run, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli("eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                       "--config", tiny_cfg, "--scenarios", "s1", "--episodes", "2",
                       "--seed", "5", "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "fmappo @ s1" in printed
        assert (out / "eval_fmappo.csv").exists()

    def test_controller_eval_with_trace(self, tiny_cfg, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run_cli("eval", "--controller", "delay", "--config", tiny_cfg,
                       "--scenarios", "s2", "--episodes", "2", "--seed", "1",
                       "--trace", str(trace))
        assert code == 0
        header = trace.read_text().splitlines()[0]
        assert header == "t,agent,x,y,l,j,p,n,f,capacity,u"

    def test_corrupt_checkpoint_exits_2(self, trained_run, tiny_cfg, capsys):
        target = trained_run / "checkpoints" / "final" / "agent00.actor.fmap"
        blob = bytearray(target.read_bytes())
        blob[20] ^= 0xFF
        target.write_bytes(bytes(blob))
        code = run_cli("eval", "--checkpoint", str(target.parent),
                       "--config", tiny_cfg, "--scenarios", "s1")
        assert code == 2
        assert "CRC" in capsys.readouterr().err

    def test_greedy_eval_deterministic(self, trained_run, tiny_cfg, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            run_cli("eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                    "--config", tiny_cfg, "--scenarios", "s1", "--episodes", "2",
                    "--seed", "5", "--out", str(out))
            outs.append((out / "eval_fmappo.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCompare:
    def test_compare_runs_and_external(self, trained_run, tiny_cfg, tmp_path):
        eval_out = tmp_path / "evals"
        run_cli("eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                "--config", tiny_cfg, "--scenarios", "s1,s3", "--episodes", "2",
                "--seed", "5", "--out", str(eval_out))
        external = tmp_path / "external.csv"
        external.write_text("method,scenario,qoe_mean,qoe_std\n"
                            "published-method,s1,0.95,0.01\n"
                            "published-method,s3,0.85,0.02\n")
        out = tmp_path / "cmp"
        code = run_cli("compare", str(eval_out), str(external), "--out", str(out))
        assert code == 0
        matrix = (out / "comparison.csv").read_text().splitlines()
        assert matrix[0] == "method,s1,s3"
        rows = {line.split(",")[0]: line for line in matrix[1:]}
        assert "published-method" in rows
        assert "0.95" in rows["published-method"]
        assert (out / "compare_s1.svg").exists()
        assert (out / "compare_s3.svg").exists()

    def test_identical_sources_identical_bars(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("method,scenario,qoe_mean,qoe_std\nm1,s1,0.5,0.1\n")
        out_a, out_b = tmp_path / "ca", tmp_path / "cb"
        assert run_cli("compare", str(src), str(src), "--out", str(out_a)) == 0
        assert run_cli("compare", str(src), str(src), "--out", str(out_b)) == 0
        assert (out_a / "compare_s1.svg").read_bytes() == \
            (out_b / "compare_s1.svg").read_bytes()

    def test_single_source_rejected(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("method,scenario,qoe_mean,qoe_std\nm1,s1,0.5,0.1\n")
        assert run_cli("compare", str(src), "--out", str(tmp_path / "c")) == 2


class TestFitQoe:
    def test_recovers_generating_point(self, tmp_path, capsys):
        truth = QoECoefficients(alpha=1.0, beta=0.4, gamma=0.2, delta1=0.6, delta2=0.5)
        records = qoe.synthetic_ratings(truth, RngStream(0, "fixture"), n_records=40)
        ratings = tmp_path / "ratings.csv"
        qoe.write_ratings_csv(str(ratings), records)
        out = tmp_path / "fit"
        code = run_cli("fit-qoe", "--ratings", str(ratings), "--out", str(out))
        assert code == 0
        report = json.loads((out / "qoe_fit.json").read_text())
        assert report["coefficients"] == {
            "alpha": 1.0, "beta": 0.4, "gamma": 0.2, "delta1": 0.6, "delta2": 0.5}
        # CSV serialization quantizes at 6 significant digits
        assert report["rmse"] < 1e-4
        # report echoes the searched grid
        assert len(report["grid"]) == 5
        assert report["grid"][0][:3] == [0.0, 0.1, 0.2]

    def test_empty_csv_exits_2_naming_file(self, tmp_path, capsys):
        ratings = tmp_path / "empty.csv"
        ratings.write_text("")
        assert run_cli("fit-qoe", "--ratings", str(ratings)) == 2
        assert "empty.csv" in capsys.readouterr().err

    def test_custom_grid(self, tmp_path):
        truth = QoECoefficients(alpha=0.5, beta=0.25, gamma=0.25, delta1=0.5,
                                delta2=0.25)
        records = qoe.synthetic_ratings(truth, RngStream(1, "fixture"), n_records=40)
        ratings = tmp_path / "ratings.csv"
        qoe.write_ratings_csv(str(ratings), records)
        code = run_cli("fit-qoe", "--ratings", str(ratings), "--grid", "0:1:0.25",
                       "--out", str(tmp_path / "fit"))
        assert code == 0
        report = json.loads((tmp_path / "fit" / "qoe_fit.json").read_text())
        assert report["coefficients"]["beta"] == 0.25


class TestVerify:
    def test_subset_passes(self, capsys):
        code = run_cli("verify", "--only", "clip,rng,hyperparam", "--seed", "0")
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] clip-function-cases" in out
        assert "3/3 checks passed" in out

    def test_corrupted_gradient_hook_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("ASMS_VERIFY_CORRUPT_GRADIENT", "1")
        code = run_cli("verify", "--only", "gradient_actor", "--seed", "0")
        assert code == 3
        assert "[FAIL] gradient-actor" in capsys.readouterr().out

    # Seeds at which finite differences once crossed a ReLU kink.
    @pytest.mark.parametrize("seed", [29, 57, 59, 86, 99, 309])
    def test_gradient_critic_near_kink_seeds(self, seed, monkeypatch):
        assert verify.check_gradient_critic(seed).passed
        monkeypatch.setenv("ASMS_VERIFY_CORRUPT_GRADIENT", "1")
        assert not verify.check_gradient_critic(seed).passed

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
