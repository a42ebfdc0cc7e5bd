import dataclasses
import json
import struct
import types
import zlib
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from asms import cli, netsim, nn, qoe, training, verify
from asms.core import Channel, QoECoefficients, RngStream, builtin_scenarios
from ratings_io import write_ratings_csv


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

    def test_zero_ldp_clip_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("ldp_clip = 0\n")
        code = run_cli("train", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert code == 2
        assert "ldp_clip" in capsys.readouterr().err

    def test_zero_fedavg_freq_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("fedavg_freq = 0\n")
        code = run_cli("train", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert code == 2
        assert "fedavg_freq" in capsys.readouterr().err

    def test_unused_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sac_critics = 3\n")
        code = run_cli("train", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert code == 2
        assert "sac_critics is unused" in capsys.readouterr().err

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_episodes_below_one_exit_2_before_writing(self, tmp_path, tiny_cfg, capsys,
                                                      episodes):
        out = tmp_path / "run"
        code = run_cli("train", "--config", tiny_cfg, "--out", str(out),
                       "--episodes", episodes)
        assert code == 2
        assert f"episodes must be >= 1, got {episodes}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["grad_clip = nan", "ldp_eps = inf",
                                      "delta_table = -inf,0,inf"])
    def test_non_finite_value_exits_2_before_writing(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(bad), "--out", str(out)) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_removed_users_schedule_is_an_unknown_key(self, tmp_path, capsys):
        # so are the three keys that no code read
        bad = tmp_path / "bad.cfg"
        for line in ("users_schedule = 6,5,4", "entropy_coef_final = -1.0",
                     "x_init_spread = 0.0", "reward_mode = mean"):
            bad.write_text(line + "\n")
            assert run_cli("train", "--config", str(bad), "--out", str(tmp_path / "x")) == 2
            key = line.split(" = ")[0]
            assert f"unknown key '{key}'" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_used_out_dir_exits_2_naming_it(self, trained_run, tiny_cfg, capsys):
        before = sorted(p.relative_to(trained_run) for p in trained_run.rglob("*"))
        code = run_cli("train", "--config", tiny_cfg, "--out", str(trained_run),
                       *TRAIN_ARGS)
        assert code == 2
        assert f"{trained_run} is not empty" in capsys.readouterr().err
        assert sorted(p.relative_to(trained_run) for p in trained_run.rglob("*")) == before

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
        assert header == "scenario,episode,t,agent,x,y,l,j,p,n,f,capacity,u"

    def test_trace_names_each_row_once_by_scenario_episode_step_and_agent(self, tmp_path):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("n_agents = 2\nepisode_len = 3\n")
        trace = tmp_path / "trace.csv"
        code = run_cli("eval", "--controller", "delay", "--config", str(cfg),
                       "--scenarios", "s1,s3", "--episodes", "2", "--trace", str(trace))
        assert code == 0
        keys = [tuple(line.split(",")[:4]) for line in trace.read_text().splitlines()[1:]]
        assert sorted(keys) == sorted(set(keys))
        assert set(keys) == {(s, str(e), str(t), str(i)) for s in ("s1", "s3")
                             for e in range(2) for t in range(3) for i in range(2)}

    def test_controller_eval_takes_the_label(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli("eval", "--controller", "delay", "--config", tiny_cfg,
                       "--episodes", "1", "--label", "X", "--out", str(out))
        assert code == 0
        assert "X @ s1" in capsys.readouterr().out
        rows = (out / "eval_X.csv").read_text().splitlines()
        assert rows[1].startswith("X,s1,")

    def test_action_head_mismatch_exits_2_naming_both_sizes(self, trained_run, tmp_path,
                                                           capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text("n_agents = 2\nhidden_width = 8\ndelta_table = -1,0,1\n")
        code = run_cli("eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                       "--config", str(cfg), "--episodes", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "to 5 actions" in err and "3 actions" in err

    def test_failed_eval_leaves_no_trace_file(self, trained_run, tmp_path, capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text("n_agents = 2\nhidden_width = 8\ndelta_table = -1,0,1\n")
        trace = tmp_path / "t.csv"
        code = run_cli("eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                       "--config", str(cfg), "--episodes", "1", "--trace", str(trace))
        assert code == 2
        assert "3 actions" in capsys.readouterr().err
        assert not trace.exists()

    def test_zero_episodes_exit_2(self, tiny_cfg, capsys):
        code = run_cli("eval", "--controller", "delay", "--config", tiny_cfg,
                       "--episodes", "0")
        assert code == 2
        assert "episodes must be >= 1, got 0" in capsys.readouterr().err

    def test_zero_episodes_write_no_trace(self, tiny_cfg, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = run_cli("eval", "--controller", "delay", "--config", tiny_cfg,
                       "--episodes", "0", "--trace", str(trace))
        assert code == 2
        assert "episodes must be >= 1, got 0" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("label", ["a/b", "", ".", ".."])
    def test_label_that_is_not_a_file_name_exits_2_before_any_episode(
            self, tiny_cfg, tmp_path, capsys, label):
        out = tmp_path / "D"
        code = run_cli("eval", "--controller", "delay", "--config", tiny_cfg,
                       "--episodes", "1", "--label", label, "--out", str(out),
                       "--trace", str(tmp_path / "t.csv"))
        assert code == 2
        captured = capsys.readouterr()
        assert f"--label {label!r} is not a plain file name" in captured.err
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("method", ["x/y", ""])
    def test_manifest_label_that_is_not_a_file_name_exits_2_before_any_episode(
            self, trained_run, tiny_cfg, tmp_path, capsys, method):
        manifest = trained_run / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "method": method}))
        capsys.readouterr()
        out = tmp_path / "D"
        args = ["eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                "--config", tiny_cfg, "--episodes", "1", "--out", str(out)]
        assert run_cli(*args) == 2
        captured = capsys.readouterr()
        assert f"manifest's method {method!r} is not a plain file name" in captured.err
        assert captured.out == "" and not out.exists()
        # an explicit --label stands in for the manifest's
        assert run_cli(*args, "--label", "X") == 0
        assert (out / "eval_X.csv").exists()

    @pytest.mark.parametrize("manifest_text, problem", [
        (None, "no manifest.json in "),
        ("{not json", "cannot read the run manifest "),
        ("[1]", "has no string 'method'"),
        ('{"method": 5}', "has no string 'method'"),
    ])
    def test_manifest_without_a_method_exits_2_asking_for_a_label(
            self, trained_run, tiny_cfg, tmp_path, capsys, manifest_text, problem):
        manifest = trained_run / "manifest.json"
        if manifest_text is None:
            manifest.unlink()
        else:
            manifest.write_text(manifest_text)
        capsys.readouterr()
        out = tmp_path / "D"
        args = ["eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                "--config", tiny_cfg, "--episodes", "1", "--out", str(out),
                "--trace", str(tmp_path / "t.csv")]
        assert run_cli(*args) == 2
        captured = capsys.readouterr()
        assert problem in captured.err and "--label" in captured.err
        assert captured.out == "" and not out.exists() and not (tmp_path / "t.csv").exists()
        assert run_cli(*args, "--label", "X") == 0
        assert (out / "eval_X.csv").exists()

    def test_checkpoint_loads_once_for_all_scenarios(self, trained_run, tiny_cfg,
                                                     monkeypatch):
        loads = []
        load = training.load_checkpoint_agents
        monkeypatch.setattr(training, "load_checkpoint_agents",
                            lambda path: loads.append(path) or load(path))
        code = run_cli("eval", "--checkpoint", str(trained_run / "checkpoints" / "final"),
                       "--config", tiny_cfg, "--scenarios", "s1,s3,s5", "--episodes", "1")
        assert code == 0
        assert len(loads) == 1

    def test_corrupt_checkpoint_exits_2(self, trained_run, tiny_cfg, capsys):
        target = trained_run / "checkpoints" / "final" / "agent00.actor.fmap"
        blob = bytearray(target.read_bytes())
        blob[20] ^= 0xFF
        target.write_bytes(bytes(blob))
        code = run_cli("eval", "--checkpoint", str(target.parent),
                       "--config", tiny_cfg, "--scenarios", "s1")
        assert code == 2
        assert "CRC" in capsys.readouterr().err

    def test_zero_layer_checkpoint_exits_2(self, trained_run, tiny_cfg, capsys):
        final = trained_run / "checkpoints" / "final"
        body = nn.CHECKPOINT_MAGIC + struct.pack("<HBBHQ", nn.CHECKPOINT_VERSION, 0, 1, 0, 0)
        (final / "agent00.actor.fmap").write_bytes(
            body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        code = run_cli("eval", "--checkpoint", str(final), "--config", tiny_cfg,
                       "--scenarios", "s1")
        assert code == 2
        assert "checkpoint layers [] cannot run" in capsys.readouterr().err

    def test_checkpoint_missing_an_agent_exits_2(self, trained_run, tiny_cfg, capsys):
        final = trained_run / "checkpoints" / "final"
        (final / "agent00.actor.fmap").unlink()
        code = run_cli("eval", "--checkpoint", str(final), "--config", tiny_cfg,
                       "--scenarios", "s1")
        assert code == 2
        assert "agent 0 is missing: no agent00.actor.fmap" in capsys.readouterr().err

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

    def test_conflicting_cells_rejected(self, tmp_path, capsys):
        a, b = tmp_path / "seed0.csv", tmp_path / "seed1.csv"
        a.write_text("method,scenario,qoe_mean\nfmappo,s1,-12.5\n")
        b.write_text("method,scenario,qoe_mean\nfmappo,s1,-13.25\n")
        assert run_cli("compare", str(a), str(b), "--out", str(tmp_path / "c")) == 2
        err = capsys.readouterr().err
        assert "seed0.csv" in err and "seed1.csv" in err and "eval --label" in err
        assert not (tmp_path / "c").exists()

    # the file is given twice, so a nan cell must fail on its line rather than
    # as a conflict with itself (nan != nan)
    @pytest.mark.parametrize("row", ["m1,s2,nan", "m1,s2,inf", "m1,s2,-inf", "m1,s2"])
    def test_non_finite_or_missing_cell_exits_2_naming_line(self, tmp_path, capsys, row):
        src = tmp_path / "one.csv"
        src.write_text(f"method,scenario,qoe_mean\nm1,s1,0.5\n{row}\n")
        assert run_cli("compare", str(src), str(src), "--out", str(tmp_path / "c")) == 2
        assert "one.csv line 3" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_labels_with_markup_give_well_formed_svg(self, tiny_cfg, tmp_path):
        for ctrl, label in (("delay", "R&D<x>"), ("probe", "probe")):
            assert run_cli("eval", "--controller", ctrl, "--config", tiny_cfg,
                           "--episodes", "1", "--label", label,
                           "--out", str(tmp_path / ctrl)) == 0
        out = tmp_path / "cmp"
        assert run_cli("compare", str(tmp_path / "delay"), str(tmp_path / "probe"),
                       "--out", str(out)) == 0
        root = ElementTree.parse(out / "compare_s1.svg").getroot()
        assert "R&D<x>" in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_comparison_csv_text(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("method,scenario,qoe_mean\nm1,s1,0.1\nm1,s2,-12.5\n")
        b.write_text("method,scenario,qoe_mean\nm2,S2,0.30000000000000004\n")
        assert run_cli("compare", str(a), str(b), "--out", str(tmp_path / "c")) == 0
        assert (tmp_path / "c" / "comparison.csv").read_text() == (
            "method,s1,s2\n"
            "m1,0.1,-12.5\n"
            "m2,,0.30000000000000004\n")

    def test_scenario_named_like_the_method_column_rejected(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("method,scenario,qoe_mean\nm1,s1,0.5\nm1,Method,0.25\n")
        assert run_cli("compare", str(src), str(src), "--out", str(tmp_path / "c")) == 2
        assert "method column" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_single_source_rejected(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("method,scenario,qoe_mean,qoe_std\nm1,s1,0.5,0.1\n")
        assert run_cli("compare", str(src), "--out", str(tmp_path / "c")) == 2


class TestFitQoe:
    def test_recovers_generating_point(self, tmp_path, capsys):
        truth = QoECoefficients(alpha=1.0, beta=0.4, gamma=0.2, delta1=0.6, delta2=0.5)
        records = qoe.synthetic_ratings(truth, RngStream(0, "fixture"), n_records=40)
        ratings = tmp_path / "ratings.csv"
        write_ratings_csv(str(ratings), records)
        out = tmp_path / "fit"
        code = run_cli("fit-qoe", "--ratings", str(ratings), "--out", str(out))
        assert code == 0
        report = json.loads((out / "qoe_fit.json").read_text())
        assert report["coefficients"] == {
            "alpha": 1.0, "beta": 0.4, "gamma": 0.2, "delta1": 0.6, "delta2": 0.5}
        # CSV serialization quantizes at 6 significant digits
        assert report["rmse"] < 1e-4
        # report and stdout state the normalization that fixes the weights' scale
        assert report["normalization"] == qoe.FIT_NORMALIZATION
        assert "grid" not in report
        assert qoe.FIT_NORMALIZATION in capsys.readouterr().out

    def test_report_and_printed_line_follow_the_weight_tuple(self, tmp_path, capsys):
        records = qoe.synthetic_ratings(QoECoefficients(), RngStream(1, "fixture"),
                                        n_records=12)
        ratings = tmp_path / "ratings.csv"
        write_ratings_csv(str(ratings), records)
        out = tmp_path / "fit"
        assert run_cli("fit-qoe", "--ratings", str(ratings), "--out", str(out)) == 0
        fitted = json.loads((out / "qoe_fit.json").read_text())["coefficients"]
        assert sorted(fitted) == sorted(QoECoefficients.WEIGHTS)   # the file sorts its keys
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("fitted weights"))
        pairs = [item.split("=") for item in line.split(": ", 1)[1].split()]
        assert [name for name, _ in pairs] == list(QoECoefficients.WEIGHTS)
        assert {name: float(v) for name, v in pairs} == fitted

    def test_flat_ratings_report_r_squared_as_undefined(self, tmp_path, capsys):
        records = qoe.synthetic_ratings(QoECoefficients(), RngStream(2, "fixture"),
                                        n_records=6)
        ratings = tmp_path / "flat.csv"
        write_ratings_csv(str(ratings), [dataclasses.replace(r, mos=3.0) for r in records])
        out = tmp_path / "fit"
        assert run_cli("fit-qoe", "--ratings", str(ratings), "--out", str(out)) == 0
        report = json.loads((out / "qoe_fit.json").read_text())
        assert report["r_squared"] is None and report["rmse"] == 0.0
        assert "rmse=0.0000 r_squared=undefined" in capsys.readouterr().out

    def test_empty_csv_exits_2_naming_file(self, tmp_path, capsys):
        ratings = tmp_path / "empty.csv"
        ratings.write_text("")
        assert run_cli("fit-qoe", "--ratings", str(ratings)) == 2
        assert "empty.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("column,value", [(8, "nan"), (9, "-40"), (9, "2.5")])
    def test_bad_frame_rate_or_user_count_exits_2_naming_line(self, tmp_path, capsys,
                                                              column, value):
        records = qoe.synthetic_ratings(QoECoefficients(), RngStream(2, "fixture"),
                                        n_records=4, trace_len=3)
        ratings = tmp_path / "ratings.csv"
        write_ratings_csv(str(ratings), records)
        lines = ratings.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        ratings.write_text("\n".join(lines) + "\n")
        assert run_cli("fit-qoe", "--ratings", str(ratings)) == 2
        assert "line 3:" in capsys.readouterr().err


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

    def test_only_selects_by_printed_name(self, capsys):
        code = run_cli("verify", "--only", "gradient-critic", "--seed", "0")
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 1 and "[PASS] gradient-critic" in out
        assert "1/1 checks passed" in out

    def test_only_selecting_nothing_exits_2_without_running(self, capsys):
        code = run_cli("verify", "--only", "nosuchcheck")
        assert code == 2
        captured = capsys.readouterr()
        assert "nosuchcheck" in captured.err
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out

    def test_only_strips_tokens_and_drops_empty_ones(self, capsys):
        assert run_cli("verify", "--only", "clip, rng,", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "[PASS] clip-function-cases" in out and "[PASS] rng-determinism" in out
        assert "2/2 checks passed" in out

    @pytest.mark.parametrize("only, unmatched", [("rng,nosuch", "['nosuch']"),
                                                 (" , ", "[' ', ' ']"), ("", "['']")])
    def test_only_token_selecting_nothing_exits_2_naming_it(self, capsys, only, unmatched):
        assert run_cli("verify", "--only", only) == 2
        captured = capsys.readouterr()
        assert f"no check matches {unmatched}" in captured.err
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out

    def test_check_names_match_the_benchmark_list(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import bench
        assert tuple(verify.ORACLE_CHECKS.values()) == bench.VERIFY_CHECKS

    def test_waterfill_oracle_equals_the_full_bisection(self):
        # the oracle stops at its fixed point; the 200 halvings it skips
        # would each repeat the same level
        def bisect_200(targets, capacity):
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

        rng = RngStream(11, "waterfill")
        cases = [(np.array([70.0]), 30.0), (np.full(4, 25.0), 60.0),
                 (np.array([40.0, 40.0, 10.0]), 50.0), (np.array([1e-300, 5.0]), 1e-300)]
        for trial in range(400):
            n = 1 + trial % 8
            targets = rng.uniform(0, 100, size=n)
            if trial % 3 == 0:
                targets[: n // 2 + 1] = targets[0]   # tied targets
            cases.append((targets, rng.uniform(1, 300)))
        assert sum(t.sum() > c for t, c in cases) > 200   # most of them bisect
        for targets, capacity in cases:
            assert (verify.waterfill_oracle(targets, capacity).tobytes()
                    == bisect_200(targets, capacity).tobytes())

    @pytest.mark.parametrize("seed", range(3))
    def test_ldp_statistics_from_blocks_read_as_from_one_array(self, seed):
        # Philox draws do not depend on how a stream is chunked, so the
        # blocks are the million draws one call gives, and the draw after
        # them is the same
        passed, detail = verify.check_ldp_statistics(seed)
        whole = RngStream(seed, "verify/ldp")
        draws = whole.laplace(1.0, size=1_000_000)
        mean, var = float(draws.mean()), float(draws.var())
        blocked = RngStream(seed, "verify/ldp")
        parts = [blocked.laplace(1.0, size=62_500) for _ in range(16)]
        assert np.concatenate(parts).tobytes() == draws.tobytes()
        assert blocked.uniform(size=3).tobytes() == whole.uniform(size=3).tobytes()
        assert passed and detail == (f"1e6 draws at b=1: mean {mean:+.4f} (|.|<0.005), "
                                     f"var {var:.4f} (2 +/- 0.04); zero-sensitivity no-op: True")

    @pytest.mark.parametrize("seed", range(10))
    def test_fit_recovery_passes(self, seed):
        passed, detail = verify.check_fit_recovery(seed)
        assert passed, detail

    # Seeds at which finite differences once crossed a ReLU kink.
    @pytest.mark.parametrize("seed", [29, 57, 59, 86, 99, 309])
    def test_gradient_critic_near_kink_seeds(self, seed, monkeypatch):
        passed, _ = verify.check_gradient_critic(seed)
        assert passed
        monkeypatch.setenv("ASMS_VERIFY_CORRUPT_GRADIENT", "1")
        passed, _ = verify.check_gradient_critic(seed)
        assert not passed

    # Seed 0 once drew a probability ratio 4e-6 from the clip bound 1.2, which
    # the finite-difference step crossed (the only such seed below 420).
    def test_gradient_actor_near_clip_bound_seed(self, monkeypatch):
        passed, detail = verify.check_gradient_actor(0)
        assert passed, detail
        monkeypatch.setenv("ASMS_VERIFY_CORRUPT_GRADIENT", "1")
        passed, _ = verify.check_gradient_actor(0)
        assert not passed

    def test_scenario_table_pins_the_builtin_channels(self, monkeypatch):
        real = verify.builtin_scenarios

        def edited():
            return [dataclasses.replace(s, bandwidth=Channel.fixed(20, 90))
                    if s.name == "s3" else s for s in real()]

        passed, _ = verify.check_scenario_ranges(0)
        assert passed
        monkeypatch.setattr(verify, "builtin_scenarios", edited)
        passed, detail = verify.check_scenario_ranges(0)
        assert not passed and "s3" in detail

    @pytest.mark.parametrize("first, second, at_s1_start", [
        ("base_latency_ms", "base_jitter_ms", (2.0, 5.0)),
        ("loss_rate", "burst_level", (0.0, 0.0)),
    ], ids=["latency-jitter", "loss-burst"])
    def test_endpoint_draws_catch_swapped_fields(self, monkeypatch, first, second, at_s1_start):
        real = netsim.sample_link_state

        def swapped(bounds, t, rng):
            s = real(bounds, t, rng)
            return dataclasses.replace(s, **{first: getattr(s, second),
                                             second: getattr(s, first)})

        monkeypatch.setattr(netsim, "sample_link_state", swapped)
        passed, detail = verify.check_scenario_ranges(0)
        # s1's first endpoint reads the second field's draw where the first belongs
        where, value = detail.rsplit(": ", 1)
        assert not passed and where == "s1 start endpoint off"
        assert at_s1_start[0] <= float(value) <= at_s1_start[1]

    def test_forced_out_of_range_value_reads_as_before(self, monkeypatch):
        # draw 10,019 of the stream, past s1's 10,000 steps, is sample 3's
        # latency and maps to u = 1.5; the detail must equal the one the
        # per-sample loop gives
        monkeypatch.setattr(verify, "RngStream", _faulty_stream(10_019, 1.5))
        passed, detail = verify.check_scenario_ranges(0)
        assert not passed
        assert detail == _scalar_range_failure(_faulty_stream(10_019, 1.5)(0, "verify/scenarios"))
        assert detail.startswith("s1 t=") and detail.endswith(" outside [10.0, 30.0]")

    def test_sample_breaking_link_state_invariants_is_named(self, monkeypatch):
        # draw 10,600, sample 100's capacity, maps to u = -2: capacity
        # 100 - 200 < 0
        monkeypatch.setattr(verify, "RngStream", _faulty_stream(10_600, -2.0))
        passed, detail = verify.check_scenario_ranges(0)
        assert not passed
        assert detail.startswith("s1 t=") and detail.endswith(": capacity must be positive")

    def test_learning_check_details_on_fixed_scores(self, monkeypatch):
        monkeypatch.setattr(training, "train", _fake_train)
        monkeypatch.setattr(training, "evaluate_agents", _fake_eval)
        monkeypatch.setattr(training, "evaluate_controller", _fake_eval)
        results = verify.run_checks(seed=0, full=True,
                                    only=["single_agent", "convergence", "ordering"])
        assert [(r.name, r.passed, r.detail) for r in results] == LEARNING_DETAILS

    def test_convergence_drawdown_equals_the_running_max_loop(self, monkeypatch):
        # the per-element loop convergence-shape took its worst drop with
        def loop_drop(tail):
            running_max = -np.inf
            worst_drop = 0.0
            for v in tail:
                running_max = max(running_max, v)
                worst_drop = max(worst_drop, running_max - v)
            return worst_drop

        rng = RngStream(7, "drawdown")
        for trial in range(40):
            # random walks drifting down to up, so the check both passes and fails
            series = [np.cumsum(rng.normal(size=60 + trial) + 0.5 * (k + trial % 4 - 2))
                      * 10.0 ** (k - 2) for k in range(5)]
            series[trial % 5][-30:] = series[trial % 5][-30]   # a flat tail drops 0
            monkeypatch.setattr(training, "train", lambda *a, seed, **kw:
                                types.SimpleNamespace(episode_rewards=series[seed - trial]))
            monkeypatch.setattr(training, "moving_average", lambda values, window: values)
            passes, details = [], []
            for s, ma in enumerate(series):
                drop = loop_drop(ma[(2 * len(ma)) // 3:])
                band = 0.05 * float(ma.max() - ma.min())
                passes.append(drop <= band)
                details.append(f"seed {trial + s}: worst drop {drop:.3f} vs band {band:.3f}")
            want = (sum(passes) >= 4,
                    f"{sum(passes)}/5 seeds non-decreasing final third; " + "; ".join(details))
            assert verify.check_convergence_shape(trial) == want

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0


def _faulty_stream(position, u):
    """An RngStream class whose uniform draw number ``position`` (counted
    over its ``uniform`` calls from 0) maps to ``u`` instead of its [0, 1)
    value."""
    class Faulty(RngStream):
        drawn = 0

        def uniform(self, low=0.0, high=1.0, size=None):
            start = self.drawn
            out = np.atleast_1d(super().uniform(low, high, size))
            self.drawn = start + out.size
            k = position - start
            if 0 <= k < out.size:
                lo = np.broadcast_to(low, out.shape)[k]
                hi = np.broadcast_to(high, out.shape)[k]
                out[k] = lo + (hi - lo) * u
            return float(out[0]) if size is None else out

    return Faulty


def _scalar_range_failure(rng):
    """The first failure of the per-sample scenario-ranges loop, a call at a
    time from ``rng`` (a scenario's 10,000 steps, then its link states, then
    its two endpoint states), in its own words (None when every sample
    passes)."""
    for spec in builtin_scenarios():
        bounds = netsim.link_bounds(spec, 40)
        steps = [int(rng.uniform(0, 40)) for _ in range(10_000)]
        for t in steps:
            state = netsim.sample_link_state(bounds, t, rng)
            for value, lo, hi in zip((state.capacity_mbps, state.base_latency_ms,
                                      state.base_jitter_ms, state.loss_rate,
                                      state.burst_level),
                                     bounds[0][t].tolist(), bounds[1][t].tolist()):
                if not (lo - 1e-9 <= value <= hi + 1e-9):
                    return f"{spec.name} t={t}: {value} outside [{lo}, {hi}]"
        for t in (0, 39):
            netsim.sample_link_state(bounds, t, rng)
    return None


# Fixed stand-ins for training and evaluation, so the learning checks' report
# format is pinned without minutes of training.
_FAKE_BASE = {"fmappo": 1.0, "ippo": 0.6, "delay": 0.8, "probe": 0.3, "random": -2.0}


def _fake_train(cfg, hp, coeffs, method, scenarios, seed, episodes, **_):
    t = np.arange(episodes)
    rewards = (seed % 3 - 1) * t / episodes + 0.2 * np.sin(t) + _FAKE_BASE[method]
    return types.SimpleNamespace(episode_rewards=rewards, agents=method)


def _fake_eval(name, scenario, episodes, seed, *args, **kwargs):
    """Stands in for evaluate_agents (name is the fake agents: the method)
    and for evaluate_controller."""
    scen = getattr(scenario, "name", scenario)
    score = _FAKE_BASE[name] + 0.25 * ((seed + len(name) + ord(scen[-1])) % 4)
    return types.SimpleNamespace(qoe_episode_mean=score)


LEARNING_DETAILS = [
    ("single-agent-sanity", True,
     "5/5 seeds beat random by >=30%; "
     "seed 0: learned 0.094 vs random -1.500 (+106%); "
     "seed 1: learned 0.989 vs random -1.250 (+179%); "
     "seed 2: learned 1.884 vs random -2.000 (+194%); "
     "seed 3: learned 0.094 vs random -1.750 (+105%); "
     "seed 4: learned 0.989 vs random -1.500 (+166%)"),
    ("convergence-shape", False,
     "1/5 seeds non-decreasing final third; "
     "seed 0: worst drop 0.321 vs band 0.051; "
     "seed 1: worst drop 0.018 vs band 0.006; "
     "seed 2: worst drop 0.005 vs band 0.046; "
     "seed 3: worst drop 0.321 vs band 0.051; "
     "seed 4: worst drop 0.018 vs band 0.006"),
    ("method-ordering", False,
     "fmappo>=ippo@s3: 2/5; fmappo>=ippo@s5: 3/5; fmappo>=delay@s5: 4/5; "
     "fmappo>=probe@s5: 4/5; ippo>=delay@s5: 1/5; ippo>=probe@s5: 5/5 || "
     "seed 0: delay@s5=1.300, fmappo@s3=1.250, fmappo@s5=1.750, ippo@s3=1.350, "
     "ippo@s5=0.850, probe@s5=0.800 | "
     "seed 1: delay@s5=1.550, fmappo@s3=1.500, fmappo@s5=1.000, ippo@s3=0.600, "
     "ippo@s5=1.100, probe@s5=1.050 | "
     "seed 2: delay@s5=0.800, fmappo@s3=1.750, fmappo@s5=1.250, ippo@s3=0.850, "
     "ippo@s5=1.350, probe@s5=0.300 | "
     "seed 3: delay@s5=1.050, fmappo@s3=1.000, fmappo@s5=1.500, ippo@s3=1.100, "
     "ippo@s5=0.600, probe@s5=0.550 | "
     "seed 4: delay@s5=1.300, fmappo@s3=1.250, fmappo@s5=1.750, ippo@s3=1.350, "
     "ippo@s5=0.850, probe@s5=0.800"),
]
