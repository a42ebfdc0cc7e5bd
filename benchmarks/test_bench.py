"""Fast tests of the benchmark itself, on tiny sizes of each workload.

Run from the repository root: python3 -m pytest -q benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import asms.rl  # noqa: E402
import asms.training  # noqa: E402
import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_VERIFY = ("rng_determinism", "fedavg_oracle", "checkpoint_roundtrip",
               "comm_overhead", "federation_identity")


def tiny(name, tmp_path):
    if name == "train-ref":
        return workloads.TrainRef(0, tmp_path / "runs", n_agents=2, hidden_width=8,
                                  episodes=8)
    if name == "eval-n24":
        return workloads.EvalN24(0, n_agents=3, hidden_width=8, scenarios=("s1", "s5"),
                                 policy_episodes=1, controller_episodes=1)
    return workloads.VerifyOracle(0, only=TINY_VERIFY)


@pytest.fixture(scope="module", params=["train-ref", "eval-n24", "verify-oracle"])
def traced(request, tmp_path_factory):
    """One untraced operation, then one traced operation, of a tiny workload."""
    workload = tiny(request.param, tmp_path_factory.mktemp(request.param))
    ops = bench.closed_loop(workload, 1, tracer.EpisodeClock())
    trace = tracer.Tracer()
    with trace.installed():
        traced_op = workload.run_op()
    return request.param, ops, traced_op, trace


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    name, ops, traced_op, trace = traced
    metrics = bench.per_layer(trace, traced_op, ops, clamps=0)
    assert set(metrics) == set(bench.layer_units()) == set(declared("per_layer"))
    assert bench.layer_units() == declared("per_layer")
    assert all(np.isfinite(v) for v in metrics.values())
    assert traced_op.failed == 0 and not traced_op.problems
    if name != "verify-oracle":
        assert traced_op.digest == ops[0].digest  # tracing changes no output


def test_every_end_to_end_metric_is_emitted_nonzero_with_its_unit(traced):
    _, ops, _, _ = traced
    metrics = bench.end_to_end(ops, setups=[0.2, 0.1, 0.3])
    assert set(metrics) == set(bench.E2E_UNITS) == set(declared("end_to_end"))
    assert bench.E2E_UNITS == declared("end_to_end")
    assert all(v > 0 for v in metrics.values())
    assert metrics["setup_s"] == 0.2


def test_span_self_times_nonnegative_and_children_inside_parent(traced):
    _, _, _, trace = traced
    a = trace.log.arrays()
    assert len(trace.log) > 0 and np.all(a["end_ns"] >= a["start_ns"])
    assert np.all(trace.log.self_ns() >= 0)
    child = np.flatnonzero(a["parent"] >= 0)
    parent = a["parent"][child]
    assert np.all(parent < child)
    assert np.all(a["start_ns"][child] >= a["start_ns"][parent])
    assert np.all(a["end_ns"][child] <= a["end_ns"][parent])


@pytest.mark.parametrize("traced", ["eval-n24"], indirect=True)
def test_eval_does_no_update_or_federation_work(traced):
    _, ops, traced_op, trace = traced
    metrics = bench.per_layer(trace, traced_op, ops, clamps=0)
    for key in ("rl.ppo_update.calls", "nn.adam_step.calls", "fed.fed_round.calls",
                "nn.backward.calls", "fed.bytes_up"):
        assert metrics[key] == 0, key
    assert metrics["nn.forward.b1.calls"] > 0
    assert metrics["baselines.controller_step.calls"] > 0


def test_instruments_restore_the_program():
    before = (asms.training.run_episode, asms.rl.run_episode, asms.rl.compute_qoe,
              asms.training.controller_step, asms.training.train)
    with tracer.Tracer().installed():
        assert asms.training.run_episode is not before[0]
        assert asms.training.run_episode is asms.rl.run_episode
    with tracer.EpisodeClock().installed():
        assert asms.training.train is not before[4]
    assert (asms.training.run_episode, asms.rl.run_episode, asms.rl.compute_qoe,
            asms.training.controller_step, asms.training.train) == before


def test_repeats_of_one_seed_give_one_digest(tmp_path):
    workload = tiny("train-ref", tmp_path)
    first, second = workload.run_op(), workload.run_op()
    assert first.digest == second.digest and not second.problems
    assert not any((tmp_path / "runs").iterdir())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/bench.py", "--workload",
                           "train-ref", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_checks_count_against_attempts(monkeypatch):
    monkeypatch.setenv("ASMS_VERIFY_CORRUPT_GRADIENT", "1")
    workload = workloads.VerifyOracle(0, only=("gradient_critic", "gae_oracle"))
    ops = bench.closed_loop(workload, 1, tracer.EpisodeClock())
    assert (ops[0].attempted, ops[0].failed) == (2, 1)
    assert "gradient-critic failed" in ops[0].problems[0]
    assert bench.end_to_end(ops, setups=[0.1])["wall_s"] > 0


def test_operation_count_depends_on_the_arguments_only():
    assert bench.repeats("train-ref", 20) == 8
    assert bench.repeats("eval-n24", 20) == 10
    assert bench.repeats("verify-oracle", 20) == bench.MIN_REPEATS
    assert bench.repeats("train-ref", 0) == bench.MIN_REPEATS
