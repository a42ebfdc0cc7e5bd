"""Benchmark of asms: end-to-end metrics, or per-layer metrics from a trace.

Run from the repository root:

    python3 benchmarks/bench.py --workload train-ref --seed 0 --seconds 20 --trace 0

Workloads: train-ref, eval-n24, verify-oracle (see workloads.py). The
workload runs in this one process as a closed loop: each operation starts
only after the previous one ends, and every operation repeats identical
work. The number of operations is fixed by --seconds and the workload's
nominal operation time, so it does not depend on the speed being measured.
BLAS is pinned to one thread before numpy loads.

--trace 0 prints the end-to-end metrics of that loop. --trace 1 runs one
untraced operation, then one more under the tracer, and prints the
per-layer metrics of the traced operation; the difference between the two
is reported as the tracing overhead. Every line before the last is for
people; the last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the timed set-up)
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SAMPLES = 7       # this process plus six fresh set-up-only processes
MIN_REPEATS = 2         # operations per run
# Seconds one operation takes on an idle 2-core x86-64 Xeon VM. With
# --seconds they fix the operation count of a run: at 20 s, 192 train-ref
# episodes and 120 eval-n24 policy episodes, enough for a p90. A
# verify-oracle pass is longer than a run, so it always runs MIN_REPEATS.
NOMINAL_OP_SECONDS = {"train-ref": 2.5, "eval-n24": 2.0, "verify-oracle": 20.0}

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "agent_steps_per_s": "1/s",
    "episode_ms_p90": "ms", "peak_rss_mb": "MB",
}

# (span, field) pairs read from the traced operation; field is calls, ms or
# self_ms.
SPAN_METRICS = (
    ("rl.ppo_update", "calls"), ("rl.ppo_update", "ms"), ("rl.ppo_update", "self_ms"),
    ("rl.build_batch", "ms"), ("rl.run_episode", "calls"),
    ("rl.run_episode", "self_ms"), ("rl.score_episode", "self_ms"),
    ("nn.forward.batch", "calls"), ("nn.forward.batch", "ms"),
    ("nn.forward.b1", "calls"), ("nn.forward.b1", "ms"),
    ("nn.backward", "calls"), ("nn.backward", "ms"),
    ("nn.adam_step", "calls"), ("nn.adam_step", "ms"),
    ("nn.save_params", "calls"), ("nn.save_params", "ms"),
    ("netsim.step", "calls"), ("netsim.step", "self_ms"), ("netsim.advance", "ms"),
    ("netsim.sample_link_state", "ms"), ("qoe.fit_coefficients", "ms"),
    ("core.rng.uniform", "calls"), ("core.rng.uniform", "ms"),
    ("core.rng.binomial", "calls"), ("core.rng.binomial", "ms"),
    ("core.rng.laplace", "ms"),
    ("fed.fed_round", "calls"), ("fed.fed_round", "ms"), ("fed.make_local_update", "ms"),
    ("training.train", "self_ms"), ("training.run_controller_episode", "calls"),
    ("training.run_controller_episode", "self_ms"),
    ("baselines.controller_step", "calls"), ("baselines.controller_step", "ms"),
)

# The 21 oracle checks of `asms verify`, in run order.
VERIFY_CHECKS = (
    "rng-determinism", "hyperparameter-defaults", "scenario-ranges",
    "allocation-oracle", "netsim-invariants", "binomial-sampler",
    "qoe-model-values", "qoe-fit-recovery", "forward-matmul-oracle",
    "softmax-properties", "gradient-actor", "gradient-critic",
    "gae-recursion-vs-sum", "returns-recursion-vs-sum", "clip-function-cases",
    "checkpoint-roundtrip", "fedavg-oracle", "ldp-laplace-statistics",
    "comm-overhead-size", "federation-identity", "episode-structure",
)


def layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {f"{span}.{fld}": ("count" if fld == "calls" else "ms")
             for span, fld in SPAN_METRICS}
    units.update({
        "training.run_controller_episode.ms_p50": "ms",
        "nn.adam.clip_fraction": "fraction", "nn.adam.skipped": "count",
        "nn.save_params.bytes": "B",
        "netsim.overload_step_fraction": "fraction",
        "netsim.burst_step_fraction": "fraction",
        "qoe.compute_qoe.calls": "count", "qoe.clamps": "count",
        "core.rng.words_per_call": "words/call",
        "fed.params_to_bytes.calls": "count", "fed.bytes_up": "B",
        "fed.bytes_down": "B", "fed.noise_to_signal": "ratio",
        "trace.overhead_ms": "ms", "trace.overhead_pct": "%", "trace.spans": "count",
    })
    units.update({f"verify.check_ms.{name}": "ms" for name in VERIFY_CHECKS})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-ref", "eval-n24", "verify-oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the run itself to sample set-up time in fresh processes
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "asms").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info(np) -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    info["runtime_threads"] = None
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["runtime_threads"] = fn()
                return info
    return info


def environment(np, args, inherited: dict, loadavg_start: list[float]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_thread_vars_inherited": inherited,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "command": shlex.join([sys.executable] + sys.argv),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def repeats(workload: str, seconds: float) -> int:
    """Operations in a run: a function of the arguments only."""
    return max(MIN_REPEATS, round(seconds / NOMINAL_OP_SECONDS[workload]))


def closed_loop(workload, count: int, clock, between=None):
    """Run ``count`` operations back to back under ``clock``.

    Each returned operation carries the episode times the clock saw in it.
    ``between`` runs after each operation, outside the timed calls.
    """
    ops = []
    with clock.installed():
        for _ in range(count):
            op = workload.run_op()
            op.episode_ms, op.controller_ms, op.agent_steps = clock.take()
            ops.append(op)
            if between is not None:
                between()
    return ops


def timed(ops):
    """The operations whose times count: those that passed, if any did."""
    return [op for op in ops if not op.problems] or ops


def pooled(ops, attr: str) -> list[float]:
    """One list of the episode times of every operation."""
    return [ms for op in ops for ms in getattr(op, attr)]


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_sample(args) -> float:
    """Set-up time of a fresh set-up-only process for the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(ops, setups) -> dict[str, float]:
    """The median set-up; the mean operation time and the agent steps per
    second over all timed operations; the p90 of the episode times pooled
    over all operations.

    A shared host switches between a fast and a slow state, about 1.5x
    apart, for stretches of seconds to a minute, and the share of a run
    spent in each varies. A p90 lands in the slow state in every run that
    visits it, and a mean moves in proportion to the share; the episode
    median jumps from one state to the other, so it is printed, not gated.
    """
    ops = timed(ops)
    seconds = sum(op.seconds for op in ops)
    episodes = pooled(ops, "episode_ms")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": seconds / len(ops),
        "agent_steps_per_s": sum(op.agent_steps for op in ops) / seconds,
        "episode_ms_p90": percentile(episodes, 90) if episodes else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced_op, untraced_ops, clamps: int) -> dict[str, float]:
    table = tracer.span_table()
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations_ms": []}
    m = {f"{span}.{fld}": table.get(span, empty)[fld] for span, fld in SPAN_METRICS}
    c = tracer.counts
    controller = table.get("training.run_controller_episode", empty)["durations_ms"]
    adam_calls = table.get("nn.adam_step", empty)["calls"]
    advances = c["netsim.advance.calls"]
    untraced = statistics.median(op.seconds for op in untraced_ops)
    m.update({
        "training.run_controller_episode.ms_p50":
            float(statistics.median(controller)) if len(controller) else 0.0,
        "nn.adam.clip_fraction": c["nn.adam.clipped"] / adam_calls if adam_calls else 0.0,
        "nn.adam.skipped": c["nn.adam.skipped"],
        "nn.save_params.bytes": c["nn.save_params.bytes"],
        "netsim.overload_step_fraction":
            c["netsim.advance.overload"] / advances if advances else 0.0,
        "netsim.burst_step_fraction":
            c["netsim.advance.burst"] / advances if advances else 0.0,
        "qoe.compute_qoe.calls": c["qoe.compute_qoe.calls"],
        "qoe.clamps": clamps,
        "core.rng.words_per_call": (c["core.rng.raw.words"] / c["core.rng.raw.calls"]
                                    if c["core.rng.raw.calls"] else 0.0),
        "fed.params_to_bytes.calls": tracer.fed_params_to_bytes_calls(),
        "fed.bytes_up": c["fed.bytes_up"],
        "fed.bytes_down": c["fed.bytes_down"],
        "fed.noise_to_signal": tracer.noise_to_signal(),
        "trace.overhead_ms": 1e3 * (traced_op.seconds - untraced),
        "trace.overhead_pct": 100.0 * (traced_op.seconds - untraced) / untraced,
        "trace.spans": len(tracer.log),
    })
    # per-check times come from the untraced operations: the tracer's cost
    # is far from uniform across checks
    for name in VERIFY_CHECKS:
        times = [op.check_ms[name] for op in untraced_ops if name in op.check_ms]
        m[f"verify.check_ms.{name}"] = statistics.median(times) if times else 0.0
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg_start = list(os.getloadavg())
    inherited = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "asms" / "__init__.py").is_file():
        print(f"bench: no asms sources at {SRC / 'asms'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import asms
    if Path(asms.__file__).resolve().parent != (SRC / "asms").resolve():
        print(f"bench: imported asms from {asms.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from asms import qoe
    import tracer
    import workloads

    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, work_dir)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env = environment(np, args, inherited, loadavg_start)

    # set-up samples are spread through the run, so that they do not all fall
    # in one slow stretch of a shared machine; they leave the operation count
    # and the timed calls alone
    setups = [setup_s]

    def one_more_setup():
        if not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))

    # a traced run needs the untraced operation only as the overhead baseline
    ops = closed_loop(workload, 1 if args.trace else repeats(args.workload, args.seconds),
                      tracer.EpisodeClock(), between=one_more_setup)
    all_ops = list(ops)
    if args.trace:
        trace = tracer.Tracer()
        clamps_before = qoe.quality_clamp_count()
        with trace.installed():
            traced_op = workload.run_op()
        all_ops.append(traced_op)
        metrics = per_layer(trace, traced_op, ops, qoe.quality_clamp_count() - clamps_before)
        units = layer_units()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace.log.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))
        metrics = end_to_end(ops, setups)
        units = E2E_UNITS
    shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    attempted = sum(op.attempted for op in all_ops)
    failed = sum(op.failed for op in all_ops)
    problems = [p for op in all_ops for p in op.problems]
    digests = sorted({op.digest for op in all_ops if op.digest})
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"{args.workload} seed={args.seed}: {len(ops)} untraced operation(s), "
              "then 1 traced")
    else:
        print(f"{args.workload} seed={args.seed}: timings are taken over {len(ops)} "
              f"operations of {len(ops[0].episode_ms)} episodes each")
    print(f"failed_fraction = {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed)")
    for problem in problems:
        print(f"FAILED: {problem}")
    for digest in digests:
        print(f"output digest {args.workload}: sha256:{digest}")
    # printed, not in the result: the controller time is 0 on two workloads,
    # and the episode median jumps between the host's fast and slow states
    episodes, controller = pooled(timed(ops), "episode_ms"), pooled(timed(ops), "controller_ms")
    if episodes and not args.trace:
        print(f"episode_ms_p50 = {statistics.median(episodes):.6g} ms "
              f"(n={len(episodes)} episodes; episode_ms_p90 over the same)")
    if controller and not args.trace:
        print(f"controller_episode_ms_p50 = {statistics.median(controller):.6g} ms "
              f"(n={len(controller)})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "digests": digests, "problems": problems,
                    "episodes_per_operation": len(ops[0].episode_ms),
                    "operation_seconds": [op.seconds for op in all_ops],
                    "operation_episode_ms": [op.episode_ms for op in all_ops],
                    "operation_check_ms": [op.check_ms for op in all_ops], **result},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
