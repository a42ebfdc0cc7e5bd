"""Golden digests of seeded outputs: a change that moves any byte of a seeded
run or evaluation fails here.

Pinned (sha256 of the files' relative paths and bytes):

- a 12-episode ``fmappo`` run at N=2, hidden width 8, LDP on at eps=1;
- the same run as ``ippo``;
- ``eval_<label>.csv`` of the fmappo run's final checkpoint, greedy and
  stochastic, and of the ``delay``, ``probe`` and ``random`` controllers,
  on s1 and s5 with 3 episodes each;
- ``eval_delay.csv`` of the ``delay`` controller on every stock scenario,
  s1 to s6, with 1 episode each, so that each scenario's link draws are
  pinned, s6's ramped burst channel among them;
- ``eval_n24.csv`` at N=24 (hidden width 8): stochastic ``evaluate_agents``
  of freshly made agents and the ``delay`` controller, on s1 and s5 with 1
  episode each, so that the large-N paths (an overloaded link's high-loss
  ``binomial`` draws among them) are pinned too;
- the 21 ``name|passed|detail`` lines of ``asms verify --seed 0`` (the
  ``verify-seed0`` key), so every oracle check's seeded detail is pinned.

Float results can move with the Python, numpy or BLAS build, so
``golden.json`` records the versions it was made with, and the hash of a
few kernel-sensitive operations on fixed inputs (``arithmetic_hash``). A
failure says whether this host's arithmetic differs from the recorded one
(regenerate here) or not (the code moved the keys). The eval keys score
with a left-to-right sum and draw from numpy's C samplers, so they hold
under every OpenBLAS kernel and numpy SIMD level; a test recomputes them
in child processes under two other OpenBLAS kernels and with numpy's
AVX-512 paths disabled. The train keys go through BLAS products and numpy's
SIMD ``exp`` and ``log``, so they stay tied to the recorded hash, and so does
the verify key, whose checks run the same products and more. numpy
does not promise the same ``Generator`` streams across its versions
(NEP 19), so a numpy upgrade may move every key. After a change that is
meant to move seeded outputs, or on another platform, regenerate with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from asms import training, verify
from asms.core import HyperParams, QoECoefficients, RngStream, SimConfig, builtin_scenarios

GOLDEN_FILE = Path(__file__).with_name("golden.json")
CFG = SimConfig(n_agents=2)
HP = HyperParams(hidden_width=8, ldp_enabled=True, ldp_eps=1.0)
COEFFS = QoECoefficients()
TRAIN_SCENARIOS = ("s1", "s3", "s5")
EVAL_SCENARIOS = ("s1", "s5")
EVAL_EPISODES = 3
EVAL_SEED = 7
ALL_SCENARIOS = tuple(s.name for s in builtin_scenarios())
CFG_N24 = SimConfig(n_agents=24)


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def platform_versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version}


def arithmetic_hash() -> str:
    """sha256 of the bytes of operations whose last bits depend on the BLAS
    kernel or on numpy's SIMD level, on fixed inputs: a stacked batch-1
    ``np.matmul``, a (40, 128) @ (128, 128) product, and ``np.exp`` and
    ``np.log`` of a fixed vector."""
    def fixed(*shape):   # exact float arithmetic, so the same inputs on every host
        return (np.arange(np.prod(shape)) * 0.6180339887498949 % 1.0 - 0.5).reshape(shape)

    a, w, v = fixed(40, 128), fixed(128, 128), fixed(1000)
    h = hashlib.sha256()
    for out in (np.matmul(a[:, None, :], w), a @ w, np.exp(40.0 * v), np.log(100.0 * v + 51.0)):
        h.update(out.tobytes())
    return h.hexdigest()


def checkpoint_of(work: Path) -> Path:
    return work / "fmappo" / training.CHECKPOINT_DIR / "final"


def compute_digests(work: Path) -> dict[str, str]:
    digests = {}
    for method in training.METHODS:
        run_dir = work / method
        training.train(CFG, HP, COEFFS, method, TRAIN_SCENARIOS, seed=0,
                       out_dir=run_dir, episodes=12)
        digests[f"train-{method}"] = tree_digest(run_dir)
    digests["verify-seed0"] = verify_digest(0)
    return {**digests, **eval_digests(work, checkpoint_of(work))}


def verify_digest(seed: int) -> str:
    """sha256 of the ``name|passed|detail`` lines of the oracle checks."""
    lines = "".join(f"{r.name}|{r.passed}|{r.detail}\n" for r in verify.run_checks(seed))
    return hashlib.sha256(lines.encode()).hexdigest()


def eval_digests(work: Path, checkpoint: Path) -> dict[str, str]:
    """The eval keys, with the fmappo agents of ``checkpoint``."""
    digests = {}
    agents = training.load_checkpoint_agents(checkpoint)
    evaluations = {
        "fmappo-greedy": lambda s: training.evaluate_agents(
            agents, s, EVAL_EPISODES, EVAL_SEED, CFG, HP, COEFFS,
            method="fmappo-greedy", greedy=True),
        "fmappo-stochastic": lambda s: training.evaluate_agents(
            agents, s, EVAL_EPISODES, EVAL_SEED, CFG, HP, COEFFS,
            method="fmappo-stochastic", greedy=False),
        **{name: (lambda s, name=name: training.evaluate_controller(
            name, s, EVAL_EPISODES, EVAL_SEED, CFG, HP, COEFFS))
           for name in ("delay", "probe", "random")},
    }
    for label, evaluate in evaluations.items():
        digests[f"eval-{label}"] = eval_digest(
            work / f"eval-{label}", label, [evaluate(s) for s in EVAL_SCENARIOS])
    digests["eval-delay-all-scenarios"] = eval_digest(
        work / "eval-delay-all-scenarios", "delay",
        [training.evaluate_controller("delay", s, 1, EVAL_SEED, CFG, HP, COEFFS)
         for s in ALL_SCENARIOS])
    agents_n24, _ = training.make_agents(CFG_N24, HP, RngStream(0, "init"))
    digests["eval-n24"] = eval_digest(
        work / "eval-n24", "n24",
        [training.evaluate_agents(agents_n24, s, 1, EVAL_SEED, CFG_N24, HP, COEFFS,
                                  method="init-stochastic", greedy=False)
         for s in EVAL_SCENARIOS]
        + [training.evaluate_controller("delay", s, 1, EVAL_SEED, CFG_N24, HP, COEFFS)
           for s in EVAL_SCENARIOS])
    return digests


def eval_digest(eval_dir: Path, label: str, summaries) -> str:
    """Digest of ``eval_<label>.csv`` written alone into eval_dir."""
    eval_dir.mkdir()
    training.write_eval_csv(eval_dir / f"eval_{label}.csv", summaries)
    return tree_digest(eval_dir)


def platform_record() -> dict:
    return {**platform_versions(), "arithmetic": arithmetic_hash()}


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """(work directory, digests) of one pass in this process."""
    work = tmp_path_factory.mktemp("golden")
    return work, compute_digests(work)


def test_seeded_outputs_match_the_golden_digests(computed):
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    _, digests = computed
    moved = sorted(k for k in golden["digests"] if digests.get(k) != golden["digests"][k])
    here = platform_record()
    if here["arithmetic"] != golden["platform"].get("arithmetic"):
        why = ("this host's arithmetic differs from the one golden.json was made on: "
               "regenerate here")
    else:
        why = "same arithmetic: the code moved these keys"
    assert not moved and digests.keys() == golden["digests"].keys(), (
        f"seeded outputs moved: {moved}; {why}; golden.json was made on "
        f"{golden['platform']}, this is {here}")


# numpy ignores feature names it does not dispatch to, so on a host without
# AVX-512 the last override changes nothing and its case skips
@pytest.mark.parametrize("name, value", [
    ("OPENBLAS_CORETYPE", "Haswell"), ("OPENBLAS_CORETYPE", "Sandybridge"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")],
    ids=["Haswell", "Sandybridge", "no-avx512"])
def test_eval_keys_hold_under_another_kernel(computed, name, value):
    work, digests = computed
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, name: value,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__, "--eval", str(checkpoint_of(work))],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    if child["arithmetic"] == arithmetic_hash():
        pytest.skip(f"{name}={value} left the arithmetic hash as it is, so the override "
                    "did not take (or that kernel's bits equal the default's)")
    assert child["digests"] == {k: v for k, v in digests.items() if k.startswith("eval-")}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = compute_digests(Path(work))
    GOLDEN_FILE.write_text(json.dumps({"platform": platform_record(), "digests": digests},
                                      indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}")


def print_eval_digests(checkpoint: str) -> None:
    """Print the arithmetic hash and the eval keys of ``checkpoint``, as JSON."""
    with tempfile.TemporaryDirectory() as work:
        digests = eval_digests(Path(work), Path(checkpoint))
    print(json.dumps({"arithmetic": arithmetic_hash(), "digests": digests}))


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        regenerate()
    elif len(sys.argv) == 3 and sys.argv[1] == "--eval":
        print_eval_digests(sys.argv[2])
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py "
                 "--regenerate | --eval <checkpoint-dir>")
