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
  ``binomial`` draws among them) are pinned too.

Float results can move with the Python, numpy or BLAS build, so
``golden.json`` records the versions it was made with. After a change that
is meant to move seeded outputs, or on another platform, regenerate it with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from asms import training
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


def compute_digests(work: Path) -> dict[str, str]:
    digests = {}
    for method in training.METHODS:
        run_dir = work / method
        training.train(CFG, HP, COEFFS, method, TRAIN_SCENARIOS, seed=0,
                       out_dir=run_dir, episodes=12)
        digests[f"train-{method}"] = tree_digest(run_dir)
    agents = training.load_checkpoint_agents(
        work / "fmappo" / training.CHECKPOINT_DIR / "final")
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


def test_seeded_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    digests = compute_digests(tmp_path)
    moved = sorted(k for k in golden["digests"] if digests.get(k) != golden["digests"][k])
    assert not moved and digests.keys() == golden["digests"].keys(), (
        f"seeded outputs moved: {moved}; golden.json was made on {golden['platform']}, "
        f"this is {platform_versions()}")


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = compute_digests(Path(work))
    GOLDEN_FILE.write_text(json.dumps({"platform": platform_versions(), "digests": digests},
                                      indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    regenerate()
