"""The benchmark's three workloads, each driving asms through its public API.

A workload is built once (its set-up) and then runs operations one after
another in a closed loop: ``run_op`` returns only when the program's work
for that operation, and the checks of its outputs, are done. The time
reported for an operation covers only the calls into asms.

* train-ref: ``training.train`` at the reference config (N=6, hidden 128,
  T=40, fmappo, s1-s6 round-robin, default LDP) writing a run directory.
  One operation is 24 episodes: four cycles of the six scenarios, six
  federation rounds (every 4 episodes) and two checkpoints (every 10). It
  is short so that a run repeats it often.
* eval-n24: rollouts only, at N=24 on a crowded link. One operation is a
  sweep over s1-s6: greedy ``evaluate_agents`` of freshly made agents, and
  ``evaluate_controller`` for the delay and probe rule controllers. Nothing
  is updated or federated, so update-side changes must not move it.
* verify-oracle: ``verify.run_checks(full=False)``, the 21 oracle checks of
  ``asms verify``. Small sizes, so per-call overhead dominates.

Operations repeat with the same seed, so their output digests must match.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from asms import training, verify
from asms.core import (HyperParams, QoECoefficients, RngStream, SimConfig,
                       default_hyperparams)

SCENARIOS = ("s1", "s2", "s3", "s4", "s5", "s6")
CONTROLLERS = ("delay", "probe")


@dataclass
class OpResult:
    """One closed-loop operation: its timed seconds and its output checks."""

    seconds: float
    attempted: int
    failed: int
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    check_ms: dict[str, float] = field(default_factory=dict)
    # filled in from the EpisodeClock by the measurement loop
    episode_ms: list[float] = field(default_factory=list)
    controller_ms: list[float] = field(default_factory=list)
    agent_steps: int = 0


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class _Repeats:
    """Records the first digest and flags any repeat that differs from it."""

    def __init__(self):
        self.first: str | None = None

    def check(self, digest: str, problems: list[str]) -> None:
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append(f"digest {digest[:16]} differs from first repeat "
                            f"{self.first[:16]} at the same seed")


class TrainRef:
    def __init__(self, seed: int, work_dir: Path, n_agents: int = 6,
                 hidden_width: int = 128, episodes: int = 24):
        self.seed = seed
        self.work_dir = work_dir
        self.episodes = episodes
        self.cfg = SimConfig(n_agents=n_agents)
        self.hp: HyperParams = dataclasses.replace(default_hyperparams(),
                                                   hidden_width=hidden_width)
        self.coeffs = QoECoefficients()
        self.repeats = _Repeats()
        self.ops = 0

    def run_op(self) -> OpResult:
        run_dir = self.work_dir / f"run{self.ops:04d}"
        self.ops += 1
        problems: list[str] = []
        digest = None
        start = time.perf_counter()
        try:
            result = training.train(self.cfg, self.hp, self.coeffs, "fmappo",
                                    SCENARIOS, seed=self.seed, out_dir=run_dir,
                                    episodes=self.episodes)
            seconds = time.perf_counter() - start
            problems += self._check(result, run_dir)
            digest = tree_digest(run_dir)
            self.repeats.check(digest, problems)
        except Exception as exc:  # an operation that raises is a failed one
            seconds = time.perf_counter() - start
            problems.append(_error(exc))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return OpResult(seconds=seconds, attempted=self.episodes,
                        failed=self.episodes if problems else 0,
                        digest=digest, problems=problems)

    def _check(self, result, run_dir: Path) -> list[str]:
        problems = []
        for row in result.learning_curve:
            bad = [k for k, v in row.items()
                   if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                problems.append(f"episode {row['episode']}: non-finite {bad}")
        final = run_dir / training.CHECKPOINT_DIR / "final"
        agents = training.load_checkpoint_agents(final)  # CRC-checked
        if len(agents) != self.cfg.n_agents:
            problems.append(f"final checkpoint has {len(agents)} agents, "
                            f"expected {self.cfg.n_agents}")
        with open(run_dir / training.OVERHEAD_FILE, encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        expected = self.episodes // self.hp.fedavg_freq
        if rows != expected:
            problems.append(f"overhead.csv has {rows} rows, expected {expected}")
        return problems


class EvalN24:
    def __init__(self, seed: int, n_agents: int = 24, hidden_width: int = 128,
                 scenarios: tuple[str, ...] = SCENARIOS, policy_episodes: int = 2,
                 controller_episodes: int = 1):
        self.seed = seed
        self.scenarios = scenarios
        self.policy_episodes = policy_episodes
        self.controller_episodes = controller_episodes
        self.cfg = SimConfig(n_agents=n_agents)
        self.hp = dataclasses.replace(default_hyperparams(), hidden_width=hidden_width)
        self.coeffs = QoECoefficients()
        self.agents, _ = training.make_agents(self.cfg, self.hp,
                                              RngStream(seed, "init"))
        self.repeats = _Repeats()

    def run_op(self) -> OpResult:
        attempted = len(self.scenarios) * (
            self.policy_episodes + len(CONTROLLERS) * self.controller_episodes)
        problems: list[str] = []
        digest = None
        start = time.perf_counter()
        try:
            summaries = []
            for scen in self.scenarios:
                summaries.append(training.evaluate_agents(
                    self.agents, scen, self.policy_episodes, self.seed, self.cfg,
                    self.hp, self.coeffs))
                for name in CONTROLLERS:
                    summaries.append(training.evaluate_controller(
                        name, scen, self.controller_episodes, self.seed, self.cfg,
                        self.hp, self.coeffs))
            seconds = time.perf_counter() - start
            for s in summaries:
                bad = [k for k, v in s.row().items()
                       if isinstance(v, float) and not math.isfinite(v)]
                if bad:
                    problems.append(f"{s.method}@{s.scenario}: non-finite {bad}")
            digest = hashlib.sha256(repr([s.row() for s in summaries]).encode()).hexdigest()
            self.repeats.check(digest, problems)
        except Exception as exc:  # an operation that raises is a failed one
            seconds = time.perf_counter() - start
            problems.append(_error(exc))
        return OpResult(seconds=seconds, attempted=attempted,
                        failed=attempted if problems else 0,
                        digest=digest, problems=problems)


class VerifyOracle:
    def __init__(self, seed: int, only: tuple[str, ...] | None = None):
        self.seed = seed
        self.only = only
        self.expected = sum(1 for fn in verify.ORACLE_CHECKS
                            if only is None or any(t in fn.__name__ for t in only))

    def run_op(self) -> OpResult:
        check_ms: dict[str, float] = {}
        passed: list[str] = []
        problems: list[str] = []
        last = time.perf_counter()

        def report(result: verify.CheckResult) -> None:
            nonlocal last
            now = time.perf_counter()
            check_ms[result.name] = 1e3 * (now - last)
            last = now
            if result.passed:
                passed.append(result.name)
            else:
                problems.append(f"{result.name} failed: {result.detail}")

        start = last
        try:
            verify.run_checks(seed=self.seed, full=False, only=self.only,
                              report=report)
        except Exception as exc:  # the remaining checks count as failed
            problems.append(_error(exc))
        seconds = time.perf_counter() - start
        if len(check_ms) != self.expected and not problems:
            problems.append(f"{len(check_ms)} checks ran, expected {self.expected}")
        return OpResult(seconds=seconds, attempted=self.expected,
                        failed=self.expected - len(passed), problems=problems,
                        check_ms=check_ms)


def make(name: str, seed: int, work_dir: Path):
    """Build a workload at its benchmark size; this is the timed set-up."""
    if name == "train-ref":
        return TrainRef(seed, work_dir)
    if name == "eval-n24":
        return EvalN24(seed)
    return VerifyOracle(seed)
