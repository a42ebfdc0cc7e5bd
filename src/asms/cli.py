"""Command-line entry point: train, eval, compare, fit-qoe, verify.

Exit codes: 0 success, 1 usage error, 2 data/runtime error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__, baselines, qoe, svgplot, training, verify
from .core import (ConfigError, QoECoefficients, builtin_scenarios, load_config,
                   parse_config_text, scenario_by_name)
from .netsim import TraceWriter
from .rl import NonFiniteLossError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load_config_arg(path: str | None):
    return parse_config_text("") if path is None else load_config(path)


def _scenario_list(arg: str) -> list[str]:
    names = [scenario_by_name(s.strip()).name for s in arg.split(",") if s.strip()]
    if not names:
        raise ConfigError("empty scenario list")
    return names


def cmd_train(args) -> int:
    cfg, hp, coeffs = _load_config_arg(args.config)
    scenarios = _scenario_list(args.scenarios)
    result = training.train(cfg, hp, coeffs, args.method, scenarios,
                            seed=args.seed, out_dir=args.out,
                            episodes=args.episodes)
    last = result.episode_rewards[-min(20, len(result.episode_rewards)):].mean()
    print(f"trained {args.method} for {result.episodes} episodes "
          f"({len(result.overhead)} aggregation rounds); "
          f"mean reward over final episodes: {last:.4f}")
    print(f"artifacts in {result.out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, hp, coeffs = _load_config_arg(args.config)
    scenarios = _scenario_list(args.scenarios)
    label, origin = args.label, "--label"
    if label is None and not args.controller:
        label, origin = _method_from_manifest(args.checkpoint), "the checkpoint manifest's method"
    if label is not None and (label in ("", ".", "..") or "/" in label):   # eval_<label>.csv
        raise ValueError(f"{origin} {label!r} is not a plain file name")
    if not args.controller:
        agents = training.load_checkpoint_agents(args.checkpoint)
    trace_fh = open(args.trace, "w", encoding="utf-8", newline="") if args.trace else None
    trace = TraceWriter(trace_fh) if trace_fh is not None else None
    finished = False
    try:
        summaries = []
        for scen in scenarios:
            if args.controller:
                summary = training.evaluate_controller(
                    args.controller, scen, args.episodes, args.seed, cfg, hp,
                    coeffs, trace=trace)
                if args.label:
                    summary.method = args.label
            else:
                summary = training.evaluate_agents(
                    agents, scen, args.episodes, args.seed, cfg, hp, coeffs,
                    method=label, trace=trace)
            summaries.append(summary)
            print(f"{summary.method} @ {summary.scenario}: "
                  f"QoE/step {summary.qoe_mean:.4f} +/- {summary.qoe_std:.4f}, "
                  f"QoE/episode {summary.qoe_episode_mean:.4f} +/- "
                  f"{summary.qoe_episode_std:.4f}, latency {summary.latency_ms_mean:.1f} ms, "
                  f"loss {summary.lost_packets_mean:.1f} pkts/step, "
                  f"fps {summary.frame_rate_mean:.1f}")
        finished = True
    finally:
        if trace_fh is not None:
            trace_fh.close()
            if not finished:   # a failed evaluation leaves no partial trace
                Path(args.trace).unlink()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"eval_{summaries[0].method}.csv"
        training.write_eval_csv(path, summaries)
        print(f"wrote {path}")
    return EXIT_OK


def _method_from_manifest(checkpoint_dir: str) -> str:
    """The run's training method, which labels an evaluation of its
    checkpoint; a missing or unusable manifest asks for --label instead."""
    # checkpoint dirs live at <run>/checkpoints/<tag>; the manifest sits at
    # the run root
    ask = "; name the evaluation with --label"
    for parent in (Path(checkpoint_dir), *Path(checkpoint_dir).parents):
        manifest = parent / training.MANIFEST_FILE
        if manifest.exists():
            try:
                data = json.loads(manifest.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot read the run manifest {manifest} ({exc}){ask}") from None
            if isinstance(data, dict) and isinstance(data.get("method"), str):
                return data["method"]
            raise ValueError(f"the run manifest {manifest} has no string 'method'{ask}")
    raise ValueError(f"no {training.MANIFEST_FILE} in {checkpoint_dir} or above it{ask}")


def _read_eval_source(path: Path) -> list[dict]:
    """Rows with at least (method, scenario, qoe_mean); qoe_mean is finite."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"method", "scenario", "qoe_mean"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: need columns {sorted(required)}, "
                             f"got {reader.fieldnames}")
        for line_no, row in enumerate(reader, start=2):
            try:
                qoe_mean = float(row["qoe_mean"])
                if not math.isfinite(qoe_mean):
                    raise ValueError(f"qoe_mean must be finite, got {row['qoe_mean']!r}")
                rows.append({"method": row["method"].strip(),
                             "scenario": row["scenario"].strip().lower(),
                             "qoe_mean": qoe_mean})
            except (ValueError, AttributeError, TypeError) as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
    return rows


def cmd_compare(args) -> int:
    sources = []
    for raw in args.inputs:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.rglob("eval_*.csv"))
            if not found:
                raise ValueError(f"{path}: no eval_*.csv files found")
            sources.extend(found)
        else:
            sources.append(path)
    if len(sources) < 2:
        raise ValueError("compare needs at least two eval sources")
    cells: dict[tuple[str, str], float] = {}
    origin: dict[tuple[str, str], Path] = {}
    for src in sources:
        for r in _read_eval_source(src):
            key = (r["method"], r["scenario"])
            if key in cells and cells[key] != r["qoe_mean"]:
                raise ValueError(
                    f"{key[0]} on {key[1]}: {origin[key]} gives {cells[key]!r} but "
                    f"{src} gives {r['qoe_mean']!r}; label each run with eval --label")
            cells[key] = r["qoe_mean"]
            origin[key] = src
    if not cells:
        raise ValueError("no comparable rows found")
    methods = sorted({m for m, _ in cells})
    scenarios = sorted({s for _, s in cells})
    if "method" in scenarios:   # the name of the row-label column
        raise ValueError("a scenario named 'method' would share the method column's name")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix_path = out / "comparison.csv"
    rows = [{"method": m, **{s: cells.get((m, s), "") for s in scenarios}} for m in methods]
    training.write_csv(matrix_path, rows, ["method"] + scenarios)
    print(f"wrote {matrix_path} ({len(methods)} methods x {len(scenarios)} scenarios)")

    for scen in scenarios:
        values = {m: cells.get((m, scen)) for m in methods}
        svg = svgplot.bar_chart(scen, values, f"QoE by method ({scen})")
        svg_path = out / f"compare_{scen}.svg"
        svg_path.write_text(svg, encoding="utf-8")
        print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_fit_qoe(args) -> int:
    records = qoe.load_ratings_csv(args.ratings)
    fit = qoe.fit_coefficients(records)
    sens = qoe.coefficient_sensitivity(fit.coefficients, records)

    report = {
        "records": len(records),
        "normalization": qoe.FIT_NORMALIZATION,
        "coefficients": {k: getattr(fit.coefficients, k) for k in QoECoefficients.WEIGHTS},
        "rmse": fit.rmse,
        "r_squared": fit.r_squared,
        "mos_scale": fit.scale,
        "mos_offset": fit.offset,
        "sensitivity": {
            "baseline_rmse": sens.baseline_rmse,
            "per_coefficient_rmse_at_minus20_plus20": {
                k: list(v) for k, v in sens.perturbed.items()},
            "mean_abs_rmse_change": sens.mean_abs_change,
            "mean_rel_rmse_change": sens.mean_rel_change,
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "qoe_fit.json").write_text(text, encoding="utf-8")
        print(f"wrote {out / 'qoe_fit.json'}")
    weights = " ".join(f"{k}={v}" for k, v in report["coefficients"].items())
    print(f"fitted weights ({qoe.FIT_NORMALIZATION}): {weights}")
    r2 = "undefined" if fit.r_squared is None else f"{fit.r_squared:.4f}"
    print(f"rmse={fit.rmse:.4f} r_squared={r2}")
    if sens.mean_rel_change is not None:
        print(f"sensitivity: mean |rmse change| at +/-20% = "
              f"{100 * sens.mean_rel_change:.1f}% of baseline")
    else:
        print("sensitivity: baseline rmse is 0; absolute changes reported in the report")
    return EXIT_OK


def cmd_verify(args) -> int:
    def report(result: verify.CheckResult) -> None:
        print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")

    only = None if args.only is None else args.only.split(",")
    results = verify.run_checks(seed=args.seed, full=args.full, only=only,
                                report=report)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="asms", description=__doc__)
    parser.add_argument("--version", action="version", version=f"asms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--method", choices=training.METHODS, default="fmappo")
    p.add_argument("--scenarios", default=",".join(s.name for s in builtin_scenarios()),
                   help="comma-separated scenario names (default all six)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, help="override the configured episode count")
    p.add_argument("--out", required=True, help="run directory for artifacts")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or rule controller")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", help="checkpoint directory (e.g. run/checkpoints/final)")
    group.add_argument("--controller", choices=baselines.CONTROLLER_NAMES + ("random",))
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--scenarios", default="s1", help="comma-separated scenario names")
    p.add_argument("--episodes", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", help="method label for reports (default: manifest or controller)")
    p.add_argument("--trace", help="write a per-step trace CSV to this path")
    p.add_argument("--out", help="directory for the eval summary CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="align eval results into a table and charts")
    p.add_argument("inputs", nargs="+",
                   help="run directories or eval/external CSV files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit-qoe", help="fit QoE weights to ratings by non-negative "
                       f"least squares ({qoe.FIT_NORMALIZATION})")
    p.add_argument("--ratings", required=True, help="ratings CSV")
    p.add_argument("--out", help="directory for the fit report")
    p.set_defaults(func=cmd_fit_qoe)

    p = sub.add_parser("verify", help="run the oracle and invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true",
                   help="include the minutes-scale learning-behavior checks")
    p.add_argument("--only", help="comma-separated tokens; a check runs when a token "
                   "occurs in its printed name or its function name ('-' and '_' alike)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, NonFiniteLossError) as exc:
        print(f"asms: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
