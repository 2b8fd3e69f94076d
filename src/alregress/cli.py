"""Command line front end: ``al-regress run`` and ``al-regress validate``."""

from __future__ import annotations

import argparse
import sys

from .experiment import ExperimentConfig, RegressionSpec, run_experiment
from .datasets import load_manifest
from .oracle import NOISE_KINDS, OracleConfig
from .report import emit_report, write_trace_log
from .strategies import STRATEGY_KINDS, StrategyConfig
from .validation import run_validation

_REGRESSION_BY_FLAG = {"linear": "linear", "ridge": "ridge", "poly": "polynomial"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="al-regress",
        description="Active learning for regression benchmarks on an "
        "uncertainty graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a benchmark and write CSV reports")
    run_p.add_argument("--manifest", required=True, help="JSON dataset manifest")
    run_p.add_argument("--dataset", required=True, help="dataset name in the manifest")
    run_p.add_argument(
        "--regression", choices=sorted(_REGRESSION_BY_FLAG), default="linear"
    )
    run_p.add_argument(
        "--alpha", type=float, default=None,
        help="ridge penalty (default: 0 for linear, 1 otherwise)",
    )
    run_p.add_argument("--degree", type=int, default=2, help="polynomial degree")
    run_p.add_argument(
        "--strategies", required=True,
        help=f"comma-separated subset of {','.join(STRATEGY_KINDS)}; the first "
        "one is the ranked strategy",
    )
    run_p.add_argument("--trials", type=int, default=30)
    run_p.add_argument("--rounds", type=int, default=10)
    run_p.add_argument("--noise", choices=NOISE_KINDS, default="exact")
    run_p.add_argument("--noise-scale", type=float, default=0.1)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", required=True, help="output directory for the CSVs")
    run_p.add_argument(
        "--trace-log", default=None,
        help="optional path for a per-query selection trace",
    )

    val_p = sub.add_parser(
        "validate", help="cross-check fast paths against exhaustive references"
    )
    val_p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    manifests = load_manifest(args.manifest)
    if args.dataset not in manifests:
        known = ", ".join(sorted(manifests)) or "(none)"
        raise ValueError(f"dataset {args.dataset!r} not in manifest; have: {known}")
    strategy_names = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategy_names:
        raise ValueError("--strategies must name at least one strategy")
    strategies = tuple(StrategyConfig(kind=name) for name in strategy_names)
    config = ExperimentConfig(
        dataset=manifests[args.dataset],
        strategies=strategies,
        regression=RegressionSpec(
            kind=_REGRESSION_BY_FLAG[args.regression],
            alpha=args.alpha,
            degree=args.degree,
        ),
        trials=args.trials,
        rounds=args.rounds,
        oracle=OracleConfig(noise_kind=args.noise, noise_scale=args.noise_scale),
        base_seed=args.seed,
    )
    report = run_experiment(config)
    paths = emit_report(report, args.out)
    if args.trace_log:
        paths.append(write_trace_log(report, args.trace_log))
    for kind in report.strategies:
        final = report.mean_rmse[kind][report.rounds]
        print(f"{report.dataset} {kind}: final-round mean RMSE {final:.6g}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return 1 if run_validation(seed=args.seed) else 0
    except BrokenPipeError:
        return 1
    except Exception as exc:  # CLI contract: one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
