"""Command-line interface: run, sweep, metrics, validate."""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import DffrError


def _load_config(args) -> harness.ExperimentConfig:
    if args.preset:
        cfg = harness.preset(args.preset)
    elif args.config:
        cfg = harness.parse_config(args.config)
    else:
        raise harness.ParseError("need --config PATH or --preset NAME")
    seeds = _parse_seeds(args)
    if seeds is not None:
        raw = cfg.to_dict()
        raw["seeds"] = seeds
        cfg = harness.ExperimentConfig.from_dict(raw)
    return cfg


def _parse_seeds(args) -> list[int] | None:
    if getattr(args, "seed", None) is not None:
        return [args.seed]
    spec = getattr(args, "seeds", None)
    if spec is None:
        return None
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in spec.split(",") if s]
    except ValueError:
        raise harness.ParseError(
            f"bad --seeds {spec!r}: expected a list '0,1,2' or a range '0..19'"
        ) from None


def _strip_traces(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "traces"}


def cmd_run(args) -> int:
    cfg = _load_config(args)
    summary = harness.run_experiment(cfg, out_dir=args.out)
    json.dump(_strip_traces(summary), sys.stdout, sort_keys=True, indent=2)
    print()
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = [float(v) for v in args.values.split(",") if v]
    rows = harness.sweep(cfg, args.param, values, out_dir=args.out)
    json.dump(rows, sys.stdout, sort_keys=True, indent=2)
    print()
    return 0


def cmd_metrics(args) -> int:
    rhos = [float(v) for v in args.rho.split(",") if v]
    result = harness.recompute_metrics(args.trace, rhos)
    json.dump(result, sys.stdout, sort_keys=True, indent=2)
    print()
    return 0


def cmd_validate(args) -> int:
    harness.parse_config(args.config)
    print("OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dffr",
        description=(
            "Distributed online convex optimization testbed: gradient-free and "
            "projection-free multi-agent algorithms with forgetting-factor "
            "regret diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config or preset")
    run_p.add_argument("--config", help="path to a JSON config file")
    run_p.add_argument("--preset", help=f"preset name ({', '.join(harness.PRESET_NAMES)})")
    run_p.add_argument("--seed", type=int, help="run a single seed")
    run_p.add_argument("--seeds", help="seed list '0,1,2' or range '0..19'")
    run_p.add_argument("--out", help="output directory for trace files")
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="re-run an experiment across parameter values")
    sweep_p.add_argument("--config", help="path to a JSON config file")
    sweep_p.add_argument("--preset", help="preset name")
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--seeds")
    sweep_p.add_argument("--param", required=True, help=f"one of {harness.SWEEP_PARAMETERS}")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out", help="output directory for trace files")
    sweep_p.set_defaults(fn=cmd_sweep)

    metrics_p = sub.add_parser("metrics", help="recompute metrics from a stored trace")
    metrics_p.add_argument("--trace", required=True, help="trace base path or .csv path")
    metrics_p.add_argument("--rho", required=True, help="comma-separated forgetting factors")
    metrics_p.set_defaults(fn=cmd_metrics)

    validate_p = sub.add_parser("validate", help="parse and validate a config file")
    validate_p.add_argument("--config", required=True)
    validate_p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DffrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
