"""Command-line interface: run, sweep, metrics, validate."""

from __future__ import annotations

import argparse
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
        cfg = harness.ExperimentConfig.from_dict(cfg.to_dict() | {"seeds": seeds})
    return cfg


def _parse_seeds(args) -> list[int] | None:
    spec = getattr(args, "seeds", None)
    if spec is None:
        return None
    try:
        if ".." in spec:
            lo, hi = map(int, spec.split("..", 1))
            if hi - lo + 1 > harness.MAX_SEEDS:
                raise harness.ParseError(f"bad --seeds {spec!r}: more than {harness.MAX_SEEDS} seeds")
            return list(range(lo, hi + 1))
        return [int(s) for s in spec.split(",") if s]
    except ValueError:
        raise harness.ParseError(
            f"bad --seeds {spec!r}: expected a list '0,1,2' or a range '0..19'"
        ) from None


def _parse_numbers(option: str, spec: str) -> list[float]:
    try:
        return [float(v) for v in spec.split(",") if v]
    except ValueError:
        raise harness.ParseError(f"bad {option} {spec!r}: expected comma-separated numbers") from None


def cmd_run(args) -> int:
    cfg = _load_config(args)
    summary = harness.run_experiment(cfg, out_dir=args.out)
    del summary["traces"]
    sys.stdout.write(harness.strict_json(summary, f"the summary of {cfg.name}"))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = _parse_numbers("--values", args.values)
    rows = harness.sweep(cfg, args.param, values, out_dir=args.out)
    sys.stdout.write(harness.strict_json(rows, f"the {args.param} sweep of {cfg.name}"))
    return 0


def cmd_metrics(args) -> int:
    rhos = _parse_numbers("--rho", args.rho)
    result = harness.recompute_metrics(args.trace, rhos)
    sys.stdout.write(harness.strict_json(result, f"the metrics of {args.trace}"))
    return 0


def cmd_validate(args) -> int:
    for warning in harness.parse_config(args.config).stability_warnings():
        print(f"warning: {warning}", file=sys.stderr)
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

    # The options that pick the config and its seeds, shared by run and sweep.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="path to a JSON config file")
    config.add_argument("--preset", help=f"preset name ({', '.join(harness.PRESET_NAMES)})")
    config.add_argument("--seeds", help="seed list '0,1,2' or range '0..19'")
    config.add_argument("--out", help="output directory for trace files")

    run_p = sub.add_parser("run", parents=[config], help="run an experiment config or preset")
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[config], help="re-run over a parameter's values")
    sweep_p.add_argument(
        "--param", required=True, help=f"one of {', '.join(harness.SWEEP_PARAMETERS)}"
    )
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.set_defaults(fn=cmd_sweep)

    metrics_p = sub.add_parser("metrics", help="recompute metrics from a stored trace")
    metrics_p.add_argument("--trace", required=True, help="trace base path, or its .csv, .meta.json or .body file")
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
