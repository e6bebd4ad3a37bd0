#!/usr/bin/env python3
"""Run the 4-agent tracking benchmark under all three update rules.

Prints, from each run's summary aggregate, the median consensus time (first
round after which the decision diameter stays below the threshold), the
median first tracking crossing time, and the mean final forgetting-factor
regret, for the gradient-free algorithm (20 seeds), the projection-free
algorithm (fixed step and exact line search), and the projected-gradient
baseline.  Pass --out DIR to keep the trace files.
"""

import argparse
import sys

from dffr import harness
from dffr.errors import DffrError
from dffr.harness import ExperimentConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="directory for trace files")
    parser.add_argument("--horizon", type=int, default=1000)
    args = parser.parse_args()

    presets = [
        "paper-tracking-alg1",
        "paper-tracking-alg2",
        "paper-tracking-alg2-linesearch",
        "paper-tracking-dogd",
    ]
    fmt = lambda v: "never" if v is None else f"{v:.0f}"
    print(f"{'preset':34s} {'consensus':>10s} {'tracking':>10s} {'final regret':>14s}")
    for name in presets:
        raw = harness.preset(name).to_dict()
        raw["problem"]["horizon"] = args.horizon
        raw["bounds"] = False
        cfg = ExperimentConfig.from_dict(raw)
        agg = harness.run_experiment(cfg, out_dir=args.out)["aggregate"]
        print(
            f"{name:34s} {fmt(agg['median_consensus_time']):>10s} "
            f"{fmt(agg['median_first_tracking_time']):>10s} "
            f"{agg['mean_final_dffr'][repr(float(cfg.rho[0]))]:>14.4g}"
        )


if __name__ == "__main__":
    try:
        main()
    except DffrError as exc:
        sys.exit(f"error: {exc}")
