#!/usr/bin/env python3
"""Sweep the forgetting factor on the projected-gradient baseline.

Shows how the first round where the running weighted regret drops below 0.01
grows with the forgetting factor, and compares against the unweighted
cumulative regret (which never decays).
"""

import argparse
import sys

from dffr import harness, metrics
from dffr.errors import DffrError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", default="0.96,0.97,0.98")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    cfg = harness.preset("paper-tracking-dogd")
    values = [float(v) for v in args.values.split(",")]
    rows = harness.sweep(cfg, "rho", values, out_dir=args.out)

    print(f"{'rho':>6s} {'regret<0.01 at':>15s} {'final weighted regret':>22s}")
    for row in rows:
        t = row["median_regret_first_below"]
        print(
            f"{row['value']:6.2f} {str(t) if t else 'never':>15s} "
            f"{row['mean_final_dffr']:>22.4g}"
        )

    trace = harness.run_single(cfg, cfg.seeds[0])
    cum = metrics.cumulative_regret(trace)
    print(f"\nunweighted cumulative regret at T={trace.T}: {float(cum[-1]):.4g} "
          "(non-decreasing; never crosses a decay threshold)")


if __name__ == "__main__":
    try:
        main()
    except DffrError as exc:
        sys.exit(f"error: {exc}")
