"""Set-up probe: import dffr and parse and validate one workload's configs.

Run in a fresh interpreter by run.py.  Prints the time.perf_counter()
reading (CLOCK_MONOTONIC, shared by all processes of the machine) taken
once the configs are validated, so the parent can time the whole set-up
from the moment it started this process.

    python3 perfbench/setup_probe.py --workload paper-presets --seed 0
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dffr import harness  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cases = workloads.cases(args.workload, args.seed, harness.PRESETS)
    configs = [harness.ExperimentConfig.from_dict(case.raw) for case in cases]
    done = time.perf_counter()
    print(f"{done!r} {len(configs)}")


if __name__ == "__main__":
    main()
