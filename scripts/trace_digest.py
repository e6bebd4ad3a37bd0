#!/usr/bin/env python3
"""Print the SHA-256 of the CSV trace body of every seed of a config.

    python scripts/trace_digest.py                            # every preset
    python scripts/trace_digest.py --preset paper-tracking-alg2
    python scripts/trace_digest.py --config my.json --seeds 0..3

One line per run: config name, seed, digest.  The CSV body is a pure
function of (config, seed), so two versions of the engine that print the
same digests produce byte-identical trace files; tests/test_golden_traces.py
pins the preset digests.
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from dffr import cli, harness


def csv_digests(cfg: harness.ExperimentConfig) -> list[tuple[int, str]]:
    """(seed, SHA-256 of the CSV body) for every configured seed."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed, trace in zip(cfg.seeds, harness.run_seeds(cfg)):
            csv_path, _ = harness.write_trace(trace, cfg.rho, Path(tmp) / f"seed{seed}")
            out.append((seed, hashlib.sha256(csv_path.read_bytes()).hexdigest()))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--preset", help="one preset (default: every preset)")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seeds", help="seed list '0,1,2' or range '0..19' (default: the config's)")
    args = parser.parse_args()

    if args.config:
        configs = [cli._load_config(args)]
    else:
        names = [args.preset] if args.preset else harness.PRESET_NAMES
        configs = [
            cli._load_config(argparse.Namespace(preset=name, config=None, seeds=args.seeds))
            for name in names
        ]
    for cfg in configs:
        for seed, digest in csv_digests(cfg):
            print(f"{cfg.name} seed {seed} {digest}", flush=True)


if __name__ == "__main__":
    main()
