#!/usr/bin/env python3
"""Print the SHA-256 of the CSV trace body of every seed of a config, and of its summary.

    python scripts/trace_digest.py                            # every preset
    python scripts/trace_digest.py --preset paper-tracking-alg2
    python scripts/trace_digest.py --config my.json --seeds 0..3

One line per run (config name, seed, digest), then one line for the
config's summary JSON (config name, "summary", digest).  The CSV body is a
pure function of (config, seed), and the summary, bound curves included, a
pure function of the config, so two versions of the engine that print the
same digests produce byte-identical trace and summary files;
tests/test_golden_traces.py pins the preset digests.
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from dffr import cli, harness


def digests(cfg: harness.ExperimentConfig) -> list[tuple[str, str]]:
    """(label, SHA-256) of each seed's CSV body ("seed <s>") and of the summary ("summary")."""
    with tempfile.TemporaryDirectory() as tmp:
        harness.run_experiment(cfg, tmp)
        files = [(f"seed {seed}", f"{cfg.name}-seed{seed}.csv") for seed in cfg.seeds]
        files.append(("summary", f"{cfg.name}-summary.json"))
        return [
            (label, hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest())
            for label, name in files
        ]


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
        for label, digest in digests(cfg):
            print(f"{cfg.name} {label} {digest}", flush=True)


if __name__ == "__main__":
    main()
