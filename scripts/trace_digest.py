#!/usr/bin/env python3
"""Print the SHA-256 of the CSV trace body of every seed of a config, and of its summary.

    python scripts/trace_digest.py                            # every preset
    python scripts/trace_digest.py --preset paper-tracking-alg2
    python scripts/trace_digest.py --config my.json --seeds 0..3

One line per run (config name, seed, digest), then one line for the
config's summary JSON (config name, "summary", digest), then one for the
summary that ``harness.score`` rebuilds from the written files alone
(config name, "rescored", digest).  The CSV body is a pure function of
(config, seed), and the summary, bound curves included, a pure function of
the config, so two versions of the engine that print the same digests
produce byte-identical trace and summary files;
tests/test_golden_traces.py pins the preset digests.  The script exits 1
when a rescored digest differs from its summary's.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from dffr import cli, harness


def rescore(base: Path) -> dict:
    """The summary of a run rebuilt from its files alone: the config from the
    sidecar of ``base`` (one seed's trace base path), as ``read_trace`` reads
    it, and the trace of each of its seeds from ``read_trace`` in the same
    directory."""
    cfg = harness.ExperimentConfig.from_dict(harness.read_trace(base)[0]["config"])
    traces = [harness.read_trace(base.with_name(f"{cfg.name}-seed{seed}"))[1] for seed in cfg.seeds]
    return harness.score(cfg, traces)


def digests(cfg: harness.ExperimentConfig) -> list[tuple[str, str]]:
    """(label, SHA-256) of each seed's CSV body ("seed <s>"), of the summary
    ("summary") and of the summary ``rescore`` rebuilds from the files ("rescored")."""
    with tempfile.TemporaryDirectory() as tmp:
        harness.run_experiment(cfg, tmp)
        files = [(f"seed {seed}", f"{cfg.name}-seed{seed}.csv") for seed in cfg.seeds]
        files.append(("summary", f"{cfg.name}-summary.json"))
        out = [
            (label, hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest())
            for label, name in files
        ]
        rescored = rescore(Path(tmp) / f"{cfg.name}-seed{cfg.seeds[0]}")
        text = harness.strict_json(rescored, f"the rescored summary of {cfg.name}")
        return out + [("rescored", hashlib.sha256(text.encode()).hexdigest())]


def main() -> int:
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
    status = 0
    for cfg in configs:
        found = digests(cfg)
        for label, digest in found:
            print(f"{cfg.name} {label} {digest}", flush=True)
        if dict(found)["rescored"] != dict(found)["summary"]:
            print(f"{cfg.name}: the rescored summary differs from the written one", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
