"""Experiment driver: runs named entries into one JSON file.

    PYTHONPATH=src python3 claims/run.py --config configs/desk.cfg granularity

`<out>/claims.json` holds each entry's table, stamped with the commit
and the base config.
"""

import os

# deterministic single-threaded numerics; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import json
import subprocess
from pathlib import Path

import numpy as np

from platoonsim import training
from platoonsim.config import GRANULARITIES, SimConfig

ROOT = Path(__file__).resolve().parent.parent
REPLICATES = 5
FINAL_WINDOW = 10


def final_digest(log: list) -> dict:
    """Digest of a training log's last FINAL_WINDOW episodes."""
    tail = log[-FINAL_WINDOW:]
    return {
        "episodes": len(log),
        "final_layer2_reward": float(np.mean([m.layer2_reward for m in tail])),
        "final_deadlocks": int(sum(m.deadlock_events for m in tail)),
        "final_travel_time": float(np.mean([m.mean_travel_time
                                            for m in tail if m.exited])),
    }


def granularity(config: SimConfig, out: Path) -> dict:
    """Train at every zone granularity on seeds config.seed onward.  A seed
    draws the same demand at every g, so the cells pair by seed."""
    table = {}
    for g in GRANULARITIES:
        for seed in range(config.seed, config.seed + REPLICATES):
            name = f"g{g}-seed{seed}"
            log = training.train(config.override(g=g, seed=seed), out / name)
            table[name] = final_digest(log)
            print(name, json.dumps(table[name]), flush=True)
    return table


ENTRIES = {"granularity": granularity}


def commit() -> str | None:
    """The checkout's commit, or None outside a git checkout."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--out", default=str(ROOT / "claims" / "out"),
                        help="output directory (default: claims/out)")
    parser.add_argument("entries", nargs="+", choices=sorted(ENTRIES))
    args = parser.parse_args(argv)
    config = SimConfig.load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"commit": commit(), "config": dataclasses.asdict(config),
           "entries": {name: ENTRIES[name](config, out / name)
                       for name in args.entries}}
    (out / "claims.json").write_text(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
