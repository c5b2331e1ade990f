"""Experiment driver smoke test: the granularity entry on a short desk run.

The driver lives outside the package, so it is loaded by path.  The full
grid (every granularity, five seeds) trains two 120 s episodes per cell.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np

from platoonsim import training
from platoonsim.config import GRANULARITIES, SimConfig

RUN = Path(__file__).resolve().parent.parent / "claims" / "run.py"
BASE = SimConfig.desk(condition=2, T=120.0, M=2, calibration_episodes=1,
                      O=0, seed=4)


def _load():
    spec = importlib.util.spec_from_file_location("claims_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_granularity_entry_trains_every_cell_and_round_trips(tmp_path):
    driver = _load()
    cfg = tmp_path / "smoke.cfg"
    BASE.save(cfg)
    out = tmp_path / "out"
    assert driver.main(["--config", str(cfg), "--out", str(out),
                        "granularity"]) == 0
    doc = json.loads((out / "claims.json").read_text())
    assert set(doc) == {"commit", "config", "entries"}
    assert doc["commit"] is None or len(doc["commit"]) == 40
    assert doc["config"] == dataclasses.asdict(BASE)
    table = doc["entries"]["granularity"]
    assert set(table) == {f"g{g}-seed{seed}" for g in GRANULARITIES
                          for seed in range(4, 9)}
    for digest in table.values():
        assert set(digest) == {"episodes", "final_layer2_reward",
                               "final_deadlocks", "final_travel_time"}
        assert digest["episodes"] == BASE.M

    # one cell again, straight through training.train
    log = training.train(BASE.override(g=6, seed=6), tmp_path / "direct")
    assert table["g6-seed6"] == {
        "episodes": 2,
        "final_layer2_reward": float(np.mean([m.layer2_reward for m in log])),
        "final_deadlocks": int(sum(m.deadlock_events for m in log)),
        "final_travel_time": float(np.mean([m.mean_travel_time for m in log
                                            if m.exited])),
    }
