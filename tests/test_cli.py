"""Command-line smoke test: `eval`, `train` and `replay` on the desk preset."""

import json
from pathlib import Path

from platoonsim.cli import main
from platoonsim.config import SimConfig

DESK_CFG = str(Path(__file__).resolve().parent.parent / "configs" / "desk.cfg")


def test_eval_writes_the_comparison_and_one_log_per_policy(tmp_path, capsys):
    assert main(["eval", "--config", DESK_CFG,
                 "--policy", "webster,fcfs-reservation", "--episodes", "1",
                 "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "comparison.json").read_text())
    assert [row["policy"] for row in rows] == ["webster", "fcfs-reservation"]
    assert all(row["episodes"] == 1 for row in rows)
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "fcfs-reservation.csv", "webster.csv"]
    assert "webster" in capsys.readouterr().out


def test_replay_writes_one_trace_line_per_step(tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main(["replay", "--config", DESK_CFG, "--policy", "webster",
                 "--out", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 600   # T / dt of the desk preset
    json.loads(lines[0])


def test_train_then_replay_the_trained_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "smoke.cfg"
    SimConfig.desk(T=120.0, M=1, calibration_episodes=1, O=0).save(cfg)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert {p.name for p in run.iterdir()} == {
        "layer1_final.ckpt", "layer2_final.ckpt", "normalizer.json",
        "metrics.csv", "metrics.json"}
    assert "episode   1" in capsys.readouterr().out
    trace = tmp_path / "t.jsonl"
    assert main(["replay", "--config", str(cfg), "--checkpoint", str(run),
                 "--out", str(trace)]) == 0
    assert len(trace.read_text().splitlines()) == 120
    assert "under coor-plt" in capsys.readouterr().out
