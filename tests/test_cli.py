"""Command-line smoke test: `eval` and `replay` on the shipped desk preset."""

import json
from pathlib import Path

from platoonsim.cli import main

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
