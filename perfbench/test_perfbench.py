"""Tests of the benchmark itself: tracer arithmetic, instrumentation hygiene,
counts cross-checked against the program's own counters, determinism.

    python3 -m pytest -q perfbench

Episodes are shortened to keep the suite quick; the workloads' policies,
agents and code paths are otherwise the ones the benchmark runs.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import instrument  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from platoonsim import simulation  # noqa: E402
from tracer import Tracer  # noqa: E402

SHORT_T = 240.0


@pytest.fixture
def short(monkeypatch):
    """Workloads with shortened episodes and a single outcome round."""
    original = workloads.Workload.config
    monkeypatch.setattr(workloads.Workload, "config",
                        lambda self, seed: original(self, seed).override(
                            T=SHORT_T))
    return {name: dataclasses.replace(wl, outcome_rounds=1)
            for name, wl in workloads.WORKLOADS.items()}


def _targets():
    """(owner, attribute) of every module and class wrapper, with originals."""
    tr = Tracer()
    instrument.install(tr)
    patched = [(owner, attr, original)
               for owner, attr, original, _ in tr._patches]
    tr.uninstall()
    return patched


# -- tracer arithmetic ---------------------------------------------------------

def test_self_time_is_exact_on_nested_spans(monkeypatch):
    ticks = iter([0, 10, 12, 20, 30, 40, 45, 100])
    monkeypatch.setattr(tracer_module, "_clock", lambda: next(ticks))
    tr = Tracer()
    leaf = tr.leaf_fn(lambda: None, "leaf")
    root = tr.open("root")              # 0
    child = tr.open("child")            # 10
    grandchild = tr.open("grandchild")  # 12
    tr.close(grandchild)                # 20
    tr.close(child)                     # 30
    leaf()                              # 40 .. 45
    tr.close(root)                      # 100
    assert tr.self_ns == {"root": 100 - 20 - 5, "child": 20 - 8,
                          "grandchild": 8, "leaf": 5}
    assert tr.total_ns["root"] == 100
    assert sum(tr.self_ns_under("root").values()) == 100
    assert tr.parent == [-1, 0, 1]


def test_spans_closed_out_of_order_are_refused():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


# -- instrumentation hygiene -------------------------------------------------------

def test_untraced_run_leaves_every_callable_unwrapped(short, tmp_path):
    before = _targets()
    run.untraced_run(short["signals"], 3, 0.0, str(tmp_path))
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
        assert not getattr(getattr(owner, attr), "__traced__", False)


def test_traced_run_restores_every_callable(short, tmp_path):
    before = _targets()
    _, ctx, _ = run.traced_run(short["platoon-eval"], 3, str(tmp_path))
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
    for agent in (ctx.layer1, ctx.layer2):
        assert "act" not in vars(agent) and "train_step" not in vars(agent)
        for layer in agent.net.layers:
            assert "forward" not in vars(layer)


# -- counts against the program's own counters --------------------------------

def test_eval_counts_match_program_counters(short, tmp_path):
    tr, _, rounds = run.traced_run(short["platoon-eval"], 3, str(tmp_path))
    episodes = [ep.metrics for rnd in rounds for ep in rnd]
    assert all(m is not None for m in episodes)
    assert tr.calls["formation.encode"] == sum(m.layer1_actions
                                               for m in episodes)
    assert tr.calls["coordination.tracker_step"] == sum(m.steps
                                                        for m in episodes)
    assert tr.counts["coordination.groups"] == sum(m.coordinations
                                                   for m in episodes)
    assert tr.counts["deadlock.cycles"] == sum(m.deadlock_events
                                               for m in episodes)
    assert tr.counts["coordination.groups"] > 0
    # greedy evaluation reads the network once per coor-plt and rc decision
    assert tr.calls["drl.l1.act"] == sum(m.layer1_actions for m in episodes
                                         if m.policy != "fp")


def test_train_counts_match_gradient_steps(short, tmp_path):
    tr, ctx, rounds = run.traced_run(short["train"], 3, str(tmp_path))
    assert not any(ep.failed for rnd in rounds for ep in rnd)
    assert ctx.layer1.gradient_steps > 0
    assert tr.calls["drl.l1.train_step"] == ctx.layer1.gradient_steps
    assert tr.calls["drl.l2.train_step"] == ctx.layer2.gradient_steps
    values, _ = instrument.per_layer_values(tr, 1.0)
    assert values["drl.l1.0.conv.bwd_ms_b32"] > 0


def test_episode_self_times_add_up_to_episode_time(short, tmp_path):
    tr, _, rounds = run.traced_run(short["signals"], 3, str(tmp_path))
    selfs = tr.self_ns_under("bench.episode")
    walls = [i for i, n in enumerate(tr.names) if n == "bench.episode"]
    total_ns = sum(tr.end[i] - tr.start[i] for i in walls)
    assert len(walls) == sum(len(rnd) for rnd in rounds)
    assert sum(selfs.values()) == total_ns
    assert selfs["simulation.run"] > 0 and selfs["dynamics.step_vehicle"] > 0
    tr.write(tmp_path / "trace.json")
    assert Tracer.load(tmp_path / "trace.json").self_ns_under(
        "bench.episode") == selfs


# -- outputs, failures, determinism ---------------------------------------------------

def test_failed_episodes_are_counted_and_the_run_goes_on(short, tmp_path,
                                                         monkeypatch):
    wl = short["signals"]
    ctx = workloads.setup(wl, 3)
    real_run = simulation.Simulation.run

    def flaky(self):
        if self.policy == "webster":
            raise RuntimeError("injected")
        m = real_run(self)
        m.exited += 1   # breaks conservation as seen from outside
        return m

    monkeypatch.setattr(simulation.Simulation, "run", flaky)
    rounds = workloads.run_rounds(wl, ctx, 3, 0.0, str(tmp_path))
    webster, fcfs = rounds[0]
    assert webster.failed and "injected" in webster.problems[0]
    assert fcfs.failed and any("conservation" in p for p in fcfs.problems)
    metrics, _ = run.end_to_end(wl, rounds, [1.0])
    assert metrics["passed_share"][0] == 0.0


def test_fingerprints_repeat_and_ignore_tracing(short, tmp_path):
    wl = short["platoon-eval"]
    _, _, first = run.untraced_run(wl, 5, 0.0, str(tmp_path))
    _, _, second = run.untraced_run(wl, 5, 0.0, str(tmp_path))
    _, _, traced = run.traced_run(wl, 5, str(tmp_path))
    prints = workloads.fingerprints(wl, first)
    assert prints == workloads.fingerprints(wl, second)
    assert prints == workloads.fingerprints(wl, traced)
    _, _, other = run.untraced_run(wl, 6, 0.0, str(tmp_path))
    assert workloads.fingerprints(wl, other) != prints


# -- BENCHMARK.json agrees with the code ---------------------------------------------

def test_benchmark_file_matches_the_reported_metrics(short, tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    units = instrument.per_layer_units()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == units
    assert set(instrument.layer_map()) == set(units)
    rounds = workloads.run_rounds(short["signals"],
                                  workloads.setup(short["signals"], 3), 3,
                                  0.0, str(tmp_path))
    metrics, notes = run.end_to_end(short["signals"], rounds, [1.0])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())
