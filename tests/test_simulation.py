"""Simulation engine: spawning, formation, releases, rewards, audits.

Hand-built scenarios replace the Poisson stream with a scripted arrival
schedule so the expected platoon behavior is known exactly.  Deadlocks come
from such a schedule too: three single-vehicle platoons whose commitments
close a wait-for cycle through the real tracker.
"""

import json
import math

import numpy as np
import pytest

from platoonsim.baselines import WebsterPlan
from platoonsim.config import SimConfig
from platoonsim.coordination import CoordinationTracker
from platoonsim.dynamics import msd
from platoonsim.formation import (FactorNormalizer, delay_factor,
                                  formation_reward, penalized_wait)
from platoonsim.simulation import (PLATOON_POLICIES, SafetyAuditError,
                                   Simulation, run_episode, shared_context,
                                   webster_rates, _Window)

from oracles import clamped_travel, csv_equal

DESK = SimConfig.desk(condition=2, seed=3)
SHARED = shared_context(DESK)


class ScriptedArrivals:
    """Deterministic replacement for the Poisson stream: {t: {movement: n}}."""

    def __init__(self, schedule):
        self.schedule = schedule

    def sample(self, t):
        return self.schedule.get(t, {})


def scripted_sim(schedule, *, policy="fp", T=120.0, **kwargs):
    cfg = DESK.override(T=T, policy=policy)
    sim = Simulation(cfg, seed=0, calibrating=True,
                     normalizer=FactorNormalizer(), shared=SHARED, **kwargs)
    sim.arrivals = ScriptedArrivals(schedule)
    return sim


# -- trivial contracts -------------------------------------------------------------


def test_zero_demand_empty_metrics():
    cfg = DESK.override(flow_scale=0.0, T=60.0, policy="webster")
    m = run_episode(cfg, seed=1)
    assert m.arrived == m.spawned == m.exited == m.in_network == 0
    assert m.layer1_reward == m.layer2_reward == 0.0
    assert m.size_histogram == {} and m.travel_times == []
    m.check_conservation()


def test_same_seed_identical_metrics():
    cfg = DESK.override(T=120.0, policy="webster")
    a, b = run_episode(cfg, seed=5), run_episode(cfg, seed=5)
    assert csv_equal(a, b) and a.travel_times == b.travel_times


def test_metrics_echo_run_identity():
    cfg = DESK.override(T=30.0, policy="webster", condition=1)
    m = run_episode(cfg, seed=9)
    assert (m.seed, m.policy, m.condition, m.g) == (9, "webster", 1, 12)
    assert m.steps == 30
    assert m.arrived == m.spawned + m.backlog


@pytest.mark.parametrize("policy", PLATOON_POLICIES + ("webster", "fcfs-reservation"))
def test_every_policy_completes_cleanly(policy):
    cfg = DESK.override(T=90.0, policy=policy)
    sim = Simulation(cfg, seed=11, calibrating=policy in PLATOON_POLICIES,
                     normalizer=FactorNormalizer(), shared=shared_context(cfg))
    m = sim.run()
    assert m.safety_violations == 0
    m.check_conservation()


def test_rasters_span_the_layouts_zone():
    # on a wider junction the grids cover its whole zone, so every straight
    # body is tracked until its tail clears the far edge
    cfg = DESK.override(l_lane=3.0)
    ctx = shared_context(cfg)
    for raster in (ctx.raster, ctx.audit):
        assert raster.grid.zone_side == ctx.layout.zone_side
        reach = dict(zip(raster.movements, raster.reach))
        for move in ctx.layout.movements:
            if move.turn == "straight":
                assert reach[move.key] == pytest.approx(move.length + cfg.l_c)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        Simulation(DESK, policy="teleport", shared=SHARED)


def test_learned_policies_require_agents():
    for policy in ("coor-plt", "fp", "rc"):
        with pytest.raises(ValueError):
            Simulation(DESK.override(policy=policy), shared=SHARED)


class CountingPriorityAgent:
    """Picks the identity order; counts how often it is consulted."""

    def __init__(self):
        self.calls = 0

    def act(self, state, mask, greedy=False):
        self.calls += 1
        return 0


def test_policies_refuse_agents_for_layers_they_do_not_learn():
    # random coordination draws its orders: with platoons of four, an
    # accepted priority agent would be consulted 4 times on this seed
    priority = CountingPriorityAgent()
    cfg = SimConfig.desk(condition=2, policy="rc")
    with pytest.raises(ValueError, match="takes no priority agent"):
        Simulation(cfg, seed=2, layer1=StubSizingAgent(size=4),
                   layer2=priority, shared=SHARED).run()
    assert priority.calls == 0
    with pytest.raises(ValueError, match="takes no sizing agent"):
        Simulation(DESK.override(policy="fp"), layer1=StubSizingAgent(),
                   layer2=priority, shared=SHARED)
    for policy in ("webster", "fcfs-reservation"):
        with pytest.raises(ValueError):
            Simulation(DESK.override(policy=policy), layer1=StubSizingAgent(),
                       shared=SHARED)
        with pytest.raises(ValueError):
            Simulation(DESK.override(policy=policy), layer2=priority,
                       shared=SHARED)


# -- scripted formation scenarios -----------------------------------------------------


def test_fixed_platoon_forms_releases_and_exits():
    sim = scripted_sim({0.0: {"west-east": 3}})
    m = sim.run()
    assert m.spawned == 3 and m.exited == 3
    assert m.size_histogram == {3: 1}
    assert m.layer1_actions == 1
    pids = {v.platoon_id for v in sim.vehicles.values()}
    assert len(pids) == 1 and None not in pids
    platoon = sim.platoons[pids.pop()]
    assert platoon.release_time is not None
    assert platoon.release_time > 0.0
    m.check_conservation()


def test_platoon_waits_for_target_size():
    # two vehicles, target three: released only by the patience escape
    sim = scripted_sim({0.0: {"west-east": 2}}, T=200.0)
    m = sim.run()
    assert m.spawned == 2 and m.exited == 2
    platoon = next(iter(sim.platoons.values()))
    assert platoon.target_size == 3 and platoon.size == 2
    # held at the stop bar for the full patience horizon before release
    assert platoon.release_time > DESK.T_m
    head = sim.vehicles[platoon.members[0]]
    assert head.wait_time > DESK.T_m


def test_followers_converge_to_platoon_pitch():
    sim = scripted_sim({0.0: {"west-east": 3}})
    pitch = sim.params.length + sim.params.headway_platoon
    spacings = []
    placed = []   # (member arc, arc the tracker's view puts it at)
    after_head_exit = []
    step = sim._step
    tracker_step = sim.tracker.step

    def watching(i):
        step(i)
        platoon = next(iter(sim.platoons.values()), None)
        if platoon is None or platoon.release_time is None:
            return
        # exit is per vehicle and an exited body stops moving, so the
        # rigid pitch holds among the members still in the network
        members = [v for v in (sim.vehicles[vid] for vid in platoon.members)
                   if not v.exited]
        spacings.append([a.route_pos - b.route_pos
                         for a, b in zip(members, members[1:])])

    def viewing(views, t, decide_fn):
        # the view is the whole rigid body at its nominal head, also after
        # the head itself has exited
        for view in views:
            members = [sim.vehicles[vid] for vid in sim.platoons[view.pid].members]
            assert view.size == len(members)
            for k, veh in enumerate(members):
                if not veh.exited:
                    placed.append((veh.route_pos, sim.L + view.front - k * pitch))
            after_head_exit.append(members[0].exited)
        return tracker_step(views, t, decide_fn)

    sim._step = watching
    sim.tracker.step = viewing
    sim.run()
    platoon = next(iter(sim.platoons.values()))
    # formed to the full target size, not split by the patience escape
    assert platoon.size == 3
    assert platoon.release_time < DESK.T_m
    # rigid release snapped members to exact pitch; order front to back
    assert spacings
    for row in spacings:
        for spacing in row:
            assert spacing == pytest.approx(pitch)
    assert placed and any(after_head_exit)
    for arc, nominal in placed:
        assert arc == pytest.approx(nominal)


def test_lane_headway_never_violated_under_signal():
    cfg = DESK.override(T=150.0, policy="webster")
    sim = Simulation(cfg, seed=21, shared=shared_context(cfg))
    min_gap = math.inf
    original = sim._integrate

    def checked(commands):
        original(commands)
        nonlocal min_gap
        for lane in sim.lanes.values():
            for prev, veh in zip(lane.queue, lane.queue[1:]):
                gap = prev.route_pos - sim.params.length - veh.route_pos
                min_gap = min(min_gap, gap)

    sim._integrate = checked
    m = sim.run()
    assert m.spawned > 20
    assert min_gap >= sim.params.headway_lane - 1e-6


def test_spawn_entry_speed_is_stoppable():
    # a stopped queue at the stop line forces gentle entries behind it
    schedule = {float(t): {"south-north": 1} for t in range(12)}
    sim = scripted_sim(schedule, T=40.0)
    p = sim.params
    records = []  # (gap, speed, speed ahead) at spawn; None for a lane head
    original = sim._drain_backlog

    def recording(lane, t):
        before = len(lane.queue)
        original(lane, t)
        for k in range(before, len(lane.queue)):
            if k == 0:
                records.append(None)
                continue
            ahead, veh = lane.queue[k - 1], lane.queue[k]
            gap = ahead.route_pos - p.length - veh.route_pos
            records.append((gap, veh.speed, ahead.speed))

    sim._drain_backlog = recording
    sim.run()
    assert len(records) >= 5
    for record in records:
        if record is None:
            continue
        gap, speed, ahead_speed = record
        assert gap >= p.headway_lane - 1e-9
        # the entrant can stop behind a leader that brakes at once
        assert (msd(speed, p.a_max)
                <= gap - p.headway_lane + msd(ahead_speed, p.a_max) + 1e-9)


# -- reward accounting ----------------------------------------------------------------


def test_shared_close_reward_over_union():
    sim = scripted_sim({}, policy="coor-plt")
    sim.calibrating = False
    sim.normalizer = FactorNormalizer({"wait": (0.0, 1.0), "delay": (0.0, 1.0),
                                       "fuel": (0.0, 100.0)})
    w1 = _Window(pid=1, movement="west-east", state=None, action=2,
                 acc={0: [30.0, 300.0, 20, 50.0], 1: [12.0, 160.0, 10, 20.0]})
    w2 = _Window(pid=2, movement="south-north", state=None, action=4,
                 acc={7: [60.0, 100.0, 10, 80.0]})
    sim._close_windows([w1, w2])

    cfg = sim.config
    rows = [(30.0, 300.0 / 20, 50.0), (12.0, 160.0 / 10, 20.0),
            (60.0, 100.0 / 10, 80.0)]
    waits = [min(penalized_wait(w, cfg.T_m), 1.0) for w, _, _ in rows]
    delays = [delay_factor(v, cfg.v_max) for _, v, _ in rows]
    fuels = [f / 100.0 for _, _, f in rows]
    expect = formation_reward(waits, delays, fuels, (cfg.w1, cfg.w2, cfg.w3))

    assert w1.reward == pytest.approx(expect)
    assert w2.reward == w1.reward  # same-step closings share one value
    assert sim.metrics.layer1_reward == pytest.approx(2 * expect)


def test_calibration_observes_instead_of_rewarding():
    norm = FactorNormalizer()
    sim = scripted_sim({}, policy="coor-plt")
    sim.normalizer = norm
    window = _Window(pid=1, movement="west-east", state=None, action=0,
                     acc={0: [30.0, 300.0, 20, 50.0]})
    sim._close_windows([window])
    assert window.reward == 0.0
    assert norm.calibrated
    lo, hi = norm.to_dict()["fuel"]
    assert (lo, hi) == (50.0, 50.0)


# -- deadlocks --------------------------------------------------------------------------


def test_deadlock_removal_keeps_conservation():
    # Three lone fp platoons leave by the patience escape.  East-south and
    # west-east never meet the two-sided envelope trigger, so they are never
    # grouped; west-east commits one step later, and its commitment edges
    # with the ranked group {east-south, south-north} close a cycle.
    sim = scripted_sim({0.0: {"east-south": 1, "south-north": 1,
                              "west-east": 1}}, policy="fp", T=120.0)
    m = sim.run()
    assert m.deadlock_events >= 1
    assert m.deadlock_removed > 0
    removed = [v for v in sim.vehicles.values() if v.removed_by_deadlock]
    assert len(removed) == m.deadlock_removed
    assert all(v.exit_time is not None for v in removed)
    m.check_conservation()


class _PushList(list):
    push = list.append


class StubSizingAgent:
    """Always picks one size, 3 unless told; counts what the engine hands it."""

    def __init__(self, size=3):
        self.action = size - 1
        self.replay = _PushList()
        self.remembered = 0
        self.train_steps = 0

    def act(self, state, greedy=False):
        return self.action

    def remember(self, exp):
        self.remembered += 1

    def train_step(self):
        self.train_steps += 1


def test_deadlock_punishes_sizing_experiences_through_the_engine():
    # the conservation scenario under rc while training: the wedged
    # platoons' sizing decisions go back to the agent with R_deadlock
    agent = StubSizingAgent()
    cfg = DESK.override(T=120.0, policy="rc")
    sim = Simulation(cfg, seed=0, layer1=agent, training=True,
                     normalizer=FactorNormalizer({"wait": (0.0, 1.0),
                                                  "delay": (0.0, 1.0),
                                                  "fuel": (0.0, 100.0)}),
                     shared=SHARED)
    sim.arrivals = ScriptedArrivals({0.0: {"east-south": 1, "south-north": 1,
                                           "west-east": 1}})
    m = sim.run()
    assert m.deadlock_events == 1
    assert m.deadlock_removed == 3
    assert [exp.reward for exp in agent.replay] == [cfg.R_deadlock] * 3
    assert agent.train_steps == 3
    assert agent.remembered == 0
    assert m.layer1_reward == 3 * cfg.R_deadlock
    m.check_conservation()


def test_paper_flow_plans_never_bar_a_pair_both_ways(monkeypatch):
    # at paper flow fp forms groups of three and four, whose left-out
    # platoons another group may already rank; each pair still waits one way
    step = CoordinationTracker.step
    mutual = []

    def checked(self, views, t, decide_fn):
        plan = step(self, views, t, decide_fn)
        mutual.extend((t, a, b) for a, waits in plan.blocking.items()
                      for b in waits if a < b and a in plan.blocking[b])
        return plan

    monkeypatch.setattr(CoordinationTracker, "step", checked)
    Simulation(SimConfig.desk(condition=2, flow_scale=1.0), policy="fp",
               seed=3, calibrating=True, normalizer=FactorNormalizer()).run()
    assert mutual == []


def test_paper_flow_orders_the_platoons_a_crowded_set_leaves_out():
    # at step 406 a five-platoon conflict set leaves out 103 and 102, which
    # contest one region; left unordered, both were committed to it a step
    # later and the tracker raised SafetyFault
    m = Simulation(SimConfig.desk(condition=2, flow_scale=1.0), policy="rc",
                   seed=1, calibrating=True, normalizer=FactorNormalizer()).run()
    m.check_conservation()


def test_g6_platoons_released_on_the_stop_line_cross():
    # four g = 6 regions start on the stop line; a platoon released there
    # from standstill counted as committed and, with its rival inside the
    # region, the tracker raised SafetyFault at step 75
    cfg = SimConfig.desk(condition=2, g=6, policy="fp", T=90.0)
    m = Simulation(cfg, seed=2, calibrating=True,
                   normalizer=FactorNormalizer()).run()
    assert m.steps == 90
    m.check_conservation()


# -- safety audit -------------------------------------------------------------------------


def test_audit_failure_aborts_with_reproducer(tmp_path):
    cfg = DESK.override(T=120.0, policy="webster")
    sim = Simulation(cfg, seed=7, shared=shared_context(cfg),
                     audit_dump_dir=str(tmp_path))
    sim._must_hold = lambda veh, t: False  # drive every red light
    with pytest.raises(SafetyAuditError) as info:
        sim.run()
    dump = json.loads(info.value.dump_path.read_text(encoding="utf-8"))
    assert dump["seed"] == 7
    assert dump["step"] >= 0
    assert dump["vehicles"]


def _sampled_conflict(sim, n_sub):
    """First conflict seen at n_sub + 1 instants of the step just integrated:
    the step-end audit, repeated inside the step."""
    raster, p = sim.shared.audit, sim.params
    for s in range(n_sub + 1):
        tau = sim.dt * s / n_sub
        fronts = [(row, pos0 + clamped_travel(v0, a, tau, p.v_max))
                  for _, row, pos0, v0, a, _ in sim._swept]
        for (row_a, x_a), (row_b, x_b) in zip(fronts, fronts[1:]):
            if row_a == row_b and x_a - p.length - x_b < -1e-9:
                return "lane overlap"
        owner = {}
        for row, x in fronts:
            front = x - sim.L
            held = (raster.lo[row] <= front) & (front <= raster.hi[row])
            for cell in raster.ids[row][held]:
                if owner.setdefault(int(cell), row) != row:
                    return "cell overlap"
    return None


def test_swept_audit_misses_no_substep_conflict(tmp_path):
    cfg = DESK.override(T=120.0, policy="webster")
    sim = Simulation(cfg, seed=7, shared=shared_context(cfg),
                     audit_dump_dir=str(tmp_path))
    sim._must_hold = lambda veh, t: False
    audit = sim._audit
    seen = []

    def compared(i, t):
        seen.append(_sampled_conflict(sim, 20))
        audit(i, t)
        # the audit passed this step, so no sample may show a conflict
        assert seen[-1] is None, (i, seen[-1])

    sim._audit = compared
    with pytest.raises(SafetyAuditError) as info:
        sim.run()
    # the swept audit raised at the first step sampling sees a conflict in
    assert seen[-1] == "cell overlap" and seen.count(None) == len(seen) - 1
    # the dump names the cell and when each body held it within the step
    dump = json.loads(info.value.dump_path.read_text(encoding="utf-8"))
    assert dump["kind"] == "cell overlap" and isinstance(dump["cell"], int)
    a, b = dump["vehicles"]
    assert a["movement"] != b["movement"]
    for veh in (a, b):
        assert dump["t"] <= veh["interval"][0] <= veh["interval"][1] \
            <= dump["t"] + dump["dt"]
    assert max(a["interval"][0], b["interval"][0]) \
        <= min(a["interval"][1], b["interval"][1])


def test_webster_rates_weight_the_switching_tiers_by_time():
    cfg = DESK.override(condition=3, switch_time=150.0)  # a quarter of T
    moderate = webster_rates(cfg.override(condition=1))
    high = webster_rates(cfg.override(condition=2))
    assert webster_rates(cfg) == pytest.approx(
        {mk: 0.25 * moderate[mk] + 0.75 * high[mk] for mk in moderate})
    # a switch at or beyond the horizon never shows the high tier
    for switch in (cfg.T, 2 * cfg.T):
        assert webster_rates(cfg.override(switch_time=switch)) == moderate


def test_webster_crossings_only_on_green_or_committed():
    cfg = DESK.override(T=200.0, policy="webster")
    sim = Simulation(cfg, seed=13, shared=shared_context(cfg))
    plan = WebsterPlan(webster_rates(cfg))
    crossings = []
    original = sim._integrate

    def watching(commands):
        before = {v.vid: (v.route_pos, v.speed) for lane in sim.lanes.values()
                  for v in lane.queue}
        original(commands)
        t = sim._now
        for lane in sim.lanes.values():
            for veh in lane.queue:
                pos0, speed0 = before.get(veh.vid, (None, None))
                if pos0 is not None and pos0 <= cfg.L + 1e-9 < veh.route_pos:
                    crossings.append((veh.movement, t, pos0, speed0))

    sim._integrate = watching
    step = sim._step

    def stamped(i):
        sim._now = i * sim.dt
        step(i)

    sim._step = stamped
    for i in range(int(cfg.T)):
        sim._step(i)
    assert len(crossings) > 10
    for movement, t, pos0, speed0 in crossings:
        allowed = plan.go(movement, t)
        committed = msd(speed0, cfg.a_max) > cfg.L - pos0 - 1e-6
        assert allowed or committed, (movement, t, pos0, speed0)


# -- tracing -----------------------------------------------------------------------------


def test_trace_is_parseable_jsonl(tmp_path):
    cfg = DESK.override(T=40.0, policy="webster")
    trace = tmp_path / "run.jsonl"
    Simulation(cfg, seed=3, shared=shared_context(cfg),
               trace_path=trace).run()
    lines = trace.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 40
    rows = [json.loads(line) for line in lines]
    assert rows[0]["t"] == 0.0
    assert all(set(r) == {"t", "vehicles", "bars", "labels"} for r in rows)
    assert any(r["vehicles"] for r in rows)


def test_platoon_trace_rows_read_back(tmp_path):
    # platoon policies put tracker status labels into every row
    cfg = DESK.override(T=120.0, policy="fp")
    trace = tmp_path / "fp.jsonl"
    Simulation(cfg, seed=1, calibrating=True, normalizer=FactorNormalizer(),
               shared=SHARED, trace_path=trace).run()
    rows = [json.loads(line) for line in
            trace.read_text(encoding="utf-8").strip().splitlines()]
    assert len(rows) == 120
    labels = [label for r in rows for label in r["labels"].values()]
    assert labels
    for label in labels:
        assert set(label) == {"label", "group"}
        assert label["label"] in (1, 2, 3)
        assert (label["group"] is not None) == (label["label"] == 3)
    assert all(set(r["bars"]) <= set(r["labels"]) for r in rows)
