"""Conflict regions, priority actions, and the zone coordination lifecycle."""

import itertools
import math

import numpy as np
import pytest

from platoonsim.coordination import (BAR_MARGIN, COORDINATED,
                                     INDEPENDENT_BLOCKED, INDEPENDENT_FREE,
                                     K_MAX, N_PRIORITY_ACTIONS, PERMS,
                                     CoordinationTracker, PathRaster,
                                     PlatoonView, SafetyFault,
                                     coordination_reward,
                                     encode_coordination_state,
                                     order_from_action, path_cell_spans,
                                     valid_action_mask)
from platoonsim.dynamics import (VehicleParams, free_accel, step_vehicle,
                                 stop_bar_accel)
from platoonsim.geometry import Grid, default_layout, msd, oriented_rect

from oracles import ConflictMap, occupied_cells, scalar_path_cell_spans

PARAMS = VehicleParams()
LAYOUT = default_layout()
GRID = Grid(12)
SPANS = {m.key: path_cell_spans(m, GRID, PARAMS) for m in LAYOUT.movements}
RASTER = PathRaster.build(LAYOUT, GRID, PARAMS)
REGIONS = RASTER.regions


def make_tracker(dt=1.0):
    return CoordinationTracker(LAYOUT, RASTER, PARAMS, dt)


def unordered(regions) -> set:
    return {tuple(sorted(pair)) for pair in regions}


# -- shared regions -------------------------------------------------------------


def test_region_pair_count_matches_granularity():
    # finer tiles separate the two opposite-left pairs whose tubes pass
    # within one coarse cell of each other, unlocking parallel crossings
    assert len(unordered(REGIONS)) == 16
    assert len(unordered(PathRaster.build(LAYOUT, Grid(6), PARAMS).regions)) == 18
    assert len(unordered(PathRaster.build(LAYOUT, Grid(24), PARAMS).regions)) == 16


def test_regions_match_geometric_conflicts():
    geometric = {tuple(sorted(pair)) for pair in ConflictMap(LAYOUT).pairs()}
    assert len(geometric) == 16
    assert unordered(REGIONS) == geometric
    coarse = unordered(PathRaster.build(LAYOUT, Grid(6), PARAMS).regions)
    assert coarse - geometric == {("east-south", "west-north"),
                                  ("north-east", "south-west")}


def test_crossing_straights_region_frozen():
    region = REGIONS[("south-north", "west-east")]
    rival = REGIONS[("west-east", "south-north")]
    # oracle: both tubes are 1.8 m wide on 1.25 m cells, so each covers two
    # columns/rows; the overlap block is their cartesian product
    assert region.cells == frozenset({(2, 8), (2, 9), (3, 8), (3, 9)})
    assert rival.cells == region.cells
    # front-bumper arcs: the tube reaches y > -5 at s = 2.5 and the 5 m rear
    # leaves y = -2.5 at s = 10; the west-east twin is offset one lane later
    assert region.enter == pytest.approx(2.5, abs=1e-6)
    assert region.clear == pytest.approx(10.0, abs=1e-6)
    assert rival.enter == pytest.approx(10.0, abs=1e-6)
    assert rival.clear == pytest.approx(17.5, abs=1e-6)


def test_no_region_within_one_approach():
    for ka, kb in REGIONS:
        assert ka.split("-")[0] != kb.split("-")[0]
    assert ("north-south", "south-north") not in REGIONS


def test_path_spans_bracket_direct_rasterization():
    # on a straight lane the tube footprint equals the rigid body rectangle,
    # so the span brackets must reproduce a directly rasterized body; the
    # probe arc sits strictly between cell boundaries
    movement = LAYOUT.movement("south-north")
    spans = SPANS["south-north"]
    s = 4.9
    (x,), (y,), (heading,) = movement.poses([s])
    rect = oriented_rect(x - 0.5 * PARAMS.length * math.sin(heading),
                         y - 0.5 * PARAMS.length * math.cos(heading),
                         PARAMS.length, PARAMS.width, heading)
    cells = occupied_cells(GRID, [rect])
    assert cells == {cell for cell, (lo, hi) in spans.items() if lo <= s <= hi}


def test_path_spans_are_ordered_and_bounded():
    march = 0.05
    for key, spans in SPANS.items():
        s_end = LAYOUT.movement(key).length + PARAMS.length
        for cell, (lo, hi) in spans.items():
            assert 0.0 <= lo <= hi <= s_end + march + 1e-9


@pytest.mark.parametrize("g", (3, 6, 12, 24))
def test_path_spans_match_scalar_march(g):
    grid = Grid(g)
    for movement in LAYOUT.movements:
        assert (path_cell_spans(movement, grid, PARAMS)
                == scalar_path_cell_spans(movement, grid, PARAMS)), movement.key


@pytest.mark.parametrize("g", (6, 12, 24))
def test_raster_rows_and_region_table_match_scalar_march(g):
    grid = Grid(g)
    raster = PathRaster.build(LAYOUT, grid, PARAMS)
    spans = {m.key: scalar_path_cell_spans(m, grid, PARAMS)
             for m in LAYOUT.movements}
    assert raster.movements == tuple(sorted(spans))
    for mk, row in raster.row.items():
        assert raster.movements[row] == mk
        items = sorted(spans[mk].items())
        n = len(items)
        assert raster.ids[row, :n].tolist() == [r * g + c for (r, c), _ in items]
        assert raster.lo[row, :n].tolist() == [lo for _, (lo, _) in items]
        assert raster.hi[row, :n].tolist() == [hi for _, (_, hi) in items]
        assert (raster.ids[row, n:] == -1).all()
        assert (raster.lo[row, n:] == np.inf).all()
        assert (raster.hi[row, n:] == -np.inf).all()
        assert raster.reach[row] == max(hi for _, hi in spans[mk].values())
    for ka, kb in itertools.permutations(spans, 2):
        shared = spans[ka].keys() & spans[kb].keys()
        region = raster.regions.get((ka, kb))
        if not shared:
            assert region is None, (ka, kb)
            continue
        assert region.cells == shared, (ka, kb)
        assert region.enter == min(spans[ka][c][0] for c in shared)
        assert region.clear == max(spans[ka][c][1] for c in shared)


# -- priority actions -----------------------------------------------------------


def test_valid_action_mask_frozen():
    assert N_PRIORITY_ACTIONS == 24
    assert set(np.flatnonzero(valid_action_mask(2)).tolist()) == {0, 6}
    assert set(np.flatnonzero(valid_action_mask(3)).tolist()) == {0, 2, 6, 8, 12, 14}
    assert valid_action_mask(4).all()
    for k in (2, 3, 4):
        assert valid_action_mask(k).sum() == math.factorial(k)
    with pytest.raises(ValueError):
        valid_action_mask(1)


def test_order_from_action_examples():
    assert order_from_action(0, ["a", "b"]) == ["a", "b"]
    assert order_from_action(6, ["a", "b"]) == ["b", "a"]
    # perm (1, 2, 3, 0) rotates everyone forward
    assert PERMS[9] == (1, 2, 3, 0)
    assert order_from_action(9, ["a", "b", "c", "d"]) == ["b", "c", "d", "a"]
    with pytest.raises(ValueError):
        order_from_action(1, ["a", "b"])  # perm (0,1,3,2) moves slot 3


def test_every_valid_action_is_a_reordering():
    for k in (2, 3, 4):
        members = list(range(10, 10 + k))
        for action in np.flatnonzero(valid_action_mask(k)):
            assert sorted(order_from_action(int(action), members)) == members


# -- state encoding --------------------------------------------------------------


def test_encode_state_hand_example():
    group = [
        {"current": {(0, 0)}, "desired": {(1, 1), (2, 2)}, "speed": 10.0},
        {"current": {(5, 5)}, "desired": {(2, 2), (3, 3)}, "speed": 20.0},
    ]
    state = encode_coordination_state(6, group, others=[{(4, 4)}], v_max=20.0)
    assert state.shape == (4, 6, 6)
    assert state[0, 0, 0] == 1 and state[0, 5, 5] == 2
    assert state[0].sum() == 3
    assert state[1, 0, 0] == 0.5 and state[1, 5, 5] == 1.0
    assert state[1].sum() == 1.5
    # member ranks mark private desires, the contested cell carries k + 1
    assert state[2, 1, 1] == 1 and state[2, 3, 3] == 2 and state[2, 2, 2] == 3
    assert state[2].sum() == 6
    assert state[3, 4, 4] == 1 and state[3].sum() == 1


def test_contested_code_scales_with_group_size():
    group = [{"current": set(), "desired": {(2, 2)}, "speed": 0.0}
             for _ in range(3)]
    state = encode_coordination_state(6, group, others=[], v_max=20.0)
    assert state[2, 2, 2] == 4


def test_speed_channel_confined_to_occupied_cells():
    group = [{"current": {(1, 2), (1, 3)}, "desired": set(), "speed": 15.0}]
    state = encode_coordination_state(6, group, others=[], v_max=20.0)
    assert set(zip(*np.nonzero(state[1]))) == {(1, 2), (1, 3)}


# -- group reward -----------------------------------------------------------------


def test_coordination_reward_frozen():
    assert coordination_reward(5.0, [8.0, 12.0]) == -15.0
    assert coordination_reward(0.0, [0.0]) == 0.0
    assert coordination_reward(6.0, [8.0, 12.0]) < coordination_reward(5.0, [8.0, 12.0])
    with pytest.raises(ValueError):
        coordination_reward(-1.0, [1.0])
    with pytest.raises(ValueError):
        coordination_reward(1.0, [])
    with pytest.raises(ValueError):
        coordination_reward(1.0, [1.0, -2.0])


# -- tracker scenarios -------------------------------------------------------------


class Scenario:
    """Bar-following point physics so tracker plans become trajectories.

    Every step also audits the ground truth the tracker is supposed to
    protect: no two platoons may stand on the same zone cell at once.
    """

    def __init__(self, dt=1.0):
        self.dt = dt
        self.tracker = make_tracker(dt)
        self.platoons = {}
        self.decisions = []
        self.records = []
        self.plans = []
        self.remove_at = {}

    def add(self, pid, movement, front, speed, size=1):
        self.platoons[pid] = dict(movement=movement, front=front,
                                  speed=speed, size=size)

    def views(self):
        return [PlatoonView(pid, p["movement"], p["front"], p["speed"], p["size"])
                for pid, p in sorted(self.platoons.items())]

    def _decide(self, state, mask, members):
        action = self.pick(state, mask, members)
        self.decisions.append(dict(t=self.t, members=list(members),
                                   action=int(action), mask=mask.copy(),
                                   state=state.copy()))
        return action

    def _audit_exclusive_cells(self):
        cells = {pid: self.tracker._current_cells(view)
                 for pid, view in ((v.pid, v) for v in self.views())}
        for pa, pb in itertools.combinations(sorted(cells), 2):
            shared = cells[pa] & cells[pb]
            assert not shared, f"t={self.t}: {pa} and {pb} share cells {shared}"

    def run(self, horizon, pick):
        self.pick = pick
        self.t = 0.0
        for _ in range(int(horizon / self.dt) + 1):
            for pid, t_gone in self.remove_at.items():
                if self.t >= t_gone and pid in self.platoons:
                    del self.platoons[pid]
            plan = self.tracker.step(self.views(), self.t, self._decide)
            self.plans.append((self.t, plan))
            self.records.extend(plan.completed)
            self._audit_exclusive_cells()
            for pid, p in self.platoons.items():
                a = free_accel(p["speed"], PARAMS)
                bar = plan.bars.get(pid)
                if bar is not None:
                    a = min(a, stop_bar_accel(bar - p["front"], p["speed"],
                                              PARAMS, self.dt))
                v2, d = step_vehicle(p["speed"], a, self.dt, PARAMS.v_max)
                p["front"] += d
                p["speed"] = v2
            gone = [pid for pid, p in self.platoons.items() if p["front"] > 80.0]
            for pid in gone:
                del self.platoons[pid]
            self.t += self.dt
            if not self.platoons and not self.tracker._groups:
                break
        return self

    def bar_timeline(self, pid):
        return [(t, plan.bars.get(pid)) for t, plan in self.plans]

    def label_timeline(self, pid):
        return [(t, plan.labels[pid].label) for t, plan in self.plans
                if pid in plan.labels]


def crossing_pair(action):
    sim = Scenario()
    sim.add(1, "south-north", -20.0, 10.0, size=2)
    sim.add(2, "west-east", -20.0, 10.0, size=3)
    return sim.run(40, pick=lambda s, m, mem: action)


def assert_bars(timeline, expected):
    for (t, bar), (t_want, bar_want) in zip(timeline, expected):
        assert t == t_want
        if bar_want is None:
            assert bar is None, f"t={t}: expected no bar, got {bar}"
        else:
            assert bar == pytest.approx(bar_want, abs=1e-9), f"t={t}"


def test_nonconflicting_movements_stay_free():
    sim = Scenario()
    sim.add(1, "south-north", -20.0, 10.0)
    sim.add(2, "north-south", -20.0, 10.0)
    sim.run(20, pick=lambda s, m, mem: 0)
    assert sim.decisions == []
    for pid in (1, 2):
        assert all(bar is None for _, bar in sim.bar_timeline(pid))
        assert all(label == INDEPENDENT_FREE for _, label in sim.label_timeline(pid))


def test_crossing_pair_coordination_lifecycle():
    sim = crossing_pair(action=6)  # west-east crosses first

    # one joint decision, at the last step both could still stop
    assert len(sim.decisions) == 1
    decision = sim.decisions[0]
    assert decision["t"] == 0.0
    assert decision["members"] == [1, 2]
    assert np.flatnonzero(decision["mask"]).tolist() == [0, 6]

    # trigger state: bodies still outside the zone, but both remaining paths
    # are drawn, and their meeting cells carry the contested code
    state = decision["state"]
    assert [int((state[c] != 0).sum()) for c in range(4)] == [0, 0, 44, 0]
    assert set(np.unique(state[2]).tolist()) == {0.0, 1.0, 2.0, 3.0}
    assert int((state[2] == 3).sum()) == 4

    # the loser waits just short of the shared cells until the winner's tail
    # is three pitches clear: enter 2.5 minus the margin
    assert_bars(sim.bar_timeline(1)[:4],
                [(0.0, 2.45), (1.0, 2.45), (2.0, 2.45), (3.0, None)])
    assert all(bar is None for _, bar in sim.bar_timeline(2))
    assert dict(sim.label_timeline(1))[0.0] == COORDINATED
    assert dict(sim.label_timeline(2))[0.0] == COORDINATED
    assert sim.plans[0][1].labels[1].group == 0
    assert sim.plans[0][1].blocking[1] == {2}

    # the winner's role ends once it passed the region; the group closes when
    # both tails left the zone
    assert dict(sim.label_timeline(2))[3.0] == INDEPENDENT_FREE
    assert len(sim.records) == 1
    rec = sim.records[0]
    assert rec.members == [1, 2]
    assert rec.coordination_time == 6.0
    assert rec.travel_times == [6.0, 4.0]
    assert rec.reward == -11.0
    for exp in rec.experiences:
        assert exp.action == 6
        assert exp.reward == -11.0
        assert exp.terminal and exp.next_state is None
        assert np.array_equal(exp.state, state)


def test_priority_reversed_swaps_the_waiter():
    sim = crossing_pair(action=0)  # south-north crosses first
    assert_bars(sim.bar_timeline(2)[:4],
                [(0.0, 9.95), (1.0, 9.95), (2.0, 9.95), (3.0, None)])
    assert all(bar is None for _, bar in sim.bar_timeline(1))
    rec = sim.records[0]
    assert rec.coordination_time == 6.0
    assert rec.travel_times == [3.0, 6.0]
    assert rec.reward == -10.5


def test_trigger_fires_as_late_as_possible():
    # far spawns: the pair is left alone until the step where a free-running
    # platoon could no longer be stopped short of the shared cells
    sim = Scenario()
    sim.add(1, "south-north", -58.0, 10.0)
    sim.add(2, "west-east", -58.0, 10.0)
    sim.run(40, pick=lambda s, m, mem: 0)
    assert len(sim.decisions) == 1
    assert sim.decisions[0]["t"] == 1.0


def test_committed_spawn_blocks_rival_without_decision():
    # spawned beyond its own stopping distance: the order is already forced,
    # so no coordination question is ever asked
    sim = Scenario()
    sim.add(1, "south-north", -5.0, 10.0)
    sim.add(2, "west-east", -5.0, 10.0)
    sim.run(30, pick=lambda s, m, mem: 0)
    assert sim.decisions == []
    assert sim.records == []
    assert sim.plans[0][1].bars[2] == pytest.approx(9.95, abs=1e-9)
    assert sim.plans[0][1].labels[2].label == INDEPENDENT_BLOCKED
    assert sim.plans[0][1].labels[1].label == INDEPENDENT_FREE


def test_staggered_arrivals_resolve_first_come():
    sim = Scenario()
    sim.add(1, "south-north", -12.0, 10.0)
    sim.add(2, "west-east", -26.0, 10.0)
    sim.run(30, pick=lambda s, m, mem: 0)
    assert sim.decisions == []
    timeline = dict(sim.bar_timeline(2))
    assert timeline[0.0] is None
    assert timeline[1.0] == pytest.approx(9.95, abs=1e-9)
    assert timeline[2.0] is None
    assert dict(sim.label_timeline(2))[1.0] == INDEPENDENT_BLOCKED


def test_chained_coordinations_emit_linked_experience():
    # platoon 1 turns left, yields twice, and its first group's experience
    # bootstraps into the second group's trigger state
    sim = Scenario()
    sim.add(1, "south-west", -20.0, 10.0)
    sim.add(2, "west-east", -20.0, 10.0)
    sim.add(3, "north-south", -55.0, 10.0)

    def pick(state, mask, members):
        valid = np.flatnonzero(mask)
        if 1 in members:
            slot = members.index(1)
            ranked_last = [a for a in valid if PERMS[a][len(members) - 1] == slot]
            if ranked_last:
                return int(ranked_last[0])
        return int(valid[0])

    sim.run(60, pick)
    assert [(d["t"], d["members"], d["action"]) for d in sim.decisions] == [
        (0.0, [1, 2], 6), (1.0, [3, 1], 0)]

    first = next(r for r in sim.records if r.members == [1, 2])
    second = next(r for r in sim.records if r.members == [3, 1])
    assert first.coordination_time == 6.0
    assert first.travel_times == [8.0, 3.0]
    assert first.reward == -11.5
    assert second.coordination_time == 6.0
    assert second.travel_times == [4.0, 7.0]
    assert second.reward == -11.5

    linked = first.experiences[0]   # platoon 1, canonical slot 0
    assert not linked.terminal
    assert np.array_equal(linked.next_state, sim.decisions[1]["state"])
    assert np.array_equal(linked.next_mask, sim.decisions[1]["mask"])
    assert first.experiences[1].terminal
    assert all(e.terminal for e in second.experiences)


def test_crowd_caps_at_four_with_spectator_suppression():
    sim = Scenario()
    for pid, mov in enumerate(["east-south", "north-east", "south-west",
                               "west-north", "south-north"], start=1):
        sim.add(pid, mov, -20.0, 10.0)
    sim.run(60, pick=lambda s, m, mem: 9)  # rotate: (1, 2, 3, 0)

    assert len(sim.decisions) == 1
    decision = sim.decisions[0]
    assert decision["members"] == [1, 2, 3, 4]
    assert decision["mask"].all()

    # the fifth platoon waits out the whole set and never joins a group
    plan0 = sim.plans[0][1]
    assert plan0.bars[5] == pytest.approx(4.95, abs=1e-9)
    assert plan0.labels[5].label == INDEPENDENT_BLOCKED
    assert plan0.blocking[5] == {1, 2}

    # rotation (1, 2, 3, 0) lets the two opposite lefts cross in parallel:
    # ranked second, the south-west platoon shares no cells with the leader
    assert plan0.bars[2] is None and plan0.bars[3] is None
    assert plan0.bars[1] == pytest.approx(1.15, abs=1e-9)
    assert plan0.bars[4] == pytest.approx(1.15, abs=1e-9)
    assert plan0.blocking[1] == {2, 3} and plan0.blocking[4] == {2, 3}

    assert len(sim.records) == 1
    rec = sim.records[0]
    assert rec.members == [1, 2, 3, 4]
    assert rec.coordination_time == 6.0
    assert rec.travel_times == [6.0, 3.0, 3.0, 6.0]
    assert rec.reward == -10.5


def test_spectators_wait_for_the_group_and_for_each_other():
    # both platoons left out of the crowded set are ordered as well, nearest
    # to its region first, so neither runs into the other once the set clears
    sim = Scenario()
    for pid, mov in enumerate(["east-south", "north-east", "south-west",
                               "west-north", "south-north", "east-west"],
                              start=1):
        sim.add(pid, mov, -20.0, 10.0)
    # rotate the set of four; the left-out pair later takes its first order
    sim.run(60, pick=lambda s, m, mem: (9 if m.all()
                                        else int(np.flatnonzero(m)[0])))

    assert sim.decisions[0]["members"] == [1, 2, 3, 4]
    plan0 = sim.plans[0][1]
    assert plan0.blocking[6] == {2, 4}
    assert plan0.blocking[5] == {1, 2, 6}
    for t, plan in sim.plans:
        assert not any(a in plan.blocking[b]
                       for a, waits in plan.blocking.items() for b in waits), t
    assert not sim.platoons


def test_one_platoon_per_movement_enforced():
    tracker = make_tracker()
    views = [PlatoonView(1, "south-north", -20.0, 10.0, 1),
             PlatoonView(2, "south-north", -40.0, 10.0, 1)]
    with pytest.raises(ValueError, match="one-per-movement"):
        tracker.step(views, 0.0, lambda s, m, mem: 0)


def test_masked_action_rejected():
    sim = Scenario()
    sim.add(1, "south-north", -20.0, 10.0)
    sim.add(2, "west-east", -20.0, 10.0)
    with pytest.raises(ValueError, match="masked"):
        sim.run(5, pick=lambda s, m, mem: 1)


def test_double_commitment_is_a_safety_fault():
    tracker = make_tracker()
    views = [PlatoonView(1, "south-north", 1.0, 10.0, 1),
             PlatoonView(2, "west-east", 5.0, 20.0, 1)]
    with pytest.raises(SafetyFault):
        tracker.step(views, 0.0, lambda s, m, mem: 0)


def test_vanished_platoon_still_completes_group():
    # deadlock punishment can delete a platoon mid-coordination; the group
    # must close out with the removal time standing in for its exit
    sim = Scenario()
    sim.add(1, "south-north", -20.0, 10.0, size=2)
    sim.add(2, "west-east", -20.0, 10.0, size=3)
    sim.remove_at[1] = 2.0
    sim.run(40, pick=lambda s, m, mem: 6)
    assert len(sim.records) == 1
    rec = sim.records[0]
    assert rec.travel_times[0] == 2.0
    assert rec.travel_times[1] == 4.0
    assert rec.coordination_time == 2.0
    assert rec.reward == -5.0


def test_plans_are_reproducible():
    first = crossing_pair(action=6)
    second = crossing_pair(action=6)
    assert len(first.decisions) == len(second.decisions) == 1
    assert np.array_equal(first.decisions[0]["state"], second.decisions[0]["state"])
    assert [r.reward for r in first.records] == [r.reward for r in second.records]
    assert first.bar_timeline(1) == second.bar_timeline(1)


def test_committed_margin_excludes_exact_standstill_at_bar():
    # a platoon stopped exactly on its bar holds nothing and blocks nobody
    tracker = make_tracker()
    bar = REGIONS[("south-north", "west-east")].enter - BAR_MARGIN
    views = [PlatoonView(1, "south-north", bar, 0.0, 1),
             PlatoonView(2, "west-east", 12.0, 10.0, 1)]
    plan = tracker.step(views, 0.0, lambda s, m, mem: 0)
    assert plan.bars[1] == pytest.approx(bar)
    assert plan.blocking[1] == {2}


def test_release_on_the_stop_line_is_not_committed_at_g6():
    # at g = 6 the south-west region shared with east-south starts on the
    # stop line; a bar behind it made the standing platoon look committed,
    # and the pair raised SafetyFault
    raster = PathRaster.build(LAYOUT, Grid(6), PARAMS)
    assert raster.regions[("south-west", "east-south")].enter == 0.0
    region = raster.regions[("east-south", "south-west")]
    tracker = CoordinationTracker(LAYOUT, raster, PARAMS, 1.0)
    views = [PlatoonView(1, "east-south", region.enter + 1.0, 10.0, 1),
             PlatoonView(2, "south-west", 0.0, 0.0, 1)]
    plan = tracker.step(views, 0.0, lambda s, m, mem: 0)
    assert plan.bars == {1: None, 2: 0.0}
    assert plan.blocking == {1: set(), 2: {1}}


def test_stopping_distance_spot_value():
    assert msd(20.0, PARAMS.a_max) == pytest.approx(40.0, abs=0.1)
