"""Baseline policies: fixed sizing, random priorities, Webster plan, FCFS tiles.

Webster cycle and green splits are frozen from a fractions-arithmetic oracle
on the per-phase critical flow ratios; the FCFS grant timelines are frozen
from hand-stepped kinematics of the exact piecewise vehicle integrator.
"""

from collections import Counter

import numpy as np
import pytest

from platoonsim.baselines import (FIXED_PLATOON_SIZE, SIGNAL_PHASES,
                                  ReservationManager, WebsterPlan,
                                  random_priority_decider)
from platoonsim.coordination import (PERMS, PathRaster, order_from_action,
                                      path_cell_spans, valid_action_mask)
from platoonsim.dynamics import VehicleParams
from platoonsim.geometry import Grid, default_layout
from platoonsim.traffic import HIGH_RATES, MODERATE_RATES

from oracles import ConflictMap

PARAMS = VehicleParams()
LAYOUT = default_layout()
GRID = Grid(12)
SPANS = {m.key: path_cell_spans(m, GRID, PARAMS) for m in LAYOUT.movements}
RASTER = PathRaster.build(LAYOUT, GRID, PARAMS)

DESK_HIGH = {k: 0.25 * v for k, v in HIGH_RATES.items()}
DESK_MODERATE = {k: 0.25 * v for k, v in MODERATE_RATES.items()}


def make_manager(dt=1.0):
    return ReservationManager(RASTER, PARAMS, dt)


# -- fixed platooning ------------------------------------------------------------


def test_fixed_platooning_size_always_three():
    assert FIXED_PLATOON_SIZE == 3


# -- random coordination ------------------------------------------------------------


def random_orders(members, seed, n):
    """n priority orders the random-coordination decider draws for members."""
    decide = random_priority_decider(np.random.default_rng(seed))
    mask = valid_action_mask(len(members))
    return [tuple(order_from_action(decide(None, mask, members), members))
            for _ in range(n)]


def test_random_coordination_uniform_over_two_orders():
    counts = Counter(random_orders([3, 7], 123, 10_000))
    assert set(counts) == {(3, 7), (7, 3)}
    for freq in counts.values():
        assert abs(freq / 10_000 - 0.5) <= 0.02


def test_random_coordination_uniform_over_six_orders():
    counts = Counter(random_orders([1, 2, 3], 7, 12_000))
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / 12_000 - 1 / 6) <= 0.02


def test_random_coordination_seeded_reproducible():
    assert (random_orders([1, 2, 3, 4], 42, 50)
            == random_orders([1, 2, 3, 4], 42, 50))


def test_random_coordination_returns_permutation():
    for order in random_orders([4, 9, 2, 6], 11, 20):
        assert sorted(order) == [2, 4, 6, 9]


def test_order_to_action_spot_values():
    # the order <-> action spot values, read through the forward map
    assert order_from_action(0, [1, 2]) == [1, 2]
    assert order_from_action(6, [1, 2]) == [2, 1]
    assert order_from_action(12, [1, 2, 3]) == [3, 1, 2]
    assert order_from_action(23, [4, 5, 6, 7]) == [7, 6, 5, 4]
    assert PERMS[23] == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        order_from_action(12, [1, 2])  # perm (2, 0, 1, 3) moves slot 2


def test_random_priority_decider_golden_actions():
    # one permutation draw per decision: rc and every calibration episode
    # depend on this stream
    decide = random_priority_decider(np.random.default_rng(42))
    actions = [decide(None, valid_action_mask(k), list(range(k)))
               for k in (2, 3, 4) for _ in range(4)]
    assert actions == [6, 0, 0, 0, 8, 12, 12, 2, 14, 6, 3, 6]


def test_random_priority_decider_respects_mask():
    rng = np.random.default_rng(3)
    decide = random_priority_decider(rng)
    for members in ([1, 2], [1, 2, 3], [1, 2, 3, 4]):
        mask = valid_action_mask(len(members))
        actions = {decide(None, mask, members) for _ in range(200)}
        assert all(mask[a] for a in actions)
        # every one of the k! orders is reachable
        assert len(actions) == int(mask.sum())


# -- Webster fixed-time plan -----------------------------------------------------------


def test_webster_cycle_formula_desk_high():
    plan = WebsterPlan(DESK_HIGH)
    assert not plan.saturated
    assert plan.flow_ratio_sum == pytest.approx(19 / 36, rel=1e-12)
    assert plan.cycle == pytest.approx(1044 / 17, rel=1e-12)
    assert plan.greens == pytest.approx(
        (4632 / 323, 3088 / 323, 3088 / 323, 3860 / 323), rel=1e-12)


def test_webster_oversaturated_high_flows_clamp_to_max_cycle():
    plan = WebsterPlan(HIGH_RATES)
    assert plan.saturated
    assert plan.flow_ratio_sum == pytest.approx(19 / 9, rel=1e-12)
    assert plan.cycle == 120.0
    assert plan.greens == pytest.approx(
        (104 * 6 / 19, 104 * 4 / 19, 104 * 4 / 19, 104 * 5 / 19), rel=1e-12)


def test_webster_min_green_stretches_cycle():
    # the unmodified optimum (2088/53 ~ 39.4 s) would give phase 2 only
    # 4.93 s of green; the cycle stretches until the shortest phase
    # reaches the 5 s minimum
    plan = WebsterPlan(DESK_MODERATE)
    assert plan.cycle == pytest.approx(39.75, rel=1e-12)
    assert plan.greens == pytest.approx((7.5, 5.0, 5.0, 6.25), rel=1e-12)


def test_webster_phases_partition_all_movements():
    listed = [m for _, moves in SIGNAL_PHASES for m in moves]
    assert sorted(listed) == sorted(m.key for m in LAYOUT.movements)


def test_webster_phase_members_are_conflict_free():
    cmap = ConflictMap(LAYOUT)
    conflicts = set(cmap.pairs())
    for _, moves in SIGNAL_PHASES:
        for i, ma in enumerate(moves):
            for mb in moves[i + 1:]:
                assert cmap.pair_key(ma, mb) not in conflicts


def test_webster_allowed_timeline():
    plan = WebsterPlan(DESK_HIGH)
    assert plan.allowed(1.0) == frozenset(SIGNAL_PHASES[0][1])
    assert plan.phase_at(1.0).name == "ns-through"
    # one second into the first lost-time window nothing moves
    assert plan.allowed(plan.greens[0] + 1.0) == frozenset()
    # second phase opens after the first green plus lost time
    t2 = plan.greens[0] + 4.0 + 1.0
    assert plan.phase_at(t2).name == "ns-left"
    # the plan is periodic
    assert plan.allowed(plan.cycle + 1.0) == plan.allowed(1.0)
    assert plan.go("north-south", 1.0)
    assert not plan.go("east-west", 1.0)


def test_webster_never_shows_conflicting_greens():
    plan = WebsterPlan(DESK_HIGH)
    cmap = ConflictMap(LAYOUT)
    conflicts = set(cmap.pairs())
    for step in range(int(plan.cycle / 0.25)):
        greens = sorted(plan.allowed(0.25 * step))
        for i, ma in enumerate(greens):
            for mb in greens[i + 1:]:
                assert cmap.pair_key(ma, mb) not in conflicts


def test_webster_missing_movement_raises():
    rates = dict(DESK_HIGH)
    del rates["north-south"]
    with pytest.raises(ValueError):
        WebsterPlan(rates)


# -- FCFS tile reservation ------------------------------------------------------------


def test_fcfs_first_request_on_empty_table_granted():
    mgr = make_manager()
    out = mgr.step([(1, "south-north", -0.5, 10.0)], 0)
    profile = out[1]
    assert profile is not None
    assert profile[0] == (-0.5, 10.0)
    fronts = [f for f, _ in profile]
    speeds = [v for _, v in profile]
    assert fronts == sorted(fronts)
    assert all(v <= PARAMS.v_max for v in speeds)
    assert fronts[-1] > RASTER.reach[RASTER.row["south-north"]]
    assert RASTER.reach[RASTER.row["south-north"]] == max(
        hi for _, hi in SPANS["south-north"].values())


def test_fcfs_profile_is_exact_piecewise_kinematics():
    mgr = make_manager()
    profile = mgr.crossing_profile("south-north", -0.5, 10.0)
    assert profile == [(-0.5, 10.0), (12.0, 15.0), (29.5, 20.0)]


def test_fcfs_stopped_vehicle_gets_acceleration_profile():
    mgr = make_manager()
    out = mgr.step([(4, "east-west", -1.0, 0.0)], 0)
    assert out[4] is not None
    assert out[4][1] == (1.5, 5.0)


def test_fcfs_conflicting_simultaneous_requests_first_wins():
    mgr = make_manager()
    out = mgr.step([(1, "south-north", -0.5, 10.0),
                    (2, "west-east", -0.5, 10.0)], 0)
    assert out[1] is not None
    assert out[2] is None


def test_fcfs_denied_vehicle_granted_after_clearance():
    mgr = make_manager()
    mgr.step([(1, "south-north", -0.5, 10.0)], 0)
    granted_at = None
    for t in range(1, 10):
        out = mgr.step([(2, "west-east", -0.5, 10.0)], t)
        if out[2] is not None:
            granted_at = t
            break
    assert granted_at == 4


def test_fcfs_nonconflicting_requests_both_granted():
    mgr = make_manager()
    out = mgr.step([(1, "south-north", -0.5, 10.0),
                    (2, "north-south", -0.5, 10.0)], 0)
    assert out[1] is not None
    assert out[2] is not None


def test_fcfs_earlier_asker_beats_newcomer_in_same_batch():
    mgr = make_manager()
    mgr.step([(9, "south-north", -0.5, 20.0)], 0)
    out = mgr.step([(5, "west-east", -0.5, 10.0)], 0)
    assert out[5] is None
    # at t=5 both could cross but their paths conflict; 5 asked first and
    # wins although it is listed second
    out = mgr.step([(6, "north-south", -0.5, 10.0),
                    (5, "west-east", -0.5, 10.0)], 5)
    assert out[5] is not None
    assert out[6] is None


def test_fcfs_granted_trajectories_never_share_swept_cells():
    rng = np.random.default_rng(2026)
    mgr = make_manager()
    keys = [m.key for m in LAYOUT.movements]
    pending = {vid: (keys[int(rng.integers(len(keys)))],
                     int(rng.integers(0, 40)))
               for vid in range(30)}
    granted = {}
    for t in range(400):
        asks = [(vid, mk, -0.5, 0.0) for vid, (mk, t0) in pending.items()
                if t0 <= t]
        if not asks and not pending:
            break
        for vid, profile in mgr.step(asks, t).items():
            if profile is not None:
                granted[vid] = (pending.pop(vid)[0], t, profile)
        mgr.prune(t)
    assert not pending
    # physical audit: for each step interval, the cells swept by distinct
    # vehicles must be disjoint
    occupancy = {}
    for vid, (mk, t0, profile) in granted.items():
        spans = SPANS[mk]
        for j in range(len(profile) - 1):
            f0, f1 = profile[j][0], profile[j + 1][0]
            for cell, (lo, hi) in spans.items():
                if lo <= f1 and hi >= f0:
                    holder = occupancy.setdefault((cell, t0 + j), vid)
                    assert holder == vid, (
                        f"cell {cell} shared at step {t0 + j}")


@pytest.mark.parametrize("mk,front,speed", [
    ("south-north", -0.5, 10.0), ("east-south", -2.0, 3.0),
    ("west-north", -1.0, 0.0), ("north-east", 4.0, 20.0)])
def test_fcfs_tiles_match_span_loop(mk, front, speed):
    # the tiles of a profile are those of a per-cell loop over the span
    # dict, numbered step * g * g + r * g + c
    g = GRID.granularity
    mgr = make_manager(dt=0.5)
    profile = mgr.crossing_profile(mk, front, speed)
    expected = set()
    for j in range(len(profile) - 1):
        f0, f1 = profile[j][0], profile[j + 1][0]
        for (r, c), (lo, hi) in SPANS[mk].items():
            if lo <= f1 and hi >= f0:
                expected.update((7 + j + b) * g * g + r * g + c
                                for b in (-1, 0, 1, 2))
    assert expected and mgr.tiles_for(mk, profile, 7) == expected


def test_fcfs_prune_drops_only_stale_tiles():
    mgr = make_manager()
    mgr.step([(1, "south-north", -0.5, 10.0)], 0)
    assert mgr._tiles
    mgr.prune(0)
    assert mgr._tiles
    mgr.prune(50)
    assert not mgr._tiles


def test_fcfs_grant_map_deterministic():
    def run():
        mgr = make_manager()
        log = []
        for t in range(8):
            out = mgr.step([(1, "south-north", -0.5, 5.0),
                            (2, "west-east", -1.0, 8.0),
                            (3, "east-south", -2.0, 3.0)], t)
            log.append(sorted((vid, p is not None)
                              for vid, p in out.items()))
        return log

    assert run() == run()
