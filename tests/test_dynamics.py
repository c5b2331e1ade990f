"""Dynamics tests: exact integration, gap-safety envelopes, formation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platoonsim import dynamics as dyn
from platoonsim.geometry import Grid, IntersectionLayout, msd

from oracles import euler_motion, occupied_cells, raster_cells


PARAMS = dyn.VehicleParams()
DT = 1.0


# ---------------------------------------------------------------------------
# parameter validation


def test_params_reject_nonpositive_limits():
    with pytest.raises(ValueError):
        dyn.VehicleParams(a_max=0.0)
    with pytest.raises(ValueError):
        dyn.VehicleParams(v_max=-1.0)
    with pytest.raises(ValueError):
        dyn.VehicleParams(headway_platoon=2.0, headway_lane=1.5)


# ---------------------------------------------------------------------------
# step_vehicle


def test_step_at_rest_stays_put():
    assert dyn.step_vehicle(0.0, 0.0, 1.0, 20.0) == (0.0, 0.0)


def test_step_plain_acceleration():
    v2, d = dyn.step_vehicle(10.0, 5.0, 1.0, 20.0)
    assert v2 == 15.0
    assert d == 12.5


def test_step_clamps_at_speed_limit():
    v2, d = dyn.step_vehicle(19.0, 5.0, 1.0, 20.0)
    assert v2 == 20.0
    # 0.2 s to reach the cap, then 0.8 s at 20
    assert d == pytest.approx(19.9, abs=1e-12)


def test_step_clamps_at_stop():
    v2, d = dyn.step_vehicle(10.0, -5.0, 3.0, 20.0)
    assert v2 == 0.0
    assert d == pytest.approx(10.0, abs=1e-12)


def test_step_rejects_bad_dt():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            dyn.step_vehicle(5.0, 0.0, bad, 20.0)


def test_step_matches_euler_oracle_on_grid():
    speeds, accels = np.meshgrid([0.0, 3.0, 10.0, 19.0, 20.0],
                                 [-5.0, -2.0, 0.0, 2.0, 5.0])
    speeds, accels = speeds.ravel(), accels.ravel()
    for dt in (0.5, 1.0):
        ov, od = euler_motion(speeds, accels, dt, 20.0)
        for v0, a, ev, ed in zip(speeds, accels, ov, od):
            v2, d = dyn.step_vehicle(v0, a, dt, 20.0)
            assert v2 == pytest.approx(ev, abs=1e-3)
            assert d == pytest.approx(ed, abs=1e-3)


@given(v=st.floats(0.0, 20.0), a=st.floats(-5.0, 5.0),
       dt=st.floats(0.1, 2.0))
def test_step_respects_speed_bounds(v, a, dt):
    v2, d = dyn.step_vehicle(v, a, dt, 20.0)
    assert 0.0 <= v2 <= 20.0
    assert d >= 0.0


@given(v=st.floats(0.0, 20.0))
def test_full_braking_conserves_stopping_budget(v):
    # one full-braking step spends exactly its own stopping distance
    v2, d = dyn.step_vehicle(v, -PARAMS.a_max, DT, PARAMS.v_max)
    assert d + msd(v2, PARAMS.a_max) == pytest.approx(msd(v, PARAMS.a_max),
                                                      abs=1e-9)


# ---------------------------------------------------------------------------
# max_safe_accel


def test_safe_accel_unconstrained_is_full_throttle():
    assert dyn.max_safe_accel(1000.0, 10.0, 5.0, DT) == 5.0


def test_safe_accel_zero_budget():
    assert dyn.max_safe_accel(0.0, 0.0, 5.0, DT) == 0.0
    assert dyn.max_safe_accel(0.0, 4.0, 5.0, DT) == -5.0
    assert dyn.max_safe_accel(-1.0, 0.0, 5.0, DT) == -5.0


def test_safe_accel_at_exact_stopping_budget_is_full_brake():
    for v in (5.0, 12.0, 20.0):
        a = dyn.max_safe_accel(msd(v, 5.0), v, 5.0, DT)
        assert a == pytest.approx(-5.0, abs=1e-9)


@given(budget=st.floats(0.01, 200.0), v=st.floats(0.0, 20.0))
def test_safe_accel_spends_at_most_budget(budget, v):
    a = dyn.max_safe_accel(budget, v, 5.0, DT)
    assert -5.0 <= a <= 5.0
    v2, d = dyn.step_vehicle(v, a, DT, 1e9)  # no cap: envelope ignores v_max
    if budget >= msd(v, 5.0):               # feasible region
        assert d + msd(v2, 5.0) <= budget + 1e-9


@given(budget=st.floats(0.01, 200.0), v=st.floats(0.0, 20.0))
def test_safe_accel_is_maximal(budget, v):
    if budget < msd(v, 5.0):
        return  # infeasible: full brake is the only sane answer
    a = dyn.max_safe_accel(budget, v, 5.0, DT)
    if a >= 5.0 - 1e-9:
        return
    v2, d = dyn.step_vehicle(v, a + 0.01, DT, 1e9)
    assert d + msd(v2, 5.0) > budget - 1e-9


# ---------------------------------------------------------------------------
# follow_gap_accel


def test_follow_free_road_full_throttle():
    assert dyn.follow_gap_accel(100.0, 10.0, 0.0, 1.5, PARAMS, DT) == 5.0


def test_follow_equilibrium_holds_still():
    assert dyn.follow_gap_accel(1.5, 0.0, 0.0, 1.5, PARAMS, DT) == 0.0


def test_follow_below_min_gap_panic_brakes():
    for gap in (0.0, 0.5, 1.49):
        for v in (0.0, 5.0, 20.0):
            assert dyn.follow_gap_accel(gap, v, 0.0, 1.5, PARAMS, DT) == -5.0


def test_follow_one_step_preserves_envelope_on_grid():
    # any state inside the worst-case envelope stays inside it for one step
    # with the leader braking as hard as physics allows
    min_gap = PARAMS.headway_lane
    for gap in np.linspace(1.5, 60.0, 25):
        for v in np.linspace(0.0, 20.0, 21):
            for vl in (0.0, 5.0, 10.0, 20.0):
                if msd(v, 5.0) > gap - min_gap + msd(vl, 5.0):
                    continue  # unreachable under the controller
                a = dyn.follow_gap_accel(gap, v, vl, min_gap, PARAMS, DT)
                v2, d = dyn.step_vehicle(v, a, DT, PARAMS.v_max)
                vl2, dl = dyn.step_vehicle(vl, -5.0, DT, PARAMS.v_max)
                gap2 = gap + dl - d
                assert gap2 >= 0.0
                if v >= vl:
                    assert gap2 >= min_gap - 1e-9
                assert msd(v2, 5.0) <= gap2 - min_gap + msd(vl2, 5.0) + 1e-9


def test_follow_approach_to_stopped_queue():
    gap, v = 100.0, 20.0
    low = gap
    for _ in range(10):
        a = dyn.follow_gap_accel(gap, v, 0.0, 1.5, PARAMS, DT)
        v, d = dyn.step_vehicle(v, a, DT, PARAMS.v_max)
        gap -= d
        low = min(low, gap)
    assert v == 0.0
    assert low >= 1.5 - 1e-9
    assert gap == pytest.approx(1.5, abs=1e-6)


def test_follow_survives_leader_emergency_brake():
    # tailgating at the envelope boundary, leader slams the brakes
    for v0 in (5.0, 10.0, 20.0):
        gap, v, vl = 1.5, v0, v0
        low = gap
        for _ in range(12):
            a = dyn.follow_gap_accel(gap, v, vl, 1.5, PARAMS, DT)
            v, d = dyn.step_vehicle(v, a, DT, PARAMS.v_max)
            vl, dl = dyn.step_vehicle(vl, -5.0, DT, PARAMS.v_max)
            gap += dl - d
            low = min(low, gap)
        assert v == 0.0 and vl == 0.0
        assert low >= 1.5 - 1e-9


# ---------------------------------------------------------------------------
# stop_bar_accel


def test_stop_bar_never_crossed_from_any_speed():
    for dist0 in (5.0, 15.0, 40.0, 120.0):
        for v0 in (0.0, 10.0, 20.0):
            if msd(v0, 5.0) > dist0:
                continue
            dist, v = dist0, v0
            for _ in range(30):
                a = dyn.stop_bar_accel(dist, v, PARAMS, DT)
                v, d = dyn.step_vehicle(v, a, DT, PARAMS.v_max)
                dist -= d
                assert dist >= -1e-9


def test_stop_bar_at_zero_distance_brakes():
    assert dyn.stop_bar_accel(0.0, 5.0, PARAMS, DT) == -5.0


def test_stop_bar_float_overshoot_counts_as_parked():
    # braking onto the bar can land a hair past it; parked there, the
    # vehicle commands 0, while a real overshoot still brakes fully
    assert dyn.stop_bar_accel(-1e-12, 0.0, PARAMS, DT) == 0.0
    assert dyn.stop_bar_accel(-0.01, 0.0, PARAMS, DT) == -5.0


# ---------------------------------------------------------------------------
# motion inside a step: travel_time, min_gap_in_step


# subnormal speeds are left out: there x = v * tau itself rounds, so the
# earliest time of the rounded x may lie past tau
@settings(max_examples=200, deadline=None)
@given(v=st.floats(0.0, 20.0, allow_subnormal=False),
       a=st.floats(-5.0, 5.0, allow_subnormal=False), frac=st.floats(0.0, 1.0))
def test_travel_time_inverts_step_travel(v, a, frac):
    tau = frac * DT
    x = dyn.step_vehicle(v, a, tau, PARAMS.v_max)[1] if tau > 0 else 0.0
    t = float(dyn.travel_time(x, v, a, PARAMS.v_max))
    assert 0.0 <= t <= tau + 1e-9
    reached = dyn.step_vehicle(v, a, t, PARAMS.v_max)[1] if t > 0 else 0.0
    assert reached == pytest.approx(x, abs=1e-9)


def test_travel_time_after_speed_cap_is_linear():
    # from 15 m/s at +5 the cap is hit at t=1 after 17.5 m
    t = dyn.travel_time([17.5, 27.5], 15.0, 5.0, 20.0)
    assert t == pytest.approx([1.0, 1.5])


def _sampled_min_gap(gap0, lv, la, v, a, dt, n=2000):
    taus = np.linspace(0.0, dt, n + 1)[1:]
    gaps = [gap0 + dyn.step_vehicle(lv, la, t, 20.0)[1]
            - dyn.step_vehicle(v, a, t, 20.0)[1] for t in taus]
    return min(gap0, min(gaps))


@settings(max_examples=100, deadline=None)
@given(gap0=st.floats(0.0, 30.0), lv=st.floats(0.0, 20.0), la=st.floats(-5.0, 5.0),
       v=st.floats(0.0, 20.0), a=st.floats(-5.0, 5.0),
       dt=st.sampled_from([0.5, 1.0, 2.0]))
# a subnormal follower speed makes the speed lines cross at t == 0.0
@example(gap0=0.0, lv=0.0, la=0.0, v=5e-324, a=-2.0, dt=0.5)
def test_min_gap_in_step_matches_dense_sampling(gap0, lv, la, v, a, dt):
    def gap_at(t):
        if t == 0.0:
            return gap0
        return (gap0 + dyn.step_vehicle(lv, la, t, 20.0)[1]
                - dyn.step_vehicle(v, a, t, 20.0)[1])

    low, when = dyn.min_gap_in_step(gap0, gap_at(dt), lv, la, v, a, dt, 20.0)
    assert 0.0 <= when <= dt
    assert low == pytest.approx(gap_at(when), abs=1e-9)
    # exact minimum: never above any sample, and sampling a finite grid
    # can only miss it by the relative speed times the grid step
    sampled = _sampled_min_gap(gap0, lv, la, v, a, dt)
    assert low <= sampled + 1e-9
    assert low >= sampled - 40.0 * dt / 2000


def test_min_gap_in_step_finds_interior_overlap():
    # the follower closes from 10 m/s while braking, the leader pulls away
    # from rest: both end gaps are 4 m, yet at t=1 the bodies overlap by 1 m
    low, when = dyn.min_gap_in_step(4.0, 4.0, 0.0, 5.0, 10.0, -5.0, 2.0, 20.0)
    assert (low, when) == (pytest.approx(-1.0), pytest.approx(1.0))


# ---------------------------------------------------------------------------
# formation control


def _run_formation(vl, al_of_t, gaps, vs, steps):
    """Leader under a scripted accel schedule, followers under
    formation_accel; returns (gaps, speeds, leader speed, lowest gap seen,
    first step at which gaps are within 0.1 of d_h and speeds within 0.01)."""
    gaps, vs = list(gaps), list(vs)
    low = min(gaps)
    formed_at = None
    for t in range(steps):
        al = al_of_t(t, vl)
        lead_v2, lead_d = dyn.step_vehicle(vl, al, DT, PARAMS.v_max)
        prev_v, prev_a, prev_d = vl, al, lead_d
        for i, (g, v) in enumerate(zip(gaps, vs)):
            a = dyn.formation_accel(g, v, prev_v, prev_a, PARAMS, DT)
            v2, d = dyn.step_vehicle(v, a, DT, PARAMS.v_max)
            gaps[i] = g + prev_d - d
            vs[i] = v2
            prev_v, prev_a, prev_d = v, a, d
        vl = lead_v2
        low = min(low, min(gaps))
        spread = max(abs(v - vl) for v in vs)
        if formed_at is None and spread <= 0.01 \
           and all(abs(g - 1.0) <= 0.1 for g in gaps):
            formed_at = t + 1
    return gaps, vs, vl, low, formed_at


def test_formation_from_standing_queue():
    # three queued vehicles at lane headway converge to the platoon headway
    gaps, vs, _, low, formed_at = _run_formation(
        0.0, lambda t, v: 0.0, [1.5, 1.5], [0.0, 0.0], 20)
    assert formed_at is not None and formed_at <= 10
    assert low >= 1.0 - 1e-9
    for g in gaps:
        assert g == pytest.approx(1.0, abs=1e-3)


def test_formation_while_cruising():
    gaps, vs, _, low, formed_at = _run_formation(
        10.0, lambda t, v: 0.0, [1.5, 1.5], [10.0, 10.0], 20)
    assert formed_at is not None and formed_at <= 10
    assert low >= 1.0 - 1e-9
    for g in gaps:
        assert g == pytest.approx(1.0, abs=1e-3)


def test_formation_survives_leader_emergency_brake():
    gaps, vs, vl, low, _ = _run_formation(
        15.0, lambda t, v: -5.0, [1.2, 1.2], [15.0, 15.0], 10)
    assert vl == 0.0 and all(v == 0.0 for v in vs)
    assert low >= 1.0 - 1e-9


def test_formed_platoon_cruises_rigidly():
    gaps, vs, vl, low, _ = _run_formation(
        12.0, lambda t, v: 0.0, [1.0, 1.0], [12.0, 12.0], 20)
    assert low >= 1.0 - 1e-9
    for g in gaps:
        assert g == pytest.approx(1.0, abs=1e-9)
    for v in vs:
        assert v == pytest.approx(12.0, abs=1e-9)


def test_formation_catchup_from_behind():
    gaps, vs, vl, low, formed_at = _run_formation(
        8.0, lambda t, v: 0.0, [1.5], [5.0], 20)
    assert formed_at is not None and formed_at <= 15
    assert low >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# platoon sizing and footprints


def test_max_platoon_size_in_formation_zone():
    assert dyn.max_platoon_size(PARAMS, 200.0) == 33
    # bumper to bumper at formation headway: 33 * 5 + 32 * 1 and 34 * 5 + 33 * 1
    assert 33 * PARAMS.length + 32 * PARAMS.headway_platoon <= 200.0
    assert 34 * PARAMS.length + 33 * PARAMS.headway_platoon > 200.0
    assert dyn.max_platoon_size(PARAMS, 5.0) == 1


def test_rigid_offsets():
    assert dyn.rigid_offsets(3, PARAMS) == [0.0, 6.0, 12.0]


def test_singleton_footprint_rectangle():
    rects = dyn.platoon_footprint([(0.0, 0.0, 0.0)], PARAMS)
    assert len(rects) == 1
    got = {(round(x, 9), round(y, 9)) for x, y in rects[0]}
    assert got == {(-0.9, 0.0), (0.9, 0.0), (-0.9, -5.0), (0.9, -5.0)}


def test_three_vehicle_footprint_gaps():
    # rigid column heading north: bodies [9,14], [3,8], [-3,2] in y
    poses = [(0.0, 14.0, 0.0), (0.0, 8.0, 0.0), (0.0, 2.0, 0.0)]
    rects = dyn.platoon_footprint(poses, PARAMS)
    tops = sorted(r[:, 1].max() for r in rects)
    bots = sorted(r[:, 1].min() for r in rects)
    assert tops == [2.0, 8.0, 14.0]
    assert bots == [-3.0, 3.0, 9.0]


def test_straight_platoon_cells_match_raster_oracle():
    move = IntersectionLayout().movement("south-north")
    poses = np.stack(move.poses([14.0, 8.0, 2.0]), axis=1)
    rects = dyn.platoon_footprint(poses, PARAMS)
    grid = Grid(12)
    cells = occupied_cells(grid, rects)
    oracle = set()
    for r in rects:
        oracle |= raster_cells(r, -7.5, -7.5, grid.cell_size, 12, 12)
    assert cells == oracle
    # headway gaps are narrower than a cell, so each column is one run
    by_col = {}
    for row, col in cells:
        by_col.setdefault(col, []).append(row)
    for rows in by_col.values():
        rows.sort()
        assert rows == list(range(rows[0], rows[-1] + 1))


# ---------------------------------------------------------------------------
# bookkeeping types


def test_vehicle_exit_flag():
    v = dyn.Vehicle(vid=1, movement="south-north", arrival_time=0.0,
                    spawn_time=0.0, route_pos=0.0, speed=0.0)
    assert not v.exited
    v.exit_time = 42.0
    assert v.exited


def test_platoon_size_property():
    p = dyn.Platoon(pid=1, movement="south-north", target_size=3,
                    members=[4, 5, 6])
    assert p.size == 3
