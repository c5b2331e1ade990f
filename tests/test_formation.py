"""Formation-layer canvas encoding, join-time estimates, and reward factors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonsim.config import SimConfig
from platoonsim.dynamics import VehicleParams
from platoonsim.formation import (CANVAS_CELLS, FactorNormalizer,
                                  FormationCanvas, FuelModel, SparseCanvas,
                                  delay_factor, formation_reward,
                                  penalized_wait, time_to_join)
from platoonsim.geometry import default_layout
from platoonsim.simulation import run_episode

from oracles import scalar_canvas

PARAMS = VehicleParams()
LAYOUT = default_layout()
CANVAS = FormationCanvas(LAYOUT, PARAMS, horizon=60.0)


def bodies(*rows):
    """The encoder's (n, 5) stack from rows (x, y, heading, speed, ttj)."""
    return np.array(rows, dtype=float).reshape(-1, 5)


# -- canvas geometry ----------------------------------------------------------


def test_canvas_shape_and_channels():
    state = CANVAS.encode([], "south-north")
    assert state.shape == (4, CANVAS_CELLS, CANVAS_CELLS)
    dense = np.asarray(state)
    assert dense.shape == (4, 160, 160)
    assert dense[0].sum() == 0  # no vehicles
    assert dense[3].sum() > 0   # mask always present


def test_south_straight_lane_mask_is_one_column_of_77():
    # lane strip x in [2.5, 5.0] maps to column 81; rows 0..76 cover the
    # 192.5 m of approach inside the canvas
    state = CANVAS.encode([], "south-north")
    dense = np.asarray(state)
    rows, cols = np.nonzero(dense[3])
    assert set(cols.tolist()) == {81}
    assert rows.tolist() == list(range(77))


def test_every_lane_mask_has_77_cells():
    for m in LAYOUT.movements:
        dense = np.asarray(CANVAS.encode([], m.key))
        assert int(dense[3].sum()) == 77, m.key


def test_masks_of_same_approach_are_adjacent_columns():
    left = np.nonzero(np.asarray(CANVAS.encode([], "south-west"))[3])
    straight = np.nonzero(np.asarray(CANVAS.encode([], "south-north"))[3])
    right = np.nonzero(np.asarray(CANVAS.encode([], "south-east"))[3])
    assert set(left[1].tolist()) == {80}
    assert set(straight[1].tolist()) == {81}
    assert set(right[1].tolist()) == {82}


def test_vehicle_occupancy_cells_frozen():
    # front bumper at the south stop line (3.75, -7.5) heading north:
    # body spans y in [-12.5, -7.5], x in [2.85, 4.65]
    # => column 81, rows 75 and 76
    veh = bodies((3.75, -7.5, 0.0, 10.0, 30.0))
    dense = np.asarray(CANVAS.encode(veh, "south-north"))
    rows, cols = np.nonzero(dense[0])
    assert set(zip(rows.tolist(), cols.tolist())) == {(75, 81), (76, 81)}
    assert dense[1, 75, 81] == pytest.approx(0.5)    # 10 / 20
    assert dense[2, 75, 81] == pytest.approx(0.5)    # 30 s / 60 s
    # scalar channels are zero wherever occupancy is zero
    assert np.all(dense[1][dense[0] == 0] == 0)
    assert np.all(dense[2][dense[0] == 0] == 0)


@pytest.mark.parametrize("later", [0, 1])
def test_overlapping_bodies_store_each_cell_once_with_later_values(later):
    # A covers rows 75-76 and B rows 74-75 of column 81; row 75 is shared
    a = (3.75, -7.5, 0.0, 10.0, 30.0)
    b = (3.75, -10.0, 0.0, 4.0, 12.0)
    rows_in = (b, a) if later == 0 else (a, b)
    state = CANVAS.encode(bodies(*rows_in), "south-north")
    cells = list(zip(state.rows.tolist(), state.cols.tolist()))
    assert sorted(cells) == [(74, 81), (75, 81), (76, 81)]
    last = rows_in[-1]
    shared = cells.index((75, 81))
    assert state.speed_vals[shared] == last[3] / PARAMS.v_max
    assert state.ttj_vals[shared] == last[4] / 60.0
    ch, r, c, _ = state.cells()
    assert len(set(zip(ch.tolist(), r.tolist(), c.tolist()))) == ch.size
    dense = state.dense()
    assert dense[1, 75, 81] == last[3] / PARAMS.v_max
    assert dense[2, 75, 81] == last[4] / 60.0


def test_vehicle_beyond_canvas_is_cropped_out():
    veh = bodies((3.75, -203.0, 0.0, 5.0, 10.0))
    dense = np.asarray(CANVAS.encode(veh, "south-north"))
    assert dense[0].sum() == 0


def test_vehicle_straddling_canvas_edge_keeps_inside_cells():
    veh = bodies((3.75, -198.0, 0.0, 5.0, 10.0))
    dense = np.asarray(CANVAS.encode(veh, "south-north"))
    rows, cols = np.nonzero(dense[0])
    assert set(zip(rows.tolist(), cols.tolist())) == {(0, 81)}


def test_speed_and_ttj_clamped_to_unit_range():
    veh = bodies((3.75, -50.0, 0.0, 25.0, 600.0))
    dense = np.asarray(CANVAS.encode(veh, "south-north"))
    assert dense[1].max() == 1.0
    assert dense[2].max() == 1.0


def test_zone_vehicle_lands_in_central_block():
    # zone cells are rows/cols 77..82
    veh = bodies((0.0, 2.5, math.pi / 2, 20.0, 0.0))
    dense = np.asarray(CANVAS.encode(veh, "west-east"))
    rows, cols = np.nonzero(dense[0])
    assert rows.size > 0
    assert all(77 <= r <= 82 for r in rows.tolist())
    assert all(77 <= c <= 82 for c in cols.tolist())


def test_unknown_movement_rejected():
    with pytest.raises(KeyError):
        CANVAS.encode([], "south-south")


def test_sparse_state_stays_small():
    vehicles = bodies(*[(3.75, -7.5 - 6.0 * i, 0.0, 10.0, 5.0) for i in range(30)])
    state = CANVAS.encode(vehicles, "south-north")
    assert isinstance(state, SparseCanvas)
    assert state.nbytes < 10_000
    dense = np.asarray(state)
    assert dense.nbytes == 4 * 160 * 160 * 8


def test_dense_matches_manual_scatter():
    veh = bodies((-3.75, 50.0, math.pi, 8.0, 12.0))
    state = CANVAS.encode(veh, "north-south")
    dense = np.asarray(state)
    manual = np.zeros((4, 160, 160))
    manual[0, state.rows, state.cols] = 1.0
    manual[1, state.rows, state.cols] = state.speed_vals
    manual[2, state.rows, state.cols] = state.ttj_vals
    manual[3, state.mask_rows, state.mask_cols] = 1.0
    np.testing.assert_array_equal(dense, manual)


def test_encode_matches_scalar_oracle_on_episode_snapshots(monkeypatch):
    # every decision state of a short calibrating coor-plt desk episode
    snapshots = []
    encode = FormationCanvas.encode

    def recording(canvas, stack, target_movement):
        snapshots.append((canvas, np.array(stack), target_movement))
        return encode(canvas, stack, target_movement)

    monkeypatch.setattr(FormationCanvas, "encode", recording)
    run_episode(SimConfig.desk(condition=2, T=90.0, policy="coor-plt"),
                seed=5, calibrating=True, normalizer=FactorNormalizer())
    assert len(snapshots) >= 10
    assert sum(len(stack) for _, stack, _ in snapshots) >= 100
    for canvas, stack, target in snapshots:
        assert stack.shape[1] == 5
        state = encode(canvas, stack, target)
        want, nnz = scalar_canvas(stack, target, canvas.layout,
                                  canvas.params, canvas.horizon)
        assert state.rows.size == nnz
        assert np.array_equal(state.dense(), want)


# -- time to join -------------------------------------------------------------


def _euler_time_to_cover(distance, speed, a, cap, dt=1e-4):
    t, pos, v = 0.0, 0.0, speed
    while pos < distance:
        v = min(cap, v + a * dt)
        pos += v * dt
        t += dt
    return t


def test_time_to_join_frozen_values():
    assert time_to_join(0.0, 10.0, PARAMS) == 0.0
    assert time_to_join(-5.0, 10.0, PARAMS) == 0.0
    # from rest: 10 m in t with d = 2.5 t^2 => t = 2
    assert time_to_join(10.0, 0.0, PARAMS) == pytest.approx(2.0)
    # exactly the 40 m it takes to reach the 20 m/s cap from rest
    assert time_to_join(40.0, 0.0, PARAMS) == pytest.approx(4.0)
    # 40 m accelerating + 60 m cruising
    assert time_to_join(100.0, 0.0, PARAMS) == pytest.approx(7.0)
    # already at the cap: pure cruise
    assert time_to_join(55.0, 20.0, PARAMS) == pytest.approx(2.75)


@given(distance=st.floats(0.5, 250.0), speed=st.floats(0.0, 20.0))
@settings(max_examples=30, deadline=None)
def test_time_to_join_matches_euler_oracle(distance, speed):
    t = time_to_join(distance, speed, PARAMS)
    t_euler = _euler_time_to_cover(distance, speed, PARAMS.a_max, PARAMS.v_max)
    assert t == pytest.approx(t_euler, abs=5e-3)


# -- reward factors -----------------------------------------------------------


def test_penalized_wait_quadratic():
    assert penalized_wait(0.0, 60.0) == 0.0
    assert penalized_wait(60.0, 60.0) == 1.0
    assert penalized_wait(30.0, 60.0) == pytest.approx(0.25)
    assert penalized_wait(120.0, 60.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        penalized_wait(-1.0, 60.0)
    with pytest.raises(ValueError):
        penalized_wait(10.0, 0.0)


def test_delay_factor_bounds():
    assert delay_factor(20.0, 20.0) == 0.0
    assert delay_factor(0.0, 20.0) == 1.0
    assert delay_factor(15.0, 20.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        delay_factor(21.0, 20.0)
    with pytest.raises(ValueError):
        delay_factor(-0.1, 20.0)


def test_fuel_increment_frozen_values():
    fuel = FuelModel()
    assert fuel.increment(0.0, 0.0, 1.0) == pytest.approx(0.5)
    assert fuel.increment(20.0, 0.0, 1.0) == pytest.approx(5.5)
    assert fuel.increment(10.0, 5.0, 1.0) == pytest.approx(8.0)
    # braking burns no tractive fuel
    assert fuel.increment(10.0, -5.0, 1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        fuel.increment(10.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fuel.increment(-1.0, 0.0, 1.0)


def test_fuel_transit_magnitude():
    # representative transit: launch 0 -> 20 m/s (4 s), 9 s cruise, 30 s idle;
    # closed-form integral gives 32 + 49.5 + 15 = 96.5 mL
    fuel = FuelModel()
    dt, total, v = 0.001, 0.0, 0.0
    for _ in range(4000):
        total += fuel.increment(v, 5.0, dt)
        v = min(20.0, v + 5.0 * dt)
    for _ in range(9000):
        total += fuel.increment(v, 0.0, dt)
    for _ in range(30000):
        total += fuel.increment(0.0, 0.0, dt)
    assert total == pytest.approx(96.5, abs=0.5)
    assert 80.0 <= total <= 160.0


def test_normalizer_requires_calibration():
    norm = FactorNormalizer()
    assert not norm.calibrated
    with pytest.raises(RuntimeError, match="calibrat"):
        norm.normalize("wait", 0.5)


def test_normalizer_scales_and_clamps():
    norm = FactorNormalizer()
    for v in (2.0, 10.0):
        norm.observe("wait", v)
    assert norm.normalize("wait", 6.0) == pytest.approx(0.5)
    assert norm.normalize("wait", 0.0) == 0.0
    assert norm.normalize("wait", 50.0) == 1.0


def test_normalizer_degenerate_range_maps_to_zero():
    norm = FactorNormalizer()
    norm.observe("fuel", 3.0)
    assert norm.normalize("fuel", 3.0) == 0.0
    assert norm.normalize("fuel", 99.0) == 0.0


def test_normalizer_round_trip_and_validation():
    norm = FactorNormalizer()
    for name, v in (("wait", 1.0), ("wait", 4.0), ("delay", 0.0),
                    ("delay", 1.0), ("fuel", 10.0), ("fuel", 90.0)):
        norm.observe(name, v)
    assert norm.calibrated
    clone = FactorNormalizer.from_dict(norm.to_dict())
    assert clone.normalize("fuel", 50.0) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="unknown factor"):
        norm.observe("noise", 1.0)
    with pytest.raises(ValueError, match="unknown factor"):
        FactorNormalizer({"noise": (0.0, 1.0)})


def test_formation_reward_frozen_value():
    # (-1 * 0.6 + -1 * 0.2 + -1 * 0.8) / 2 = -0.8
    r = formation_reward([0.2, 0.4], [0.1, 0.1], [0.3, 0.5])
    assert r == pytest.approx(-0.8)


def test_formation_reward_singleton():
    assert formation_reward([0.0], [0.0], [0.0]) == 0.0
    assert formation_reward([1.0], [1.0], [1.0]) == pytest.approx(-3.0)


def test_formation_reward_shape_errors():
    with pytest.raises(ValueError):
        formation_reward([], [], [])
    with pytest.raises(ValueError):
        formation_reward([0.1], [0.1, 0.2], [0.1])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.integers(0, 5), st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None)
def test_formation_reward_monotone_in_each_factor(waits, idx, bump):
    idx %= len(waits)
    delays = [0.2] * len(waits)
    fuels = [0.3] * len(waits)
    base = formation_reward(waits, delays, fuels)
    worse = list(waits)
    worse[idx] += bump
    assert formation_reward(worse, delays, fuels) < base
