"""Geometry tests: stopping distances, path poses, conflict points, cell occupancy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import geometry as geo

from oracles import (ConflictMap, analytic_conflicts, conflict_points,
                     euler_stop_distance, occupied_cells, raster_cells,
                     scalar_oriented_rect, scalar_pose, scalar_rect_cells)

LAYOUT = geo.default_layout()
L_C = 5.0  # vehicle length, m


@pytest.fixture(scope="module")
def layout():
    return geo.IntersectionLayout()


@pytest.fixture(scope="module")
def cmap(layout):
    return ConflictMap(layout)


# ---------------------------------------------------------------------------
# msd


def test_msd_zero_speed():
    assert geo.msd(0.0, 5.0) == 0.0


def test_msd_closed_form_matches_integration():
    # frozen: v=20, b=5 -> 40 m; Euler oracle agrees within 0.1 m
    assert geo.msd(20.0, 5.0) == pytest.approx(40.0, abs=1e-12)
    assert abs(geo.msd(20.0, 5.0) - euler_stop_distance(20.0, 5.0)) < 0.1
    assert geo.msd(10.0, 5.0) == pytest.approx(10.0)
    assert abs(geo.msd(10.0, 5.0) - euler_stop_distance(10.0, 5.0)) < 0.1


def test_msd_domain_errors():
    with pytest.raises(ValueError):
        geo.msd(-1.0, 5.0)
    with pytest.raises(ValueError):
        geo.msd(10.0, 0.0)


@given(st.floats(0, 30), st.floats(0.5, 10))
def test_msd_monotone_in_speed(v, b):
    assert geo.msd(v + 1.0, b) > geo.msd(v, b)


# ---------------------------------------------------------------------------
# layout structure


def test_twelve_movements_with_correct_destinations(layout):
    assert len(layout.movements) == 12
    # right-hand traffic turn destinations
    assert layout.movement("south-north").turn == "straight"
    assert layout.movement("south-west").turn == "left"
    assert layout.movement("south-east").turn == "right"
    assert layout.movement("north-east").turn == "left"
    assert layout.movement("west-north").turn == "left"
    assert layout.movement("east-south").turn == "left"


def test_straight_path_geometry(layout):
    m = layout.movement("south-north")
    assert m.length == pytest.approx(15.0)
    x, y, h = m.poses([0.0, 15.0])
    assert (x[0], y[0]) == pytest.approx((3.75, -7.5))
    assert h[0] == pytest.approx(0.0)  # north
    assert (x[1], y[1]) == pytest.approx((3.75, 7.5))


def test_turn_arc_lengths_and_exit_headings(layout):
    right = layout.movement("south-east")
    assert right.length == pytest.approx(math.pi / 2 * 1.25)
    _, _, h = right.poses([right.length])
    assert h[0] == pytest.approx(math.pi / 2)  # exits eastbound
    left = layout.movement("south-west")
    assert left.length == pytest.approx(math.pi / 2 * 8.75)
    x, y, h = left.poses([left.length])
    assert h[0] == pytest.approx(3 * math.pi / 2)  # exits westbound
    assert (x[0], y[0]) == pytest.approx((-7.5, 1.25))


def test_pose_extends_beyond_zone(layout):
    m = layout.movement("south-north")
    x, y, h = m.poses([-10.0, 20.0])
    assert (x[0], y[0]) == pytest.approx((3.75, -17.5))
    assert (x[1], y[1]) == pytest.approx((3.75, 12.5))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_poses_match_scalar_pose_bit_for_bit(data):
    # every movement, from the formation-zone entry to two body lengths past
    # the zone exit, with both ends of the zone path always included
    for m in LAYOUT.movements:
        arcs = data.draw(st.lists(
            st.floats(-LAYOUT.formation_length, m.length + 2 * L_C),
            max_size=20), label=m.key) + [0.0, m.length]
        x, y, h = m.poses(arcs)
        assert x.shape == y.shape == h.shape == (len(arcs),)
        got = list(zip(x.tolist(), y.tolist(), h.tolist()))
        assert got == [scalar_pose(m, s) for s in arcs], m.key


# ---------------------------------------------------------------------------
# conflict points


def test_crossing_straights_single_conflict_near_center(layout):
    cps = conflict_points(layout.movement("south-north"),
                          layout.movement("west-east"))
    assert len(cps) == 1
    cp = cps[0]
    # frozen from the closed-form oracle
    assert cp.x == pytest.approx(3.75, abs=0.02)
    assert cp.y == pytest.approx(-3.75, abs=0.02)
    assert cp.arc_a == pytest.approx(3.75, abs=0.02)
    assert cp.arc_b == pytest.approx(11.25, abs=0.02)
    assert abs(cp.x) < layout.zone_side / 2 and abs(cp.y) < layout.zone_side / 2


def test_opposing_straights_never_conflict(layout):
    cps = conflict_points(layout.movement("south-north"),
                          layout.movement("north-south"))
    assert cps == []


def test_left_turn_conflicts_frozen_values(layout):
    # south-north straight vs east-south left: frozen oracle location
    cps = conflict_points(layout.movement("east-south"),
                          layout.movement("south-north"))
    assert len(cps) == 1
    assert cps[0].x == pytest.approx(3.75, abs=0.02)
    assert cps[0].y == pytest.approx(0.4057, abs=0.02)
    assert cps[0].arc_a == pytest.approx(3.8755, abs=0.02)
    assert cps[0].arc_b == pytest.approx(7.9057, abs=0.02)
    # adjacent left-left crossing
    cps = conflict_points(layout.movement("south-west"),
                          layout.movement("west-north"))
    assert len(cps) == 1
    assert cps[0].x == pytest.approx(-2.9931, abs=0.02)
    assert cps[0].y == pytest.approx(0.0, abs=0.02)


def test_conflict_map_matches_analytic_oracle(layout, cmap):
    oracle = analytic_conflicts()
    assert set(cmap.pairs()) == set(oracle)
    assert cmap.pair_count == 16
    for (ka, kb), hits in oracle.items():
        got = cmap.between(ka, kb)
        assert len(got) == len(hits)
        for cp, (x, y, sa, sb) in zip(got, sorted(hits, key=lambda h: h[2])):
            assert cp.x == pytest.approx(x, abs=0.02)
            assert cp.y == pytest.approx(y, abs=0.02)
            assert cp.arc_a == pytest.approx(sa, abs=0.02)
            assert cp.arc_b == pytest.approx(sb, abs=0.02)


def test_per_movement_conflict_counts(cmap, layout):
    for m in layout.movements:
        n = len(cmap.conflicts_of(m.key))
        if m.turn == "right":
            assert n == 0
        else:
            assert n == 4


def test_between_is_symmetric(cmap):
    ab = cmap.between("south-north", "west-east")
    ba = cmap.between("west-east", "south-north")
    assert len(ab) == len(ba) == 1
    assert ab[0].arc_a == ba[0].arc_b
    assert ab[0].arc_b == ba[0].arc_a


# ---------------------------------------------------------------------------
# grid occupancy


def test_small_body_centered_in_one_cell():
    g = geo.Grid(granularity=12)
    # cell (6, 6) spans [0, 1.25) x [0, 1.25); 1x1 body centred inside it
    rect = geo.oriented_rect(0.625, 0.625, 1.0, 1.0, heading=0.0)
    assert occupied_cells(g, [rect]) == {(6, 6)}


def test_vehicle_column_occupancy_depends_on_offset():
    g = geo.Grid(granularity=12)
    # 5 m long, 1 m wide body aligned with a column; cell size 1.25 m
    aligned = geo.oriented_rect(0.625, 0.0, 5.0, 1.0, heading=0.0)
    assert len(occupied_cells(g, [aligned])) == 4  # 5 m = exactly 4 cells
    shifted = geo.oriented_rect(0.625, 0.3, 5.0, 1.0, heading=0.0)
    assert len(occupied_cells(g, [shifted])) == 5


def test_occupancy_matches_sampling_oracle():
    g6, g12 = geo.Grid(6), geo.Grid(12)
    rng = np.random.default_rng(7)
    for _ in range(25):
        cx, cy = rng.uniform(-6, 6, size=2)
        heading = rng.uniform(0, 2 * math.pi)
        rect = geo.oriented_rect(cx, cy, 5.0, 1.8, heading)
        for g in (g6, g12):
            got = occupied_cells(g, [rect])
            want = raster_cells(rect, -7.5, -7.5, g.cell_size,
                                g.granularity, g.granularity)
            assert got == want, (cx, cy, heading, g.granularity)


@given(st.floats(-6, 6), st.floats(-6, 6), st.floats(0, 2 * math.pi))
@settings(max_examples=40, deadline=None)
def test_refining_grid_stays_inside_coarse_cells(cx, cy, heading):
    rect = geo.oriented_rect(cx, cy, 5.0, 1.8, heading)
    coarse = occupied_cells(geo.Grid(6), [rect])
    fine = occupied_cells(geo.Grid(12), [rect])
    for (r, c) in fine:
        assert (r // 2, c // 2) in coarse


def test_rect_outside_zone_occupies_nothing():
    g = geo.Grid(12)
    rect = geo.oriented_rect(0.0, -30.0, 5.0, 1.8, heading=0.0)
    assert occupied_cells(g, [rect]) == set()


# -- batched raster against the scalar oracle -----------------------------------

# (x0, cell, cells per side): the formation canvas and four zone grids
RASTER_GRIDS = [(-200.0, 2.5, 160)] + [(-7.5, 15.0 / g, g) for g in (3, 6, 12, 24)]


@st.composite
def grid_quad(draw, grid):
    """A quad near `grid`: partly or fully off it now and then."""
    x0, cell, n = grid
    kind = draw(st.sampled_from(("body", "snapped", "sliver", "parallelogram")))
    if kind == "snapped":
        # axis-aligned, every corner on a cell edge, up to two cells off-grid
        i, k = draw(st.integers(-2, n + 2)), draw(st.integers(-2, n + 2))
        j, m = i + draw(st.integers(0, 6)), k + draw(st.integers(0, 6))
        xa, xb, ya, yb = (x0 + v * cell for v in (i, j, k, m))
        return np.array([[xa, ya], [xb, ya], [xb, yb], [xa, yb]])
    reach = 2 * cell + 6.0
    cx = draw(st.floats(x0 - reach, x0 + n * cell + reach))
    cy = draw(st.floats(x0 - reach, x0 + n * cell + reach))
    heading = draw(st.one_of(st.floats(0, 2 * math.pi),
                             st.sampled_from((0.0, 0.5 * math.pi, math.pi))))
    if kind == "body":
        return scalar_oriented_rect(cx, cy, draw(st.floats(0, 12)),
                                    draw(st.floats(0, 4)), heading)
    if kind == "sliver":
        # the 0.05 m march step, or the shorter last step at a path's end
        length = draw(st.one_of(st.just(0.05), st.floats(0, 0.05)))
        return scalar_oriented_rect(cx, cy, length, 1.8, heading)
    u = np.array(draw(st.lists(st.floats(-5, 5), min_size=2, max_size=2)))
    v = np.array(draw(st.lists(st.floats(-5, 5), min_size=2, max_size=2)))
    p0 = np.array([cx, cy])
    return np.array([p0, p0 + u, p0 + u + v, p0 + v])


@st.composite
def raster_case(draw):
    grid = draw(st.sampled_from(RASTER_GRIDS))
    return grid, draw(st.lists(grid_quad(grid), min_size=1, max_size=6))


@given(raster_case())
@settings(max_examples=300, deadline=None)
def test_batched_rect_cells_matches_scalar_oracle(case):
    (x0, cell, n), quads = case
    owner, rows, cols = geo.rect_cells(np.array(quads), x0, x0, cell, n, n)
    assert np.all(np.diff(owner) >= 0)
    for k, quad in enumerate(quads):
        mine = list(zip(rows[owner == k].tolist(), cols[owner == k].tolist()))
        assert mine == sorted(scalar_rect_cells(quad, x0, x0, cell, n, n)), k


def test_oriented_rects_reproduce_scalar_corners():
    rng = np.random.default_rng(3)
    cx, cy = rng.uniform(-200, 200, (2, 500))
    length, heading = rng.uniform(0, 6, 500), rng.uniform(0, 2 * math.pi, 500)
    got = geo.oriented_rects(cx, cy, length, 1.8, heading)
    want = [scalar_oriented_rect(*args, 1.8, h)
            for *args, h in zip(cx, cy, length, heading)]
    assert np.array_equal(got, np.array(want))


def test_rect_cells_wants_a_stack_of_finite_quads():
    rect = geo.oriented_rect(0.0, 0.0, 5.0, 1.8, 0.0)
    with pytest.raises(ValueError):
        geo.rect_cells(rect, -7.5, -7.5, 1.25, 12, 12)
    with pytest.raises(ValueError):
        geo.rect_cells(np.full((1, 4, 2), np.nan), -7.5, -7.5, 1.25, 12, 12)
    owner, rows, cols = geo.rect_cells(np.zeros((0, 4, 2)), -7.5, -7.5, 1.25, 12, 12)
    assert owner.size == rows.size == cols.size == 0


def test_grid_validation():
    with pytest.raises(ValueError):
        geo.Grid(granularity=0)


def test_layout_validation():
    with pytest.raises(ValueError):
        geo.IntersectionLayout(lane_width=3.0, zone_side=15.0)
