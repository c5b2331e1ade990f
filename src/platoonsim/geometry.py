"""Intersection geometry: lanes, turning paths, body rectangles, and grid cells.

The intersection is a four-approach junction with three turn-dedicated incoming
lanes per approach (left / straight / right) and a square central coordination
zone.  All coordinates are metres in a frame whose origin is the zone centre;
+x points east and +y points north.  Headings follow the compass convention:
0 rad is north and angles grow clockwise, so east is pi/2.

Where a body sits on its path is one question, answered for a whole array
of arcs at once by Movement.poses; the path rasters and the state canvas
both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

APPROACHES = ("south", "west", "north", "east")
TURNS = ("left", "straight", "right")

def oriented_rect(center_x: float, center_y: float, length: float, width: float,
                  heading: float) -> np.ndarray:
    """Corners (4, 2) of a rectangle centred at (x, y) pointing along heading."""
    return oriented_rects([center_x], [center_y], length, width, [heading])[0]


def heading_vectors(heading) -> np.ndarray:
    """Unit forward vectors (n, 2) for a sequence of n compass headings.

    The sines and cosines come from `math`, one heading at a time, so each
    vector is the same float whichever numpy build runs.
    """
    heading = np.asarray(heading, dtype=float).ravel().tolist()
    return np.array([(math.sin(h), math.cos(h)) for h in heading]).reshape(-1, 2)


def oriented_rects(center_x, center_y, length, width, heading) -> np.ndarray:
    """Corners (n, 4, 2) of n rectangles; length and width may be scalars.

    Each rectangle takes the same float operations as it would alone, so
    batching changes no corner.
    """
    f = heading_vectors(heading)
    r = np.stack([f[:, 1], -f[:, 0]], axis=1)  # right-hand side of travel
    c = np.stack([np.asarray(center_x, dtype=float),
                  np.asarray(center_y, dtype=float)], axis=1)
    hl = 0.5 * np.asarray(length, dtype=float).reshape(-1, 1)
    hw = 0.5 * np.asarray(width, dtype=float).reshape(-1, 1)
    return np.stack([c + f * hl + r * hw,
                     c + f * hl - r * hw,
                     c - f * hl - r * hw,
                     c - f * hl + r * hw], axis=1)


def msd(speed: float, max_decel: float) -> float:
    """Minimum safe distance: stopping distance from speed at max_decel.

    msd = v^2 / (2 * b).  Raises ValueError outside the physical domain.
    """
    if speed < 0:
        raise ValueError(f"speed must be non-negative, got {speed}")
    if max_decel <= 0:
        raise ValueError(f"max_decel must be positive, got {max_decel}")
    return speed * speed / (2.0 * max_decel)


class _Line:
    """Straight path segment between two points."""

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        d = self.p1 - self.p0
        self.length = float(np.hypot(*d))
        self._dir = d / self.length
        self._heading = math.atan2(d[0], d[1]) % (2 * math.pi)

    def poses(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, heading) at arcs 0 <= s <= length."""
        return (self.p0[0] + self._dir[0] * s, self.p0[1] + self._dir[1] * s,
                np.full(s.shape, self._heading))


class _Arc:
    """Circular arc traversed from angle a0 by a signed sweep (ccw positive).

    Angles are standard math angles around the centre (anticlockwise from +x).
    """

    def __init__(self, center, radius: float, a0: float, sweep: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.a0 = float(a0)
        self.sweep = float(sweep)
        self.length = abs(sweep) * radius

    def poses(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, heading) at arcs 0 <= s <= length.

        Sines, cosines and the heading's atan2 come from `math`, one arc at
        a time: numpy's atan2 differs from it in the last bit on some
        inputs, and a pose must not depend on the numpy build.
        """
        a = (self.a0 + np.sign(self.sweep) * (s / self.radius)).tolist()
        cs = [(math.cos(v), math.sin(v)) for v in a]
        # the tangent is (-sin, cos) anticlockwise and (sin, -cos) clockwise
        turn = 1.0 if self.sweep >= 0 else -1.0
        heading = [math.atan2(-turn * sin, turn * cos) % (2 * math.pi)
                   for cos, sin in cs]
        cs = np.array(cs).reshape(-1, 2)
        return (self.center[0] + self.radius * cs[:, 0],
                self.center[1] + self.radius * cs[:, 1], np.array(heading))


def _rot_cw(p):
    """Rotate a point 90 degrees clockwise about the origin."""
    x, y = p
    return (y, -x)


@dataclass(frozen=True)
class Movement:
    """One origin-destination traffic movement through the coordination zone.

    `path` starts at the stop line (zone boundary) and ends at the zone exit.
    Arc length 0 is the stop line.  The formation zone extends the incoming
    lane straight behind the stop line for `formation_length` metres.
    """

    origin: str
    turn: str
    destination: str
    path: object = field(compare=False, repr=False)

    @property
    def key(self) -> str:
        return f"{self.origin}-{self.destination}"

    @property
    def length(self) -> float:
        return self.path.length

    def poses(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, heading) arrays at a flat array of arcs s from the stop line.

        s < 0 lies on the straight approach lane behind the stop line and
        s > length on the straight exit lane, so vehicle poses stay defined
        while a body straddles the zone boundary.
        """
        s = np.asarray(s, dtype=float).reshape(-1)
        on = np.minimum(np.maximum(s, 0.0), self.length)
        x, y, heading = self.path.poses(on)
        # straight on from the nearer end of the path; d is 0 on the path
        d = s - on
        f = heading_vectors(heading)
        return x + d * f[:, 0], y + d * f[:, 1], heading


class IntersectionLayout:
    """Four-approach intersection with turn-dedicated lanes.

    Right-hand traffic.  Incoming lanes per approach, innermost first:
    left turn, straight, right turn.  Straight movements cross the zone on
    their lane line; left turns follow a wide quarter arc spanning the zone;
    right turns follow a tight quarter arc hugging the nearest corner.
    """

    def __init__(self, lane_width: float = 2.5, zone_side: float = 15.0,
                 formation_length: float = 200.0):
        if zone_side != 6 * lane_width:
            raise ValueError(
                "zone side must equal six lane widths so the roadways meet the "
                f"zone exactly (got side {zone_side}, lane {lane_width})")
        self.lane_width = lane_width
        self.zone_side = zone_side
        self.formation_length = formation_length
        self.half = zone_side / 2.0
        self._movements = self._build_movements()
        self._by_key = {m.key: m for m in self._movements}

    # -- construction -----------------------------------------------------

    def _south_paths(self) -> dict[str, object]:
        w, h = self.lane_width, self.half
        x_left, x_straight, x_right = 0.5 * w, 1.5 * w, 2.5 * w
        straight = _Line((x_straight, -h), (x_straight, h))
        # right: quarter arc about the SE zone corner, clockwise
        right = _Arc(center=(h, -h), radius=h - x_right, a0=math.pi, sweep=-math.pi / 2)
        # left: quarter arc about the SW zone corner, anticlockwise
        left = _Arc(center=(-h, -h), radius=h + x_left, a0=0.0, sweep=math.pi / 2)
        return {"left": left, "straight": straight, "right": right}

    def _build_movements(self) -> tuple[Movement, ...]:
        # destination of each turn as seen from the south approach
        south_dest = {"left": "west", "straight": "north", "right": "east"}
        moves = []
        base = self._south_paths()
        for k, origin in enumerate(APPROACHES):
            for turn in TURNS:
                path = _rotated_path(base[turn], k)
                dest_idx = (APPROACHES.index(south_dest[turn]) + k) % 4
                moves.append(Movement(origin=origin, turn=turn,
                                      destination=APPROACHES[dest_idx], path=path))
        return tuple(moves)

    # -- queries -----------------------------------------------------------

    @property
    def movements(self) -> tuple[Movement, ...]:
        return self._movements

    def movement(self, key: str) -> Movement:
        return self._by_key[key]

    @property
    def movement_keys(self) -> tuple[str, ...]:
        return tuple(m.key for m in self._movements)


def _rotated_path(path, k: int):
    """Copy of a path rotated clockwise k quarter turns about the origin."""
    k %= 4
    if k == 0:
        return path
    if isinstance(path, _Line):
        p0, p1 = path.p0, path.p1
        for _ in range(k):
            p0, p1 = _rot_cw(p0), _rot_cw(p1)
        return _Line(p0, p1)
    c, a0 = path.center, path.a0
    for _ in range(k):
        c = _rot_cw(c)
        a0 -= math.pi / 2
    return _Arc(c, path.radius, a0, path.sweep)


@dataclass(frozen=True)
class Grid:
    """Square cell decomposition of the coordination zone.

    Cell (row, col) covers [west + col*cell, ...) x [south + row*cell, ...);
    rows grow northward, columns eastward.
    """

    granularity: int
    zone_side: float = 15.0

    def __post_init__(self):
        if self.granularity < 1:
            raise ValueError("granularity must be a positive integer")

    @property
    def cell_size(self) -> float:
        return self.zone_side / self.granularity


def rect_cells(quads, x0: float, y0: float, cell: float, n_cols: int, n_rows: int,
               eps: float = 1e-9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of a uniform grid that each convex quad overlaps with positive area.

    `quads` is a stack (n, 4, 2) of corners in order around each quad.  The
    grid's cell (row, col) spans [x0 + col*cell, x0 + (col+1)*cell) x
    [y0 + row*cell, ...).  Returns int arrays (owner, row, col), one entry
    per hit, ordered by owner and then row-major; `owner` indexes the quad,
    so per-quad values gather as `values[owner]`.

    A separating-axis test runs on every candidate cell at once: overlap
    must exceed eps on x, on y and on both edge normals of the quad; an
    edge of 1e-12 or shorter gives no normal.  A quad's candidates are its
    bounding box clipped to the grid, padded to the widest box in the batch.
    """
    q = np.asarray(quads, dtype=float)
    if q.ndim != 3 or q.shape[1:] != (4, 2):
        raise ValueError(f"quads must be a (n, 4, 2) stack, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("quad corners must be finite")
    xs, ys = q[:, :, 0], q[:, :, 1]
    c_lo = np.clip(np.floor((xs.min(axis=1) - x0) / cell), 0, n_cols)
    c_hi = np.clip(np.floor((xs.max(axis=1) - x0) / cell + 1e-12), -1, n_cols - 1)
    r_lo = np.clip(np.floor((ys.min(axis=1) - y0) / cell), 0, n_rows)
    r_hi = np.clip(np.floor((ys.max(axis=1) - y0) / cell + 1e-12), -1, n_rows - 1)
    live = np.flatnonzero((c_hi >= c_lo) & (r_hi >= r_lo))
    if live.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty

    # candidate cells of the live quads, broadcast as (quad, row, col)
    def per_quad(v):
        return v[:, None, None]

    q = q[live]
    xs, ys = q[:, :, 0], q[:, :, 1]
    c_lo, c_hi, r_lo, r_hi = (per_quad(v[live].astype(np.int64))
                              for v in (c_lo, c_hi, r_lo, r_hi))
    rows = r_lo + np.arange((r_hi - r_lo).max() + 1)[None, :, None]
    cols = c_lo + np.arange((c_hi - c_lo).max() + 1)[None, None, :]
    cx0 = x0 + cols * cell
    cx1 = cx0 + cell
    cy0 = y0 + rows * cell
    cy1 = cy0 + cell
    keep = (rows <= r_hi) & (cols <= c_hi)
    # grid-aligned axes
    keep &= (np.minimum(per_quad(xs.max(axis=1)), cx1)
             - np.maximum(per_quad(xs.min(axis=1)), cx0) > eps)
    keep &= (np.minimum(per_quad(ys.max(axis=1)), cy1)
             - np.maximum(per_quad(ys.min(axis=1)), cy0) > eps)
    # the quad's two edge normals
    for k in (1, 3):
        e = q[:, k] - q[:, 0]
        norm = np.array([math.hypot(ex, ey) for ex, ey in e.tolist()])
        has_axis = norm > 1e-12
        norm[~has_axis] = 1.0
        ax, ay = e[:, 0] / norm, e[:, 1] / norm
        pr = xs * ax[:, None] + ys * ay[:, None]
        a, b = per_quad(ax), per_quad(ay)
        p00, p10 = cx0 * a + cy0 * b, cx1 * a + cy0 * b
        p11, p01 = cx1 * a + cy1 * b, cx0 * a + cy1 * b
        pc_hi = np.maximum(np.maximum(p00, p10), np.maximum(p11, p01))
        pc_lo = np.minimum(np.minimum(p00, p10), np.minimum(p11, p01))
        overlap = (np.minimum(per_quad(pr.max(axis=1)), pc_hi)
                   - np.maximum(per_quad(pr.min(axis=1)), pc_lo))
        keep &= (overlap > eps) | ~per_quad(has_axis)
    m, dr, dc = np.nonzero(keep)
    return live[m], r_lo[m, 0, 0] + dr, c_lo[m, 0, 0] + dc


@lru_cache(maxsize=8)
def default_layout(lane_width: float = 2.5, zone_side: float = 15.0,
                   formation_length: float = 200.0) -> IntersectionLayout:
    return IntersectionLayout(lane_width, zone_side, formation_length)
