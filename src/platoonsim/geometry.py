"""Intersection geometry: lanes, turning paths, conflict points, and grid cells.

The intersection is a four-approach junction with three turn-dedicated incoming
lanes per approach (left / straight / right) and a square central coordination
zone.  All coordinates are metres in a frame whose origin is the zone centre;
+x points east and +y points north.  Headings follow the compass convention:
0 rad is north and angles grow clockwise, so east is pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

APPROACHES = ("south", "west", "north", "east")
TURNS = ("left", "straight", "right")

# Sampling resolution (m) used when marching trajectories for conflict search.
MARCH_STEP = 0.01


def heading_vector(heading: float) -> np.ndarray:
    """Unit forward vector for a compass heading (0 = north, clockwise)."""
    return np.array([math.sin(heading), math.cos(heading)])


def oriented_rect(center_x: float, center_y: float, length: float, width: float,
                  heading: float) -> np.ndarray:
    """Corners (4, 2) of a rectangle centred at (x, y) pointing along heading."""
    return oriented_rects([center_x], [center_y], length, width, [heading])[0]


def heading_vectors(heading) -> np.ndarray:
    """Unit forward vectors (n, 2) for a sequence of n compass headings.

    The sines and cosines come from `math`, one heading at a time, so each
    vector is the float `heading_vector` gives whichever numpy build runs.
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


def mcd(d1: float, d2: float) -> float:
    """Minimum coordination distance of a conflict pair: min of the two MSDs."""
    if d1 < 0 or d2 < 0:
        raise ValueError("stopping distances must be non-negative")
    return min(d1, d2)


class _Line:
    """Straight path segment between two points."""

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        d = self.p1 - self.p0
        self.length = float(np.hypot(*d))
        self._dir = d / self.length
        self._heading = math.atan2(d[0], d[1]) % (2 * math.pi)

    def point(self, s: float) -> np.ndarray:
        return self.p0 + self._dir * s

    def heading(self, s: float) -> float:
        return self._heading

    def sample(self, ss: np.ndarray) -> np.ndarray:
        return self.p0[None, :] + ss[:, None] * self._dir[None, :]


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

    def _angle(self, s):
        return self.a0 + np.sign(self.sweep) * (s / self.radius)

    def point(self, s: float) -> np.ndarray:
        a = self._angle(s)
        return self.center + self.radius * np.array([math.cos(a), math.sin(a)])

    def heading(self, s: float) -> float:
        a = self._angle(s)
        if self.sweep >= 0:  # anticlockwise: tangent (-sin, cos)
            vx, vy = -math.sin(a), math.cos(a)
        else:
            vx, vy = math.sin(a), -math.cos(a)
        return math.atan2(vx, vy) % (2 * math.pi)

    def sample(self, ss: np.ndarray) -> np.ndarray:
        a = self._angle(ss)
        return self.center[None, :] + self.radius * np.stack([np.cos(a), np.sin(a)], axis=1)


def _rot_cw(p):
    """Rotate a point 90 degrees clockwise about the origin."""
    x, y = p
    return (y, -x)


@dataclass(frozen=True)
class Movement:
    """One origin-destination traffic movement through the coordination zone.

    `path` starts at the stop line (zone boundary) and ends at the zone exit.
    Arc length 0 is the stop line.  `entry_lane_heading` is the heading of the
    incoming lane, which the formation zone extends straight behind the stop
    line for `formation_length` metres.
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

    @property
    def entry_heading(self) -> float:
        return self.path.heading(0.0)

    def pose(self, s: float) -> tuple[float, float, float]:
        """(x, y, heading) at arc length s measured from the stop line.

        s < 0 lies on the straight approach lane behind the stop line and
        s > length on the straight exit lane, so vehicle poses stay defined
        while a body straddles the zone boundary.
        """
        if s < 0:
            p = self.path.point(0.0) + s * heading_vector(self.entry_heading)
            return float(p[0]), float(p[1]), self.entry_heading
        if s > self.path.length:
            h = self.path.heading(self.path.length)
            p = self.path.point(self.path.length) + (s - self.path.length) * heading_vector(h)
            return float(p[0]), float(p[1]), h
        p = self.path.point(s)
        return float(p[0]), float(p[1]), self.path.heading(s)

    def sample_points(self, step: float = MARCH_STEP) -> np.ndarray:
        n = max(2, int(math.floor(self.path.length / step)) + 1)
        ss = np.linspace(0.0, self.path.length, n)
        return self.path.sample(ss)


@dataclass(frozen=True)
class ConflictPoint:
    """Closest-approach point where two movements' paths cross."""

    movement_a: str
    movement_b: str
    x: float
    y: float
    arc_a: float  # arc length along movement_a's path at the conflict
    arc_b: float


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


def conflict_points(a: Movement, b: Movement, clearance: float = 0.9,
                    step: float = MARCH_STEP) -> list[ConflictPoint]:
    """Conflict points between two movements' zone paths.

    Both paths are marched at `step` arc-length resolution; a conflict point is
    the closest-approach sample pair with separation below `clearance`
    (half a vehicle width by default).  Distinct crossings separated by more
    than 4x clearance along either path are reported individually.
    """
    if a.key == b.key:
        return []
    pa = a.sample_points(step)
    pb = b.sample_points(step)
    # quick reject on bounding boxes inflated by the clearance
    if (pa[:, 0].max() + clearance < pb[:, 0].min()
            or pb[:, 0].max() + clearance < pa[:, 0].min()
            or pa[:, 1].max() + clearance < pb[:, 1].min()
            or pb[:, 1].max() + clearance < pa[:, 1].min()):
        return []
    # pairwise squared distances, blockwise to bound memory
    best = _pairwise_minima(pa, pb)
    d2 = best["d2"]
    found = []
    exclusion = 4.0 * clearance
    live = np.ones(len(pa), dtype=bool)
    while True:
        masked = np.where(live, d2, np.inf)
        i = int(np.argmin(masked))
        if masked[i] > clearance * clearance:
            break
        j = int(best["j"][i])
        sa = i * (a.length / (len(pa) - 1))
        sb = j * (b.length / (len(pb) - 1))
        mid = 0.5 * (pa[i] + pb[j])
        found.append(ConflictPoint(a.key, b.key, float(mid[0]), float(mid[1]),
                                   float(sa), float(sb)))
        # mask out this crossing's neighbourhood along path a
        lo = max(0, i - int(exclusion / step))
        hi = min(len(pa), i + int(exclusion / step) + 1)
        live[lo:hi] = False
    found.sort(key=lambda cp: cp.arc_a)
    return found


def _pairwise_minima(pa: np.ndarray, pb: np.ndarray, block: int = 2048) -> dict:
    """For each sample of pa, squared distance and index of nearest pb sample."""
    n = len(pa)
    out_d2 = np.full(n, np.inf)
    out_j = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        diff = pa[lo:hi, None, :] - pb[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        j = np.argmin(d2, axis=1)
        out_d2[lo:hi] = d2[np.arange(hi - lo), j]
        out_j[lo:hi] = j
    return {"d2": out_d2, "j": out_j}


class ConflictMap:
    """All pairwise conflict points of a layout, computed once and cached."""

    def __init__(self, layout: IntersectionLayout, clearance: float = 0.9,
                 step: float = 0.01):
        self.layout = layout
        self.clearance = clearance
        self._pairs: dict[tuple[str, str], list[ConflictPoint]] = {}
        keys = sorted(layout.movement_keys)
        for i, ka in enumerate(keys):
            for kb in keys[i + 1:]:
                cps = conflict_points(layout.movement(ka), layout.movement(kb),
                                      clearance=clearance, step=step)
                if cps:
                    self._pairs[(ka, kb)] = cps

    def pair_key(self, ka: str, kb: str) -> tuple[str, str]:
        return (ka, kb) if ka <= kb else (kb, ka)

    def between(self, ka: str, kb: str) -> list[ConflictPoint]:
        """Conflict points between two movements, oriented so arc_a refers to ka."""
        key = self.pair_key(ka, kb)
        cps = self._pairs.get(key, [])
        if key[0] == ka:
            return list(cps)
        return [ConflictPoint(cp.movement_b, cp.movement_a, cp.x, cp.y,
                              cp.arc_b, cp.arc_a) for cp in cps]

    def conflicts_of(self, key: str) -> list[str]:
        """Movement keys that conflict with `key`, sorted."""
        out = set()
        for (ka, kb) in self._pairs:
            if ka == key:
                out.add(kb)
            elif kb == key:
                out.add(ka)
        return sorted(out)

    @property
    def pair_count(self) -> int:
        return len(self._pairs)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._pairs)


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

    def occupied_cells(self, rects) -> set[tuple[int, int]]:
        """Cells overlapped with positive area by any rectangle in `rects`.

        `rects` is an iterable of (4, 2) corner arrays.  Touching a cell edge
        at measure zero does not count as occupancy.
        """
        h = self.zone_side / 2.0
        rects = list(rects)
        quads = np.asarray(rects, dtype=float) if rects else np.zeros((0, 4, 2))
        _, rows, cols = rect_cells(quads, -h, -h, self.cell_size,
                                   self.granularity, self.granularity)
        return set(zip(rows.tolist(), cols.tolist()))


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
