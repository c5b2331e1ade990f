"""Independent oracles and test-side tools used by the test suite.

The oracles are computed from first principles (closed-form geometry,
brute-force integration, dense point sampling) or are the package's former
one-at-a-time implementations, so agreement with the package is meaningful.
The tools (the dense conflict-point search, a cell-set view of the batched
raster, a small-environment training driver, CSV-projection equality) serve
tests only and have no caller in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from platoonsim.drl.agent import DQNAgent, Experience
from platoonsim.geometry import rect_cells
from platoonsim.metrics import CSV_FIELDS, EpisodeMetrics

TAU = 2 * math.pi


# ---------------------------------------------------------------------------
# kinematics


def euler_stop_distance(speed: float, decel: float, dt: float = 1e-4) -> float:
    """Distance covered while braking at constant decel, by explicit Euler."""
    v, s = speed, 0.0
    while v > 0:
        step = min(dt, v / decel)
        s += v * step - 0.5 * decel * step * step
        v -= decel * step
    return s


def euler_motion(speed, accel, dt: float, v_max: float, n: int = 100_000):
    """(end speed, distance) for one constant-command interval, by explicit
    Euler with per-substep clamping of speed into [0, v_max].  Accepts numpy
    arrays for speed/accel so a whole state grid integrates in one call."""
    import numpy as np
    h = dt / n
    v = np.asarray(speed, dtype=float).copy()
    dist = np.zeros_like(v)
    a = np.asarray(accel, dtype=float)
    for _ in range(n):
        dist += v * h
        v = np.clip(v + a * h, 0.0, v_max)
    return v, dist


def clamped_travel(speed: float, accel: float, tau: float, v_max: float) -> float:
    """Distance covered in time tau when the speed v0 + a*t is clamped into
    [0, v_max]: the integral of the clamped line, in closed form."""
    bound = v_max if accel > 0 else 0.0
    t_hit = (bound - speed) / accel if accel != 0 else math.inf
    t = min(tau, max(t_hit, 0.0))
    return speed * t + 0.5 * accel * t * t + bound * (tau - t)


# ---------------------------------------------------------------------------
# analytic path crossings

# The oracle rebuilds the 12 movement paths with its own conventions:
# a path is ('line', p0, p1) or ('arc', center, radius, start_angle, sweep)
# where angles are math angles about the centre and sweep is signed (ccw > 0).


def _rot_cw_point(p):
    return (p[1], -p[0])


def oracle_paths(lane_width: float = 2.5, zone_side: float = 15.0) -> dict:
    h = zone_side / 2.0
    w = lane_width
    # south approach primitives
    base = {
        "left": ("arc", (-h, -h), h + 0.5 * w, 0.0, math.pi / 2),
        "straight": ("line", (1.5 * w, -h), (1.5 * w, h)),
        "right": ("arc", (h, -h), h - 2.5 * w, math.pi, -math.pi / 2),
    }
    dests = {"left": "west", "straight": "north", "right": "east"}
    order = ("south", "west", "north", "east")
    paths = {}
    for k, origin in enumerate(order):
        for turn, prim in base.items():
            p = prim
            for _ in range(k):
                if p[0] == "line":
                    p = ("line", _rot_cw_point(p[1]), _rot_cw_point(p[2]))
                else:
                    p = ("arc", _rot_cw_point(p[1]), p[2], p[3] - math.pi / 2, p[4])
            dest = order[(order.index(dests[turn]) + k) % 4]
            paths[f"{origin}-{dest}"] = p
    return paths


def _line_point(p, t):
    p0 = np.asarray(p[1], float)
    p1 = np.asarray(p[2], float)
    d = (p1 - p0) / np.linalg.norm(p1 - p0)
    return p0 + t * d


def _arc_angle_to_len(p, phi):
    """Arc length from the start angle to math angle phi, or None if off-arc."""
    _, _, r, a0, sweep = p
    if sweep >= 0:
        delta = (phi - a0) % TAU
        if delta <= sweep + 1e-9:
            return delta * r
    else:
        delta = (a0 - phi) % TAU
        if delta <= -sweep + 1e-9:
            return delta * r
    return None


def _path_len(p):
    if p[0] == "line":
        return float(np.linalg.norm(np.asarray(p[2]) - np.asarray(p[1])))
    return abs(p[4]) * p[2]


def _crossings(pa, pb):
    """All true crossing points of two primitives, with arc lengths on each."""
    out = []
    if pa[0] == "line" and pb[0] == "line":
        p0, p1 = np.asarray(pa[1], float), np.asarray(pa[2], float)
        q0, q1 = np.asarray(pb[1], float), np.asarray(pb[2], float)
        da, db = p1 - p0, q1 - q0
        mat = np.array([[da[0], -db[0]], [da[1], -db[1]]])
        if abs(np.linalg.det(mat)) < 1e-12:
            return out
        t, u = np.linalg.solve(mat, q0 - p0)
        if -1e-9 <= t <= 1 + 1e-9 and -1e-9 <= u <= 1 + 1e-9:
            pt = p0 + t * da
            out.append((pt, t * np.linalg.norm(da), u * np.linalg.norm(db)))
    elif pa[0] == "line" and pb[0] == "arc":
        p0, p1 = np.asarray(pa[1], float), np.asarray(pa[2], float)
        c = np.asarray(pb[1], float)
        r = pb[2]
        d = p1 - p0
        L = np.linalg.norm(d)
        d = d / L
        f = p0 - c
        b = 2 * np.dot(f, d)
        cc = np.dot(f, f) - r * r
        disc = b * b - 4 * cc
        if disc < 0:
            return out
        for t in ((-b - math.sqrt(disc)) / 2, (-b + math.sqrt(disc)) / 2):
            if -1e-9 <= t <= L + 1e-9:
                pt = p0 + t * d
                phi = math.atan2(pt[1] - c[1], pt[0] - c[0])
                sb = _arc_angle_to_len(pb, phi)
                if sb is not None:
                    out.append((pt, t, sb))
    elif pa[0] == "arc" and pb[0] == "line":
        for pt, sb, sa in _crossings(pb, pa):
            out.append((pt, sa, sb))
    else:
        c1, r1 = np.asarray(pa[1], float), pa[2]
        c2, r2 = np.asarray(pb[1], float), pb[2]
        d = np.linalg.norm(c2 - c1)
        if d < 1e-12 or d > r1 + r2 or d < abs(r1 - r2):
            return out
        a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
        h2 = r1 * r1 - a * a
        if h2 < 0:
            return out
        h = math.sqrt(h2)
        base = c1 + a * (c2 - c1) / d
        perp = np.array([-(c2 - c1)[1], (c2 - c1)[0]]) / d
        pts = [base + h * perp] if h < 1e-9 else [base + h * perp, base - h * perp]
        for pt in pts:
            sa = _arc_angle_to_len(pa, math.atan2(pt[1] - c1[1], pt[0] - c1[0]))
            sb = _arc_angle_to_len(pb, math.atan2(pt[1] - c2[1], pt[0] - c2[0]))
            if sa is not None and sb is not None:
                out.append((pt, sa, sb))
    return out


def analytic_conflicts(lane_width: float = 2.5, zone_side: float = 15.0) -> dict:
    """Closed-form crossing points for every movement pair that has any.

    Returns {(key_a, key_b): [(x, y, arc_a, arc_b), ...]} with key_a < key_b.
    """
    paths = oracle_paths(lane_width, zone_side)
    keys = sorted(paths)
    out = {}
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            hits = _crossings(paths[ka], paths[kb])
            if hits:
                out[(ka, kb)] = [(pt[0], pt[1], sa, sb) for pt, sa, sb in hits]
    return out


# ---------------------------------------------------------------------------
# conflict points by dense sampling of the package's paths

# Sampling resolution (m) used when marching trajectories for conflict search.
MARCH_STEP = 0.01


@dataclass(frozen=True)
class ConflictPoint:
    """Closest-approach point where two movements' paths cross."""

    movement_a: str
    movement_b: str
    x: float
    y: float
    arc_a: float  # arc length along movement_a's path at the conflict
    arc_b: float


def sample_points(movement, step: float = MARCH_STEP) -> np.ndarray:
    """(n, 2) points at evenly spaced arcs from 0 to the path's length."""
    n = max(2, int(math.floor(movement.length / step)) + 1)
    x, y, _ = movement.poses(np.linspace(0.0, movement.length, n))
    return np.stack([x, y], axis=1)


def conflict_points(a, b, clearance: float = 0.9,
                    step: float = MARCH_STEP) -> list[ConflictPoint]:
    """Conflict points between two movements' zone paths.

    Both paths are marched at `step` arc-length resolution; a conflict point is
    the closest-approach sample pair with separation below `clearance`
    (half a vehicle width by default).  Distinct crossings separated by more
    than 4x clearance along either path are reported individually.
    """
    if a.key == b.key:
        return []
    pa = sample_points(a, step)
    pb = sample_points(b, step)
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
    """All pairwise conflict points of a layout, computed once.

    The geometric reference the package's shared cell regions are checked
    against: it samples the paths densely and never rasterizes them.
    """

    def __init__(self, layout, clearance: float = 0.9, step: float = MARCH_STEP):
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


# ---------------------------------------------------------------------------
# rasterization


def occupied_cells(grid, rects) -> set[tuple[int, int]]:
    """Zone cells of `grid` overlapped with positive area by any rectangle.

    `rects` is an iterable of (4, 2) corner arrays.  Touching a cell edge
    at measure zero does not count as occupancy.  A set view of the
    package's batched `geometry.rect_cells`.
    """
    h = grid.zone_side / 2.0
    rects = list(rects)
    quads = np.asarray(rects, dtype=float) if rects else np.zeros((0, 4, 2))
    _, rows, cols = rect_cells(quads, -h, -h, grid.cell_size,
                               grid.granularity, grid.granularity)
    return set(zip(rows.tolist(), cols.tolist()))


def _clip_polygon(poly, edge_fn):
    """Sutherland-Hodgman clip of a polygon against one half-plane."""
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        c_in, n_in = edge_fn(cur) >= 0, edge_fn(nxt) >= 0
        if c_in:
            out.append(cur)
        if c_in != n_in:
            d0, d1 = edge_fn(cur), edge_fn(nxt)
            t = d0 / (d0 - d1)
            out.append((cur[0] + t * (nxt[0] - cur[0]),
                        cur[1] + t * (nxt[1] - cur[1])))
    return out


def _poly_area(poly) -> float:
    a = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        a += x0 * y1 - x1 * y0
    return abs(a) / 2.0


def overlap_area(rect: np.ndarray, cx0, cy0, cx1, cy1) -> float:
    """Exact area of a convex quad clipped to an axis-aligned box."""
    poly = [tuple(p) for p in np.asarray(rect, float)]
    for fn in (lambda p: p[0] - cx0, lambda p: cx1 - p[0],
               lambda p: p[1] - cy0, lambda p: cy1 - p[1]):
        poly = _clip_polygon(poly, fn)
        if len(poly) < 3:
            return 0.0
    return _poly_area(poly)


def raster_cells(rect: np.ndarray, x0: float, y0: float, cell: float,
                 n_cols: int, n_rows: int, tol: float = 1e-12) -> set:
    """Cells a convex quad overlaps with positive area, by exact clipping.

    Independent of any separating-axis logic: clips the quad against each
    candidate cell and measures the remaining polygon area.
    """
    rect = np.asarray(rect, float)
    out = set()
    c_lo = max(0, int(math.floor((rect[:, 0].min() - x0) / cell)))
    c_hi = min(n_cols - 1, int(math.floor((rect[:, 0].max() - x0) / cell)))
    r_lo = max(0, int(math.floor((rect[:, 1].min() - y0) / cell)))
    r_hi = min(n_rows - 1, int(math.floor((rect[:, 1].max() - y0) / cell)))
    for row in range(r_lo, r_hi + 1):
        for col in range(c_lo, c_hi + 1):
            cx0, cy0 = x0 + col * cell, y0 + row * cell
            if overlap_area(rect, cx0, cy0, cx0 + cell, cy0 + cell) > tol:
                out.add((row, col))
    return out


# The scalar pose and separating-axis raster the package used before it
# batched them: one arc, one quad and one candidate cell at a time.  The
# package's `Movement.poses` and `geometry.rect_cells` must reproduce them
# bit for bit and cell for cell.


def scalar_pose(movement, s: float) -> tuple[float, float, float]:
    """(x, y, heading) at arc length s measured from the stop line.

    s < 0 lies on the straight approach lane behind the stop line and
    s > length on the straight exit lane.  Reads only the path's defining
    points and angles.
    """
    path = movement.path
    if hasattr(path, "radius"):
        def point(u):
            a = path.a0 + np.sign(path.sweep) * (u / path.radius)
            return path.center + path.radius * np.array([math.cos(a), math.sin(a)])

        def heading(u):
            a = path.a0 + np.sign(path.sweep) * (u / path.radius)
            if path.sweep >= 0:  # anticlockwise: tangent (-sin, cos)
                vx, vy = -math.sin(a), math.cos(a)
            else:
                vx, vy = math.sin(a), -math.cos(a)
            return math.atan2(vx, vy) % TAU
    else:
        d = path.p1 - path.p0

        def point(u):
            return path.p0 + d / float(np.hypot(*d)) * u

        def heading(u):
            return math.atan2(d[0], d[1]) % TAU

    if s < 0:
        h = heading(0.0)
        p = point(0.0) + s * np.array([math.sin(h), math.cos(h)])
        return float(p[0]), float(p[1]), h
    if s > path.length:
        h = heading(path.length)
        p = point(path.length) + (s - path.length) * np.array([math.sin(h), math.cos(h)])
        return float(p[0]), float(p[1]), h
    p = point(s)
    return float(p[0]), float(p[1]), heading(s)


def scalar_oriented_rect(center_x: float, center_y: float, length: float,
                         width: float, heading: float) -> np.ndarray:
    """Corners (4, 2) of a rectangle centred at (x, y) pointing along heading."""
    f = np.array([math.sin(heading), math.cos(heading)])
    r = np.array([f[1], -f[0]])  # right-hand side of travel
    c = np.array([center_x, center_y])
    hl, hw = 0.5 * length, 0.5 * width
    return np.array([c + f * hl + r * hw,
                     c + f * hl - r * hw,
                     c - f * hl - r * hw,
                     c - f * hl + r * hw])


def scalar_rect_cells(rect: np.ndarray, x0: float, y0: float, cell: float,
                      n_cols: int, n_rows: int, eps: float = 1e-9) -> set:
    """Cells of a uniform grid that a convex quad overlaps with positive area.

    The grid's cell (row, col) spans [x0 + col*cell, x0 + (col+1)*cell) x
    [y0 + row*cell, ...).  Uses a separating-axis test against each candidate
    cell inside the quad's bounding box; overlap must exceed eps on every axis.
    """
    xs, ys = rect[:, 0], rect[:, 1]
    c_lo = max(0, int(math.floor((xs.min() - x0) / cell)))
    c_hi = min(n_cols - 1, int(math.floor((xs.max() - x0) / cell + 1e-12)))
    r_lo = max(0, int(math.floor((ys.min() - y0) / cell)))
    r_hi = min(n_rows - 1, int(math.floor((ys.max() - y0) / cell + 1e-12)))
    if c_hi < c_lo or r_hi < r_lo:
        return set()

    # axes to test: the grid's x/y plus the rect's two edge normals
    e0 = rect[1] - rect[0]
    e1 = rect[3] - rect[0]
    axes = []
    for e in (e0, e1):
        n = math.hypot(e[0], e[1])
        if n > 1e-12:
            axes.append((e[0] / n, e[1] / n))

    out = set()
    for row in range(r_lo, r_hi + 1):
        cy0 = y0 + row * cell
        for col in range(c_lo, c_hi + 1):
            cx0 = x0 + col * cell
            # grid-aligned axes first (cheap interval checks)
            if min(xs.max(), cx0 + cell) - max(xs.min(), cx0) <= eps:
                continue
            if min(ys.max(), cy0 + cell) - max(ys.min(), cy0) <= eps:
                continue
            ok = True
            for ax, ay in axes:
                pr = xs * ax + ys * ay
                corners_x = np.array([cx0, cx0 + cell, cx0 + cell, cx0])
                corners_y = np.array([cy0, cy0, cy0 + cell, cy0 + cell])
                pc = corners_x * ax + corners_y * ay
                if min(pr.max(), pc.max()) - max(pr.min(), pc.min()) <= eps:
                    ok = False
                    break
            if ok:
                out.add((row, col))
    return out


def scalar_path_cell_spans(movement, grid, params, march: float = 0.05) -> dict:
    """Cell -> (s_first, s_last) of a movement's path tube, one sliver at a time."""
    tube = {}
    half = grid.zone_side / 2.0
    lo_arc, hi_arc = -params.length, movement.length + params.length
    n = int(math.ceil((hi_arc - lo_arc) / march))
    for i in range(n):
        tau = lo_arc + i * march
        seg = min(march, hi_arc - tau)
        x, y, heading = scalar_pose(movement, tau + 0.5 * seg)
        rect = scalar_oriented_rect(x, y, seg, params.width, heading)
        for cell in scalar_rect_cells(rect, -half, -half, grid.cell_size,
                                      grid.granularity, grid.granularity):
            if cell in tube:
                tube[cell][1] = tau + seg
            else:
                tube[cell] = [tau, tau + seg]
    return {cell: (lo, hi + params.length) for cell, (lo, hi) in tube.items()}


def scalar_canvas(bodies, target_movement: str, layout, params,
                  horizon: float, cells: int = 160, cell: float = 2.5):
    """(dense 4-channel canvas, distinct vehicle cells), one body at a time.

    `bodies` holds rows (x, y, heading, speed, ttj) with (x, y) the front
    bumper.  Channels as in the formation canvas: occupancy, speed
    fraction, time-to-join fraction, target-lane mask.  Where bodies share
    a cell the later row's values win.
    """
    half = 0.5 * cells * cell
    out = np.zeros((4, cells, cells))
    occupied = set()
    for x, y, heading, speed, ttj in np.asarray(bodies, dtype=float).tolist():
        f = (math.sin(heading), math.cos(heading))
        cx = x - 0.5 * params.length * f[0]
        cy = y - 0.5 * params.length * f[1]
        hit = scalar_rect_cells(
            scalar_oriented_rect(cx, cy, params.length, params.width, heading),
            -half, -half, cell, cells, cells)
        speed = min(max(speed / params.v_max, 0.0), 1.0)
        ttj = min(max(ttj / horizon, 0.0), 1.0)
        for r, c in hit:
            out[0:3, r, c] = (1.0, speed, ttj)
        occupied.update(hit)
    movement = layout.movement(target_movement)
    x0, y0, h0 = scalar_pose(movement, 0.0)
    x1, y1, _ = scalar_pose(movement, -layout.formation_length)
    center = np.array([[x0, y0], [x1, y1]]).mean(axis=0)
    strip = scalar_oriented_rect(center[0], center[1], layout.formation_length,
                                 layout.lane_width, h0)
    for r, c in scalar_rect_cells(strip, -half, -half, cell, cells, cells):
        out[3, r, c] = 1.0
    return out, len(occupied)


# ---------------------------------------------------------------------------
# neural-network references


def naive_conv(x, w, b, sh: int, sw: int):
    """Strided valid cross-correlation by four nested loops.

    x is (B, C, H, W), w is (F, C, kh, kw); returns (B, F, OH, OW).  Slow on
    purpose: every output element is an independently summed product.
    """
    import numpy as np
    B, C, H, W = x.shape
    F, _, kh, kw = w.shape
    oh = (H - kh) // sh + 1
    ow = (W - kw) // sw + 1
    y = np.zeros((B, F, oh, ow))
    for n in range(B):
        for f in range(F):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(C):
                        for p in range(kh):
                            for q in range(kw):
                                acc += w[f, c, p, q] * x[n, c, i * sh + p,
                                                         j * sw + q]
                    y[n, f, i, j] = acc + b[f]
    return y


class TransposedMaxPool:
    """Non-overlapping max pooling by a transposed copy of every window.

    The package's former `MaxPool2D`: each window is copied out as one row
    of ph*pw elements in row-major order, `argmax` takes the first maximum
    of the row, and the backward pass routes each gradient back to that
    element with `put_along_axis`.
    """

    def __init__(self, size):
        self.size = tuple(size)

    def forward(self, x):
        b, c, h, w = x.shape
        ph, pw = self.size
        win = (x.reshape(b, c, h // ph, ph, w // pw, pw)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(b, c, h // ph, w // pw, ph * pw))
        self._argmax = win.argmax(axis=-1)
        self._in_shape = x.shape
        return win.max(axis=-1)

    def backward(self, dy):
        b, c, h, w = self._in_shape
        ph, pw = self.size
        flat = np.zeros((b, c, h // ph, w // pw, ph * pw))
        np.put_along_axis(flat, self._argmax[..., None], dy[..., None], axis=-1)
        return (flat.reshape(b, c, h // ph, w // pw, ph, pw)
                    .transpose(0, 1, 2, 4, 3, 5)
                    .reshape(b, c, h, w))


def finite_diff_grads(loss_fn, arrays, h: float = 1e-4):
    """Central-difference gradient of loss_fn() w.r.t. each array, probing
    every element in place."""
    import numpy as np
    out = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = loss_fn()
            flat[i] = keep - h
            lo = loss_fn()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * h)
        out.append(g)
    return out


def rel_err(a, b) -> float:
    """Worst-case elementwise relative disagreement between two tensors."""
    import numpy as np
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def value_iteration(n_states: int, n_actions: int, transition, reward,
                    terminal, gamma: float, tol: float = 1e-12):
    """Tabular Q* for a deterministic MDP given by callables.

    transition(s, a) -> s', reward(s, a) -> r, terminal(s) -> bool.
    """
    import numpy as np
    q = np.zeros((n_states, n_actions))
    while True:
        prev = q.copy()
        for s in range(n_states):
            if terminal(s):
                q[s, :] = 0.0
                continue
            for a in range(n_actions):
                s2 = transition(s, a)
                bootstrap = 0.0 if terminal(s2) else prev[s2].max()
                q[s, a] = reward(s, a) + gamma * bootstrap
        if np.max(np.abs(q - prev)) < tol:
            return q


def train_loop(env, agent: DQNAgent, episodes: int,
               max_steps: int) -> list[float]:
    """Generic episodic driver for small benchmark environments.

    `env.reset() -> (state, mask)` and `env.step(action) -> (state, reward,
    terminal, mask)`.  Returns per-episode reward sums.  The simulator has
    its own richer loop; this one exists for self-contained sanity checks
    of the learning machinery.
    """
    returns = []
    for _ in range(episodes):
        state, mask = env.reset()
        total = 0.0
        for _ in range(max_steps):
            action = agent.act(state, mask)
            nxt, reward, terminal, nxt_mask = env.step(action)
            total += reward
            agent.remember(Experience(state, action, reward,
                                      None if terminal else nxt,
                                      None if terminal else nxt_mask))
            if terminal:
                break
            state, mask = nxt, nxt_mask
        returns.append(total)
    return returns


# ---------------------------------------------------------------------------
# episode records


def csv_equal(a: EpisodeMetrics, b: EpisodeMetrics) -> bool:
    """Equality over the fields the CSV projection carries."""
    return all(getattr(a, name) == getattr(b, name) for name in CSV_FIELDS)


# ---------------------------------------------------------------------------
# graphs


def brute_force_cycles(edges: dict) -> list:
    """Every elementary cycle of a digraph, canonicalised, by pure DFS.

    `edges` maps node -> iterable of successors.  A cycle is returned as a
    tuple rotated so its smallest node comes first; the list is sorted.
    Exponential, fine for <= 8 nodes.
    """
    nodes = sorted(edges)
    cycles = set()

    def walk(start, node, path, on_path):
        for nxt in sorted(edges.get(node, ())):
            if nxt == start:
                cyc = tuple(path)
                k = cyc.index(min(cyc))
                cycles.add(cyc[k:] + cyc[:k])
            elif nxt > start and nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                walk(start, nxt, path, on_path)
                path.pop()
                on_path.remove(nxt)

    for s in nodes:
        walk(s, s, [s], {s})
    return sorted(cycles)
