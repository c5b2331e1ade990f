"""Formation-layer state encoding and reward for the platoon-size agent.

The agent sees a four-channel bird's-eye canvas of the whole junction:
occupancy, normalized speed, normalized time-to-join, and a mask marking
the lane the pending decision applies to.  The canvas is a 160x160 grid of
2.5 m cells covering the square [-200, 200] m around the zone centre, which
keeps the six zone cells centred and truncates each approach to its nearest
77 cells.  States are kept sparse because replay holds a thousand of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import VehicleParams, platoon_footprint
from .geometry import IntersectionLayout, oriented_rect, rect_cells

CANVAS_CELLS = 160
CANVAS_CELL_SIZE = 2.5
CANVAS_HALF = 0.5 * CANVAS_CELLS * CANVAS_CELL_SIZE  # 200 m
CANVAS_CHANNELS = 4


class SparseCanvas:
    """Sparse four-channel state with dense conversion on demand.

    Channels: 0 occupancy, 1 speed fraction, 2 time-to-join fraction,
    3 target-lane mask.  Vehicle channels share one cell list; the mask is a
    reference to a canvas-owned index pair so a thousand stored states cost
    kilobytes, not megabytes.
    """

    __slots__ = ("rows", "cols", "speed_vals", "ttj_vals", "mask_rows", "mask_cols")

    def __init__(self, rows, cols, speed_vals, ttj_vals, mask_rows, mask_cols):
        self.rows = rows
        self.cols = cols
        self.speed_vals = speed_vals
        self.ttj_vals = ttj_vals
        self.mask_rows = mask_rows
        self.mask_cols = mask_cols

    @property
    def shape(self):
        return (CANVAS_CHANNELS, CANVAS_CELLS, CANVAS_CELLS)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[0, self.rows, self.cols] = 1.0
        out[1, self.rows, self.cols] = self.speed_vals
        out[2, self.rows, self.cols] = self.ttj_vals
        out[3, self.mask_rows, self.mask_cols] = 1.0
        return out

    def __array__(self, dtype=None, copy=None):
        d = self.dense()
        return d.astype(dtype) if dtype is not None else d

    @property
    def nbytes(self) -> int:
        return (self.rows.nbytes + self.cols.nbytes
                + self.speed_vals.nbytes + self.ttj_vals.nbytes)


class FormationCanvas:
    """Encoder from junction snapshots to the agent's state tensor."""

    def __init__(self, layout: IntersectionLayout, params: VehicleParams,
                 horizon: float = 60.0):
        if horizon <= 0:
            raise ValueError("decision horizon must be positive")
        self.layout = layout
        self.params = params
        self.horizon = horizon
        self._masks = {m.key: self._lane_mask(m) for m in layout.movements}

    def _lane_mask(self, movement):
        """Cell indices of one movement's formation lane strip."""
        x, y, heading = movement.poses([0.0, -self.layout.formation_length])
        strip = oriented_rect(x.mean(), y.mean(), self.layout.formation_length,
                              self.layout.lane_width, heading[0])
        # one strip per call: a batch of strips would pad each one to the
        # extent of the longest in both axes
        _, rows, cols = rect_cells(strip[None], -CANVAS_HALF, -CANVAS_HALF,
                                   CANVAS_CELL_SIZE, CANVAS_CELLS, CANVAS_CELLS)
        return rows.astype(np.int16), cols.astype(np.int16)

    def encode(self, bodies, target_movement: str) -> SparseCanvas:
        """State for a pending decision on `target_movement`'s lane.

        `bodies` is an (n, 5) stack of rows (x, y, heading, speed, ttj), one
        per CAV in the formation and coordination zones: (x, y) is the front
        bumper and ttj the seconds until that vehicle can join its lane's
        forming platoon.  Bodies beyond the canvas edge fall off the crop.
        All bodies are rasterized in one batch; where bodies share a cell,
        the later row's values win.
        """
        if target_movement not in self._masks:
            raise KeyError(f"unknown movement {target_movement!r}")
        p = self.params
        bodies = np.asarray(bodies, dtype=float).reshape(-1, 5)
        speed = np.clip(bodies[:, 3] / p.v_max, 0.0, 1.0)
        ttj = np.clip(bodies[:, 4] / self.horizon, 0.0, 1.0)
        owner, rows, cols = rect_cells(
            platoon_footprint(bodies[:, :3], p), -CANVAS_HALF, -CANVAS_HALF,
            CANVAS_CELL_SIZE, CANVAS_CELLS, CANVAS_CELLS)
        mr, mc = self._masks[target_movement]
        return SparseCanvas(rows.astype(np.int16), cols.astype(np.int16),
                            speed[owner], ttj[owner], mr, mc)


def time_to_join(distance: float, speed: float, params: VehicleParams) -> float:
    """Seconds to cover `distance` at full throttle from `speed`, capped at v_max."""
    if distance <= 0:
        return 0.0
    v, a, cap = speed, params.a_max, params.v_max
    d_to_cap = (cap * cap - v * v) / (2.0 * a)
    if distance <= d_to_cap:
        return (-v + math.sqrt(v * v + 2.0 * a * distance)) / a
    return (cap - v) / a + (distance - d_to_cap) / cap


# -- reward factors ---------------------------------------------------------


def penalized_wait(wait: float, horizon: float) -> float:
    """Quadratically escalating waiting-time factor, (wait / horizon)^2."""
    if wait < 0:
        raise ValueError("waiting time cannot be negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return (wait / horizon) ** 2


def delay_factor(mean_speed: float, v_max: float) -> float:
    """Fraction of the speed limit lost on average, 1 - mean/v_max."""
    if not 0 <= mean_speed <= v_max:
        raise ValueError(f"mean speed {mean_speed} outside [0, {v_max}]")
    return 1.0 - mean_speed / v_max


@dataclass(frozen=True)
class FuelModel:
    """Surrogate burn rate in mL/s: idle + rolling drag + acceleration work.

    Coefficients are tuned so a typical junction transit lands in the
    tens-to-low-hundreds of mL.
    """

    idle: float = 0.5       # mL/s at standstill
    rolling: float = 0.25   # mL per metre travelled
    accel: float = 0.1      # mL per (m/s * m/s^2 * s) of positive tractive effort

    def increment(self, speed: float, accel: float, dt: float) -> float:
        if dt <= 0:
            raise ValueError("dt must be positive")
        if speed < 0:
            raise ValueError("speed cannot be negative")
        rate = self.idle + self.rolling * speed + self.accel * speed * max(accel, 0.0)
        return rate * dt


FACTOR_NAMES = ("wait", "delay", "fuel")


class FactorNormalizer:
    """Min-max scaling of the three reward factors to [0, 1].

    Ranges come from a calibration run (random actions, same demand); using
    the normalizer before calibration is an error rather than a silent
    identity, because unscaled factors differ by orders of magnitude.
    """

    def __init__(self, ranges: dict | None = None):
        self._ranges = {}
        if ranges is not None:
            for name, (lo, hi) in ranges.items():
                if name not in FACTOR_NAMES:
                    raise ValueError(f"unknown factor {name!r}")
                self._ranges[name] = (float(lo), float(hi))

    @property
    def calibrated(self) -> bool:
        return set(self._ranges) == set(FACTOR_NAMES)

    def observe(self, name: str, value: float):
        if name not in FACTOR_NAMES:
            raise ValueError(f"unknown factor {name!r}")
        lo, hi = self._ranges.get(name, (math.inf, -math.inf))
        self._ranges[name] = (min(lo, value), max(hi, value))

    def normalize(self, name: str, value: float) -> float:
        if name not in self._ranges:
            raise RuntimeError(f"factor normalizer not calibrated for {name!r}; "
                               "run a calibration pass first")
        lo, hi = self._ranges[name]
        if hi <= lo:
            return 0.0
        return min(max((value - lo) / (hi - lo), 0.0), 1.0)

    def to_dict(self) -> dict:
        return {name: list(pair) for name, pair in sorted(self._ranges.items())}

    @classmethod
    def from_dict(cls, d: dict) -> "FactorNormalizer":
        return cls({name: tuple(pair) for name, pair in d.items()})


def formation_reward(wait_terms, delay_terms, fuel_terms,
                     weights=(-1.0, -1.0, -1.0)) -> float:
    """Per-member-averaged weighted sum of the normalized factor totals.

    All three sequences hold one normalized value per platoon member and the
    weights are negative, so larger waits, delays or burns push the reward
    further below zero.
    """
    m = len(wait_terms)
    if m == 0 or len(delay_terms) != m or len(fuel_terms) != m:
        raise ValueError("factor lists must share one entry per member")
    w1, w2, w3 = weights
    return (w1 * float(np.sum(wait_terms))
            + w2 * float(np.sum(delay_terms))
            + w3 * float(np.sum(fuel_terms))) / m
