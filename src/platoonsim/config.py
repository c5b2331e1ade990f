"""Run configuration: simulation constants, file parsing, and validation.

Every tunable lives in one flat frozen dataclass so a run is fully
described by (config, seed).  Field names follow the symbols used across
the other modules; single-capital names (S, L, T, M, O, C) are kept
deliberately because they are the vocabulary the rest of the package and
the experiment logs speak.

Config files are plain ``key = value`` lines with ``#`` comments.  The
repository ships ``configs/default.cfg`` (all defaults, written out) and
``configs/desk.cfg`` (quarter flows, short episodes) as the two presets.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .baselines import POLICY_KINDS
from .formation import FuelModel
from .dynamics import VehicleParams, max_platoon_size
from .geometry import default_layout
from .traffic import ConditionSchedule

GRANULARITIES = (6, 12, 24)

# Desk-scale preset: quarter flows and ten-minute episodes so a full
# training run stays laptop-sized.  The layer-1 gradient cadence is
# thinned to keep the wall-clock budget; layer-2 steps are cheap.
DESK_OVERRIDES = {
    "flow_scale": 0.25,
    "T": 600.0,
    "M": 60,
    "switch_time": 300.0,
    "layer1_train_every": 6,
}


@dataclass(frozen=True)
class SimConfig:
    """One experiment's complete parameter set."""

    # geometry and vehicle limits
    l_c: float = 5.0            # vehicle length, m
    w_c: float = 1.8            # vehicle width, m
    l_lane: float = 2.5         # lane width, m
    L: float = 200.0            # formation zone length, m
    a_max: float = 5.0          # accel/decel limit, m/s^2
    v_max: float = 20.0         # speed limit, m/s
    d_h: float = 1.0            # in-platoon headway, m
    d_h_hat: float = 1.5        # minimum lane headway, m

    # episode horizon and training span
    T: float = 3600.0           # episode duration, s
    M: int = 100                # training episodes

    # learning constants
    gamma: float = 0.9          # discount factor
    epsilon: float = 0.1        # exploration rate
    replay_capacity: int = 1000
    batch_size: int = 32
    O: int = 100                # observation warmup, experiences
    C: int = 200                # target-network sync period, gradient steps

    # reward shaping
    T_m: float = 60.0           # formation wait horizon, s
    w1: float = -1.0
    w2: float = -1.0
    w3: float = -1.0
    R_deadlock: float = -10.0

    # zone decomposition
    g: int = 12                 # grid granularity

    # run plumbing
    dt: float = 1.0
    seed: int = 0
    condition: int = 1          # demand condition 1 (moderate), 2 (high), 3 (switching)
    policy: str = "coor-plt"
    fuel_idle: float = 0.5
    fuel_rolling: float = 0.25
    fuel_accel: float = 0.1
    adam_lr: float = 0.001
    flow_scale: float = 1.0
    switch_time: float = 1800.0  # condition-3 tier switch, s
    layer1_train_every: int = 1
    layer2_train_every: int = 1
    calibration_episodes: int = 10

    def __post_init__(self):
        if self.g not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}, got {self.g}")
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICY_KINDS}")
        if self.condition not in (1, 2, 3):
            raise ValueError(f"condition must be 1, 2 or 3, got {self.condition}")
        for name in ("l_c", "w_c", "l_lane", "L", "a_max", "v_max", "d_h",
                     "d_h_hat", "T", "adam_lr", "T_m", "dt", "switch_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("M", "replay_capacity", "batch_size",
                     "layer1_train_every", "layer2_train_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.O < 0 or self.C < 1 or self.calibration_episodes < 0:
            raise ValueError("need O >= 0, C >= 1, calibration_episodes >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.flow_scale < 0:
            raise ValueError("flow_scale cannot be negative")
        if self.R_deadlock >= 0:
            raise ValueError("the deadlock punishment must be negative")

    # -- derived objects -----------------------------------------------------

    @property
    def S(self) -> float:
        """Coordination zone side, m: the twelve-lane layout only closes
        when it is six lane widths."""
        return 6.0 * self.l_lane

    def vehicle_params(self) -> VehicleParams:
        return VehicleParams(length=self.l_c, width=self.w_c, a_max=self.a_max,
                             v_max=self.v_max, headway_platoon=self.d_h,
                             headway_lane=self.d_h_hat)

    def layout(self):
        return default_layout(self.l_lane, self.S, self.L)

    def fuel_model(self) -> FuelModel:
        return FuelModel(idle=self.fuel_idle, rolling=self.fuel_rolling,
                         accel=self.fuel_accel)

    def schedule(self) -> ConditionSchedule:
        return ConditionSchedule.condition(self.condition, scale=self.flow_scale,
                                           switch_time=self.switch_time)

    def n_sizes(self) -> int:
        """Size of the platoon-size action head (largest formable platoon)."""
        return max_platoon_size(self.vehicle_params(), self.L)

    @classmethod
    def desk(cls, **overrides) -> "SimConfig":
        merged = dict(DESK_OVERRIDES)
        merged.update(overrides)
        return cls(**merged)

    # -- file round trip -----------------------------------------------------

    @classmethod
    def load(cls, *paths, **overrides) -> "SimConfig":
        """Defaults, then each file in order, then keyword overrides."""
        merged: dict = {}
        for path in paths:
            with open(path, "r", encoding="utf-8") as fh:
                merged.update(parse_config_text(fh.read()))
        merged.update(overrides)
        return cls(**merged)

    def save(self, path) -> None:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def override(self, **changes) -> "SimConfig":
        return replace(self, **changes)


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_text(text: str) -> dict:
    """``key = value`` lines to a typed dict; unknown keys are an error."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            out[key] = _coerce(key, raw)
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad value for {key}: {raw!r}") from err
    return out
