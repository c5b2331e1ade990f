"""Vehicle kinematics, safe-gap control, and platoon formation mechanics.

Vehicles are point-mass bodies moving along one-dimensional routes (the
formation lane, the zone path, and the exit lane of their movement, joined
end to end).  `route_pos` is the front-bumper arc length along that route;
0 is the upstream end of the formation zone and `formation_length` is the
stop line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import heading_vectors, msd, oriented_rects

# m; a bumper this close past a bar counts as parked on it.  The stop
# envelope lands the front on the bar only up to float error.
ON_BAR = 1e-9


@dataclass(frozen=True)
class VehicleParams:
    """Shared physical limits and headways (identical for every CAV)."""

    length: float = 5.0           # l_c
    width: float = 1.8            # w_c
    a_max: float = 5.0            # symmetric accel/decel limit
    v_max: float = 20.0
    headway_platoon: float = 1.0  # desired gap inside a platoon
    headway_lane: float = 1.5     # minimum gap outside platoons

    def __post_init__(self):
        if self.a_max <= 0 or self.v_max <= 0:
            raise ValueError("acceleration and speed limits must be positive")
        if not 0 < self.headway_platoon <= self.headway_lane:
            raise ValueError("need 0 < platoon headway <= lane headway")


def step_vehicle(speed: float, accel: float, dt: float, v_max: float) -> tuple[float, float]:
    """One constant-acceleration step: (new_speed, distance_travelled).

    Exact piecewise integration: braking clamps at the stop event instead of
    integrating the speed through zero, and acceleration clamps at v_max.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    v0 = speed
    if accel < 0 and v0 + accel * dt <= 0:
        t_stop = v0 / -accel
        return 0.0, v0 * t_stop + 0.5 * accel * t_stop * t_stop
    if accel > 0 and v0 + accel * dt >= v_max:
        t_cap = max(0.0, (v_max - v0) / accel)
        d = v0 * t_cap + 0.5 * accel * t_cap * t_cap + v_max * (dt - t_cap)
        return v_max, d
    return v0 + accel * dt, v0 * dt + 0.5 * accel * dt * dt


def travel_time(x, speed, accel, v_max):
    """Earliest time at which step_vehicle's travel reaches x (vectorized).

    Travel is v0*t + a*t^2/2 until the stop or speed-cap event and linear
    at v_max after a cap, so it is monotone in t and x has one earliest
    time; x must lie within the step's travel.
    """
    v0, a, x = np.asarray(speed, float), np.asarray(accel, float), np.asarray(x, float)
    with np.errstate(all="ignore"):
        t_cap = np.where(a > 0, np.maximum(0.0, (v_max - v0) / a), np.inf)
        s_cap = np.where(a > 0, v0 * t_cap + 0.5 * a * t_cap * t_cap, np.inf)
        # sqrt(v0^2 + 2ax) in factors that do not underflow for tiny v0, a, x
        c = np.sqrt(2.0 * np.abs(a)) * np.sqrt(np.maximum(x, 0.0))
        root = np.where(a >= 0, np.hypot(v0, c),
                        np.sqrt(np.maximum(v0 - c, 0.0)) * np.sqrt(v0 + c))
        den = v0 + root
        early = np.where(den > 0, 2.0 * x / den, 0.0)
        late = t_cap + (x - s_cap) / v_max
    return np.where(x > s_cap, late, early)


def min_gap_in_step(gap0: float, gap1: float, lead_speed: float,
                    lead_accel: float, speed: float, accel: float, dt: float,
                    v_max: float) -> tuple[float, float]:
    """(smallest gap, time of it) while two vehicles take one step_vehicle step.

    gap0 and gap1 are the gaps at the start and the end of the step.
    Speeds over the step are clamp(v0 + a*t, 0, v_max), which is monotone
    in (v0, a): the follower closes in exactly while its unclamped speed
    line lies above the leader's.  So the gap is smallest at an end of the
    step, or where the two lines cross when the follower starts faster and
    the leader accelerates harder.  Speeds must lie in [0, v_max].
    """
    best, when = (gap0, 0.0) if gap0 <= gap1 else (gap1, dt)
    if lead_accel > accel and speed > lead_speed:
        cross = (speed - lead_speed) / (lead_accel - accel)
        # a subnormal speed difference can round cross to 0, where the
        # gap is gap0 and step_vehicle refuses a zero step
        if 0.0 < cross < dt:
            gap = (gap0 + step_vehicle(lead_speed, lead_accel, cross, v_max)[1]
                   - step_vehicle(speed, accel, cross, v_max)[1])
            if gap < best:
                best, when = gap, cross
    return best, when


def max_safe_accel(budget: float, speed: float, a_max: float, dt: float) -> float:
    """Largest acceleration that keeps this step plus a full stop within budget.

    Chooses max a in [-a_max, a_max] with  d(a) + msd(v') <= budget, where
    d(a) is this step's travel and v' the end-of-step speed.  Under full
    braking d + msd(v') equals msd(v) exactly, so a vehicle that currently
    satisfies msd(v) <= budget can always maintain the invariant.
    """
    if budget < 0:
        return -a_max
    if budget == 0:
        # standstill at the boundary is a fixed point; any motion must brake
        return 0.0 if speed == 0 else -a_max
    c = dt
    # quadratic alpha*a^2 + beta*a + gamma = budget on the no-mid-stop branch
    alpha = c * c / (2 * a_max)
    beta = 0.5 * c * c + speed * c / a_max
    gamma = speed * c + speed * speed / (2 * a_max)
    disc = beta * beta - 4 * alpha * (gamma - budget)
    if disc >= 0:
        root = (-beta + math.sqrt(disc)) / (2 * alpha)
        if root >= -speed / c - 1e-12:
            return min(max(root, -a_max), a_max)
    # must stop within the step: travel is v^2 / (2|a|)
    if speed <= 0:
        return -a_max
    need = speed * speed / (2 * budget)
    return min(max(-need, -a_max), -0.0)


def follow_gap_accel(gap: float, speed: float, leader_speed: float,
                     min_gap: float, params: VehicleParams, dt: float) -> float:
    """Acceleration for a follower that must never close below min_gap.

    Worst case assumed: the leader may brake at a_max from now on, so the
    follower's step plus stopping distance must fit within
    gap - min_gap + leader stopping distance.  Panic-brakes if the gap is
    already below min_gap; accelerates toward v_max when the gap is ample.
    """
    if gap < min_gap:
        return -params.a_max
    budget = gap - min_gap + msd(leader_speed, params.a_max)
    a = max_safe_accel(budget, speed, params.a_max, dt)
    if speed >= params.v_max:
        a = min(a, 0.0)
    return a


def stop_bar_accel(distance: float, speed: float, params: VehicleParams,
                   dt: float) -> float:
    """Acceleration limit so the front bumper never crosses a bar `distance` ahead.

    distance == 0 is not overshoot: a vehicle parked exactly on the bar
    commands 0, not -a_max, so followers fed its commanded acceleration do
    not inherit phantom braking.  Distances within ON_BAR past the bar are
    float residue of braking onto it and count as 0.
    """
    if -ON_BAR < distance < 0:
        distance = 0.0
    if distance < 0:
        return -params.a_max
    a = max_safe_accel(distance, speed, params.a_max, dt)
    if speed >= params.v_max:
        a = min(a, 0.0)
    return a


def free_accel(speed: float, params: VehicleParams) -> float:
    """Unconstrained intent: full throttle until the speed limit."""
    return params.a_max if speed < params.v_max else 0.0


def formation_accel(gap: float, speed: float, leader_speed: float,
                    leader_accel: float, params: VehicleParams, dt: float,
                    k_gap: float = 0.25, k_speed: float = 0.9) -> float:
    """Closing controller for a platoon member converging on its predecessor.

    Feedforward of the predecessor's commanded acceleration (decided earlier
    in the same step and shared over V2V) plus proportional terms in gap
    error and speed difference.  The safety envelope assumes synchronized
    braking rather than the independent worst case of follow_gap_accel,
    which would forbid gaps below the predecessor's stopping distance and
    make platooning at speed impossible: this step's travel plus the
    follower's stopping distance must fit within
    gap - d_h + (predecessor's announced travel) + msd(predecessor's
    end-of-step speed).  Since full braking minimizes travel + msd, the
    envelope is preserved step over step and the gap never closes below
    d_h while the follower is the faster vehicle.
    """
    d_h = params.headway_platoon
    lead_v2, lead_d = step_vehicle(leader_speed, leader_accel, dt, params.v_max)
    a = leader_accel + k_gap * (gap - d_h) + k_speed * (leader_speed - speed)
    safe = max_safe_accel(gap - d_h + lead_d + msd(lead_v2, params.a_max),
                          speed, params.a_max, dt)
    a = min(a, safe)
    if speed >= params.v_max:
        a = min(a, 0.0)
    return min(max(a, -params.a_max), params.a_max)


def max_platoon_size(params: VehicleParams, formation_length: float) -> int:
    """Largest n whose formed platoon fits inside the formation zone."""
    n = int((formation_length + params.headway_platoon)
            // (params.length + params.headway_platoon))
    return max(1, n)


@dataclass
class Vehicle:
    """One CAV and its per-episode bookkeeping."""

    vid: int
    movement: str
    arrival_time: float          # Poisson event time (may precede spawn)
    spawn_time: float
    route_pos: float             # front bumper arc along the route
    speed: float
    platoon_id: int | None = None
    wait_time: float = 0.0       # accumulated standstill time before stop line
    step_count: int = 0
    fuel_total: float = 0.0
    exit_time: float | None = None
    removed_by_deadlock: bool = False

    @property
    def exited(self) -> bool:
        return self.exit_time is not None


@dataclass
class Platoon:
    """An ordered group of vehicles in one movement, led by its first member.

    Once released it is one rigid body: arc, speed and accel are the
    nominal head's, and member k sits rigid_offsets[k] behind arc.
    """

    pid: int
    movement: str
    target_size: int
    members: list[int] = field(default_factory=list)  # vehicle ids, front first
    arc: float = 0.0             # nominal head's front arc once released
    speed: float = 0.0
    accel: float = 0.0
    decision_time: float | None = None
    release_time: float | None = None

    @property
    def size(self) -> int:
        return len(self.members)


def rigid_offsets(n: int, params: VehicleParams) -> list[float]:
    """Front-bumper offsets of members behind the leader in a formed platoon."""
    pitch = params.length + params.headway_platoon
    return [i * pitch for i in range(n)]


def platoon_footprint(poses, params: VehicleParams) -> np.ndarray:
    """Body rectangles (n, 4, 2) for member poses [(x, y, heading), ...].

    Each pose is the front bumper; the body rectangle is centred half a
    vehicle length behind it along the heading.
    """
    x, y, heading = np.asarray(poses, dtype=float).reshape(-1, 3).T
    f = heading_vectors(heading)
    half = 0.5 * params.length
    return oriented_rects(x - half * f[:, 0], y - half * f[:, 1],
                          params.length, params.width, heading)
