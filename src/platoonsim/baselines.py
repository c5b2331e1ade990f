"""Alternative control policies run against the same environment.

AGENT_LAYERS says which DQN layers each platoon policy learns: coor-plt
both, fixed-size platooning (fp) only priorities, always forming platoons
of three, and random coordination (rc) only sizing, drawing passing
priorities uniformly.  The conventional references learn neither: a
Webster fixed-time signal plan, and a first-come-first-served space-time
tile reservation scheme for individual vehicles.

All four consume the same geometry, dynamics, and arrival streams as the
learned controller, so paired comparisons under a common seed are
demand-matched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coordination import K_MAX, PERMS, PathRaster
# perfbench/instrument.py wraps path_cell_spans under this module's name
from .coordination import path_cell_spans  # noqa: F401
from .dynamics import VehicleParams, free_accel, step_vehicle

#: (learns sizing, learns priorities) for each platoon policy
AGENT_LAYERS = {"coor-plt": (True, True), "fp": (False, True), "rc": (True, False)}
PLATOON_POLICIES = tuple(AGENT_LAYERS)
POLICY_KINDS = PLATOON_POLICIES + ("webster", "fcfs-reservation")

FIXED_PLATOON_SIZE = 3

# steps of tiles a reservation holds on each side of its swept steps
BUFFER_STEPS = 1


def agent_layers(policy: str) -> tuple:
    """(needs sizing agent, needs priority agent) for a policy kind."""
    return AGENT_LAYERS.get(policy, (False, False))


def random_priority_decider(rng: np.random.Generator):
    """decide_fn for the zone tracker: ignores the state and draws one of
    the group's k! passing orders uniformly, as the action whose leading
    slots are the drawn permutation and whose tail is the identity."""

    def decide(_state, _mask, members) -> int:
        k = len(members)
        return PERMS.index(tuple(rng.permutation(k).tolist())
                           + tuple(range(k, K_MAX)))

    return decide


# -- fixed-time signal control ---------------------------------------------------


#: Four-phase plan: through movements release together with the right turn
#: from the same approach pair; protected left phases follow.  Movements
#: within one phase are geometrically conflict-free.
SIGNAL_PHASES = (
    ("ns-through", ("north-south", "south-north", "north-west", "south-east")),
    ("ns-left", ("north-east", "south-west")),
    ("ew-through", ("east-west", "west-east", "east-north", "west-south")),
    ("ew-left", ("east-south", "west-north")),
)


@dataclass(frozen=True)
class SignalPhase:
    name: str
    movements: tuple
    green_start: float
    green_end: float


class WebsterPlan:
    """Fixed four-phase signal timing from per-movement demand.

    Cycle length follows Webster's delay-minimizing rule
    C = (1.5 Lt + 5) / (1 - Y) with Lt the total lost time and Y the sum
    of the per-phase critical flow ratios; green time splits in
    proportion to the critical ratios.  The cycle is stretched when the
    proportional split would push a phase below the minimum green, and
    clamped to `max_cycle` when demand is at or beyond saturation
    (Y >= y_cap), where the formula has no finite optimum.  Phases with
    no demand at all sit outside the split at a flat minimum green, so
    the plan stays defined down to a completely empty demand table.
    """

    def __init__(self, rates: dict, saturation_flow: float = 1800.0,
                 lost_per_phase: float = 4.0, min_green: float = 5.0,
                 max_cycle: float = 120.0, y_cap: float = 0.95):
        missing = [m for _, moves in SIGNAL_PHASES for m in moves
                   if m not in rates]
        if missing:
            raise ValueError(f"rates missing movements: {missing}")
        self.critical = tuple(max(rates[m] for m in moves) / saturation_flow
                              for _, moves in SIGNAL_PHASES)
        self.flow_ratio_sum = sum(self.critical)
        lost_total = lost_per_phase * len(SIGNAL_PHASES)
        demanded = [y for y in self.critical if y > 0]
        # undemanded phases take a flat minimum green outside the split
        floor_total = lost_total + min_green * (len(SIGNAL_PHASES) - len(demanded))
        if not demanded:
            self.saturated = False
            self.cycle = floor_total
            self.greens = tuple(min_green for _ in SIGNAL_PHASES)
        else:
            if self.flow_ratio_sum < y_cap:
                cycle = (1.5 * lost_total + 5.0) / (1.0 - self.flow_ratio_sum)
                # proportional splits must respect the minimum green
                cycle = max(cycle, floor_total + min_green * self.flow_ratio_sum
                            / min(demanded))
                self.saturated = False
            else:
                cycle = max_cycle
                self.saturated = True
            self.cycle = min(cycle, max_cycle)
            green_pool = self.cycle - floor_total
            if green_pool <= 0:
                raise ValueError("lost time exceeds the cycle length")
            self.greens = tuple(min_green if y == 0 else
                                green_pool * y / self.flow_ratio_sum
                                for y in self.critical)
            if not self.saturated and min(self.greens) < min_green - 1e-9:
                raise ValueError("phase green below minimum; raise max_cycle")
        phases = []
        start = 0.0
        for (name, moves), green in zip(SIGNAL_PHASES, self.greens):
            phases.append(SignalPhase(name, moves, start, start + green))
            start += green + lost_per_phase
        self.phases = tuple(phases)

    def phase_at(self, t: float):
        """The phase whose green interval contains t, or None in lost time."""
        u = math.fmod(t, self.cycle)
        if u < 0:
            u += self.cycle
        for phase in self.phases:
            if phase.green_start <= u < phase.green_end:
                return phase
        return None

    def allowed(self, t: float) -> frozenset:
        """Movement keys with a green indication at time t."""
        phase = self.phase_at(t)
        return frozenset(phase.movements) if phase else frozenset()

    def go(self, movement_key: str, t: float) -> bool:
        return movement_key in self.allowed(t)


# -- first-come-first-served tile reservation -----------------------------------------


class ReservationManager:
    """Space-time tile reservations for individual vehicles.

    A vehicle asks to cross with its current front position and speed;
    the manager projects a full-throttle profile through the zone and
    reserves every (cell, timestep) tile the body sweeps, padded one
    step on each side.  The request is granted only if no tile is held
    by another vehicle, and requests are always processed in the order
    vehicles first asked, regardless of arrival batching.  Denied
    vehicles simply ask again on a later step.
    """

    def __init__(self, raster: PathRaster, params: VehicleParams, dt: float):
        self.raster = raster
        self.params = params
        self.dt = dt
        self._tiles: dict = {}        # tile -> vid, see tiles_for
        self._first_seen: dict = {}
        self._seq = 0

    def crossing_profile(self, movement_key: str, front: float,
                         speed: float) -> list:
        """(front, speed) after each step of a full-throttle crossing,
        starting from the current state, until the body has passed every
        cell of the movement."""
        profile = [(front, speed)]
        f, v = front, speed
        exit_front = self.raster.reach[self.raster.row[movement_key]]
        while f <= exit_front:
            v, d = step_vehicle(v, free_accel(v, self.params), self.dt,
                                self.params.v_max)
            f += d
            profile.append((f, v))
        return profile

    def tiles_for(self, movement_key: str, profile: list,
                  start_step: int) -> set:
        """Every (cell, step) tile the swept body needs, buffer included.

        The step from state j to j+1 sweeps the front across
        [front_j, front_j+1]; a cell is involved when that interval meets
        its occupancy bracket, and both endpoint steps are reserved so a
        cell is never crossed between unreserved samples.  A tile is the
        int step * g * g + cell, with the raster's cell id r * g + c.
        """
        raster = self.raster
        row = raster.row[movement_key]
        fronts = np.array([f for f, _ in profile])
        j, slot = np.nonzero((raster.lo[row] <= fronts[1:, None])
                             & (raster.hi[row] >= fronts[:-1, None]))
        steps = start_step + j[:, None] + np.arange(-BUFFER_STEPS, BUFFER_STEPS + 2)
        tiles = steps * raster.grid.granularity ** 2 + raster.ids[row, slot][:, None]
        return set(tiles.ravel().tolist())

    def step(self, requests, t_index: int) -> dict:
        """Process one step's crossing requests.

        `requests` holds (vid, movement_key, front, speed) entries; the
        result maps each vid to its granted profile or None.  Grants are
        decided one at a time in first-request order, each immediately
        reserving its tiles against later requests.
        """
        ordered = []
        for vid, movement_key, front, speed in requests:
            if vid not in self._first_seen:
                self._first_seen[vid] = self._seq
                self._seq += 1
            ordered.append((self._first_seen[vid], vid, movement_key,
                            front, speed))
        ordered.sort()
        out = {}
        for _, vid, movement_key, front, speed in ordered:
            profile = self.crossing_profile(movement_key, front, speed)
            tiles = self.tiles_for(movement_key, profile, t_index)
            if any(self._tiles.get(tile, vid) != vid for tile in tiles):
                out[vid] = None
                continue
            for tile in tiles:
                self._tiles[tile] = vid
            out[vid] = profile
        return out

    def prune(self, t_index: int) -> None:
        """Forget tiles that can no longer constrain any new request."""
        # tile < horizon * g * g exactly when the tile's step < horizon
        horizon = (t_index - BUFFER_STEPS - 1) * self.raster.grid.granularity ** 2
        stale = [tile for tile in self._tiles if tile < horizon]
        for tile in stale:
            del self._tiles[tile]
