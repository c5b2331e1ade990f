"""Episode engine: arrivals, platoon formation, zone coordination, deadlock
handling, signal and reservation baselines, continuous-time safety auditing,
and measurement.

One Simulation object runs one episode.  Heavy geometry products are
built once per process in a SharedContext and reused across episodes:
two PathRasters, which hold every movement's cell brackets and the
oriented table of regions each pair of movements shares, and the state
canvas.  The raster at the configured granularity serves the coordination
tracker and the FCFS tile reservations; the one at the finest granularity
serves the safety audit.  Everything mutable lives on the Simulation, so
episodes are independent given their seeds.

Both layers place bodies through Movement.poses, one call per array of
arcs: each raster once per movement when it is built, and the canvas once
per lane for every snapshot of pending sizing decisions, which encode reads
as one (n, 5) stack of (x, y, heading, speed, ttj).

Step order, repeated T/dt times:
  arrivals -> platoon-size decisions -> formation bookkeeping and
  releases -> zone status scan with priority decisions -> deadlock pass ->
  per-vehicle control and integration -> exits, rewards, and the safety
  audit.

Vehicle routes are one-dimensional: route_pos is the front-bumper arc with
0 at the formation-zone entry, L at the stop line, and L + zone path length
at the start of the exit lane.  The coordination tracker works in zone
coordinates (arc from the stop line), so views translate by -L.

A released platoon is one rigid body: Platoon.arc is its nominal head's
front arc and each member stays at its rigid offset behind it.  The nominal
head arc runs on after the head exits, so the tracker sees the whole body
until its tail clears.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import (FIXED_PLATOON_SIZE, PLATOON_POLICIES, POLICY_KINDS,
                        ReservationManager, WebsterPlan, agent_layers,
                        random_priority_decider)
from .config import SimConfig
from .coordination import CoordinationTracker, PathRaster, PlatoonView
# perfbench/instrument.py wraps path_cell_spans under this module's name
from .coordination import path_cell_spans  # noqa: F401
from .deadlock import detect_deadlocks, punish_and_clear
from .drl.agent import Experience
from .dynamics import (ON_BAR, Platoon, Vehicle, follow_gap_accel,
                       formation_accel, free_accel, min_gap_in_step,
                       rigid_offsets, step_vehicle, stop_bar_accel, travel_time)
from .formation import (FormationCanvas, delay_factor, formation_reward,
                        penalized_wait, time_to_join)
from .geometry import Grid, msd
from .metrics import EpisodeMetrics
from .traffic import ArrivalProcess

AUDIT_GRANULARITY = 24   # safety audit always runs at the finest grid
STANDSTILL = 0.1         # m/s; below this a vehicle accrues waiting time
FCFS_REQUEST_RANGE = 50.0  # m before the stop line where crossing requests start
GAP_TOLERANCE = 0.1      # m; formation gaps within d_h +- this count as formed


class SafetyAuditError(RuntimeError):
    """Two vehicles shared a cell or overlapped in lane; the JSON dump at
    `dump_path` (a Path) names them and replays their step."""

    def __init__(self, message: str, dump_path):
        super().__init__(message)
        self.dump_path = dump_path


# -- shared, episode-independent products ------------------------------------

@dataclass(frozen=True)
class SharedContext:
    """Episode-independent products of one config, built once per process.

    Both rasters hold every movement's cell brackets and the oriented region
    table regions[(a, b)], seen from movement a.  `raster`, at the config
    granularity, serves the coordination tracker and the FCFS tiles;
    `audit`, at AUDIT_GRANULARITY, serves the safety audit.
    """

    layout: object
    params: object
    raster: PathRaster
    audit: PathRaster
    canvas: FormationCanvas
    zone_len: dict         # movement key -> zone path length
    movements: tuple       # movement keys, sorted


_SHARED_CACHE: dict = {}


def shared_context(config: SimConfig) -> SharedContext:
    key = (config.g, config.l_c, config.w_c, config.l_lane, config.L,
           config.a_max, config.v_max, config.d_h, config.d_h_hat, config.T_m)
    hit = _SHARED_CACHE.get(key)
    if hit is not None:
        return hit
    layout = config.layout()
    params = config.vehicle_params()
    raster = PathRaster.build(layout, Grid(config.g, layout.zone_side), params)
    ctx = SharedContext(
        layout=layout, params=params, raster=raster,
        audit=PathRaster.build(layout, Grid(AUDIT_GRANULARITY, layout.zone_side),
                               params),
        canvas=FormationCanvas(layout, params, horizon=config.T_m),
        zone_len={m.key: m.length for m in layout.movements},
        movements=raster.movements)
    _SHARED_CACHE[key] = ctx
    return ctx


# -- per-episode bookkeeping --------------------------------------------------

@dataclass
class _Window:
    """One platoon-size action and its reward accounting.

    A window is open, and listed in Simulation.window_of under its pid,
    from the decision until its platoon fully exits the network or is
    removed by a deadlock.  While open, factors accrue for every vehicle
    present in the lane's formation zone; the reward is computed at the
    exit.  next_state is the canvas at the lane's next sizing decision,
    which normally precedes the exit; None marks a terminal experience.
    """

    pid: int
    movement: str
    state: object
    action: int
    acc: dict = field(default_factory=dict)  # vid -> [wait, speed_sum, steps, fuel]
    next_state: object = None
    reward: float | None = None

    def experience(self, reward: float) -> Experience:
        return Experience(state=self.state, action=self.action, reward=reward,
                          next_state=self.next_state)


@dataclass
class _Lane:
    movement: str
    queue: list = field(default_factory=list)      # active vehicles, front first
    backlog: deque = field(default_factory=deque)  # arrived, waiting for road room
    forming: Platoon | None = None
    released: Platoon | None = None
    last_window: _Window | None = None             # awaiting its next_state


class Simulation:
    """One episode under one policy; see the module docstring for the loop.

    It takes `layer1` (sizing) and `layer2` (priority) agents for exactly
    the layers baselines.AGENT_LAYERS says the policy learns: coor-plt
    both, fp layer2, rc layer1, Webster and FCFS neither.  Any other agent
    is refused, and so is a missing one unless `calibrating`, which draws
    the learned decisions at random and ignores the agents it is given.
    """

    def __init__(self, config: SimConfig, *, policy: str | None = None,
                 seed: int | None = None, layer1=None, layer2=None,
                 normalizer=None, training: bool = False,
                 calibrating: bool = False, shared: SharedContext | None = None,
                 trace_path=None, audit_dump_dir="."):
        self.config = config
        self.policy = policy if policy is not None else config.policy
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"unknown policy {self.policy!r}")
        self.learns_size, learns_priority = agent_layers(self.policy)
        for agent, learns, layer in ((layer1, self.learns_size, "sizing"),
                                     (layer2, learns_priority, "priority")):
            if agent is not None and not learns:
                raise ValueError(f"policy {self.policy!r} takes no {layer} agent")
            if agent is None and learns and not calibrating:
                raise ValueError(f"policy {self.policy!r} needs a {layer} agent")
        self.seed = int(seed if seed is not None else config.seed)
        self.shared = shared if shared is not None else shared_context(config)
        self.params = self.shared.params
        self.fuel = config.fuel_model()
        self.dt = config.dt
        self.L = config.L
        # calibration draws every learned decision at random
        self.layer1, self.layer2 = (None, None) if calibrating else (layer1, layer2)
        self.normalizer = normalizer
        self.training = training
        self.calibrating = calibrating
        self.audit_dump_dir = audit_dump_dir

        arrivals_child, policy_child = np.random.SeedSequence(self.seed).spawn(2)
        self.arrivals = ArrivalProcess(config.schedule(), config.dt,
                                       [int(x) for x in arrivals_child.generate_state(4)])
        self.policy_rng = np.random.default_rng(policy_child)

        self.platoon_mode = self.policy in PLATOON_POLICIES
        self.tracker = None
        self.webster = None
        self.reservation = None
        self._random_priority = random_priority_decider(self.policy_rng)
        if self.platoon_mode:
            self.tracker = CoordinationTracker(
                self.shared.layout, self.shared.raster, self.params, config.dt)
        elif self.policy == "webster":
            self.webster = WebsterPlan(webster_rates(config))
        else:
            self.reservation = ReservationManager(
                self.shared.raster, self.params, config.dt)

        self.lanes = {mk: _Lane(mk) for mk in self.shared.movements}
        self.vehicles: dict[int, Vehicle] = {}
        self.platoons: dict[int, Platoon] = {}
        self.window_of: dict[int, _Window] = {}
        self.granted: set = set()
        self._next_vid = 0
        self._next_pid = 0
        self._plan = None
        self._fuel_exited: list = []
        self._step_fuel: dict = {}
        self.metrics = EpisodeMetrics(seed=self.seed, policy=self.policy,
                                      condition=config.condition, g=config.g)
        self._trace = open(trace_path, "w", encoding="utf-8") if trace_path else None

    # -- top level ------------------------------------------------------------

    def run(self) -> EpisodeMetrics:
        n_steps = int(round(self.config.T / self.dt))
        try:
            for i in range(n_steps):
                self._step(i)
        finally:
            if self._trace:
                self._trace.close()
        self._finalize(n_steps)
        return self.metrics

    def _step(self, i: int) -> None:
        t = i * self.dt
        self._spawn_arrivals(t)
        if self.platoon_mode:
            self._sizing_decisions(t)
            self._releases(t)
            self._plan = self.tracker.step(self._views(), t, self._decide_priority)
            self._consume_records(self._plan)
            self._deadlock_pass(t, self._plan)
        elif self.reservation is not None:
            self._fcfs_requests(i)
        commands = self._accelerations(t)
        self._integrate(commands)
        self._accrue_windows()
        self._exits_and_rewards(t)
        self._audit(i, t)
        if self._trace:
            self._write_trace(t)
        self.metrics.steps = i + 1

    # -- arrivals ---------------------------------------------------------------

    def _spawn_arrivals(self, t: float) -> None:
        counts = self.arrivals.sample(t)
        for mk in self.shared.movements:
            lane = self.lanes[mk]
            for _ in range(counts.get(mk, 0)):
                vid = self._next_vid
                self._next_vid += 1
                veh = Vehicle(vid=vid, movement=mk, arrival_time=t,
                              spawn_time=t, route_pos=0.0, speed=0.0)
                lane.backlog.append(veh)
                self.metrics.arrived += 1
            self._drain_backlog(lane, t)

    def _drain_backlog(self, lane: _Lane, t: float) -> None:
        p = self.params
        spawn_front = p.length  # body just inside the formation zone
        while lane.backlog:
            if lane.queue:
                tail = lane.queue[-1]
                gap = tail.route_pos - p.length - spawn_front
                if gap < p.headway_lane:
                    return
                # entry speed that stays stoppable within the available gap
                budget = gap - p.headway_lane + msd(tail.speed, p.a_max)
                speed = min(p.v_max, math.sqrt(max(0.0, 2.0 * p.a_max * budget)))
            else:
                speed = p.v_max
            veh = lane.backlog.popleft()
            veh.spawn_time = t
            veh.route_pos = spawn_front
            veh.speed = speed
            lane.queue.append(veh)
            self.vehicles[veh.vid] = veh
            self.metrics.spawned += 1

    # -- layer 1: sizing decisions and formation ---------------------------------

    def _canvas_vehicles(self) -> np.ndarray:
        """(n, 5) rows (x, y, heading, speed, ttj) of every queued vehicle,
        lane by lane in queue order: the stack FormationCanvas.encode reads."""
        p = self.params
        pitch = p.length + p.headway_platoon
        poses, speed, ttj = [], [], []
        for mk in self.shared.movements:
            lane = self.lanes[mk]
            if not lane.queue:
                continue
            forming = lane.forming
            tail_slot = None
            if forming is not None and forming.members:
                tail_slot = self.vehicles[forming.members[-1]].route_pos - pitch
            poses.append(self.shared.layout.movement(mk).poses(
                [veh.route_pos - self.L for veh in lane.queue]))
            for veh in lane.queue:
                speed.append(veh.speed)
                if veh.platoon_id is None and tail_slot is not None:
                    ttj.append(time_to_join(tail_slot - veh.route_pos, veh.speed, p))
                else:
                    ttj.append(0.0)
        x, y, heading = (np.concatenate(part) for part in zip(*poses))
        return np.stack([x, y, heading, speed, ttj], axis=1)

    def _sizing_decisions(self, t: float) -> None:
        pending = [mk for mk in self.shared.movements
                   if self.lanes[mk].forming is None
                   and any(v.platoon_id is None for v in self.lanes[mk].queue)]
        if not pending:
            return
        snapshot = self._canvas_vehicles()
        for mk in pending:
            lane = self.lanes[mk]
            state = self.shared.canvas.encode(snapshot, mk)
            if lane.last_window is not None:
                lane.last_window.next_state = state
                self._maybe_emit(lane.last_window, terminal=False)
            size = self._choose_size(state)
            pid = self._next_pid
            self._next_pid += 1
            platoon = Platoon(pid=pid, movement=mk, target_size=size,
                              decision_time=t)
            lane.forming = platoon
            self.platoons[pid] = platoon
            hist = self.metrics.size_histogram
            hist[size] = hist.get(size, 0) + 1
            self.metrics.layer1_actions += 1
            # sizing windows exist wherever the sizing reward is defined
            if self.learns_size:
                window = _Window(pid, mk, state, size - 1)
                lane.last_window = window
                self.window_of[pid] = window

    def _choose_size(self, state) -> int:
        if not self.learns_size:
            return FIXED_PLATOON_SIZE
        if self.layer1 is None:
            return int(self.policy_rng.integers(1, self.config.n_sizes() + 1))
        return self.layer1.act(state, greedy=not self.training) + 1

    def _join_new_members(self, lane: _Lane) -> None:
        platoon = lane.forming
        if platoon is None or platoon.size >= platoon.target_size:
            return
        for veh in lane.queue:
            if platoon.size >= platoon.target_size:
                break
            if veh.platoon_id is None:
                veh.platoon_id = platoon.pid
                platoon.members.append(veh.vid)

    def _converged_prefix(self, platoon: Platoon) -> int:
        """Member count of the leading run with gaps at d_h within tolerance."""
        p = self.params
        n = 1
        for prev_vid, vid in zip(platoon.members, platoon.members[1:]):
            gap = (self.vehicles[prev_vid].route_pos - p.length
                   - self.vehicles[vid].route_pos)
            if abs(gap - p.headway_platoon) > GAP_TOLERANCE:
                break
            n += 1
        return n

    def _releases(self, t: float) -> None:
        for mk in self.shared.movements:
            lane = self.lanes[mk]
            self._join_new_members(lane)
            platoon = lane.forming
            if platoon is None or not platoon.members:
                continue
            head = self.vehicles[platoon.members[0]]
            size_reached = platoon.size >= platoon.target_size
            overdue = head.wait_time > self.config.T_m
            if not (size_reached or overdue):
                continue
            prefix = self._converged_prefix(platoon)
            if size_reached and prefix < platoon.size and not overdue:
                continue  # commanded size present but still closing gaps
            if lane.released is not None:
                continue  # a platoon of this movement is still in the zone
            # overdue escape departs with whatever leading run has formed
            for vid in platoon.members[prefix:]:
                self.vehicles[vid].platoon_id = None
            platoon.members = platoon.members[:prefix]
            platoon.arc, platoon.speed = head.route_pos, head.speed
            for off, vid in zip(rigid_offsets(platoon.size, self.params),
                                platoon.members):
                veh = self.vehicles[vid]
                veh.route_pos = platoon.arc - off
                veh.speed = platoon.speed
            platoon.release_time = t
            lane.released = platoon
            lane.forming = None

    # -- layer 2: zone coordination ----------------------------------------------

    def _views(self) -> list:
        return [PlatoonView(lane.released.pid, mk, lane.released.arc - self.L,
                            lane.released.speed, lane.released.size)
                for mk, lane in self.lanes.items() if lane.released is not None]

    def _decide_priority(self, state, mask, members) -> int:
        if self.layer2 is None:
            return self._random_priority(state, mask, members)
        return self.layer2.act(state, mask, greedy=not self.training)

    def _consume_records(self, plan) -> None:
        self.metrics.coordinations += len(plan.triggered)
        for record in plan.completed:
            self.metrics.layer2_reward += record.reward
            if self.training and self.layer2 is not None:
                for exp in record.experiences:
                    self.layer2.remember(exp)

    # -- deadlock pass -------------------------------------------------------------

    def _deadlock_pass(self, t: float, plan) -> None:
        stationary = {pid: blockers for pid, blockers in plan.blocking.items()
                      if blockers and self.platoons[pid].speed < STANDSTILL}
        if not stationary:
            return
        cycles = detect_deadlocks(stationary)
        if not cycles:
            return
        punishment = self.config.R_deadlock
        origins = {pid: self.window_of[pid].experience(punishment)
                   for cycle in cycles for pid in cycle if pid in self.window_of}
        agent = self.layer1 if self.training else None
        events = punish_and_clear(cycles, origins, agent,
                                  lambda pid: self._remove_platoon(pid, t),
                                  punishment)
        self.metrics.deadlock_events += len(events)
        for event in events:
            self.metrics.layer1_reward += punishment * len(event.punished)

    def _remove_platoon(self, pid: int, t: float) -> None:
        """Evict a wedged platoon at time t: its vehicles leave at the zone
        boundary, tagged, and its sizing window closes without a reward."""
        platoon = self.platoons[pid]
        lane = self.lanes[platoon.movement]
        for vid in platoon.members:
            veh = self.vehicles[vid]
            if veh.exited:
                continue
            veh.exit_time = t
            veh.removed_by_deadlock = True
            self.metrics.travel_times.append(veh.exit_time - veh.spawn_time)
            self._fuel_exited.append(veh.fuel_total)
            self.metrics.exited += 1
            self.metrics.deadlock_removed += 1
        member_set = set(platoon.members)
        lane.queue = [v for v in lane.queue if v.vid not in member_set]
        if lane.released is platoon:
            lane.released = None
        self.window_of.pop(pid, None)

    # -- FCFS requests ----------------------------------------------------------

    def _fcfs_requests(self, i: int) -> None:
        requests = []
        for mk in self.shared.movements:
            lane = self.lanes[mk]
            if not lane.queue:
                continue
            head = lane.queue[0]
            front = head.route_pos - self.L
            if head.vid not in self.granted and front >= -FCFS_REQUEST_RANGE:
                requests.append((head.vid, mk, front, head.speed))
        if requests:
            for vid, profile in self.reservation.step(requests, i).items():
                if profile is not None:
                    self.granted.add(vid)
        self.reservation.prune(i)

    # -- control and integration --------------------------------------------------

    def _must_hold(self, veh: Vehicle, t: float) -> bool:
        """Stop-line gate for vehicles outside released platoons."""
        # the stop envelope parks the front bumper exactly on the bar, so
        # only a strict crossing counts as being inside the zone
        if veh.route_pos >= self.L + ON_BAR:
            return False
        if self.platoon_mode:
            return True  # only released platoons may cross
        if self.webster is not None:
            if self.webster.go(veh.movement, t):
                return False
            # Committed crossers caught by the red genuinely unable to stop
            # continue through (the lost time absorbs them).  The tolerance
            # keeps vehicles riding the stop envelope, where msd equals the
            # remaining distance up to float error, on the holding side.
            return (msd(veh.speed, self.params.a_max)
                    <= self.L - veh.route_pos + 1e-6)
        return veh.vid not in self.granted

    def _accelerations(self, t: float) -> dict:
        p, dt = self.params, self.dt
        bars = self._plan.bars if self._plan is not None else {}
        commands: dict[int, float] = {}
        for mk in self.shared.movements:
            lane = self.lanes[mk]
            body = lane.released
            if body is not None:
                # a lane releases only once its previous platoon has left,
                # so the body leads the lane
                body.accel = free_accel(body.speed, p)
                bar = bars.get(body.pid)
                if bar is not None:
                    body.accel = min(body.accel, stop_bar_accel(
                        self.L + bar - body.arc, body.speed, p, dt))
            prev = None
            for veh in lane.queue:
                if body is not None and veh.platoon_id == body.pid:
                    prev = veh
                    continue
                platoon = self.platoons.get(veh.platoon_id)   # forming, if any
                a = free_accel(veh.speed, p)
                if prev is not None:
                    gap = prev.route_pos - p.length - veh.route_pos
                    if platoon is not None and veh.vid != platoon.members[0]:
                        a = formation_accel(gap, veh.speed, prev.speed,
                                            commands[prev.vid], p, dt)
                    else:
                        a = min(a, follow_gap_accel(gap, veh.speed, prev.speed,
                                                    p.headway_lane, p, dt))
                if self._must_hold(veh, t):
                    a = min(a, stop_bar_accel(self.L - veh.route_pos,
                                              veh.speed, p, dt))
                commands[veh.vid] = a
                prev = veh
        return commands

    def _integrate(self, commands: dict) -> None:
        p, dt = self.params, self.dt
        self._step_fuel = {}
        self._swept = []   # (vehicle, lane row, start arc, start speed, accel, travel)
        for row, mk in enumerate(self.shared.movements):
            lane = self.lanes[mk]
            body = lane.released
            if body is not None:
                body.speed, body_dist = step_vehicle(body.speed, body.accel,
                                                     dt, p.v_max)
                body.arc += body_dist
            for veh in lane.queue:
                if body is not None and veh.platoon_id == body.pid:
                    a, new_speed, dist = body.accel, body.speed, body_dist
                else:
                    a = commands[veh.vid]
                    new_speed, dist = step_vehicle(veh.speed, a, dt, p.v_max)
                self._swept.append((veh, row, veh.route_pos, veh.speed, a, dist))
                burn = self.fuel.increment(veh.speed, a, dt)
                veh.fuel_total += burn
                self._step_fuel[veh.vid] = burn
                veh.speed = new_speed
                veh.route_pos += dist
                veh.step_count += 1
                # a bumper parked exactly on the bar is still waiting to enter
                if new_speed < STANDSTILL and veh.route_pos < self.L + ON_BAR:
                    veh.wait_time += dt

    # -- window accrual, exits, rewards --------------------------------------------

    def _accrue_windows(self) -> None:
        dt = self.dt
        for window in self.window_of.values():
            for veh in self.lanes[window.movement].queue:
                if veh.route_pos >= self.L + ON_BAR:
                    continue   # inside the zone, past the formation zone
                acc = window.acc.get(veh.vid)
                if acc is None:
                    acc = window.acc[veh.vid] = [0.0, 0.0, 0, 0.0]
                if veh.speed < STANDSTILL:
                    acc[0] += dt
                acc[1] += veh.speed
                acc[2] += 1
                acc[3] += self._step_fuel[veh.vid]

    def _maybe_emit(self, window: _Window, terminal: bool) -> None:
        """Remember a rewarded window once its next state is known, or as a
        terminal experience at the episode cut.  A window a deadlock removed
        never gets a reward, so it is never emitted here.  No window passes
        both checks twice: the lane's next decision sets its next state as
        it replaces it, closing sets its reward as it leaves `window_of`,
        and the cut sees only windows with no next state."""
        if window.reward is None:
            return
        if window.next_state is None and not terminal:
            return
        if self.training and self.layer1 is not None:
            self.layer1.remember(window.experience(window.reward))

    def _raw_factors(self, window: _Window) -> list:
        """(penalized wait, delay, fuel) per vehicle seen by this window."""
        cfg = self.config
        out = []
        for wait, speed_sum, steps, fuel in window.acc.values():
            mean_speed = speed_sum / steps if steps else 0.0
            out.append((penalized_wait(wait, cfg.T_m),
                        delay_factor(mean_speed, cfg.v_max), fuel))
        return out

    def _close_windows(self, closing: list) -> None:
        """Reward windows whose platoons fully left the network this step.

        All the sizing actions rewarded at one timestamp receive the same
        value, computed over the union of their vehicle sets; lanes closing
        alone reduce to their own set.
        """
        factors = []
        for window in closing:
            factors.extend(self._raw_factors(window))
        if self.calibrating:
            for pw, delay, fuel in factors:
                self.normalizer.observe("wait", pw)
                self.normalizer.observe("delay", delay)
                self.normalizer.observe("fuel", fuel)
            reward = 0.0
        elif factors and self.normalizer is not None:
            cfg = self.config
            reward = formation_reward(
                [self.normalizer.normalize("wait", pw) for pw, _, _ in factors],
                [self.normalizer.normalize("delay", d) for _, d, _ in factors],
                [self.normalizer.normalize("fuel", f) for _, _, f in factors],
                weights=(cfg.w1, cfg.w2, cfg.w3))
        else:
            reward = 0.0
        for window in closing:
            window.reward = reward
            self.metrics.layer1_reward += reward
            self._maybe_emit(window, terminal=False)

    def _exits_and_rewards(self, t: float) -> None:
        t_exit = t + self.dt
        closing = []
        for mk in self.shared.movements:
            lane = self.lanes[mk]
            end = self.L + self.shared.zone_len[mk] + self.params.length
            keep = []
            for veh in lane.queue:
                if veh.route_pos > end:
                    veh.exit_time = t_exit
                    self.metrics.travel_times.append(t_exit - veh.spawn_time)
                    self._fuel_exited.append(veh.fuel_total)
                    self.metrics.exited += 1
                else:
                    keep.append(veh)
            lane.queue = keep
            platoon = lane.released
            if platoon is not None and all(
                    self.vehicles[vid].exited for vid in platoon.members):
                lane.released = None
                window = self.window_of.pop(platoon.pid, None)
                if window is not None:
                    closing.append(window)
        if closing:
            self._close_windows(closing)

    # -- safety audit ---------------------------------------------------------------

    def _audit(self, i: int, t: float) -> None:
        """Check the step just integrated in continuous time.

        Within a step every vehicle moves as step_vehicle integrates it, so
        its front arc is monotone in time.  Lane gaps are checked at their
        minimum over the step.  For every audit cell whose occupancy
        bracket meets a vehicle's swept front interval, the exact time
        interval of occupancy is solved; overlapping intervals of different
        movements on one cell are a conflict.  Vehicles that exited during
        the step are checked for the part of it they were present.
        """
        p, dt, L = self.params, self.dt, self.L
        raster = self.shared.audit
        zone = []
        prev = None
        for rec in self._swept:
            veh, row, pos0, speed, accel, dist = rec
            if prev is not None and prev[1] == row:
                _, _, lead_pos0, lead_speed, lead_accel, lead_dist = prev
                gap0 = lead_pos0 - p.length - pos0
                low, when = min_gap_in_step(gap0, gap0 + lead_dist - dist,
                                            lead_speed, lead_accel, speed,
                                            accel, dt, p.v_max)
                if low < -1e-9:
                    self._audit_failure(i, t, "lane overlap", prev[0], veh,
                                        min_gap=low, at=t + when)
            prev = rec
            if pos0 + dist >= L and pos0 - L <= raster.reach[row]:
                zone.append(rec)
        def sweeps(rec, region) -> bool:
            """Whether the record's swept front interval meets the arcs at
            which its body touches the region."""
            return (rec[2] - L <= region.clear
                    and rec[2] + rec[5] - L >= region.enter)

        # a pair can clash only while both sweep the cells their movements share
        movements, regions = raster.movements, raster.regions
        close = set()
        for x, rec in enumerate(zone):
            mk = movements[rec[1]]
            for y, other in enumerate(zone[:x]):
                region = regions.get((mk, movements[other[1]]))
                if (region is not None and sweeps(rec, region)
                        and sweeps(other, regions[(movements[other[1]], mk)])):
                    close.update((x, y))
        if not close:
            return
        zone = [zone[x] for x in sorted(close)]
        row, pos0, speed, accel, dist = np.array([rec[1:] for rec in zone]).T
        row = row.astype(np.int64)
        f0 = pos0 - L
        f1 = f0 + dist
        lo, hi = raster.lo[row], raster.hi[row]
        vi, ci = np.nonzero((lo <= f1[:, None]) & (hi >= f0[:, None]))
        cell, mov = raster.ids[row[vi], ci], row[vi]
        lo, hi, start, end = lo[vi, ci], hi[vi, ci], f0[vi], f1[vi]
        v, a = speed[vi], accel[vi]
        enter = travel_time(np.maximum(lo, start) - start, v, a, p.v_max)
        leave = np.where(hi >= end, dt, travel_time(hi - start, v, a, p.v_max))
        first = np.maximum(enter[:, None], enter[None, :])
        clash = ((cell[:, None] == cell[None, :]) & (mov[:, None] != mov[None, :])
                 & (first <= np.minimum(leave[:, None], leave[None, :])))
        if clash.any():
            x, y = np.unravel_index(np.argmin(np.where(clash, first, np.inf)),
                                    clash.shape)
            self._audit_failure(
                i, t, "cell overlap", zone[vi[x]][0], zone[vi[y]][0],
                cell=int(cell[x]),
                intervals=[[t + float(enter[k]), t + float(leave[k])] for k in (x, y)])

    def _audit_failure(self, i: int, t: float, kind: str,
                       veh_a: Vehicle, veh_b: Vehicle, *, intervals=None,
                       **detail) -> None:
        """Write a reproducer of the failed step and raise SafetyAuditError.

        Each vehicle's entry holds its state at both ends of the step and
        its acceleration, which replay the swept motion; a cell overlap also
        names the cell and both vehicles' occupancy intervals.
        """
        self.metrics.safety_violations += 1
        start = {rec[0].vid: rec[2:5] for rec in self._swept}
        records = []
        for k, v in enumerate((veh_a, veh_b)):
            pos0, speed0, accel = start[v.vid]
            record = {"vid": v.vid, "movement": v.movement,
                      "route_pos": v.route_pos, "speed": v.speed,
                      "route_pos_start": pos0, "speed_start": speed0,
                      "accel": accel, "platoon": v.platoon_id}
            if intervals is not None:
                record["interval"] = intervals[k]
            records.append(record)
        dump = {
            "seed": self.seed, "step": i, "t": t, "dt": self.dt,
            "policy": self.policy, "g": self.config.g, "kind": kind,
            **detail, "vehicles": records,
        }
        path = Path(self.audit_dump_dir) / f"safety-failure-seed{self.seed}-step{i}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=1)
        raise SafetyAuditError(
            f"{kind} between vehicles {veh_a.vid} ({veh_a.movement}) and "
            f"{veh_b.vid} ({veh_b.movement}) at step {i}; dump at {path}", path)

    # -- trace and finalization --------------------------------------------------------

    def _write_trace(self, t: float) -> None:
        bars = {}
        labels = {}
        if self._plan is not None:
            bars = {str(k): v for k, v in self._plan.bars.items()}
            labels = {str(k): {"label": v.label, "group": v.group}
                      for k, v in self._plan.labels.items()}
        row = {
            "t": t,
            "vehicles": [[v.vid, v.movement, round(v.route_pos, 4),
                          round(v.speed, 4),
                          v.platoon_id if v.platoon_id is not None else -1]
                         for mk in self.shared.movements
                         for v in self.lanes[mk].queue],
            "bars": bars, "labels": labels,
        }
        self._trace.write(json.dumps(row) + "\n")

    def _finalize(self, n_steps: int) -> None:
        m = self.metrics
        # episode cut: windows that never saw their platoon exit emit as
        # terminal when their reward is known, otherwise they are dropped
        for mk in self.shared.movements:
            lane = self.lanes[mk]
            if lane.last_window is not None:
                self._maybe_emit(lane.last_window, terminal=True)
        m.steps = n_steps
        m.in_network = sum(len(self.lanes[mk].queue) for mk in self.shared.movements)
        m.backlog = sum(len(self.lanes[mk].backlog) for mk in self.shared.movements)
        m.mean_travel_time = (float(np.mean(m.travel_times))
                              if m.travel_times else 0.0)
        m.mean_fuel = (float(np.mean(self._fuel_exited))
                       if self._fuel_exited else 0.0)
        m.check_conservation()


def webster_rates(config: SimConfig) -> dict:
    """Design flows for the fixed-time plan under the configured condition.

    Conditions 1 and 2 use their tier directly; the switching condition uses
    the time-weighted mean of the two tiers over the episode.
    """
    schedule = config.schedule()
    if config.condition in (1, 2):
        return schedule.profile_at(0.0).rates
    w = min(max(config.switch_time / config.T, 0.0), 1.0)
    first = schedule.profile_at(0.0).rates
    second = schedule.profile_at(config.T).rates
    return {mk: w * first[mk] + (1.0 - w) * second[mk] for mk in first}


def run_episode(config: SimConfig, policy: str | None = None,
                seed: int | None = None, **kwargs) -> EpisodeMetrics:
    """One episode; deterministic given (config, policy, seed).

    Keyword arguments are forwarded to Simulation (agents, normalizer,
    training/calibrating flags, shared context, trace path); `layer1` and
    `layer2` are the agents baselines.AGENT_LAYERS says the policy learns.
    """
    return Simulation(config, policy=policy, seed=seed, **kwargs).run()
