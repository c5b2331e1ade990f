"""Decentralized priority coordination of platoons inside the zone.

Conflicts are resolved on the zone's cell grid: for every pair of crossing
movements the cells both bodies sweep form a shared region, and a platoon
pair approaching the same region must agree on a crossing order.  Pairs are
classified every step: free when nobody contests the region, blocked when a
rival occupies or has committed to it, coordinated when both sides are close
enough that the decision can no longer wait.  A coordinated group picks one
joint priority permutation (a 24-way action head shared across group sizes),
holds it until everyone crossed, and scores the episode by how long the
crossing took.

Every contested pair is settled by one give-way rule: the platoon that goes
second waits before the region it shares with the first, unless it can no
longer stop before that region, in which case the first waits instead; if
neither can stop, coordination came too late and the tracker raises
SafetyFault.  A pair no group ranks goes first-committed-first.  A group
ranks its members by its chosen order.  Its spectators, the platoons of the
conflict set it leaves out (past the size cap, nearest to a region first,
or because a group already ranks them against a kept member), rank below
every member and among themselves in that order, until all members' roles
are done.  The oldest group that ranks a pair decides it alone, so no pair
is ever barred both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .drl.agent import Experience
from .dynamics import VehicleParams, step_vehicle
from .geometry import Grid, IntersectionLayout, msd, oriented_rects, rect_cells

K_MAX = 4
N_PRIORITY_ACTIONS = math.factorial(K_MAX)
PERMS = tuple(permutations(range(K_MAX)))  # lexicographic, 24 entries

INDEPENDENT_FREE = 1
INDEPENDENT_BLOCKED = 2
COORDINATED = 3

# stop this far short of a contested region's first cell
BAR_MARGIN = 0.05

# m; arc length of one rasterized slice of a movement's path tube
SLIVER = 0.05


class SafetyFault(RuntimeError):
    """A platoon can no longer stop before cells it has not been granted."""


@dataclass(frozen=True)
class StatusLabel:
    pid: int
    label: int            # one of the three scenario codes above
    group: int | None = None  # coordination group id when label == COORDINATED


# -- static conflict-region precomputation ------------------------------------


def path_cell_spans(movement, grid: Grid, params: VehicleParams) -> dict:
    """For one vehicle riding a movement: cell -> (s_first, s_last).

    s is the front-bumper arc length; the pair brackets every arc at which
    part of the body covers that zone cell.  Vehicles track the lane
    reference curve, so the body is the path tube of the vehicle's width:
    a front bumper at arc s covers tube arcs [s - length, s].  A rigid
    rectangle pivoted at the bumper heading would instead swing its tail
    across neighbouring lanes on the tight turns.  Platoon members reuse
    the brackets at their own offset arcs.  PathRaster.build packs these
    dicts into the arrays that the tracker, the tile reservations and the
    safety audit read.

    The tube from arc -length to the movement's length + length is cut
    into slivers of SLIVER metres (the last one shorter).  One
    Movement.poses call places every sliver's centre, and all of them are
    rasterized in one batch.  A cell's bracket runs from the start of the
    first sliver that covers it to the end of the last, plus the body
    length.  Cells are listed in order of their first sliver, then
    row-major.
    """
    half = grid.zone_side / 2.0
    lo_arc, hi_arc = -params.length, movement.length + params.length
    n = int(math.ceil((hi_arc - lo_arc) / SLIVER))
    g = grid.granularity
    tau = lo_arc + np.arange(n) * SLIVER
    seg = np.minimum(SLIVER, hi_arc - tau)
    x, y, heading = movement.poses(tau + 0.5 * seg)
    slivers = oriented_rects(x, y, seg, params.width, heading)
    owner, rows, cols = rect_cells(slivers, -half, -half, grid.cell_size, g, g)
    first = np.full(g * g, n)
    last = np.full(g * g, -1)
    np.minimum.at(first, rows * g + cols, owner)
    np.maximum.at(last, rows * g + cols, owner)
    cells = np.flatnonzero(last >= 0)
    cells = cells[np.argsort(first[cells], kind="stable")]
    lo = tau[first[cells]]
    hi = (tau + seg)[last[cells]] + params.length
    return {cell: bracket for cell, bracket in zip(
        zip(*(part.tolist() for part in np.divmod(cells, g))),
        zip(lo.tolist(), hi.tolist()))}


@dataclass(frozen=True)
class SharedRegion:
    """Zone cells two movements both sweep, seen from one of them.

    enter/clear are that movement's front-bumper arcs of a single body: it
    first touches a shared cell at `enter` and has left them all beyond
    `clear`.  A platoon tail adds its rigid offset to the clear arc.
    """

    cells: frozenset
    enter: float
    clear: float

    @property
    def bar(self) -> float:
        """Stop-before arc.  It never lies behind the stop line, where some
        g = 6 regions start, so a platoon standing there is not committed."""
        return max(self.enter - BAR_MARGIN, 0.0)


@dataclass(frozen=True)
class PathRaster:
    """Every movement's cell brackets on one grid, and their shared regions.

    Row k of `ids`, `lo` and `hi` holds movement `movements[k]`: its cells
    r * g + c in row-major order with the front-arc bracket of each, padded
    with cell -1 and the empty bracket (+inf, -inf), which no arc or swept
    front interval meets.  `reach[k]` is the row's largest hi, the front arc
    beyond which the body has left the zone.  `regions[(a, b)]` is the
    region movement a shares with b, seen from a; (b, a) holds the same
    cells seen from b.  Pairs that share no cell have no entry.
    """

    grid: Grid
    movements: tuple       # movement keys, sorted
    row: dict              # movement key -> row
    ids: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    reach: tuple
    regions: dict

    @classmethod
    def build(cls, layout: IntersectionLayout, grid: Grid,
              params: VehicleParams) -> "PathRaster":
        g = grid.granularity
        movements = tuple(sorted(m.key for m in layout.movements))
        rows = [sorted(path_cell_spans(layout.movement(mk), grid, params).items())
                for mk in movements]
        width = max(len(items) for items in rows)
        ids = np.full((len(rows), width), -1, dtype=np.int64)
        lo = np.full((len(rows), width), np.inf)
        hi = np.full((len(rows), width), -np.inf)
        for k, items in enumerate(rows):
            ids[k, :len(items)] = [r * g + c for (r, c), _ in items]
            lo[k, :len(items)] = [bracket[0] for _, bracket in items]
            hi[k, :len(items)] = [bracket[1] for _, bracket in items]
        # occupied[k, cell]: movement k covers the cell; padding ids (-1)
        # land in the extra last column, which stays False
        occupied = np.zeros((len(rows), g * g + 1), dtype=bool)
        occupied[np.arange(len(rows))[:, None], ids] = True
        occupied[:, -1] = False
        regions = {}
        for a, ka in enumerate(movements):
            for b, kb in enumerate(movements):
                shared = occupied[b, ids[a]]
                if a != b and shared.any():
                    regions[(ka, kb)] = SharedRegion(
                        frozenset(divmod(c, g) for c in ids[a, shared].tolist()),
                        float(lo[a, shared].min()), float(hi[a, shared].max()))
        return cls(grid, movements, {mk: k for k, mk in enumerate(movements)},
                   ids, lo, hi, tuple(hi.max(axis=1).tolist()), regions)

    def cells(self, row: int, mask: np.ndarray) -> set:
        """(r, c) of the cells a mask over one movement's row selects."""
        return {divmod(c, self.grid.granularity)
                for c in self.ids[row, mask].tolist() if c >= 0}


# -- priority actions ----------------------------------------------------------


def valid_action_mask(k: int) -> np.ndarray:
    """Which of the 24 fixed-head permutations apply to a k-platoon group.

    A permutation is valid when it leaves every position beyond k untouched,
    so exactly k! actions survive and their prefixes enumerate the k-orders.
    """
    if not 2 <= k <= K_MAX:
        raise ValueError(f"conflict sets hold 2..{K_MAX} platoons, got {k}")
    return np.array([all(p[i] == i for i in range(k, K_MAX)) for p in PERMS])


def order_from_action(action: int, members: list) -> list:
    """Priority order (highest first) encoded by one 24-way action."""
    perm = PERMS[action]
    k = len(members)
    if any(perm[i] != i for i in range(k, K_MAX)):
        raise ValueError(f"action {action} is invalid for a group of {k}")
    return [members[perm[i]] for i in range(k)]


# -- state encoding ------------------------------------------------------------


def encode_coordination_state(g: int, group: list, others: list,
                              v_max: float) -> np.ndarray:
    """Four g x g channels: member cells, member speeds, desired cells, others.

    `group` lists, in canonical rank order, dicts with current/desired cell
    sets and a speed; cell codes are the 1-based rank, and desired cells
    wanted by more than one member carry the contested code k+1 instead.
    """
    state = np.zeros((4, g, g))
    k = len(group)
    want = {}
    for rank, info in enumerate(group, start=1):
        for r, c in info["current"]:
            state[0, r, c] = rank
            state[1, r, c] = info["speed"] / v_max
        for cell in info["desired"]:
            want[cell] = rank if cell not in want else k + 1
    for (r, c), code in want.items():
        state[2, r, c] = code
    for cells in others:
        for r, c in cells:
            state[3, r, c] = 1.0
    return state


def coordination_reward(coordination_time: float, travel_times) -> float:
    """Negative cost of one coordination: time-to-clear plus mean transit."""
    if coordination_time < 0:
        raise ValueError("coordination time cannot be negative")
    if len(travel_times) == 0:
        raise ValueError("need at least one travel time")
    if any(pc < 0 for pc in travel_times):
        raise ValueError("travel times cannot be negative")
    k = len(travel_times)
    return -(coordination_time + float(np.sum(travel_times)) / k)


# -- the per-step tracker -------------------------------------------------------


@dataclass(frozen=True)
class PlatoonView:
    """What the tracker needs to know about one platoon in or near the zone."""

    pid: int
    movement: str
    front: float   # lead front-bumper arc from the stop line
    speed: float
    size: int


@dataclass
class CoordinationRecord:
    """Completed coordination: the scalar outcome plus replay-ready experiences."""

    group: int
    members: list
    coordination_time: float
    travel_times: list
    reward: float
    experiences: list


@dataclass
class ZonePlan:
    """Per-step tracker output the simulation acts on."""

    labels: dict
    bars: dict       # pid -> stop-before arc (None when unconstrained)
    blocking: dict   # pid -> set of pids it is stopped behind
    completed: list  # CoordinationRecord finished this step
    triggered: list  # group ids created this step


@dataclass
class _Group:
    gid: int
    members: list          # canonical order (sorted by movement key)
    order: list            # pids, highest priority first
    state: np.ndarray
    action: int
    t0: float
    spectators: list       # left out of the conflict set, ranked after order
    role_done: dict        # pid -> time it cleared all its in-group regions
    exited: dict           # pid -> time its tail left the zone
    next_state: dict = field(default_factory=dict)  # pid -> follow-on state
    next_mask: dict = field(default_factory=dict)

    def ranks(self, pa: int, pb: int) -> bool:
        """Whether the group orders pa against pb: two members always, a
        pair with a spectator until every member's role is done."""
        if pa in self.members and pb in self.members:
            return True
        if len(self.role_done) == len(self.members):
            return False
        ranked = self.members + self.spectators
        return pa in ranked and pb in ranked


class CoordinationTracker:
    """Stateful scanner, decision broker, and bookkeeper for zone platoons.

    The simulation calls step() once per tick with every released platoon
    still interacting with the zone; `decide_fn(state, mask, members)` is
    invoked synchronously whenever a new conflict group must pick an order.
    """

    def __init__(self, layout: IntersectionLayout, raster: PathRaster,
                 params: VehicleParams, dt: float):
        self.layout = layout
        self.raster = raster   # immutable; episodes share it
        self.params = params
        self.dt = dt
        self._groups: dict[int, _Group] = {}   # gid order: oldest first
        self._next_gid = 0

    # -- small per-platoon helpers -----------------------------------------

    def _pitch(self) -> float:
        return self.params.length + self.params.headway_platoon

    def _tail_offset(self, view: PlatoonView) -> float:
        return (view.size - 1) * self._pitch()

    def _zone_clear_arc(self, view: PlatoonView) -> float:
        move = self.layout.movement(view.movement)
        return move.length + self._tail_offset(view) + self.params.length

    def _region(self, view: PlatoonView, rival: PlatoonView):
        """The region view's movement shares with rival's, seen from view."""
        return self.raster.regions.get((view.movement, rival.movement))

    def _passed(self, view: PlatoonView, region: SharedRegion) -> bool:
        return view.front > region.clear + self._tail_offset(view)

    def _committed(self, view: PlatoonView, region: SharedRegion) -> bool:
        """Cannot stop before the region's first cell any more."""
        return (view.front + msd(view.speed, self.params.a_max)
                > region.bar + 1e-9)

    def _in_envelope(self, view: PlatoonView, region: SharedRegion) -> bool:
        """One free-intent step from now, stopping before the region fails.

        This is the last step at which a crossing order can still be imposed,
        so it is the coordination trigger; for a symmetric pair it fires at
        the pair's minimum stopping distance.
        """
        v2, d = step_vehicle(view.speed, self.params.a_max, self.dt,
                             self.params.v_max)
        reach = view.front + d + msd(v2, self.params.a_max)
        return reach > region.bar

    def _member_arcs(self, view: PlatoonView):
        pitch = self._pitch()
        return [view.front - i * pitch for i in range(view.size)]

    def _current_cells(self, view: PlatoonView) -> set:
        raster = self.raster
        row = raster.row[view.movement]
        arcs = np.array(self._member_arcs(view))[:, None]
        return raster.cells(row, ((raster.lo[row] <= arcs)
                                  & (arcs <= raster.hi[row])).any(axis=0))

    def _desired_cells(self, view: PlatoonView) -> set:
        """Cells the platoon still wants: its remaining path beyond the front.

        Two crossing platoons touch the same cells at different times, so a
        one-step projection would make their wishes look disjoint; the
        contested "conflict grids" are exactly where remaining paths meet.
        """
        row = self.raster.row[view.movement]
        return self.raster.cells(row, self.raster.lo[row] > view.front)

    # -- the scan ------------------------------------------------------------

    def step(self, views: list, t: float, decide_fn) -> ZonePlan:
        by_pid = {}
        movements = set()
        for view in views:
            if view.movement in movements:
                raise ValueError(f"two platoons of movement {view.movement} "
                                 "in the zone violates the one-per-movement rule")
            movements.add(view.movement)
            by_pid[view.pid] = view

        completed = self._update_groups(by_pid, t)

        bars: dict[int, float | None] = {v.pid: None for v in views}
        blocking: dict[int, set] = {v.pid: set() for v in views}
        edges = []

        pids = sorted(by_pid)
        for i, pa in enumerate(pids):
            for pb in pids[i + 1:]:
                self._classify_pair(by_pid[pa], by_pid[pb], bars, blocking, edges)

        triggered = self._form_groups(by_pid, edges, t, decide_fn)
        self._group_bars(by_pid, bars, blocking)
        self._check_safety(by_pid, bars, t)

        labels = {}
        for pid in by_pid:
            # the oldest group still waiting on this platoon's role
            gid = min((gid for gid, group in self._groups.items()
                       if pid in group.members and pid not in group.role_done),
                      default=None)
            if gid is not None:
                labels[pid] = StatusLabel(pid, COORDINATED, gid)
            elif bars[pid] is not None:
                labels[pid] = StatusLabel(pid, INDEPENDENT_BLOCKED)
            else:
                labels[pid] = StatusLabel(pid, INDEPENDENT_FREE)
        return ZonePlan(labels=labels, bars=bars, blocking=blocking,
                        completed=completed, triggered=triggered)

    # -- scan internals -------------------------------------------------------

    def _update_groups(self, by_pid: dict, t: float) -> list:
        completed = []
        for gid, group in list(self._groups.items()):
            for pid in group.members:
                view = by_pid.get(pid)
                if pid not in group.exited:
                    if view is None:
                        group.exited[pid] = t  # removed from the network early
                    elif view.front >= self._zone_clear_arc(view):
                        group.exited[pid] = t
                if pid not in group.role_done and self._role_complete(group, pid, by_pid):
                    group.role_done[pid] = t
            if len(group.exited) == len(group.members):
                completed.append(self._finish_group(group, t))
                del self._groups[gid]
        return completed

    def _role_complete(self, group: _Group, pid: int, by_pid: dict) -> bool:
        view = by_pid.get(pid)
        if view is None:
            return True
        for other in group.members:
            if other == pid or other not in by_pid:
                continue
            region = self._region(view, by_pid[other])
            if region is not None and not self._passed(view, region):
                return False
        return True

    def _finish_group(self, group: _Group, t: float) -> CoordinationRecord:
        role_times = [group.role_done.get(pid, group.exited[pid])
                      for pid in group.members]
        ct = max(role_times) - group.t0
        pcs = [group.exited[pid] - group.t0 for pid in group.members]
        reward = coordination_reward(ct, pcs)
        experiences = []
        for pid in group.members:
            experiences.append(Experience(
                state=group.state, action=group.action, reward=reward,
                next_state=group.next_state.get(pid),
                next_mask=group.next_mask.get(pid)))
        return CoordinationRecord(group=group.gid, members=list(group.members),
                                  coordination_time=ct, travel_times=pcs,
                                  reward=reward, experiences=experiences)

    def _contested(self, va: PlatoonView, vb: PlatoonView) -> bool:
        """The two share a region and neither has passed it yet."""
        ra = self._region(va, vb)
        return (ra is not None and not self._passed(va, ra)
                and not self._passed(vb, self._region(vb, va)))

    def _ranking_group(self, pa: int, pb: int):
        """The oldest group that ranks the pair; it alone orders the two."""
        return next((group for group in self._groups.values()
                     if group.ranks(pa, pb)), None)

    def _classify_pair(self, va: PlatoonView, vb: PlatoonView,
                       bars: dict, blocking: dict, edges: list):
        if (not self._contested(va, vb)
                or self._ranking_group(va.pid, vb.pid) is not None):
            return  # free, or ranked and ordered by _group_bars
        ra, rb = self._region(va, vb), self._region(vb, va)
        if self._committed(va, ra):
            self._give_way(va, vb, bars, blocking)
        elif self._committed(vb, rb):
            self._give_way(vb, va, bars, blocking)
        elif self._in_envelope(va, ra) and self._in_envelope(vb, rb):
            edges.append((va.pid, vb.pid))

    def _give_way(self, first: PlatoonView, second: PlatoonView,
                  bars: dict, blocking: dict):
        """`second` waits before the region it shares with `first`.

        Physics outranks any chosen order: if `second` can no longer stop
        before that region, `first` waits instead, and if neither can, the
        decision came too late.
        """
        waiter, holder = second, first
        if self._committed(second, self._region(second, first)):
            if self._committed(first, self._region(first, second)):
                cells = sorted(self._region(first, second).cells)[:4]
                raise SafetyFault(
                    f"platoons {first.pid} and {second.pid} both hold region "
                    f"{cells}...; coordination was decided too late")
            waiter, holder = first, second
        bar = self._region(waiter, holder).bar
        if bars[waiter.pid] is None or bar < bars[waiter.pid]:
            bars[waiter.pid] = bar
        blocking[waiter.pid].add(holder.pid)

    def _form_groups(self, by_pid: dict, edges: list, t: float,
                     decide_fn) -> list:
        if not edges:
            return []
        adjacency: dict[int, set] = {}
        for a, b in edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        seen: set[int] = set()
        triggered = []
        for root in sorted(adjacency):
            if root in seen:
                continue
            component, stack = [], [root]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                component.append(node)
                stack.extend(adjacency[node] - seen)
            group_pids, spectators = self._cap_component(component, by_pid)
            group_pids, dropped = self._drop_cogrouped(group_pids)
            if len(group_pids) < 2:
                continue
            triggered.append(self._open_group(group_pids, spectators + dropped,
                                              by_pid, t, decide_fn))
        return triggered

    def _drop_cogrouped(self, group_pids: list):
        """Two platoons already ranked against each other must not be ranked
        again by a second decision; contradictory orders would wedge both."""
        dropped = []
        kept: list[int] = []
        for pid in group_pids:
            if any(self._ranking_group(pid, other) is not None
                   for other in kept):
                dropped.append(pid)
            else:
                kept.append(pid)
        return kept, dropped

    def _cap_component(self, component: list, by_pid: dict):
        if len(component) <= K_MAX:
            return sorted(component, key=lambda p: by_pid[p].movement), []
        def nearest_gap(pid):
            view = by_pid[pid]
            gaps = []
            for other in component:
                if other == pid:
                    continue
                region = self._region(view, by_pid[other])
                if region is not None:
                    gaps.append(region.enter - view.front)
            return min(gaps)
        ranked = sorted(component, key=lambda p: (nearest_gap(p), by_pid[p].movement))
        chosen = ranked[:K_MAX]
        return sorted(chosen, key=lambda p: by_pid[p].movement), ranked[K_MAX:]

    def _open_group(self, members: list, spectators: list, by_pid: dict,
                    t: float, decide_fn) -> int:
        k = len(members)
        group_infos = []
        for pid in members:
            view = by_pid[pid]
            group_infos.append({"current": self._current_cells(view),
                                "desired": self._desired_cells(view),
                                "speed": view.speed})
        others = [self._current_cells(view) for pid, view in sorted(by_pid.items())
                  if pid not in members]
        state = encode_coordination_state(self.raster.grid.granularity,
                                          group_infos, others, self.params.v_max)
        mask = valid_action_mask(k)
        action = int(decide_fn(state, mask, list(members)))
        if not mask[action]:
            raise ValueError(f"decision {action} is masked for a group of {k}")
        order = order_from_action(action, members)

        for pid in members:
            # a fresh trigger is the follow-on state of this platoon's newest
            # coordination, which is still waiting for its last member to exit
            prev = [group for group in self._groups.values() if pid in group.members]
            if prev:
                prev[-1].next_state[pid] = state
                prev[-1].next_mask[pid] = mask
        gid = self._next_gid
        self._next_gid += 1
        self._groups[gid] = _Group(gid=gid, members=list(members), order=order,
                                   state=state, action=action, t0=t,
                                   spectators=spectators, role_done={},
                                   exited={})
        return gid

    def _group_bars(self, by_pid: dict, bars: dict, blocking: dict):
        for group in self._groups.values():
            ranked = group.order + group.spectators
            for rank, pid in enumerate(ranked):
                view = by_pid.get(pid)
                if view is None or pid in group.role_done:
                    continue
                for higher in ranked[:rank]:
                    other = by_pid.get(higher)
                    if (other is not None and self._contested(other, view)
                            and self._ranking_group(higher, pid) is group):
                        self._give_way(other, view, bars, blocking)

    def _check_safety(self, by_pid: dict, bars: dict, t: float):
        for pid, bar in bars.items():
            if bar is None:
                continue
            view = by_pid[pid]
            need = msd(view.speed, self.params.a_max)
            room = bar - view.front
            if room < need - 1e-6:
                raise SafetyFault(
                    f"t={t}: platoon {pid} ({view.movement}) needs {need:.2f} m "
                    f"to stop but has {room:.2f} m before a contested region")
