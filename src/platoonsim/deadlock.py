"""Deadlock detection and punishment.

Inside the coordination zone a platoon can end up stopped because the
cells it needs next are held by another platoon, which is itself stopped
for the same reason.  Writing "u waits on v" as a directed edge, a
deadlock is exactly a cycle: nobody on it can move until someone else
does.  The blocking map of the zone plan, restricted to stopped platoons,
is that wait-for relation as it stands.  Detection enumerates every
elementary cycle with one min-rooted depth-first walk over it; the zone
holds at most one platoon per movement, so the walk sees at most twelve
platoons and needs no pruning beyond its own.  Every cycle is one
deadlock event: each platoon on it has the platoon-size decision that
created it re-emitted with the deadlock punishment, the sizing agent
takes one immediate gradient step per punished experience, and the
platoon is removed from the zone.

Cycle enumeration is written directly on dict adjacency rather than on a
graph library: the detector runs on every step with a stopped, blocked
platoon, and the tests check it against a brute-force oracle over every
digraph on up to four nodes and seeded random digraphs on up to eight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DeadlockEvent:
    """One resolved cycle: who was on it, who was punished, who removed."""

    cycle: tuple
    punished: tuple
    removed: tuple


def detect_deadlocks(blocking: dict) -> list:
    """Every elementary cycle of a wait-for map.

    `blocking` maps each platoon id to the ids it waits on.  Ids that are
    not keys wait on nobody, so they end every path.  Returns cycles as id
    tuples rotated to start at their smallest id, sorted by length then
    lexicographically; empty exactly when the map is acyclic.  A
    self-reference counts as a length-1 cycle so the detector stays sound
    on any map, though the tracker never emits one.

    The search rooted at s only walks ids ordered after s, so each cycle
    is found from its minimum id and nowhere else (Tiernan's
    elementary-circuit search).
    """
    rank = {v: i for i, v in enumerate(sorted(blocking))}
    cycles = []
    for start in rank:
        _close_cycles(blocking, rank, [start], {start}, cycles)
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def _close_cycles(succ, rank, path, on_path, cycles) -> None:
    """Append every cycle that closes the simple path `path` back to its
    start, extending it only through vertices ranked after the start.

    A module-level recursion rather than a nested closure: a closure that
    calls itself is a reference cycle, left for the garbage collector on
    every detector call.
    """
    start = path[0]
    for w in succ[path[-1]]:
        if w == start:
            cycles.append(tuple(path))
        elif rank.get(w, -1) > rank[start] and w not in on_path:
            path.append(w)
            on_path.add(w)
            _close_cycles(succ, rank, path, on_path, cycles)
            path.pop()
            on_path.discard(w)


def punish_and_clear(cycles, origins: dict, agent, remove_fn,
                     reward: float) -> list:
    """Resolve detected deadlocks: punish the sizing decisions, clear the zone.

    For each platoon on each cycle, the platoon-size experience that
    created it (`origins[pid]`) is re-emitted with the punishment
    `reward` and pushed to the sizing agent's replay, the agent takes one
    immediate gradient step, and `remove_fn(pid)` evicts the platoon's
    vehicles from the zone.  A platoon appearing on several cycles is
    processed once.  Platoons without an origin experience (spawned by a
    non-learning policy) or with no agent are removed without a training
    event.

    Returns one DeadlockEvent per cycle; the episode deadlock counter is
    the number of events.  Removing every on-cycle platoon leaves the
    remaining wait-for map acyclic, so a persisting configuration is
    counted once, not once per timestep.
    """
    events = []
    cleared: set = set()
    for cycle in cycles:
        punished = []
        removed = []
        for pid in cycle:
            if pid in cleared:
                continue
            cleared.add(pid)
            exp = origins.get(pid)
            if exp is not None and agent is not None:
                agent.replay.push(replace(exp, reward=reward))
                agent.train_step()
                punished.append(pid)
            remove_fn(pid)
            removed.append(pid)
        events.append(DeadlockEvent(cycle=tuple(cycle),
                                    punished=tuple(punished),
                                    removed=tuple(removed)))
    return events
