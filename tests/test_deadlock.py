"""Deadlock module: detector vs brute-force oracle, punishment bookkeeping.

The oracle enumerates elementary cycles straight from the definition: every
vertex subset, every cyclic ordering, kept when all its edges exist.  The
detector must agree exactly on every digraph up to 4 nodes and on 300
seeded random digraphs up to 8 nodes.
"""

import itertools

import numpy as np
import pytest

from platoonsim.config import SimConfig
from platoonsim.deadlock import (DeadlockEvent, detect_deadlocks,
                                 punish_and_clear)
from platoonsim.drl.agent import DQNAgent, Experience
from platoonsim.drl.layers import Dense, Flatten, ReLU
from platoonsim.drl.network import Sequential
from platoonsim.drl.replay import ReplayBuffer

R_DEADLOCK = SimConfig().R_deadlock


# -- oracle ---------------------------------------------------------------------


def brute_cycles(nodes, edges):
    """Every elementary cycle by exhaustive subset-and-rotation check."""
    eset = set(edges)
    nodes = sorted(nodes)
    found = []
    for r in range(1, len(nodes) + 1):
        for sub in itertools.combinations(nodes, r):
            head = sub[0]
            for rest in itertools.permutations(sub[1:]):
                cyc = (head,) + rest
                if all((cyc[i], cyc[(i + 1) % r]) in eset for i in range(r)):
                    found.append(cyc)
    return sorted(found, key=lambda c: (len(c), c))


def graph_from_edges(n, edges):
    return {u: {v for (s, v) in edges if s == u} for u in range(n)}


# -- detection ---------------------------------------------------------------------


def test_empty_zone_empty_graph():
    assert detect_deadlocks({}) == []


def test_unkeyed_targets_end_every_path():
    # an id that is not a key waits on nobody, so no cycle runs through it
    assert detect_deadlocks({1: {2, 7}}) == []
    assert detect_deadlocks({1: {2, 7}, 2: {1, 7}}) == [(1, 2)]
    assert detect_deadlocks({1: {0}, 2: {1, 0}, 3: {2, 1}}) == []


def test_waiting_behind_is_single_edge_acyclic():
    assert detect_deadlocks({2: {1}, 1: set()}) == []


def test_three_mutually_blocking_platoons_one_triangle():
    assert detect_deadlocks({1: {2}, 2: {3}, 3: {1}}) == [(1, 2, 3)]


def test_four_cycle():
    assert detect_deadlocks({1: {2}, 2: {3}, 3: {4}, 4: {1}}) == [(1, 2, 3, 4)]


def test_dag_has_no_cycles():
    assert detect_deadlocks({1: {2, 3}, 2: {3}, 3: set()}) == []


def test_two_cycles_sharing_a_node():
    blocking = {1: {2}, 2: {3}, 3: {1, 4}, 4: {5}, 5: {3}}
    assert detect_deadlocks(blocking) == [(1, 2, 3), (3, 4, 5)]


def test_two_cycle_reported_once_min_rooted():
    assert detect_deadlocks({2: {1}, 1: {2}}) == [(1, 2)]


def test_self_loop_is_a_unit_cycle_on_raw_graphs():
    # the tracker never emits one; the detector still handles it
    assert detect_deadlocks({0: {0}, 1: set()}) == [(0,)]


def test_exhaustive_small_digraphs_match_oracle():
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            got = detect_deadlocks(graph_from_edges(n, edges))
            assert got == brute_cycles(range(n), edges)


def test_random_digraphs_up_to_eight_nodes_match_oracle():
    rng = np.random.default_rng(20260818)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        p = float(rng.choice([0.15, 0.3, 0.5]))
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < p]
        # occasional self-loop exercises the unit-cycle path
        if rng.random() < 0.2:
            v = int(rng.integers(n))
            edges.append((v, v))
        got = detect_deadlocks(graph_from_edges(n, edges))
        assert got == brute_cycles(range(n), edges)


def test_cycles_are_canonical_and_real():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.4]
        eset = set(edges)
        cycles = detect_deadlocks(graph_from_edges(n, edges))
        assert cycles == sorted(cycles, key=lambda c: (len(c), c))
        for cyc in cycles:
            assert cyc[0] == min(cyc)
            assert len(set(cyc)) == len(cyc)
            assert all((cyc[i], cyc[(i + 1) % len(cyc)]) in eset
                       for i in range(len(cyc)))


def test_clearing_all_cycle_nodes_leaves_graph_acyclic():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        blocking = {u: {v for v in range(n)
                        if v != u and rng.random() < 0.35}
                    for u in range(n)}
        cycles = detect_deadlocks(blocking)
        removed = {pid for cyc in cycles for pid in cyc}
        survivors = {u: waits - removed
                     for u, waits in blocking.items() if u not in removed}
        assert detect_deadlocks(survivors) == []


# -- punishment ---------------------------------------------------------------------


def tiny_agent(seed=0):
    rng = np.random.default_rng(seed)
    net = Sequential([Flatten(), Dense(4, 8, rng), ReLU(), Dense(8, 5, rng)],
                     (1, 2, 2))
    return DQNAgent(net, ReplayBuffer(64), rng)


def origin(action, seed):
    rng = np.random.default_rng(seed)
    return Experience(state=rng.normal(size=(1, 2, 2)), action=action,
                      reward=1.5)


def test_one_triangle_three_punished_one_event():
    agent = tiny_agent()
    origins = {1: origin(0, 1), 2: origin(2, 2), 3: origin(4, 3)}
    removed = []
    events = punish_and_clear([(1, 2, 3)], origins, agent, removed.append,
                              R_DEADLOCK)
    assert events == [DeadlockEvent(cycle=(1, 2, 3), punished=(1, 2, 3),
                                    removed=(1, 2, 3))]
    assert removed == [1, 2, 3]
    assert len(agent.replay) == 3
    for pushed, pid in zip(agent.replay._items, (1, 2, 3)):
        assert pushed.reward == R_DEADLOCK
        assert pushed.action == origins[pid].action
        assert pushed.state is origins[pid].state
        assert origins[pid].reward == 1.5
    # one immediate gradient step per punished experience, cadence ignored
    assert agent.gradient_steps == 3


def test_platoon_on_two_cycles_punished_once_counted_twice():
    agent = tiny_agent()
    origins = {pid: origin(pid, pid) for pid in (1, 2, 3)}
    removed = []
    events = punish_and_clear([(1, 2), (2, 3)], origins, agent,
                              removed.append, R_DEADLOCK)
    assert [e.cycle for e in events] == [(1, 2), (2, 3)]
    assert events[0].punished == (1, 2)
    assert events[1].punished == (3,)
    assert removed == [1, 2, 3]
    assert agent.gradient_steps == 3


def test_missing_origin_removal_only():
    agent = tiny_agent()
    removed = []
    events = punish_and_clear([(1, 2)], {1: origin(1, 1)}, agent,
                              removed.append, R_DEADLOCK)
    assert events[0].punished == (1,)
    assert events[0].removed == (1, 2)
    assert removed == [1, 2]
    assert len(agent.replay) == 1
    assert agent.gradient_steps == 1


def test_no_agent_removal_only():
    removed = []
    events = punish_and_clear([(4, 9)], {4: origin(0, 4)}, None,
                              removed.append, R_DEADLOCK)
    assert events == [DeadlockEvent(cycle=(4, 9), punished=(),
                                    removed=(4, 9))]
    assert removed == [4, 9]


def test_no_cycles_is_a_noop():
    assert punish_and_clear([], {}, None, lambda pid: pytest.fail(),
                            R_DEADLOCK) == []


def test_wedge_resolution_is_idempotent():
    # a persisting configuration is one event, not one per timestep: after
    # clearing, the map of the surviving platoons is acyclic and a rescan
    # detects nothing
    blocking = {1: {2}, 2: {3}, 3: {1}, 4: {1}, 5: {4}}
    cycles = detect_deadlocks(blocking)
    assert cycles == [(1, 2, 3)]
    gone = []
    punish_and_clear(cycles, {}, None, gone.append, R_DEADLOCK)
    survivors = {u: w - set(gone)
                 for u, w in blocking.items() if u not in gone}
    assert detect_deadlocks(survivors) == []
