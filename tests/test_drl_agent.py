"""Agent tests: Adam traces, action selection, TD targets, chain MDP."""

import numpy as np
import pytest
import scipy.stats

from platoonsim.drl import (Adam, Dense, DQNAgent, Experience, ReLU,
                            ReplayBuffer, Sequential, select_action,
                            td_targets)
from platoonsim.drl import agent as agent_module
from platoonsim.drl.agent import network_copy

from oracles import train_loop, value_iteration


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    opt = Adam([p])
    for _ in range(5):
        opt.step([p], [np.zeros(3)])
    assert np.array_equal(p, [1.0, -2.0, 3.0])


def test_adam_three_step_hand_trace():
    # independent re-derivation of the update with a constant gradient
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 0.5
    expect = 1.0
    m = v = 0.0
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        expect -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    p = np.array([1.0])
    opt = Adam([p], lr=lr)
    for _ in range(3):
        opt.step([p], [np.array([g])])
    assert p[0] == pytest.approx(expect, abs=1e-15)


def test_adam_minimizes_quadratic_bowl():
    p = np.array([1.0, -0.7, 0.3])
    opt = Adam([p])
    for _ in range(10_000):
        grad = p.copy()  # gradient of 0.5 * |p|^2
        if np.max(np.abs(grad)) < 1e-6:
            break
        opt.step([p], [grad])
    assert np.max(np.abs(p)) < 1e-6


# ---------------------------------------------------------------------------
# action selection


def test_greedy_takes_argmax():
    rng = np.random.default_rng(0)
    assert select_action([0.1, 2.0, 1.5], None, 0.0, rng) == 1


def test_greedy_tie_breaks_low():
    rng = np.random.default_rng(0)
    assert select_action([1.0, 1.0, 0.0], None, 0.0, rng) == 0


def test_masked_best_never_selected():
    rng = np.random.default_rng(1)
    picks = {select_action([5.0, 1.0, 2.0], [False, True, True], 1.0, rng)
             for _ in range(200)}
    assert picks == {1, 2}
    assert select_action([5.0, 1.0, 2.0], [False, True, True], 0.0, rng) == 2


def test_full_exploration_is_uniform():
    rng = np.random.default_rng(2)
    counts = np.zeros(4)
    for _ in range(100_000):
        counts[select_action([0.0, 0.0, 0.0, 0.0], None, 1.0, rng)] += 1
    assert np.all(np.abs(counts / 100_000 - 0.25) <= 0.01)


def test_empty_mask_rejected():
    with pytest.raises(ValueError):
        select_action([1.0], [False], 0.1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# TD targets


def _const_net(biases):
    net = Sequential([Dense(1, len(biases))], (1,))
    net.parameters()[0][...] = 0.0
    net.parameters()[1][...] = biases
    return net


def test_td_target_terminal_is_reward():
    net = _const_net([2.0, 1.0, 0.0])
    batch = [Experience(np.zeros(1), 0, -15.0, None)]
    assert td_targets(batch, net, 0.9).tolist() == [-15.0]


def test_td_target_zero_discount():
    net = _const_net([2.0, 1.0, 0.0])
    batch = [Experience(np.zeros(1), 0, 3.0, np.zeros(1))]
    assert td_targets(batch, net, 0.0).tolist() == [3.0]


def test_td_target_bootstrap():
    net = _const_net([2.0, 1.0, 0.0])
    batch = [Experience(np.zeros(1), 0, 1.0, np.zeros(1))]
    assert td_targets(batch, net, 0.9)[0] == pytest.approx(2.8)


def test_td_target_respects_next_mask():
    net = _const_net([2.0, 1.0, 0.0])
    batch = [Experience(np.zeros(1), 0, 1.0, np.zeros(1),
                        [False, True, True])]
    assert td_targets(batch, net, 0.9)[0] == pytest.approx(1.9)


def test_td_target_cache_is_reused_only_at_its_version():
    net = _const_net([2.0, 1.0, 0.0])
    exp = Experience(np.zeros(1), 0, 1.0, np.zeros(1))
    v1, v2 = object(), object()
    assert td_targets([exp], net, 0.9, v1)[0] == pytest.approx(2.8)
    assert exp.target_max == (v1, 2.0)
    net.parameters()[1][...] = [5.0, 1.0, 0.0]
    # same version: the cached max stands in for the network
    assert td_targets([exp], net, 0.9, v1)[0] == pytest.approx(2.8)
    # a new version, or no version, reads the network again
    assert td_targets([exp], net, 0.9)[0] == pytest.approx(5.5)
    assert exp.target_max == (v1, 2.0)
    assert td_targets([exp], net, 0.9, v2)[0] == pytest.approx(5.5)
    assert exp.target_max == (v2, 5.0)


def test_experience_equality_ignores_the_cached_target():
    a = Experience([0.0], 1, 0.5, [1.0], [True, False, True])
    b = Experience([0.0], 1, 0.5, [1.0], [True, False, True])
    td_targets([a], _const_net([2.0, 1.0, 0.0]), 0.9, object())
    assert a.target_max is not None and b.target_max is None
    assert a == b
    assert repr(a) == repr(b)


# ---------------------------------------------------------------------------
# replay memory


def test_replay_wraps_oldest_first():
    buf = ReplayBuffer(5)
    for i in range(8):
        buf.push(i)
    assert len(buf) == 5
    assert sorted(buf._items) == [3, 4, 5, 6, 7]


def test_replay_sample_without_replacement():
    buf = ReplayBuffer(10)
    for i in range(10):
        buf.push(i)
    got = buf.sample(10, np.random.default_rng(3))
    assert sorted(got) == list(range(10))


def test_replay_sampling_is_uniform():
    buf = ReplayBuffer(50)
    for i in range(50):
        buf.push(i)
    rng = np.random.default_rng(4)
    counts = np.zeros(50)
    for _ in range(100_000):
        counts[buf.sample(1, rng)[0]] += 1
    assert scipy.stats.chisquare(counts).pvalue > 0.01


def test_replay_rejects_empty_sample():
    with pytest.raises(ValueError):
        ReplayBuffer(5).sample(1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# agent loop


def _tiny_net(rng):
    return Sequential([Dense(5, 16, rng), ReLU(), Dense(16, 2, rng)], (5,))


def _agent(seed=0, **kw):
    rng = np.random.default_rng(seed)
    net = _tiny_net(rng)
    defaults = dict(gamma=0.9, epsilon=0.1, batch_size=32, observe=100,
                    sync_every=200, adam_lr=1e-3)
    defaults.update(kw)
    return DQNAgent(net, ReplayBuffer(1000), np.random.default_rng(seed + 1),
                    **defaults)


def _random_experience(rng):
    s = np.zeros(5)
    s[rng.integers(5)] = 1.0
    s2 = np.zeros(5)
    s2[rng.integers(5)] = 1.0
    return Experience(s, int(rng.integers(2)), float(rng.normal()), s2)


def test_observe_phase_freezes_weights():
    agent = _agent(observe=10_000)
    before = [p.copy() for p in agent.net.parameters()]
    rng = np.random.default_rng(5)
    for _ in range(300):
        agent.remember(_random_experience(rng))
    for p, q in zip(agent.net.parameters(), before):
        assert np.array_equal(p, q)
    assert agent.gradient_steps == 0


def test_target_matches_net_after_sync():
    agent = _agent(observe=0, sync_every=1)
    rng = np.random.default_rng(6)
    for _ in range(40):
        agent.remember(_random_experience(rng))
    for a, b in zip(agent.target.parameters(), agent.net.parameters()):
        assert np.array_equal(a, b)
    assert agent.gradient_steps == 40


def test_target_lags_between_syncs():
    agent = _agent(observe=0, sync_every=1000)
    rng = np.random.default_rng(7)
    for _ in range(40):
        agent.remember(_random_experience(rng))
    same = all(np.array_equal(a, b) for a, b in
               zip(agent.target.parameters(), agent.net.parameters()))
    assert not same


def _recording_td_targets(monkeypatch, agent, log):
    """Wrap td_targets: log (cached targets, targets recomputed without the
    cache on the same batch, target-network rows each of them read)."""
    real = agent_module.td_targets
    rows = [0]
    forward = agent.target.forward

    def counting(x):
        rows[0] += len(x)
        return forward(x)

    def checked(batch, target_net, gamma, version=None):
        start = rows[0]
        fresh = real(batch, target_net, gamma)
        mid = rows[0]
        got = real(batch, target_net, gamma, version)
        log.append((got, fresh, rows[0] - mid, mid - start))
        return got

    monkeypatch.setattr(agent.target, "forward", counting)
    monkeypatch.setattr(agent_module, "td_targets", checked)


def test_target_cache_is_retired_at_every_sync(monkeypatch):
    agent = _agent(observe=0, sync_every=1, batch_size=8)
    log = []
    _recording_td_targets(monkeypatch, agent, log)
    rng = np.random.default_rng(10)
    for _ in range(40):
        agent.remember(_random_experience(rng))
    assert len(log) == 40
    for got, fresh, cached_rows, fresh_rows in log:
        assert np.array_equal(got, fresh)
        assert cached_rows == fresh_rows


def test_target_cache_serves_redrawn_experiences_between_syncs(monkeypatch):
    agent = _agent(observe=0, sync_every=1000, batch_size=8)
    log = []
    _recording_td_targets(monkeypatch, agent, log)
    rng = np.random.default_rng(11)
    for _ in range(40):
        agent.remember(_random_experience(rng))
    for got, fresh, _, _ in log:
        np.testing.assert_allclose(got, fresh, rtol=1e-12, atol=1e-12)
    cached_rows = sum(entry[2] for entry in log)
    fresh_rows = sum(entry[3] for entry in log)
    # every experience drawn so far was read once at this version
    drawn = sum(e.target_max is not None for e in agent.replay._items)
    assert cached_rows == drawn <= 40
    assert fresh_rows > 6 * cached_rows


def test_train_every_thins_gradient_steps():
    agent = _agent(observe=0, train_every=4)
    rng = np.random.default_rng(8)
    for _ in range(40):
        agent.remember(_random_experience(rng))
    assert agent.gradient_steps == 10


def test_divergence_guard_raises():
    agent = _agent(observe=0, loss_limit=1e-12)
    with pytest.raises(RuntimeError, match="diverged"):
        agent.remember(Experience(np.ones(5), 0, 50.0, None))


def test_network_copy_is_deep():
    agent = _agent()
    twin = network_copy(agent.net)
    twin.parameters()[0][0, 0] += 1.0
    assert agent.net.parameters()[0][0, 0] != twin.parameters()[0][0, 0]


def test_training_is_bit_deterministic():
    runs = []
    for _ in range(2):
        agent = _agent(seed=42, observe=0)
        rng = np.random.default_rng(9)
        for _ in range(60):
            agent.remember(_random_experience(rng))
        runs.append([p.copy() for p in agent.net.parameters()])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# 5-state chain MDP against tabular value iteration


class ChainEnv:
    """Deterministic 5-state corridor: action 1 steps right, action 0 steps
    left (floored at 0); reaching state 4 pays 1 and terminates."""

    N = 5

    def __init__(self):
        self.pos = 0

    @staticmethod
    def encode(pos):
        s = np.zeros(ChainEnv.N)
        s[pos] = 1.0
        return s

    def reset(self):
        self.pos = 0
        return self.encode(0), None

    def step(self, action):
        self.pos = min(self.pos + 1, 4) if action == 1 else max(self.pos - 1, 0)
        done = self.pos == 4
        return self.encode(self.pos), (1.0 if done else 0.0), done, None


def test_chain_mdp_reaches_oracle_policy():
    q_star = value_iteration(
        5, 2,
        transition=lambda s, a: min(s + 1, 4) if a == 1 else max(s - 1, 0),
        reward=lambda s, a: 1.0 if (a == 1 and s == 3) else 0.0,
        terminal=lambda s: s == 4,
        gamma=0.9)
    optimal = q_star.argmax(axis=1)[:4]
    assert optimal.tolist() == [1, 1, 1, 1]

    wins = 0
    for seed in range(10):
        agent = _agent(seed=seed, observe=100)
        env = ChainEnv()
        while agent.seen < 2000:
            train_loop(env, agent, episodes=1, max_steps=50)
        greedy = [agent.act(ChainEnv.encode(s), greedy=True)
                  for s in range(4)]
        wins += greedy == optimal.tolist()
    assert wins >= 9
