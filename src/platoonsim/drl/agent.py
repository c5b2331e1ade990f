"""Adam, epsilon-greedy selection, TD targets, and the DQN agent loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Sequential, network_from_spec


class Adam:
    """Standard Adam with bias correction over a fixed parameter list."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def select_action(qvalues: np.ndarray, mask: np.ndarray | None,
                  epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the valid actions; greedy ties break to the
    lowest index.  Masked actions are never selected by either branch."""
    q = np.asarray(qvalues, dtype=np.float64)
    if mask is None:
        mask = np.ones(q.shape[0], dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    valid = np.flatnonzero(mask)
    if valid.size == 0:
        raise ValueError("action mask leaves no valid action")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.choice(valid))
    return int(np.argmax(np.where(mask, q, -np.inf)))


@dataclass
class Experience:
    """One transition; next_mask limits the bootstrap max for states whose
    valid-action set is narrower than the network head."""

    state: object
    action: int
    reward: float
    next_state: object = None
    next_mask: object = None

    @property
    def terminal(self) -> bool:
        """No successor state: the TD target is the reward alone."""
        return self.next_state is None


def td_targets(batch: list[Experience], target_net: Sequential,
               gamma: float) -> np.ndarray:
    """y_j = r_j for terminal transitions, else r_j + gamma * max over the
    valid actions of the target network at the successor state."""
    y = np.array([e.reward for e in batch], dtype=np.float64)
    live = [i for i, e in enumerate(batch) if not e.terminal]
    if live:
        nxt = np.stack([np.asarray(batch[i].next_state, dtype=np.float64)
                        for i in live])
        q = target_net.forward(nxt)
        for row, i in enumerate(live):
            m = batch[i].next_mask
            qv = q[row] if m is None else np.where(np.asarray(m, bool),
                                                   q[row], -np.inf)
            y[i] += gamma * qv.max()
    return y


class DQNAgent:
    """Evaluation/target network pair with replay, following the standard
    observe-then-train cadence.

    A gradient step runs once per `train_every` stored experiences after
    `observe` experiences have been seen; the target network is reset to
    the evaluation network every `sync_every` gradient steps.  Loss above
    `loss_limit` aborts: a runaway Q-scale means a configuration error, and
    silent divergence would waste a whole training run.
    """

    def __init__(self, net: Sequential, replay, rng: np.random.Generator,
                 gamma: float = 0.9, epsilon: float = 0.1,
                 batch_size: int = 32, observe: int = 100,
                 sync_every: int = 200, adam_lr: float = 1e-3,
                 train_every: int = 1, loss_limit: float = 1e6):
        self.net = net
        self.target = network_copy(net)
        self.replay = replay
        self.rng = rng
        self.gamma, self.epsilon = gamma, epsilon
        self.batch_size, self.observe = batch_size, observe
        self.sync_every, self.train_every = sync_every, train_every
        self.loss_limit = loss_limit
        self.opt = Adam(net.parameters(), lr=adam_lr)
        self.seen = 0
        self.gradient_steps = 0
        self.last_loss = None

    def act(self, state, mask=None, greedy: bool = False) -> int:
        q = self.net.predict(np.asarray(state, dtype=np.float64))
        eps = 0.0 if greedy else self.epsilon
        return select_action(q, mask, eps, self.rng)

    def remember(self, exp: Experience) -> None:
        self.replay.push(exp)
        self.seen += 1
        if self.seen > self.observe and self.seen % self.train_every == 0:
            self.train_step()

    def train_step(self) -> float | None:
        if len(self.replay) == 0:
            return None
        batch = self.replay.sample(self.batch_size, self.rng)
        y = td_targets(batch, self.target, self.gamma)
        states = np.stack([np.asarray(e.state, dtype=np.float64)
                           for e in batch])
        actions = np.array([e.action for e in batch])
        q = self.net.forward(states)
        taken = q[np.arange(len(batch)), actions]
        err = taken - y
        loss = float(np.mean(err * err))
        if loss > self.loss_limit:
            raise RuntimeError(
                f"training diverged: loss {loss:.3e} exceeds "
                f"{self.loss_limit:.0e} at gradient step {self.gradient_steps}")
        dq = np.zeros_like(q)
        dq[np.arange(len(batch)), actions] = 2.0 * err / len(batch)
        self.net.backward(dq)
        self.opt.step(self.net.parameters(), self.net.gradients())
        self.gradient_steps += 1
        if self.gradient_steps % self.sync_every == 0:
            self.target.copy_weights_from(self.net)
        self.last_loss = loss
        return loss


def network_copy(net: Sequential) -> Sequential:
    twin = network_from_spec(net.spec())
    twin.copy_weights_from(net)
    return twin

