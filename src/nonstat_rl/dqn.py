"""Double DQN with soft (Polyak) target updates, plus per-environment
reward scaling for training a single Q-network across workloads whose
reward magnitudes differ by orders of magnitude.
"""

from __future__ import annotations

import heapq
import os

import numpy as np

from .errors import DivergenceError
from .nets import Adam, clone_net, save_net
from .stats import linear_decay


def polyak_update(target_params, online_params, alpha):
    """theta_target <- alpha * theta_online + (1 - alpha) * theta_target,
    in place on the target's flat parameter vector."""
    target_params *= 1.0 - alpha
    target_params += alpha * online_params


class DqnLearner:
    """Double-DQN: online-net argmax selects, target net evaluates."""

    def __init__(self, qnet, gamma, lr=0.001, polyak_alpha=0.01, batch_size=32,
                 random_epochs=1000, decay_epochs=5000, weight_decay=1e-4):
        self.online = qnet
        self.target = clone_net(qnet)
        self.gamma = gamma
        self.polyak_alpha = polyak_alpha
        self.batch_size = batch_size
        self.random_epochs = random_epochs
        self.decay_epochs = decay_epochs
        self.opt = Adam(qnet.params, lr=lr, weight_decay=weight_decay)
        self.updates = 0

    def save(self, directory):
        """Checkpoint the online net as `qnet.npz` into `directory`."""
        os.makedirs(directory, exist_ok=True)
        save_net(self.online, os.path.join(directory, "qnet.npz"))

    def epsilon(self, epoch):
        """Fully random for `random_epochs`, then a linear 1 -> 0 anneal
        over `decay_epochs`."""
        if epoch < self.random_epochs:
            return 1.0
        return linear_decay(1.0, epoch - self.random_epochs, self.decay_epochs)

    def act(self, obs, rng, schedule_epoch):
        if rng.random() < self.epsilon(schedule_epoch):
            return int(rng.integers(self.online.out_dim))
        return int(np.argmax(self.online.forward(obs)))

    def bellman_targets(self, rewards, next_states, dones):
        """y = r + gamma * (1-done) * Q_target(s', argmax_a Q_online(s', a))."""
        a_star = np.argmax(self.online.forward(next_states), axis=1)
        q_next = self.target.forward(next_states)[np.arange(len(a_star)), a_star]
        return rewards + self.gamma * (1.0 - dones) * q_next

    def update(self, batch, reward_scaler=None):
        """One L2 regression step on a `replay.Batch`, then a Polyak target update."""
        rewards = batch.rewards
        if reward_scaler is not None:
            rewards = reward_scaler.scale_batch(batch.env_index, rewards)
        y = self.bellman_targets(rewards, batch.next_states, batch.dones)
        q = self.online.forward_train(batch.states)
        actions = batch.actions
        rows = np.arange(len(actions))
        q_a = q[rows, actions]
        loss = float(((q_a - y) ** 2).mean())
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite DQN loss {loss}")
        grad_q = np.zeros_like(q)
        grad_q[rows, actions] = 2.0 * (q_a - y) / len(actions)
        self.online.backward(grad_q)
        self.opt.step(self.online.params, self.online.grad)
        polyak_update(self.target.params, self.online.params, self.polyak_alpha)
        self.updates += 1
        return {"loss": loss, "mean_q": float(q_a.mean()), "n": len(actions)}

    def train_from(self, buffer, rng, reward_scaler=None):
        """Sample a minibatch from the buffer and update; None if empty."""
        if len(buffer) == 0:
            return None
        return self.update(buffer.sample(self.batch_size, rng), reward_scaler)


class RunningMedian:
    """The median of a growing multiset in O(log n) per `add`: the lower
    half in a max-heap (stored negated), the upper half in a min-heap, the
    lower half one longer when the count is odd. The median is the middle
    element, or `(a + b) / 2` of the two middles, as over the sorted list."""

    def __init__(self):
        self._low, self._high = [], []

    def add(self, x):
        low, high = self._low, self._high
        if len(low) == len(high):
            heapq.heappush(low, -heapq.heappushpop(high, x))
        else:
            heapq.heappush(high, -heapq.heappushpop(low, -x))

    def median(self):
        if len(self._low) > len(self._high):
            return -self._low[0]
        return (-self._low[0] + self._high[0]) / 2


class RewardScaler:
    """Per-environment reward normalization, frozen after calibration.

    While an environment is calibrating (its exploration phase), absolute
    rewards are accumulated and the running scale is the median absolute
    reward seen so far. `freeze` pins the scale forever; consistency after
    freezing is what keeps a shared Q-network's loss comparable across
    environments. With no data (or an all-zero median) the scale is 1.

    Samples are kept in a `RunningMedian`, so the running median is O(1)
    to read and equal to `np.median` of the same values.
    """

    def __init__(self):
        self._samples = {}  # env -> RunningMedian of absolute rewards
        self._frozen = {}

    def observe(self, env_index, reward):
        """Record a calibration-phase reward; ignored once frozen."""
        if env_index in self._frozen:
            return
        samples = self._samples.get(env_index)
        if samples is None:
            samples = self._samples[env_index] = RunningMedian()
        samples.add(abs(float(reward)))

    def freeze(self, env_index):
        """Pin the environment's scale at the median absolute reward and
        drop its samples, which nothing reads again."""
        if env_index in self._frozen:
            return
        self._frozen[env_index] = self._estimate(env_index)
        self._samples.pop(env_index, None)

    def _estimate(self, env_index):
        samples = self._samples.get(env_index)
        if samples is None:
            return 1.0
        med = samples.median()
        return med if med > 0 else 1.0

    def scale_of(self, env_index):
        frozen = self._frozen.get(env_index)
        return frozen if frozen is not None else self._estimate(env_index)

    def scale(self, env_index, reward):
        return reward / self.scale_of(env_index)

    def scale_batch(self, env_index, rewards):
        """`scale` over a batch of (non-negative) environment indices: the
        same IEEE division per item, with one scale lookup per index up to
        the largest in the batch."""
        table = np.array([self.scale_of(env) for env in range(int(env_index.max()) + 1)])
        return rewards / table[env_index]
