"""Advantage actor-critic with generalized advantage estimation.

The learner holds two independent networks (a softmax actor and an identity
critic), trains them with Adam, and anneals a policy-entropy bonus linearly
to zero. Batches are on-policy: a batch object can be consumed exactly once.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DivergenceError, UsageError
from .nets import Adam, save_net
from .stats import linear_decay

GAE_LAMBDA = 0.95   # GAE's lambda: the advantages' bias-variance trade-off


def compute_gae(rewards, values, gamma, lam):
    """Advantages and value targets via the backward GAE recursion.

    `values` must have length len(rewards)+1; the final entry is the
    bootstrap value of the state after the last step (0 if terminal).
    Returns (advantages, returns) with returns = advantages + values[:-1].
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (rewards.size + 1,):
        raise ValueError(
            f"values must have length {rewards.size + 1}, got {values.size}"
        )
    deltas = rewards + gamma * values[1:] - values[:-1]
    advantages = np.empty_like(deltas)
    acc = 0.0
    for t in range(deltas.size - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        advantages[t] = acc
    return advantages, advantages + values[:-1]


@dataclass
class Trajectory:
    """One contiguous on-policy segment collected under a fixed policy."""

    states: np.ndarray       # (T, obs_dim)
    actions: np.ndarray      # (T,) int
    rewards: np.ndarray      # (T,)
    final_state: np.ndarray  # observation after the last step
    terminal: bool = False   # True -> bootstrap value 0

    def __len__(self):
        return len(self.actions)


@dataclass
class EpisodeBatch:
    """A set of trajectories that may be used for exactly one update."""

    trajectories: list = field(default_factory=list)
    consumed: bool = False

    def add(self, traj):
        self.trajectories.append(traj)

    def n_steps(self):
        return sum(len(t) for t in self.trajectories)


def entropy_of(probs):
    p = np.clip(probs, 1e-32, None)
    return -(probs * np.log(p)).sum(axis=-1)


class A2cLearner:
    """Actor-critic learner; actor must have a softmax head, critic identity."""

    def __init__(self, actor, critic, gamma, lr=0.001, entropy_start=0.1,
                 entropy_epochs=5000, weight_decay=1e-4, normalize_advantages=True):
        if actor.head != "softmax":
            raise UsageError("actor needs a softmax head")
        if critic.head != "identity":
            raise UsageError("critic needs an identity head")
        self.actor = actor
        self.critic = critic
        self.gamma = gamma
        self.entropy_start = entropy_start
        self.entropy_epochs = entropy_epochs
        self.normalize_advantages = normalize_advantages
        self.actor_opt = Adam(actor.params, lr=lr, weight_decay=weight_decay)
        self.critic_opt = Adam(critic.params, lr=lr, weight_decay=weight_decay)
        self.updates = 0

    def save(self, directory):
        """Checkpoint `actor.npz` and `critic.npz` into `directory`."""
        os.makedirs(directory, exist_ok=True)
        save_net(self.actor, os.path.join(directory, "actor.npz"))
        save_net(self.critic, os.path.join(directory, "critic.npz"))

    def entropy_coef(self, epoch):
        """Linear anneal from entropy_start to exactly 0 at entropy_epochs."""
        return linear_decay(self.entropy_start, epoch, self.entropy_epochs)

    def act(self, obs, rng):
        """Sample an action from the current policy."""
        # `cum` is `np.cumsum(probs)`, and `cum[-1]` is `probs.sum()` bit for bit:
        # numpy sums fewer than 8 elements in that order (6 and 7 actions here)
        cum = list(accumulate(self.actor.forward(obs).tolist()))
        x = rng.random() * cum[-1]
        # a draw of exactly 0 takes the first action with positive probability;
        # any other draw, the first action whose running sum reaches it
        return bisect_left(cum, x) if x > 0 else bisect_right(cum, 0.0)

    def batch_advantages(self, batch):
        """GAE advantages and returns for every step of the batch, in order."""
        adv_all, ret_all = [], []
        for traj in batch.trajectories:
            values = self.critic.forward(traj.states).reshape(-1)
            bootstrap = 0.0 if traj.terminal else float(self.critic.forward(traj.final_state)[0])
            adv, ret = compute_gae(traj.rewards, np.append(values, bootstrap),
                                   self.gamma, GAE_LAMBDA)
            adv_all.append(adv)
            ret_all.append(ret)
        return np.concatenate(adv_all), np.concatenate(ret_all)

    def update(self, batch, schedule_epoch=None):
        """One gradient step on actor and critic from an on-policy batch.

        `schedule_epoch` positions the entropy anneal (defaults to the
        learner's own update counter). The batch is marked consumed; reusing
        it is a usage error.
        """
        if batch.consumed:
            raise UsageError("on-policy batch already consumed")
        if not batch.trajectories or batch.n_steps() == 0:
            raise UsageError("empty batch")
        batch.consumed = True
        epoch = self.updates if schedule_epoch is None else schedule_epoch
        coef = self.entropy_coef(epoch)

        advantages, returns = self.batch_advantages(batch)
        if not np.all(np.isfinite(advantages)):
            raise DivergenceError("non-finite advantages")
        if self.normalize_advantages and advantages.size > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        states = np.concatenate([t.states for t in batch.trajectories])
        actions = np.concatenate([t.actions for t in batch.trajectories])
        n = len(actions)
        rows = np.arange(n)

        # actor: d/dp of -(log p[a] * A)/n - coef * H/n
        probs = self.actor.forward_train(states)
        p_a = np.clip(probs[rows, actions], 1e-32, None)
        grad_p = np.zeros_like(probs)
        grad_p[rows, actions] = -advantages / p_a / n
        if coef:
            grad_p += coef * (np.log(np.clip(probs, 1e-32, None)) + 1.0) / n
        self.actor.backward(grad_p)
        entropy = entropy_of(probs).mean()
        policy_loss = -(np.log(p_a) * advantages).mean() - coef * entropy

        # critic: mean squared error against the GAE returns
        v = self.critic.forward_train(states).reshape(-1)
        value_loss = ((v - returns) ** 2).mean()
        self.critic.backward((2.0 * (v - returns) / n).reshape(-1, 1))

        if not (np.isfinite(policy_loss) and np.isfinite(value_loss)):
            raise DivergenceError(
                f"non-finite loss (policy={policy_loss}, value={value_loss})"
            )
        self.actor_opt.step(self.actor.params, self.actor.grad)
        self.critic_opt.step(self.critic.params, self.critic.grad)
        self.updates += 1
        return {
            "policy_loss": float(policy_loss),
            "value_loss": float(value_loss),
            "entropy": float(entropy),
            "entropy_coef": coef,
            "n_steps": n,
        }
