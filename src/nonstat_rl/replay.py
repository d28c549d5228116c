"""Experience tuples, sampled batches and the one replay buffer behind the
four replay strategies.

A `ReplayBuffer` is a set of FIFO rings with one insert rule and one
sampler. A row goes either into every ring or into the ring of its
environment index, created on first sight. A batch is split equally over
the non-empty rings in key order, the remainder going one row each to the
first rings, and sampling is uniform with replacement within a ring. The
strategies differ only in their rings (`make_buffer`):

* ``large``  -- one ring big enough to effectively keep everything
* ``small``  -- one ring sized (``small_capacity``) to keep only recent
  experience
* ``ltst``   -- long-term + short-term rings that both get every row,
  so a batch is half from each, the odd row from the long ring
* ``multi``  -- one ring per environment index, sampled in equal shares

A ring is a column store: one float64 row per experience, laid out as
``[state | next_state | action, reward, done, env_index]``. Sampling
gathers rows straight into one matrix and hands the learner a `Batch` of
column views, so a minibatch costs no per-item Python work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError

# columns after the two state blocks: action, reward, done, env_index
_TAIL = 4
_MIN_ROWS = 64


@dataclass
class Experience:
    """One (state, action, reward, next state, done) interaction."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool
    env_index: int = 0

    def __post_init__(self):
        if not math.isfinite(self.reward):
            raise ConfigError(f"non-finite reward {self.reward}")

    def row(self):
        """The experience as one ring row."""
        return np.concatenate((self.state, self.next_state,
                               (self.action, self.reward, self.done, self.env_index)))


@dataclass
class Batch:
    """A minibatch as columns; `from_rows` makes them views of one matrix."""

    states: np.ndarray
    actions: np.ndarray     # intp
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray       # 1.0 / 0.0
    env_index: np.ndarray   # intp

    @classmethod
    def from_rows(cls, rows):
        d = (rows.shape[1] - _TAIL) // 2
        return cls(states=rows[:, :d], actions=rows[:, 2 * d].astype(np.intp),
                   rewards=rows[:, 2 * d + 1], next_states=rows[:, d:2 * d],
                   dones=rows[:, 2 * d + 2], env_index=rows[:, 2 * d + 3].astype(np.intp))

    def __len__(self):
        return len(self.rewards)


class Ring:
    """Fixed-capacity FIFO ring of rows with uniform sampling (with replacement).

    Storage grows geometrically (x2 from 64 rows, capped at `capacity`), so
    a ring sized for a long run costs memory only for what it holds.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ConfigError("ring capacity must be >= 1")
        self.capacity = int(capacity)
        self.rows = None
        self._len = 0
        self._next = 0

    def append(self, row):
        if self._len < self.capacity:
            if self.rows is None or self._len == len(self.rows):
                self._grow(len(row))
            self.rows[self._len] = row
            self._len += 1
        else:
            self.rows[self._next] = row
            self._next = (self._next + 1) % self.capacity

    def _grow(self, width):
        n = min(self.capacity, max(_MIN_ROWS, 2 * self._len))
        rows = np.empty((n, width))
        if self._len:
            rows[:self._len] = self.rows
        self.rows = rows

    def sample(self, k, rng, out=None):
        """k rows drawn uniformly with replacement, written into `out` (a
        (k, width) array, new if not given) and returned."""
        if not self._len:
            raise UsageError("sampling from an empty buffer")
        # the indices are in range by construction; mode="clip" spares np.take
        # the buffered copy it makes under the default mode="raise"
        return np.take(self.rows, rng.integers(0, self._len, size=k), axis=0,
                       out=out, mode="clip")

    def __len__(self):
        return self._len

    def contents(self):
        """All held rows, oldest first."""
        if not self._len:
            return np.empty((0, 0))
        return np.concatenate((self.rows[self._next:self._len], self.rows[:self._next]))


class ReplayBuffer:
    """Rings keyed by int: with `capacities`, rings 0, 1, ... that every row
    goes into; with `capacity_each` instead, one ring per environment index.

    `len` is the number of experiences held: the first ring's length when
    every ring gets every row, the sum over the rings otherwise.
    """

    def __init__(self, capacities=(), capacity_each=None):
        self.rings = {key: Ring(c) for key, c in enumerate(capacities)}
        self.capacity_each = capacity_each

    def insert(self, exp):
        row = exp.row()
        if self.capacity_each is None:
            for ring in self.rings.values():
                ring.append(row)
            return
        ring = self.rings.get(exp.env_index)
        if ring is None:
            ring = self.rings[exp.env_index] = Ring(self.capacity_each)
        ring.append(row)

    def sample(self, batch, rng):
        live = [ring for _, ring in sorted(self.rings.items()) if len(ring)]
        if not live:
            raise UsageError("sampling from an empty buffer")
        base, extra = divmod(batch, len(live))
        out = np.empty((batch, live[0].rows.shape[1]))
        lo = 0
        # rings past the first `batch` would get a share of 0: draw nothing there
        for pos, ring in enumerate(live[:batch]):
            k = base + (pos < extra)
            ring.sample(k, rng, out[lo:lo + k])
            lo += k
        return Batch.from_rows(out)

    def __len__(self):
        if self.capacity_each is None:
            return len(self.rings[0])
        return sum(len(r) for r in self.rings.values())


STRATEGIES = dict.fromkeys(("large", "small", "ltst", "multi"), ReplayBuffer)


def make_buffer(name, buffer_capacity=1_000_000, small_capacity=2_000,
                ltst_long_capacity=8_000):
    """The buffer of strategy `name`, its rings sized from the capacities of
    the same names in `ExperimentConfig`."""
    if name not in STRATEGIES:
        raise ConfigError(f"unknown buffer strategy {name!r}")
    if name == "multi":
        return ReplayBuffer(capacity_each=buffer_capacity)
    return ReplayBuffer({"large": (buffer_capacity,), "small": (small_capacity,),
                         "ltst": (ltst_long_capacity, small_capacity)}[name])
