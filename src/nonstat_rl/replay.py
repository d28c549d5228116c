"""Experience tuples, sampled batches and the four replay-buffer strategies.

All constituent buffers are FIFO rings; sampling is uniform with
replacement within a ring. The strategies differ in how rings are
combined:

* ``large``  -- one ring big enough to effectively keep everything
* ``small``  -- the same single ring, sized (``small_capacity``) to keep
  only recent experience
* ``ltst``   -- long-term + short-term rings, inserted into both and
  sampled half/half
* ``multi``  -- one ring per environment index, created on first sight
  and sampled in equal shares

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
        if out is None:
            out = np.empty((k, self.rows.shape[1]))
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


def _draw(draws, rng):
    """One Batch of k rows from each non-empty (ring, k) in turn, drawn
    straight into one matrix."""
    out = np.empty((sum(k for _, k in draws), draws[0][0].rows.shape[1]))
    lo = 0
    for ring, k in draws:
        ring.sample(k, rng, out[lo:lo + k])
        lo += k
    return Batch.from_rows(out)


class LargeBuffer:
    """One ring; ``large`` and ``small`` differ only in its capacity."""

    def __init__(self, capacity=1_000_000):
        self.ring = Ring(capacity)

    def insert(self, exp):
        self.ring.append(exp.row())

    def sample(self, batch, rng):
        return Batch.from_rows(self.ring.sample(batch, rng))

    def __len__(self):
        return len(self.ring)


class LongTermShortTermBuffer:
    """Insert into both rings; draw half of every batch from each.

    Both rings receive every insert, so they are empty or non-empty
    together. Odd batch sizes give the extra sample to the long ring.
    """

    def __init__(self, long_capacity=1_000_000, short_capacity=10_000):
        self.long = Ring(long_capacity)
        self.short = Ring(short_capacity)

    def insert(self, exp):
        row = exp.row()
        self.long.append(row)
        self.short.append(row)

    def sample(self, batch, rng):
        if len(self.long) == 0:
            raise UsageError("sampling from an empty buffer")
        return _draw([(self.long, batch - batch // 2), (self.short, batch // 2)], rng)

    def __len__(self):
        return len(self.long)


class MultiBuffer:
    """One ring per environment index, sampled in equal shares.

    The batch remainder is spread round-robin over the lowest environment
    indices so the split is deterministic.
    """

    def __init__(self, capacity_each=1_000_000):
        self.capacity_each = capacity_each
        self.rings = {}

    def insert(self, exp):
        ring = self.rings.get(exp.env_index)
        if ring is None:
            ring = self.rings[exp.env_index] = Ring(self.capacity_each)
        ring.append(exp.row())

    def sample(self, batch, rng):
        live = sorted(idx for idx, ring in self.rings.items() if len(ring))
        if not live:
            raise UsageError("sampling from an empty buffer")
        base, extra = divmod(batch, len(live))
        # rings past the first `batch` would get a share of 0: draw nothing there
        return _draw([(self.rings[idx], base + (1 if pos < extra else 0))
                      for pos, idx in enumerate(live[:batch])], rng)

    def __len__(self):
        return sum(len(r) for r in self.rings.values())


STRATEGIES = {
    "large": LargeBuffer,
    "small": LargeBuffer,
    "ltst": LongTermShortTermBuffer,
    "multi": MultiBuffer,
}


def make_buffer(name, **kwargs):
    try:
        return STRATEGIES[name](**kwargs)
    except KeyError:
        raise ConfigError(f"unknown buffer strategy {name!r}") from None
