"""Property tests for the column-store replay rings and the reward scaler.

The reference is a list-based ring that stores `Experience` objects, as
the buffers did before they became row matrices. For the same inserts and
the same RNG, the row ring must return exactly the reference's rows,
across storage growth and wraparound.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from nonstat_rl.dqn import RewardScaler
from nonstat_rl.replay import Experience, Ring, make_buffer


class ListRing:
    """Fixed-capacity FIFO list of experiences with uniform sampling."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self._next = 0

    def append(self, item):
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self._next] = item
            self._next = (self._next + 1) % self.capacity

    def sample(self, k, rng):
        return [self.items[i] for i in rng.integers(0, len(self.items), size=k)]

    def contents(self):
        return self.items[self._next:] + self.items[:self._next]


def experience(i, env=0, dim=3):
    base = np.arange(dim, dtype=np.float64) + 0.25 * i
    return Experience(base, i % 5, -1.5 * i, base + 1.0, i % 7 == 0, env)


def as_rows(items):
    return np.stack([e.row() for e in items])


def batch_rows(batch):
    return np.column_stack((batch.states, batch.next_states, batch.actions,
                            batch.rewards, batch.dones, batch.env_index))


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(capacity=st.integers(1, 300), n=st.integers(1, 700),
       k=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_row_ring_matches_list_ring(capacity, n, k, seed):
    ring, ref = Ring(capacity), ListRing(capacity)
    for i in range(n):
        e = experience(i)
        ring.append(e.row())
        ref.append(e)
    assert len(ring) == len(ref.items)
    assert np.array_equal(ring.contents(), as_rows(ref.contents()))
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = ring.sample(k, rng_a)
        want = ref.sample(k, rng_b)
        assert got.shape == (k, 2 * 3 + 4)
        if k:
            assert np.array_equal(got, as_rows(want))


@SETTINGS
@given(long_cap=st.integers(1, 200), short_cap=st.integers(1, 80),
       n=st.integers(1, 400), batch=st.integers(1, 65), seed=st.integers(0, 2**32 - 1))
def test_ltst_matches_list_rings(long_cap, short_cap, n, batch, seed):
    buf = make_buffer("ltst", long_capacity=long_cap, short_capacity=short_cap)
    long_ref, short_ref = ListRing(long_cap), ListRing(short_cap)
    for i in range(n):
        e = experience(i)
        buf.insert(e)
        long_ref.append(e)
        short_ref.append(e)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second draw checks the RNG stream stayed aligned
        got = buf.sample(batch, rng_a)
        want = (long_ref.sample(batch - batch // 2, rng_b)
                + short_ref.sample(batch // 2, rng_b))
        assert np.array_equal(batch_rows(got), as_rows(want))


@SETTINGS
@given(envs=st.lists(st.integers(0, 4), min_size=1, max_size=300),
       capacity=st.integers(1, 90), batch=st.integers(1, 65),
       seed=st.integers(0, 2**32 - 1))
def test_multi_matches_list_rings(envs, capacity, batch, seed):
    buf = make_buffer("multi", capacity_each=capacity)
    refs = {}
    for i, env in enumerate(envs):
        e = experience(i, env=env)
        buf.insert(e)
        refs.setdefault(env, ListRing(capacity)).append(e)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    live = sorted(refs)
    base, extra = divmod(batch, len(live))
    for _ in range(2):  # the second draw checks the RNG stream stayed aligned
        got = buf.sample(batch, rng_a)
        want = []
        for pos, env in enumerate(live):
            share = base + (1 if pos < extra else 0)
            if share:
                want.extend(refs[env].sample(share, rng_b))
        assert np.array_equal(batch_rows(got), as_rows(want))


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=200, deadline=None)
@given(rewards=st.lists(finite, min_size=1, max_size=60))
def test_sorted_insert_median_is_np_median(rewards):
    sc = RewardScaler()
    seen = []
    for r in rewards:
        sc.observe(0, r)
        seen.append(abs(float(r)))
        with np.errstate(over="ignore"):  # the sum of two huge samples is inf
            med = float(np.median(seen))
        want = med if med > 0 else 1.0
        # equal, including inf from an overflowing middle pair
        assert sc.scale_of(0) == want
