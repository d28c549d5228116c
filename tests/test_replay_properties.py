"""Property tests for the column-store replay rings and the reward scaler.

The reference is a list-based ring that stores `Experience` objects, as
the buffers did before they became row matrices. For the same inserts and
the same RNG, the row ring must return exactly the reference's rows,
across storage growth and wraparound. The share tests count each ring's
rows in a batch and check them against the stated split, not a copy of it.
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


@settings(max_examples=180, deadline=None)  # 60 per strategy on average
@given(strategy=st.sampled_from(["large", "small", "ltst"]),
       long_cap=st.integers(1, 200), short_cap=st.integers(1, 80),
       n=st.integers(1, 400), batch=st.integers(1, 65), seed=st.integers(0, 2**32 - 1))
def test_large_small_ltst_match_list_rings(strategy, long_cap, short_cap, n, batch, seed):
    # large and small are one ring that gets the whole batch; ltst draws the
    # long ring's half (with the odd row) first, then the short ring's
    buf = make_buffer(strategy, buffer_capacity=long_cap, ltst_long_capacity=long_cap,
                      small_capacity=short_cap)
    shares = {"large": [(long_cap, batch)], "small": [(short_cap, batch)],
              "ltst": [(long_cap, batch - batch // 2), (short_cap, batch // 2)]}[strategy]
    refs = [(ListRing(cap), k) for cap, k in shares]
    for i in range(n):
        e = experience(i)
        buf.insert(e)
        for ref, _ in refs:
            ref.append(e)
    assert len(buf) == len(refs[0][0].items)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second draw checks the RNG stream stayed aligned
        got = buf.sample(batch, rng_a)
        want = [item for ref, k in refs for item in ref.sample(k, rng_b)]
        assert np.array_equal(batch_rows(got), as_rows(want))


@SETTINGS
@given(envs=st.lists(st.integers(0, 4), min_size=1, max_size=300),
       capacity=st.integers(1, 90), batch=st.integers(1, 65),
       seed=st.integers(0, 2**32 - 1))
def test_multi_matches_list_rings(envs, capacity, batch, seed):
    buf = make_buffer("multi", buffer_capacity=capacity)
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


@SETTINGS
@given(batch=st.integers(1, 65), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_ltst_draws_the_odd_row_from_the_long_ring(batch, n, seed):
    # each ring holds rows tagged with its own env_index, so the column
    # tells which ring a sampled row came from
    buf = make_buffer("ltst", ltst_long_capacity=50, small_capacity=50)
    for i in range(n):
        buf.rings[0].append(experience(i, env=0).row())
        buf.rings[1].append(experience(i, env=1).row())
    got = buf.sample(batch, np.random.default_rng(seed)).env_index
    n_long, n_short = int(np.sum(got == 0)), int(np.sum(got == 1))
    assert n_long + n_short == batch
    assert n_long - n_short == batch % 2


@SETTINGS
@given(envs=st.lists(st.integers(0, 15), min_size=1, max_size=200),
       batch=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_multi_splits_the_batch_evenly_lowest_indices_first(envs, batch, seed):
    buf = make_buffer("multi", buffer_capacity=30)
    for i, env in enumerate(envs):
        buf.insert(experience(i, env=env))
    got = buf.sample(batch, np.random.default_rng(seed)).env_index
    counts = [int(np.sum(got == env)) for env in sorted(set(envs))]
    assert sum(counts) == batch
    assert max(counts) - min(counts) <= 1       # every share is floor or ceil
    assert counts == sorted(counts, reverse=True)   # extras go to the lowest


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
