"""Double-DQN targets, Polyak decay, epsilon schedule, replay strategies,
and the per-environment reward scaler.

Oracle for the learner end-to-end: tabular value iteration on a small
deterministic chain MDP.
"""

import numpy as np
import pytest

from nonstat_rl.dqn import DqnLearner, EpsilonSchedule, RewardScaler, polyak_update
from nonstat_rl.errors import UsageError
from nonstat_rl.nets import Mlp
from nonstat_rl.replay import Batch, Experience, make_buffer


def exp(i, env=0, reward=0.0, action=0, done=False):
    return Experience(np.array([float(i)]), action, reward, np.array([float(i + 1)]),
                      done, env)


def fixed_q_net(biases):
    """2-action net whose Q-values are constant (input-independent)."""
    net = Mlp([1, 2], head="identity")
    net.set_parameters([np.zeros((2, 1)), np.asarray(biases, dtype=np.float64)])
    return net


class TestBellmanTargets:
    def make_learner(self, online_bias, target_bias):
        learner = DqnLearner(fixed_q_net(online_bias), gamma=0.9)
        learner.target = fixed_q_net(target_bias)
        return learner

    def test_double_dqn_target_formula(self):
        # online argmax picks action 1; target values it at 5 -> y = 2 + 0.9*5
        learner = self.make_learner([0.0, 1.0], [9.0, 5.0])
        y = learner.bellman_targets(np.array([2.0]), np.zeros((1, 1)), np.array([0.0]))
        assert y[0] == pytest.approx(6.5)

    def test_done_ignores_next_state(self):
        learner = self.make_learner([0.0, 1.0], [9.0, 5.0])
        y = learner.bellman_targets(np.array([2.0]), np.zeros((1, 1)), np.array([1.0]))
        assert y[0] == pytest.approx(2.0)

    def test_differs_from_vanilla_dqn_on_crafted_table(self):
        # vanilla would bootstrap max_a Q_target = 9; double uses 5
        learner = self.make_learner([0.0, 1.0], [9.0, 5.0])
        y = learner.bellman_targets(np.array([0.0]), np.zeros((1, 1)), np.array([0.0]))
        assert y[0] == pytest.approx(0.9 * 5.0)
        assert y[0] != pytest.approx(0.9 * 9.0)


class TestPolyak:
    def test_exact_geometric_decay(self):
        rng = np.random.default_rng(0)
        online = rng.normal(size=9)
        target = rng.normal(size=9)
        alpha = 0.01
        gap0 = target - online
        for n in range(1, 51):
            polyak_update(target, online, alpha)
            assert np.allclose(target - online, (1 - alpha) ** n * gap0,
                               rtol=1e-12, atol=1e-15)

    def test_target_never_gradient_updated(self):
        qnet = Mlp([2, 4, 3], rng=np.random.default_rng(1))
        learner = DqnLearner(qnet, gamma=0.9, batch_size=4)
        rng = np.random.default_rng(2)
        before = [p.copy() for p in learner.target.parameters()]
        batch = [Experience(rng.normal(size=2), int(rng.integers(3)), rng.normal(),
                            rng.normal(size=2), False) for _ in range(4)]
        learner.update(Batch.from_rows(np.stack([e.row() for e in batch])))
        # target moved only by the alpha-blend toward online
        for t, b, o in zip(learner.target.parameters(), before,
                           learner.online.parameters()):
            assert np.allclose(t, 0.01 * o + 0.99 * b, rtol=1e-12, atol=1e-15)


class TestEpsilonSchedule:
    def test_values(self):
        s = EpsilonSchedule(random_epochs=10, decay_epochs=100)
        assert s.value(0) == 1.0 and s.value(9) == 1.0
        assert s.value(10) == 1.0  # schedule position 0
        assert s.value(60) == pytest.approx(0.5)
        assert s.value(110) == 0.0 and s.value(500) == 0.0

    def test_uniform_at_schedule_start(self):
        qnet = Mlp([2, 4, 4], rng=np.random.default_rng(3))
        learner = DqnLearner(qnet, gamma=0.9, random_epochs=5, decay_epochs=10)
        rng = np.random.default_rng(4)
        obs = np.ones(2)
        counts = np.zeros(4)
        n = 10_000
        for _ in range(n):
            counts[learner.act(obs, rng, schedule_epoch=0)] += 1
        mean = n / 4
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - mean) <= 3 * sigma)

    def test_greedy_after_schedule_end(self):
        qnet = Mlp([2, 4, 4], rng=np.random.default_rng(5))
        learner = DqnLearner(qnet, gamma=0.9, random_epochs=5, decay_epochs=10)
        rng = np.random.default_rng(6)
        obs = np.ones(2)
        greedy = int(np.argmax(qnet.forward(obs)))
        assert all(learner.act(obs, rng, schedule_epoch=99) == greedy for _ in range(100))

    def test_argmax_tie_breaks_lowest_index(self):
        learner = DqnLearner(fixed_q_net([2.0, 2.0]), gamma=0.9, random_epochs=0,
                             decay_epochs=0)
        rng = np.random.default_rng(0)
        assert all(learner.act(np.zeros(1), rng, schedule_epoch=0) == 0
                   for _ in range(20))


class TestChainMdpOracle:
    """3-state deterministic chain, rewards (0, 0, 1) on advancing."""

    GAMMA = 0.9

    @staticmethod
    def value_iteration(gamma):
        # states 0,1,2; actions: 0 stay, 1 advance; advancing from 2 ends
        q = np.zeros((3, 2))
        for _ in range(500):
            v = q.max(axis=1)
            new = np.zeros_like(q)
            for s in range(3):
                new[s, 0] = 0.0 + gamma * v[s]                       # stay
                new[s, 1] = (1.0 + 0.0) if s == 2 else gamma * v[s + 1]
            q = new
        return q

    def test_ddqn_converges_to_value_iteration_fixed_point(self):
        q_star = self.value_iteration(self.GAMMA)
        rng = np.random.default_rng(7)
        qnet = Mlp([3, 24, 2], rng=np.random.default_rng(8))
        learner = DqnLearner(qnet, gamma=self.GAMMA, lr=0.003, polyak_alpha=0.05,
                             batch_size=32, weight_decay=0.0)
        buffer = make_buffer("large", capacity=50_000)
        onehot = np.eye(3)
        s = 0
        for step in range(12_000):
            a = int(rng.integers(2))
            if a == 0:
                nxt, r, done = s, 0.0, False
            elif s == 2:
                nxt, r, done = 0, 1.0, True
            else:
                nxt, r, done = s + 1, 0.0, False
            buffer.insert(Experience(onehot[s], a, r, onehot[nxt], done))
            s = 0 if done else nxt
            if step >= 100:
                learner.train_from(buffer, rng)
        q_learned = learner.online.forward(onehot)
        assert np.max(np.abs(q_learned - q_star)) < 1e-2

    def test_empty_buffer_skips_with_none(self):
        learner = DqnLearner(Mlp([3, 4, 2]), gamma=0.9)
        assert learner.train_from(make_buffer("small", capacity=4),
                                  np.random.default_rng(0)) is None


def rows(*exps):
    return np.stack([e.row() for e in exps])


class TestBuffers:
    def test_small_ring_fifo(self):
        buf = make_buffer("small", capacity=2)
        e1, e2, e3 = exp(1), exp(2), exp(3)
        for e in (e1, e2, e3):
            buf.insert(e)
        assert np.array_equal(buf.ring.contents(), rows(e2, e3))

    def test_multi_buffer_per_env_rings(self):
        buf = make_buffer("multi")
        for env in (0, 1, 0):
            buf.insert(exp(env, env=env))
        assert len(buf.rings[0]) == 2 and len(buf.rings[1]) == 1

    def test_ltst_insert_both(self):
        buf = make_buffer("ltst", long_capacity=10, short_capacity=2)
        items = [exp(i) for i in range(5)]
        for e in items:
            buf.insert(e)
        assert np.array_equal(buf.long.contents(), rows(*items))
        assert np.array_equal(buf.short.contents(), rows(*items[-2:]))

    def test_ltst_samples_half_from_each(self):
        buf = make_buffer("ltst", long_capacity=10, short_capacity=2)
        items = [exp(i) for i in range(5)]
        for e in items:
            buf.insert(e)
        rng = np.random.default_rng(1)
        batch = buf.sample(8, rng)
        assert len(batch) == 8
        # the short half can only contain the two most recent items
        assert set(batch.states[4:, 0]) <= {3.0, 4.0}

    def test_multi_equal_shares(self):
        buf = make_buffer("multi")
        for env in (0, 1, 2):
            for i in range(5):
                buf.insert(exp(i, env=env))
        rng = np.random.default_rng(2)
        batch = buf.sample(9, rng)
        counts = {env: int((batch.env_index == env).sum()) for env in (0, 1, 2)}
        assert counts == {0: 3, 1: 3, 2: 3}

    def test_multi_remainder_round_robin(self):
        buf = make_buffer("multi")
        for env in (0, 1, 2):
            buf.insert(exp(env, env=env))
        batch = buf.sample(8, np.random.default_rng(3))
        counts = {env: int((batch.env_index == env).sum()) for env in (0, 1, 2)}
        assert counts == {0: 3, 1: 3, 2: 2}

    def test_single_element_sampled_with_replacement(self):
        buf = make_buffer("large", capacity=10)
        e = exp(0, reward=1.5, action=2, done=True)
        buf.insert(e)
        batch = buf.sample(4, np.random.default_rng(4))
        assert np.array_equal(batch.states, np.tile(e.state, (4, 1)))
        assert np.array_equal(batch.next_states, np.tile(e.next_state, (4, 1)))
        assert batch.actions.tolist() == [2] * 4
        assert batch.rewards.tolist() == [1.5] * 4
        assert batch.dones.tolist() == [1.0] * 4
        assert batch.env_index.tolist() == [0] * 4

    def test_empty_sample_is_error(self):
        for name in ("large", "small", "ltst", "multi"):
            with pytest.raises(UsageError):
                make_buffer(name).sample(4, np.random.default_rng(0))

    def test_uniform_sampling_chi_square(self):
        buf = make_buffer("small", capacity=10)
        for i in range(10):
            buf.insert(exp(i, reward=float(i)))
        rng = np.random.default_rng(5)
        n = 10_000
        counts = np.bincount(buf.sample(n, rng).rewards.astype(int), minlength=10)
        chi2 = float(((counts - n / 10) ** 2 / (n / 10)).sum())
        assert chi2 < 27.88  # chi-square df=9 at the 0.1% level

    def test_batch_columns_view_one_matrix(self):
        buf = make_buffer("ltst", long_capacity=10, short_capacity=4)
        for i in range(6):
            buf.insert(exp(i))
        batch = buf.sample(8, np.random.default_rng(6))
        matrix = batch.states.base
        assert matrix is not None and matrix.shape == (8, 1 + 1 + 4)
        for col in (batch.next_states, batch.rewards, batch.dones):
            assert col.base is matrix
        assert batch.actions.dtype == np.intp and batch.env_index.dtype == np.intp

    def test_storage_grows_geometrically_not_to_capacity(self):
        buf = make_buffer("large", capacity=1_000_000)
        sizes = []
        for i in range(300):
            buf.insert(exp(i))
            sizes.append(len(buf.ring.rows))
        assert sorted(set(sizes)) == [64, 128, 256, 512]

    def test_storage_growth_capped_at_capacity(self):
        buf = make_buffer("small", capacity=100)
        for i in range(250):
            buf.insert(exp(i))
        assert buf.ring.rows.shape == (100, 1 + 1 + 4)
        assert buf.ring.contents()[:, 0].tolist() == list(range(150, 250))


class TestRewardScaler:
    def test_constant_rewards_scale_to_unit(self):
        sc = RewardScaler()
        for _ in range(20):
            sc.observe(0, -500.0)
        sc.freeze(0)
        assert sc.scale(0, -500.0) == pytest.approx(-1.0)

    def test_two_envs_match_magnitudes(self):
        sc = RewardScaler()
        rng = np.random.default_rng(6)
        for _ in range(200):
            sc.observe(0, -500.0 * rng.lognormal(0, 0.3))
            sc.observe(1, -10.0 * rng.lognormal(0, 0.3))
        sc.freeze(0)
        sc.freeze(1)
        a = abs(sc.scale(0, -500.0))
        b = abs(sc.scale(1, -10.0))
        assert 0.8 < a < 1.25 and 0.8 < b < 1.25

    def test_frozen_scale_never_changes(self):
        sc = RewardScaler()
        sc.observe(0, -100.0)
        sc.freeze(0)
        before = sc.scale_of(0)
        for _ in range(50):
            sc.observe(0, -1e6)
        assert sc.scale_of(0) == before

    def test_calibration_median_within_band(self):
        sc = RewardScaler()
        rng = np.random.default_rng(7)
        scaled = []
        for _ in range(300):
            r = -rng.lognormal(3.0, 0.8)
            scaled.append(abs(sc.scale(0, r)))
            sc.observe(0, r)
        med = float(np.median(scaled))
        assert 0.5 <= med <= 2.0

    def test_default_scale_is_one(self):
        sc = RewardScaler()
        assert sc.scale(9, -42.0) == -42.0

    def test_batch_scaling_matches_per_item_division(self):
        sc = RewardScaler()
        rng = np.random.default_rng(8)
        for env, mag in ((0, 500.0), (1, 3.0), (2, 40.0)):
            for _ in range(37):
                sc.observe(env, -mag * rng.lognormal(0, 0.5))
        sc.freeze(1)
        envs = rng.integers(0, 4, size=64)  # env 3 has no data: scale 1
        rewards = -rng.lognormal(3.0, 1.0, size=64)
        want = [sc.scale(int(e), float(r)) for e, r in zip(envs, rewards)]
        assert sc.scale_batch(envs, rewards).tolist() == want
        one_env = np.zeros(64, dtype=np.intp)
        assert sc.scale_batch(one_env, rewards).tolist() == [
            sc.scale(0, float(r)) for r in rewards]

    def test_frozen_scale_skips_estimate(self, monkeypatch):
        sc = RewardScaler()
        sc.observe(0, -10.0)
        sc.freeze(0)
        monkeypatch.setattr(sc, "_estimate", lambda env: pytest.fail("estimated"))
        assert sc.scale_of(0) == 10.0
