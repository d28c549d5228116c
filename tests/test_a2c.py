"""GAE and actor-critic update correctness.

Oracles: a brute-force evaluation of the exponentially weighted k-step
advantage blend, and central finite differences of the surrogate objectives
through a forward-only evaluation path.
"""

import numpy as np
import pytest

from nonstat_rl.a2c import A2cLearner, EpisodeBatch, Trajectory, compute_gae
from nonstat_rl.errors import DivergenceError, UsageError
from nonstat_rl.nets import Mlp

from test_nets import assert_rel_close, fd_gradients


def gae_bruteforce(rewards, values, gamma, lam):
    """Exponentially weighted blend of all k-step advantage estimators.

    The final k-step term absorbs the tail weight lam**(k-1) so the weights
    sum to one over the finite horizon.
    """
    T = len(rewards)
    adv = np.zeros(T)
    for t in range(T):
        horizon = T - t
        total = 0.0
        for k in range(1, horizon + 1):
            a_k = (
                sum(gamma**i * rewards[t + i] for i in range(k))
                + gamma**k * values[t + k]
                - values[t]
            )
            w = lam ** (k - 1) if k == horizon else (1 - lam) * lam ** (k - 1)
            total += w * a_k
        adv[t] = total
    return adv


class TestGae:
    def test_hand_recursion_example(self):
        adv, ret = compute_gae([1.0, 1.0], [0.0, 0.0, 0.0], gamma=0.9, lam=0.95)
        assert adv == pytest.approx([1.855, 1.0], abs=1e-12)
        assert ret == pytest.approx([1.855, 1.0], abs=1e-12)

    def test_lambda_zero_gives_td_residuals(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=6)
        v = rng.normal(size=7)
        adv, _ = compute_gae(r, v, gamma=0.9, lam=0.0)
        assert np.allclose(adv, r + 0.9 * v[1:] - v[:-1], atol=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = rng.normal(size=10)
            v = rng.normal(size=11)
            adv, ret = compute_gae(r, v, gamma=0.9, lam=0.95)
            want = gae_bruteforce(r, v, 0.9, 0.95)
            assert np.max(np.abs(adv - want)) < 1e-9
            assert np.allclose(ret, adv + v[:-1], atol=1e-12)

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError):
            compute_gae([1.0, 2.0], [0.0, 0.0], gamma=0.9, lam=0.95)


def make_learner(obs_dim=3, n_actions=2, seed=0, **kw):
    actor = Mlp([obs_dim, 6, n_actions], head="softmax", rng=np.random.default_rng(seed))
    critic = Mlp([obs_dim, 6, 1], head="identity", rng=np.random.default_rng(seed + 1))
    kw.setdefault("gamma", 0.9)
    return A2cLearner(actor, critic, **kw)


def random_batch(learner, rng, n_traj=3, length=5, obs_dim=3):
    batch = EpisodeBatch()
    for _ in range(n_traj):
        states = rng.normal(size=(length, obs_dim))
        actions = np.array([learner.act(s, rng) for s in states])
        batch.add(Trajectory(states, actions, rng.normal(size=length),
                             rng.normal(size=obs_dim), terminal=False))
    return batch


class TestA2cUpdate:
    def test_zero_advantage_zero_entropy_leaves_actor_unchanged(self):
        learner = make_learner(weight_decay=0.0, entropy_start=0.0,
                               normalize_advantages=False)
        # all-zero rewards and a zero critic make every advantage zero
        for p in learner.critic.parameters():
            p[...] = 0.0
        before = [p.copy() for p in learner.actor.parameters()]
        states = np.zeros((4, 3))
        batch = EpisodeBatch()
        batch.add(Trajectory(states, np.array([0, 1, 0, 1]), np.zeros(4),
                             np.zeros(3), terminal=True))
        learner.update(batch)
        for a, b in zip(learner.actor.parameters(), before):
            assert np.array_equal(a, b)

    def test_batch_consumed_once(self):
        learner = make_learner()
        rng = np.random.default_rng(2)
        batch = random_batch(learner, rng)
        learner.update(batch)
        with pytest.raises(UsageError):
            learner.update(batch)

    def test_bandit_probability_increases(self):
        # single-state two-action bandit: reward 1 for action 0 only
        learner = make_learner(lr=0.01, weight_decay=0.0, entropy_start=0.0)
        rng = np.random.default_rng(3)
        state = np.ones(3)
        p_start = learner.actor.forward(state)[0]
        for _ in range(50):
            batch = EpisodeBatch()
            for _ in range(16):
                a = learner.act(state, rng)
                batch.add(Trajectory(state[None, :], np.array([a]),
                                     np.array([1.0 if a == 0 else 0.0]),
                                     state, terminal=True))
            learner.update(batch)
        p_end = learner.actor.forward(state)[0]
        assert p_end > p_start
        assert p_end > 0.9

    @pytest.mark.parametrize("normalize", [False, True])
    def test_actor_gradient_matches_finite_differences(self, normalize):
        learner = make_learner(normalize_advantages=normalize, entropy_start=0.05,
                               entropy_epochs=100)
        rng = np.random.default_rng(4)
        batch = random_batch(learner, rng)
        coef = learner.entropy_coef(0)

        # freeze the advantage/return coefficients as the update would see them
        advantages, returns = learner.batch_advantages(batch)
        if normalize:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        states = np.concatenate([t.states for t in batch.trajectories])
        actions = np.concatenate([t.actions for t in batch.trajectories])
        n = len(actions)
        probs = learner.actor.forward_train(states)
        rows = np.arange(n)
        p_a = np.clip(probs[rows, actions], 1e-32, None)
        grad_p = np.zeros_like(probs)
        grad_p[rows, actions] = -advantages / p_a / n
        grad_p += coef * (np.log(np.clip(probs, 1e-32, None)) + 1.0) / n
        analytic = [g.copy() for g in learner.actor.backward(grad_p)]

        def surrogate():
            pl, _, _ = learner.surrogate_loss(batch, coef, advantages, returns)
            return float(pl)

        fd = fd_gradients(surrogate, learner.actor.parameters())
        for got, want in zip(analytic, fd):
            assert_rel_close(got, want)

    def test_critic_gradient_matches_finite_differences(self):
        learner = make_learner(normalize_advantages=False)
        rng = np.random.default_rng(5)
        batch = random_batch(learner, rng)
        _, returns = learner.batch_advantages(batch)
        states = np.concatenate([t.states for t in batch.trajectories])
        n = len(returns)

        v = learner.critic.forward_train(states).reshape(-1)
        analytic = [g.copy() for g in
                    learner.critic.backward((2.0 * (v - returns) / n).reshape(-1, 1))]

        def value_loss():
            out = learner.critic.forward(states).reshape(-1)
            return float(((out - returns) ** 2).mean())

        fd = fd_gradients(value_loss, learner.critic.parameters())
        for got, want in zip(analytic, fd):
            assert_rel_close(got, want)

    def test_entropy_schedule_hits_zero_exactly(self):
        learner = make_learner(entropy_start=0.1, entropy_epochs=50)
        coefs = [learner.entropy_coef(e) for e in range(60)]
        assert all(a >= b for a, b in zip(coefs, coefs[1:]))
        assert coefs[0] == pytest.approx(0.1)
        assert coefs[50] == 0.0 and coefs[59] == 0.0

    def test_nonfinite_loss_raises(self):
        learner = make_learner()
        batch = EpisodeBatch()
        batch.add(Trajectory(np.zeros((2, 3)), np.array([0, 1]),
                             np.array([np.inf, 0.0]), np.zeros(3), terminal=True))
        with pytest.raises(DivergenceError):
            learner.update(batch)

    def test_update_improves_bandit_loss_direction(self):
        # diagnostics sanity: returned keys and entropy in [0, log n_actions]
        learner = make_learner()
        rng = np.random.default_rng(6)
        diag = learner.update(random_batch(learner, rng))
        assert set(diag) >= {"policy_loss", "value_loss", "entropy", "n_steps"}
        assert 0.0 <= diag["entropy"] <= np.log(2) + 1e-9
