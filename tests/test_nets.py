"""Forward/backward correctness of the hand-written nets.

The gradient oracle is central finite differences over an independent
forward-only evaluation path.
"""

import warnings

import numpy as np
import pytest

from nonstat_rl.errors import ConfigError, DivergenceError, UsageError
from nonstat_rl.nets import (Adam, DeepSetsEncoder, Mlp, clone_net, load_net, save_net,
                             softmax)


def fd_gradients(loss_fn, params, h=1e-5):
    """Central finite differences of a scalar loss over every entry."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + h
            hi = loss_fn()
            p[idx] = keep - h
            lo = loss_fn()
            p[idx] = keep
            g[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def assert_rel_close(got, want, rtol=1e-4, floor=1e-7):
    got, want = np.asarray(got), np.asarray(want)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    assert np.max(np.abs(got - want) / denom) <= rtol


class TestForward:
    def test_zero_weights_identity_head(self):
        net = Mlp([3, 2], head="identity")
        net.set_parameters([np.zeros((2, 3)), np.zeros(2)])
        assert np.array_equal(net.forward(np.array([1.0, -2.0, 5.0])), np.zeros(2))

    def test_softmax_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])
        net = Mlp([2, 2], head="softmax")
        net.set_parameters([np.zeros((2, 2)), np.zeros(2)])
        assert np.allclose(net.forward(np.array([3.0, -1.0])), [0.5, 0.5])

    def test_fixed_net_matches_hand_matrix_multiply(self):
        rng = np.random.default_rng(7)
        net = Mlp([2, 4, 2], head="identity", rng=rng)
        x = np.array([0.3, -1.2])
        w0, b0, w1, b1 = net.parameters()
        hidden = np.maximum(w0 @ x + b0, 0.0)
        want = w1 @ hidden + b1
        assert np.allclose(net.forward(x), want, atol=1e-12)

    def test_dimension_mismatch_is_config_error(self):
        net = Mlp([3, 2])
        with pytest.raises(ConfigError):
            net.forward(np.ones(4))

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            net = Mlp([4, 8, 3], head="softmax", rng=np.random.default_rng(trial))
            out = net.forward(rng.normal(size=(16, 4)) * 10.0)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


class TestBackward:
    def test_linear_net_gradient(self):
        # y = w * x, loss = y, x = 2 -> dL/dw = 2
        net = Mlp([1, 1], head="identity")
        net.set_parameters([np.array([[1.5]]), np.array([0.0])])
        net.forward_train(np.array([2.0]))
        grads = net.backward(np.array([1.0]))
        assert grads[0][0, 0] == pytest.approx(2.0)
        assert grads[1][0] == pytest.approx(1.0)

    def test_zero_upstream_gives_zero_grads(self):
        net = Mlp([3, 5, 2], rng=np.random.default_rng(1))
        net.forward_train(np.ones(3))
        grads = net.backward(np.zeros(2))
        assert all(np.all(g == 0.0) for g in grads)

    def test_backward_before_forward_is_usage_error(self):
        with pytest.raises(UsageError):
            Mlp([2, 2]).backward(np.zeros(2))

    @pytest.mark.parametrize("head", ["identity", "softmax"])
    @pytest.mark.parametrize("widths", [[2, 4, 2], [3, 6, 4, 3], [5, 2]])
    def test_finite_difference_agreement(self, head, widths):
        rng = np.random.default_rng(42)
        net = Mlp(widths, head=head, rng=rng)
        x = rng.normal(size=(3, widths[0]))
        coef = rng.normal(size=(3, widths[-1]))  # loss = sum(coef * out)

        out = net.forward_train(x)
        grads = net.backward(coef)
        fd = fd_gradients(lambda: float((coef * net.forward(x)).sum()), net.parameters())
        for got, want in zip(grads, fd):
            assert_rel_close(got, want)

    def test_input_gradient(self):
        rng = np.random.default_rng(5)
        net = Mlp([3, 4, 2], rng=rng)
        x = rng.normal(size=3)
        coef = np.array([1.0, -2.0])
        net.forward_train(x)
        net.backward(coef)
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = ((coef * net.forward(xp)).sum() - (coef * net.forward(xm)).sum()) / (2 * h)
        assert net.grad_input.shape == (1, 3)
        assert_rel_close(net.grad_input[0], fd, rtol=1e-5)


class TestAdam:
    def test_first_step_hand_recursion(self):
        # m_hat = g, v_hat = g^2 -> step = -lr * g/(|g|+eps)
        p = np.array([0.0])
        opt = Adam(p, lr=0.001, weight_decay=0.0)
        opt.step(p, np.array([0.5]))
        assert p[0] == pytest.approx(-0.001, rel=1e-6)
        assert opt.t == 1

    def test_zero_gradient_no_decay_is_identity(self):
        p = np.array([1.7, -2.2])
        opt = Adam(p, weight_decay=0.0)
        for _ in range(3):
            opt.step(p, np.zeros(2))
        assert np.array_equal(p, [1.7, -2.2])
        assert opt.t == 3

    def test_opposite_gradients_give_opposite_updates(self):
        pa = np.array([0.3])
        pb = np.array([0.3])
        Adam(pa, weight_decay=0.0).step(pa, np.array([2.5]))
        Adam(pb, weight_decay=0.0).step(pb, np.array([-2.5]))
        assert pa[0] - 0.3 == pytest.approx(-(pb[0] - 0.3), rel=1e-12)

    def test_decoupled_weight_decay_moves_params_without_gradient(self):
        p = np.array([2.0])
        opt = Adam(p, lr=0.1, weight_decay=0.01)
        opt.step(p, np.zeros(1))
        assert p[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_nonfinite_gradient_raises(self):
        p = np.array([0.0])
        with pytest.raises(DivergenceError):
            Adam(p).step(p, np.array([np.nan]))

    # 1e200 overflows g*g; 2e154 overflows only v / (1 - beta2)
    @pytest.mark.parametrize("huge", [1e200, -1e200, 2e154, np.inf])
    def test_overflowing_second_moment_raises(self, huge):
        p = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
        opt = Adam(p)
        opt.step(p, np.array([0.1, 1.0, 1.0, 1.0, 1.0]))
        before = p.copy()
        state = (opt.t, np.copy(opt.m), np.copy(opt.v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                opt.step(p, np.array([huge, 1.0, 1.0, 1.0, 1.0]))
        assert np.array_equal(p, before)
        assert opt.t == state[0]
        assert np.array_equal(opt.m, state[1]) and np.array_equal(opt.v, state[2])

    def test_flat_step_matches_per_parameter_adam(self):
        """Bit-identical to the textbook per-array update, weight decay included."""
        rng = np.random.default_rng(11)
        shapes = [(4, 3), (4,), (2, 4), (2,)]
        cuts = np.cumsum([np.prod(s) for s in shapes])[:-1]

        def views(vec):
            return [x.reshape(s) for x, s in zip(np.split(vec, cuts), shapes)]

        flat = np.concatenate([rng.normal(size=s).ravel() for s in shapes])
        grad = np.empty_like(flat)
        p, g_views = views(flat), views(grad)
        ref = [x.copy() for x in p]
        opt = Adam(flat, lr=0.01, weight_decay=0.01)
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 8):
            grads = [rng.normal(scale=10.0 ** t, size=s) for s in shapes]
            for dst, g in zip(g_views, grads):
                dst[...] = g
            opt.step(flat, grad)
            for x, g, mi, vi in zip(ref, grads, m, v):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * g * g
                update = (mi / (1.0 - b1 ** t)) / (np.sqrt(vi / (1.0 - b2 ** t)) + eps)
                update = update + 0.01 * x
                x -= 0.01 * update
            assert all(np.array_equal(a, b) for a, b in zip(p, ref))


class TestFlatLayout:
    def test_parameter_views_share_the_flat_vector(self):
        mlp = Mlp([3, 5, 2], rng=np.random.default_rng(0))
        enc = DeepSetsEncoder(2, 3, 4, n_set=5, rng=np.random.default_rng(1))
        for net, owner in ((mlp, mlp), (enc, enc), (enc.phi, enc), (enc.rho, enc)):
            views = net.parameters()
            assert all(np.shares_memory(v, owner.params) for v in views)
            # laid out W0, b0, W1, b1, ... with nothing in between
            assert np.array_equal(np.concatenate([v.ravel() for v in views]), net.params)
        for layers in (mlp, enc.phi, enc.rho):
            for w, b in zip(layers.weights, layers.biases):
                assert np.shares_memory(w, layers.params) and w.flags.c_contiguous
                assert np.shares_memory(b, layers.params)

        rng = np.random.default_rng(2)
        for net, x in ((mlp, rng.normal(size=(4, 3))), (enc, rng.normal(size=(4, 13)))):
            net.forward_train(x)
            grads = net.backward(np.ones((4, net.out_dim)))
            assert all(np.shares_memory(g, net.grad) for g in grads)
            assert np.array_equal(np.concatenate([g.ravel() for g in grads]), net.grad)
            views = net.parameters()
            before = [v.copy() for v in views]
            Adam(net.params, lr=0.1).step(net.params, net.grad)
            assert all(not np.array_equal(v, b) for v, b in zip(views, before))
            assert np.array_equal(np.concatenate([v.ravel() for v in views]), net.params)
        assert np.array_equal(enc.phi.weights[0], enc.parameters()[0])


class TestDeepSets:
    """Flat observations: `elem_dim` feature blocks of `n_set` server values
    each, then the tail."""

    def make(self, n_set, seed=3, head="identity"):
        return DeepSetsEncoder(2, 3, 4, n_set, phi_widths=(6, 5), rho_hidden=(6,),
                               head=head, rng=np.random.default_rng(seed))

    @staticmethod
    def flat(elements, tail):
        """The flat row of an (n, elem_dim) set and its tail."""
        return np.concatenate([np.asarray(elements).T.ravel(), tail])

    @staticmethod
    def permuted(x, perm, elem_dim=2):
        """`x` with the same server permutation applied inside every feature
        block; works on one row or a batch."""
        n = len(perm)
        cols = np.concatenate([b * n + perm for b in range(elem_dim)]
                              + [np.arange(elem_dim * n, x.shape[-1])])
        return x[..., cols]

    def test_identical_pair_swapped_bit_identical(self):
        enc = self.make(n_set=2)
        x = self.flat([[0.4, -0.7], [0.4, -0.7]], [1.0, 0.0, -1.0])
        swapped = self.permuted(x, np.array([1, 0]))
        # a strided view of the same values must not change the bits either
        strided = np.stack([swapped, np.zeros_like(swapped)], axis=1)[:, 0]
        assert not strided.flags.c_contiguous
        assert np.array_equal(enc.forward(x), enc.forward(strided))

    def test_permutation_invariance(self):
        enc = self.make(n_set=7)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7 * 2 + 3))
        base = enc.forward(x)
        for _ in range(20):
            perm = rng.permutation(7)
            assert np.allclose(enc.forward(self.permuted(x, perm)), base, atol=1e-6)

    def test_zero_phi_depends_only_on_tail(self):
        enc = self.make(n_set=4)
        for p in enc.phi.parameters():
            p[...] = 0.0
        tail = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(1)
        a = enc.forward(self.flat(rng.normal(size=(4, 2)), tail))
        b = enc.forward(self.flat(rng.normal(size=(4, 2)) * 10.0, tail))
        assert np.allclose(a, b, atol=1e-12)

    def test_three_elements_match_hand_evaluation(self):
        enc = self.make(n_set=3)
        elements = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
        tail = np.array([0.2, -0.1, 0.05])
        pooled = sum(enc.phi.forward(e) for e in elements)
        want = enc.rho.forward(np.concatenate([pooled, tail]))
        assert np.allclose(enc.forward(self.flat(elements, tail)), want, atol=1e-12)

    def test_empty_set_is_error(self):
        with pytest.raises(ConfigError):
            self.make(n_set=0)

    def test_gradient_permutation_invariance(self):
        enc = self.make(n_set=5, head="softmax")
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5 * 2 + 3))
        coef = rng.normal(size=(2, 4))
        enc.forward_train(x)
        ref = [g.copy() for g in enc.backward(coef)]
        for _ in range(5):
            enc.forward_train(self.permuted(x, rng.permutation(5)))
            got = enc.backward(coef)
            for a, b in zip(got, ref):
                assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("head", ["identity", "softmax"])
    def test_finite_difference_through_encoder(self, head):
        enc = self.make(n_set=4, head=head)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4 * 2 + 3))
        coef = rng.normal(size=(2, 4))
        enc.forward_train(x)
        grads = enc.backward(coef)
        fd = fd_gradients(lambda: float((coef * enc.forward(x)).sum()), enc.parameters())
        for got, want in zip(grads, fd):
            assert_rel_close(got, want)

    def test_flat_batch_matches_hand_evaluation(self):
        enc = DeepSetsEncoder(2, 3, 4, 5, rng=np.random.default_rng(8))
        rng = np.random.default_rng(9)
        sets = rng.normal(size=(4, 5, 2))
        tails = rng.normal(size=(4, 3))
        x = np.stack([self.flat(s, t) for s, t in zip(sets, tails)])
        want = [enc.rho.forward(np.concatenate([enc.phi.forward(s).sum(axis=0), t]))
                for s, t in zip(sets, tails)]
        assert np.allclose(enc.forward(x), want, atol=1e-12)


class TestRows:
    @pytest.mark.parametrize("kind", ["mlp", "deepsets"])
    def test_single_row_matches_one_row_batch(self, kind):
        """One row and the same row as a (1, width) batch give bit-identical
        outputs and gradients through every public method."""
        def make():
            if kind == "mlp":
                return Mlp([13, 8, 4], head="softmax", rng=np.random.default_rng(6))
            return DeepSetsEncoder(2, 3, 4, 5, head="softmax", rng=np.random.default_rng(6))

        row_net, batch_net = make(), make()
        rng = np.random.default_rng(7)
        x = rng.normal(size=13)
        coef = rng.normal(size=4)
        out = row_net.forward(x)
        assert out.shape == (4,)
        assert np.array_equal(out, batch_net.forward(x[None, :])[0])
        out = row_net.forward_train(x)
        assert np.array_equal(out, batch_net.forward_train(x[None, :])[0])
        row_grads = row_net.backward(coef)
        batch_grads = batch_net.backward(coef[None, :])
        assert all(np.array_equal(a, b) for a, b in zip(row_grads, batch_grads))
        assert np.array_equal(row_net.grad, batch_net.grad)
        # the gradient must have the shape of the output it belongs to
        with pytest.raises(ConfigError):
            row_net.backward(coef[None, :])
        with pytest.raises(ConfigError):
            batch_net.backward(coef)


class TestCheckpoints:
    def test_mlp_roundtrip_bit_exact(self, tmp_path):
        net = Mlp([4, 8, 3], head="softmax", rng=np.random.default_rng(11))
        path = tmp_path / "net.npz"
        save_net(net, path)
        back = load_net(path)
        for a, b in zip(net.parameters(), back.parameters()):
            assert np.array_equal(a, b)
        assert back.head == "softmax" and back.widths == [4, 8, 3]

    def test_deepsets_roundtrip_bit_exact(self, tmp_path):
        enc = DeepSetsEncoder(2, 14, 7, n_set=10, head="softmax",
                              rng=np.random.default_rng(12))
        path = tmp_path / "enc.npz"
        save_net(enc, path)
        back = load_net(path)
        for a, b in zip(enc.parameters(), back.parameters()):
            assert np.array_equal(a, b)
        x = np.random.default_rng(1).normal(size=enc.n_set * 2 + 14)
        assert np.array_equal(enc.forward(x), back.forward(x))

    def test_clone_is_equal_and_independent(self):
        for net in (Mlp([4, 8, 3], rng=np.random.default_rng(13)),
                    DeepSetsEncoder(2, 3, 4, n_set=5, rng=np.random.default_rng(14))):
            twin = clone_net(net)
            assert twin.spec() == net.spec()
            for a, b in zip(net.parameters(), twin.parameters()):
                assert np.array_equal(a, b) and a is not b
            twin.parameters()[0] += 1.0
            assert not np.array_equal(twin.parameters()[0], net.parameters()[0])
