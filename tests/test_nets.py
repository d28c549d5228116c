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
        assert_rel_close(net.grad_input, fd, rtol=1e-5)


class TestAdam:
    def test_first_step_hand_recursion(self):
        # m=0.05? no: m_hat = g, v_hat = g^2 -> step = -lr * g/(|g|+eps)
        p = [np.array([0.0])]
        opt = Adam(p, lr=0.001, weight_decay=0.0)
        opt.step(p, [np.array([0.5])])
        assert p[0][0] == pytest.approx(-0.001, rel=1e-6)
        assert opt.t == 1

    def test_zero_gradient_no_decay_is_identity(self):
        p = [np.array([1.7, -2.2])]
        opt = Adam(p, weight_decay=0.0)
        for _ in range(3):
            opt.step(p, [np.zeros(2)])
        assert np.array_equal(p[0], [1.7, -2.2])
        assert opt.t == 3

    def test_opposite_gradients_give_opposite_updates(self):
        pa = [np.array([0.3])]
        pb = [np.array([0.3])]
        Adam(pa, weight_decay=0.0).step(pa, [np.array([2.5])])
        Adam(pb, weight_decay=0.0).step(pb, [np.array([-2.5])])
        assert pa[0][0] - 0.3 == pytest.approx(-(pb[0][0] - 0.3), rel=1e-12)

    def test_decoupled_weight_decay_moves_params_without_gradient(self):
        p = [np.array([2.0])]
        opt = Adam(p, lr=0.1, weight_decay=0.01)
        opt.step(p, [np.zeros(1)])
        assert p[0][0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_nonfinite_gradient_raises(self):
        p = [np.array([0.0])]
        with pytest.raises(DivergenceError):
            Adam(p).step(p, [np.array([np.nan])])

    # 1e200 overflows g*g; 2e154 overflows only v / (1 - beta2)
    @pytest.mark.parametrize("huge", [1e200, -1e200, 2e154, np.inf])
    def test_overflowing_second_moment_raises(self, huge):
        p = [np.array([0.5]), np.zeros((2, 2))]
        opt = Adam(p)
        opt.step(p, [np.array([0.1]), np.ones((2, 2))])
        before = [x.copy() for x in p]
        state = (opt.t, np.copy(opt.m), np.copy(opt.v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                opt.step(p, [np.array([huge]), np.ones((2, 2))])
        assert all(np.array_equal(a, b) for a, b in zip(p, before))
        assert opt.t == state[0]
        assert np.array_equal(opt.m, state[1]) and np.array_equal(opt.v, state[2])

    def test_flat_step_matches_per_parameter_adam(self):
        """Bit-identical to the textbook per-array update, weight decay included."""
        rng = np.random.default_rng(11)
        shapes = [(4, 3), (4,), (2, 4), (2,)]
        p = [rng.normal(size=s) for s in shapes]
        ref = [x.copy() for x in p]
        opt = Adam(p, lr=0.01, weight_decay=0.01)
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 8):
            grads = [rng.normal(scale=10.0 ** t, size=s) for s in shapes]
            opt.step(p, grads)
            for x, g, mi, vi in zip(ref, grads, m, v):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * g * g
                update = (mi / (1.0 - b1 ** t)) / (np.sqrt(vi / (1.0 - b2 ** t)) + eps)
                update = update + 0.01 * x
                x -= 0.01 * update
            assert all(np.array_equal(a, b) for a, b in zip(p, ref))


class TestDeepSets:
    def make(self, seed=3, head="identity"):
        return DeepSetsEncoder(2, 3, 4, phi_widths=(6, 5), rho_hidden=(6,),
                               head=head, rng=np.random.default_rng(seed))

    def test_identical_pair_swapped_bit_identical(self):
        enc = self.make()
        pair = np.array([[0.4, -0.7], [0.4, -0.7]])
        tail = np.array([1.0, 0.0, -1.0])
        assert np.array_equal(enc.encode(pair, tail), enc.encode(pair[::-1], tail))

    def test_permutation_invariance(self):
        enc = self.make()
        rng = np.random.default_rng(0)
        elements = rng.normal(size=(7, 2))
        tail = rng.normal(size=3)
        base = enc.encode(elements, tail)
        for _ in range(20):
            perm = rng.permutation(7)
            assert np.allclose(enc.encode(elements[perm], tail), base, atol=1e-6)

    def test_zero_phi_depends_only_on_tail(self):
        enc = self.make()
        for p in enc.phi.parameters():
            p[...] = 0.0
        tail = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(1)
        a = enc.encode(rng.normal(size=(4, 2)), tail)
        b = enc.encode(rng.normal(size=(9, 2)), tail)
        assert np.allclose(a, b, atol=1e-12)

    def test_three_elements_match_hand_evaluation(self):
        enc = self.make()
        elements = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
        tail = np.array([0.2, -0.1, 0.05])
        pooled = sum(enc.phi.forward(e) for e in elements)
        want = enc.rho.forward(np.concatenate([pooled, tail]))
        assert np.allclose(enc.encode(elements, tail), want, atol=1e-12)

    def test_empty_set_is_error(self):
        with pytest.raises(ConfigError):
            self.make().encode(np.zeros((0, 2)), np.zeros(3))

    def test_gradient_permutation_invariance(self):
        enc = self.make(head="softmax")
        rng = np.random.default_rng(2)
        elements = rng.normal(size=(5, 2))
        tail = rng.normal(size=3)
        coef = rng.normal(size=4)
        enc.encode(elements, tail, train=True)
        ref = [g.copy() for g in enc.backward(coef)]
        for _ in range(5):
            perm = rng.permutation(5)
            enc.encode(elements[perm], tail, train=True)
            got = enc.backward(coef)
            for a, b in zip(got, ref):
                assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("head", ["identity", "softmax"])
    def test_finite_difference_through_encoder(self, head):
        enc = self.make(head=head)
        rng = np.random.default_rng(4)
        elements = rng.normal(size=(4, 2))
        tail = rng.normal(size=3)
        coef = rng.normal(size=4)
        enc.encode(elements, tail, train=True)
        grads = enc.backward(coef)
        fd = fd_gradients(lambda: float((coef * enc.encode(elements, tail)).sum()),
                          enc.parameters())
        for got, want in zip(grads, fd):
            assert_rel_close(got, want)

    def test_flat_adapter_matches_encode(self):
        enc = DeepSetsEncoder(2, 3, 4, n_set=5, rng=np.random.default_rng(8))
        rng = np.random.default_rng(9)
        inst, avg = rng.normal(size=(2, 5))
        tail = rng.normal(size=3)
        flat = np.concatenate([inst, avg, tail])
        elements = np.stack([inst, avg], axis=1)
        assert np.allclose(enc.forward(flat), enc.encode(elements, tail), atol=1e-12)


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
