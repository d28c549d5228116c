"""The nets and the A2C act draw against straightforward reference
implementations.

The reference functions below compute the layers the plain way: a fresh
`x @ w.T + b` and a fresh `np.maximum` per layer, each layer's (input,
pre-activation) pair kept for the backward pass, a five-call softmax, the
input gradient of every net, and the action drawn with `np.searchsorted`
against `probs.sum()`. The nets' own code must match them bit for bit and
leave the random stream where they leave it, so a faster net path can never
move a digest unnoticed. The sizes are the ones the control loop builds:
the ABR actor and critic, and the straggler DeepSets nets (10 servers, two
features each, a tail of 14, seven actions)."""

import numpy as np
import pytest

from nonstat_rl.a2c import A2cLearner
from nonstat_rl.nets import DeepSetsEncoder, Mlp, softmax


def reference_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_forward(params, head, x):
    """(output, [(input, pre-activation) per layer]) of an Mlp whose
    parameters are `params` = [W0, b0, W1, b1, ...]."""
    weights, biases = params[0::2], params[1::2]
    layers = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = x @ w.T + b
        layers.append((x, z))
        x = np.maximum(z, 0.0) if i < last else z
    out = reference_softmax(x) if head == "softmax" else x
    return out, layers


def reference_backward(params, head, layers, out, g):
    """(parameter gradients in `params` order, input gradient)."""
    weights = params[0::2]
    grads = [np.empty_like(p) for p in params]
    if head == "softmax":
        dz = out * (g - (g * out).sum(axis=-1, keepdims=True))
    else:
        dz = g
    last = len(weights) - 1
    for i in range(last, -1, -1):
        a, z = layers[i]
        if i < last:
            dz = dz * (z > 0.0)
        np.matmul(dz.T, a, out=grads[2 * i])
        dz.sum(axis=0, out=grads[2 * i + 1])
        if i > 0:
            dz = dz @ weights[i]
    return grads, dz @ weights[0]


def reference_deepsets_forward(net, x):
    """(output, phi's layers, rho's layers)."""
    n, e = net.n_set, net.elem_dim
    elements = np.array(x[:, : n * e].reshape(-1, e, n).transpose(0, 2, 1), order="C")
    emb, phi_layers = reference_forward(net.phi.parameters(), "identity",
                                        elements.reshape(-1, e))
    pooled = emb.reshape(-1, n, net.embed_dim).sum(axis=1)
    out, rho_layers = reference_forward(net.rho.parameters(), net.head,
                                        np.concatenate([pooled, x[:, n * e:]], axis=1))
    return out, phi_layers, rho_layers


def reference_deepsets_backward(net, phi_layers, rho_layers, out, g):
    """(parameter gradients, phi's first; rho's input gradient)."""
    rho_grads, rho_input = reference_backward(net.rho.parameters(), net.head,
                                              rho_layers, out, g)
    d_pooled = rho_input[:, : net.embed_dim]
    phi_grads, _ = reference_backward(net.phi.parameters(), "identity", phi_layers, None,
                                      np.repeat(d_pooled, net.n_set, axis=0))
    return phi_grads + rho_grads, rho_input


def reference_act(actor, obs, rng):
    probs = actor.forward(obs)
    return int(np.searchsorted(np.cumsum(probs), rng.random() * probs.sum()))


ABR_WIDTH = 27
STRAGGLER_N, STRAGGLER_TAIL = 10, 14
STRAGGLER_WIDTH = 2 * STRAGGLER_N + STRAGGLER_TAIL


def abr_net(kind, seed):
    widths, head = {"actor": ([ABR_WIDTH, 64, 32, 6], "softmax"),
                    "critic": ([ABR_WIDTH, 64, 32, 1], "identity")}[kind]
    net = Mlp(widths, head=head, rng=np.random.default_rng(seed))
    return _trained_looking(net, seed)


def straggler_net(kind, seed):
    out, head = {"actor": (7, "softmax"), "critic": (1, "identity"),
                 "qnet": (7, "identity")}[kind]
    net = DeepSetsEncoder(2, STRAGGLER_TAIL, out, n_set=STRAGGLER_N, head=head,
                          rng=np.random.default_rng(seed))
    return _trained_looking(net, seed)


def _trained_looking(net, seed):
    """Nonzero biases and moved weights, as after some training."""
    net.params += 0.1 * np.random.default_rng(seed + 1000).normal(size=net.params.size)
    return net


def observations(rng, rows, width):
    """Rows of mixed scale: plain normals, rows with zeroed features (dead
    ReLUs), and rows scaled up until the softmax saturates to exact 0."""
    x = rng.normal(size=(rows, width))
    x[rng.random(size=x.shape) < 0.2] = 0.0
    scale = rng.choice([1.0, 0.0, 30.0, 3000.0], p=[0.6, 0.05, 0.2, 0.15], size=(rows, 1))
    return x * scale


def upstream(rng, rows, width, one_hot):
    """An upstream gradient; `one_hot` keeps one entry per row, as the DQN
    loss does, and leaves exact zeros elsewhere."""
    g = rng.normal(size=(rows, width))
    if one_hot:
        keep = np.zeros_like(g)
        cols = rng.integers(width, size=rows)
        keep[np.arange(rows), cols] = g[np.arange(rows), cols]
        g = keep
    return g


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def check_net(net, x, g, reference_fwd, reference_bwd):
    """Forward, forward_train and backward of `net` on `x` (one row when
    1-D), against the reference; returns the reference input gradient."""
    single = x.ndim == 1
    rows = x[None, :] if single else x
    want_out, *cache = reference_fwd(net, rows)
    pick = (lambda a: a[0]) if single else (lambda a: a)

    assert same_bits(net.forward(x), pick(want_out))
    assert same_bits(net.forward_train(x), pick(want_out))
    grads = net.backward(g[0] if single else g)
    want_grads, want_input = reference_bwd(net, *cache, want_out, g)
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert same_bits(got, want)
    assert same_bits(net.grad, np.concatenate([w.ravel() for w in want_grads]))
    return want_input


def mlp_fwd(net, x):
    return reference_forward(net.parameters(), net.head, x)


def mlp_bwd(net, layers, out, g):
    return reference_backward(net.parameters(), net.head, layers, out, g)


@pytest.mark.parametrize("kind", ["actor", "critic"])
@pytest.mark.parametrize("rows", [1, 98])
@pytest.mark.parametrize("seed", [0, 29])
def test_abr_mlp_matches_reference(kind, rows, seed):
    net = abr_net(kind, seed)
    rng = np.random.default_rng(seed + rows)
    for trial in range(3):
        x = observations(rng, rows, ABR_WIDTH)
        g = upstream(rng, rows, net.out_dim, one_hot=trial == 2)
        inputs = [x, x[0]] if rows == 1 else [x]
        for xi in inputs:
            want_input = check_net(net, xi, g, mlp_fwd, mlp_bwd)
            assert same_bits(net.grad_input, want_input)


@pytest.mark.parametrize("kind", ["actor", "critic", "qnet"])
@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("seed", [0, 29])
def test_straggler_deepsets_matches_reference(kind, rows, seed):
    net = straggler_net(kind, seed)
    rng = np.random.default_rng(seed + rows)
    for trial in range(3):
        x = observations(rng, rows, STRAGGLER_WIDTH)
        g = upstream(rng, rows, net.out_dim, one_hot=kind == "qnet" or trial == 2)
        inputs = [x, x[0]] if rows == 1 else [x]
        for xi in inputs:
            want_input = check_net(net, xi, g, reference_deepsets_forward,
                                   reference_deepsets_backward)
            assert same_bits(net.rho.grad_input, want_input)


def test_softmax_matches_reference():
    rng = np.random.default_rng(4)
    for width in (1, 2, 6, 7, 8, 13):
        logits = observations(rng, 50, width)
        kept = logits.copy()
        assert same_bits(softmax(logits), reference_softmax(logits))
        assert same_bits(softmax(logits[3]), reference_softmax(logits[3]))
        assert same_bits(logits, kept)


@pytest.mark.parametrize("case", ["abr", "straggler"])
def test_act_draws_match_reference(case):
    """6,000 draws per case over five random nets, with saturated rows
    whose probabilities hold exact zeros: the same actions, and the
    generator left in the same state."""
    make, width = {"abr": (abr_net, ABR_WIDTH),
                   "straggler": (straggler_net, STRAGGLER_WIDTH)}[case]
    saturated = unsaturated = 0
    for seed in range(5):
        learner = A2cLearner(make("actor", seed), make("critic", seed), gamma=0.99)
        obs = observations(np.random.default_rng(seed + 50), 1200, width)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for row in obs:
            probs = learner.actor.forward(row)
            if (probs == 0.0).any():
                saturated += 1
            else:
                unsaturated += 1
            got = learner.act(row, got_rng)
            assert type(got) is int
            assert got == reference_act(learner.actor, row, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert saturated >= 500 and unsaturated >= 3000


class _Given:
    """A stand-in actor whose policy is `probs`, and a stand-in generator
    whose `random()` returns `draws` in turn."""

    def __init__(self, probs=None, draws=()):
        self.probs, self.draws = probs, list(draws)

    def forward(self, obs):
        return self.probs.copy()

    def random(self):
        return self.draws.pop(0)


def test_act_draw_on_a_running_sum_entry_takes_the_first_action_reaching_it():
    """A draw that lands exactly on an entry of the running sum picks the
    first action whose running sum reaches it, as `np.searchsorted` does.
    Zero probabilities repeat entries, so the side matters."""
    learner = A2cLearner(abr_net("actor", 0), abr_net("critic", 0), gamma=0.99)
    for probs in ([0.25, 0.0, 0.25, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0, 0.25, 0.25, 0.0]):
        probs = np.array(probs)
        draws = [0.0, 0.25, 0.5, 0.75, 0.9999999999999999]
        learner.actor = _Given(probs)
        got = [learner.act(None, _Given(draws=[d])) for d in draws]
        want = [reference_act(learner.actor, None, _Given(draws=[d])) for d in draws]
        assert got == want


@pytest.mark.parametrize("n_actions", [6, 7])
def test_cumsum_end_equals_sum_below_eight(n_actions):
    """The act draw may scale by the cumulative sum's last entry instead
    of `probs.sum()` only because the two are equal bit for bit here.
    numpy's pairwise sum adds fewer than 8 elements in one left-to-right
    loop, the order `cumsum` uses; from 8 elements on it keeps 8 partial
    sums and can round differently. Both heads have fewer than 8 actions
    (ABR 6, straggler 7)."""
    rng = np.random.default_rng(n_actions)
    for _ in range(20000):
        p = reference_softmax(rng.normal(size=n_actions) * rng.choice([0.1, 1.0, 10.0]))
        assert np.cumsum(p)[-1] == p.sum()


class TestCallerArraysUntouched:
    """`forward`, `forward_train` and `backward` leave the caller's input
    and upstream gradient as they were, whether passed as one row, a
    batch, or a view into a larger array."""

    @staticmethod
    def nets():
        return [abr_net("actor", 1), abr_net("critic", 1),
                straggler_net("actor", 1), straggler_net("qnet", 1)]

    @pytest.mark.parametrize("shape", ["row", "batch", "row_view", "batch_view"])
    def test_inputs_and_gradients_unchanged(self, shape):
        rng = np.random.default_rng(11)
        for net in self.nets():
            width, out = net.in_dim, net.out_dim
            big_x = observations(rng, 9, width + 5)
            big_g = rng.normal(size=(9, out + 3))
            if shape == "row":
                x, g = big_x[4, :width].copy(), big_g[4, :out].copy()
            elif shape == "batch":
                x, g = big_x[:, :width].copy(), big_g[:, :out].copy()
            elif shape == "row_view":
                x, g = big_x[4, 2:2 + width], big_g[4, 1:1 + out]
            else:
                x, g = big_x[1:7, 2:2 + width], big_g[1:7, 1:1 + out]
            x_bytes, g_bytes = big_x.tobytes() + x.tobytes(), big_g.tobytes() + g.tobytes()
            first = net.forward(x).copy()
            net.forward(x)
            net.forward_train(x)
            net.backward(g)
            net.backward(g)
            assert big_x.tobytes() + x.tobytes() == x_bytes
            assert big_g.tobytes() + g.tobytes() == g_bytes
            assert same_bits(net.forward(x), first)

    def test_outputs_are_not_reused(self):
        """A returned output keeps its value through later calls."""
        rng = np.random.default_rng(12)
        for net in self.nets():
            x = observations(rng, 5, net.in_dim)
            out = net.forward(x)
            kept = out.copy()
            trained = net.forward_train(x[::-1])
            trained_kept = trained.copy()
            net.forward(x[::-1])
            net.backward(rng.normal(size=trained.shape))
            net.forward(x[:2])
            assert same_bits(out, kept) and same_bits(trained, trained_kept)
