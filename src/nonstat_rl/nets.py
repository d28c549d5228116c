"""Small feed-forward networks with hand-written gradients.

Everything here is plain float64 numpy: an `Mlp` with ReLU hidden layers and
a softmax or identity head, an `Adam` optimizer with decoupled weight decay,
and a `DeepSetsEncoder` that reads a flat observation holding a fixed-size
set of per-element vectors, embeds each, sums the embeddings, and maps the
pooled vector (plus a "tail" of extra features) through a second network.
Sizes are tiny (hidden widths up to 64), so a call costs mostly numpy
overhead: each layer works in place on its own fresh `x @ w.T` product, with
the plain `x @ w.T + b` shapes and strides, and `tests/test_nets_bit_identity.py`
pins the bits.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError, DivergenceError, UsageError

ADAM_BETAS = (0.9, 0.999)  # `Adam`'s first- and second-moment decay rates
ADAM_EPS = 1e-8            # added to `Adam`'s root second moment


def softmax(logits):
    """Row-wise softmax in a fresh array; `logits` is left as it was."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _views(vec, shapes):
    """Consecutive slices of a flat vector, reshaped to `shapes` in order."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(vec, cuts), shapes)]


def _rows(x, width):
    """`x` as a float64 (batch, width) array, and whether it was one row."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != width:
        raise ConfigError(f"expected rows of width {width}, got shape {x.shape}")
    return x, single


class _FlatNet:
    """Parameters in one contiguous float64 vector `params`, gradients in a
    `grad` vector of the same layout, both cut into arrays by `_shapes`.

    The public `forward`, `forward_train` and `backward` take one row or a
    (batch, width) array and check it once; the private `_forward(x, train)`
    and `_backward(g)` work on checked (batch, width) arrays. Gradients are
    summed over the batch.
    """

    _trained = None  # (output shape, single row) of the last forward_train

    def forward(self, x):
        x, single = _rows(x, self.in_dim)
        out = self._forward(x, train=False)
        return out[0] if single else out

    def forward_train(self, x):
        """Forward pass that caches activations for a later `backward`."""
        x, single = _rows(x, self.in_dim)
        out = self._forward(x, train=True)
        self._trained = (out.shape, single)
        return out[0] if single else out

    def backward(self, grad_out):
        """Gradients of a scalar loss w.r.t. all parameters.

        `grad_out` is dLoss/d(output) with the same shape as the last
        `forward_train` result. Writes the gradient into `grad` and returns
        its views, aligned with `parameters()`.
        """
        if self._trained is None:
            raise UsageError("backward called before forward_train")
        g, single = _rows(grad_out, self.out_dim)
        if (g.shape, single) != self._trained:
            raise ConfigError(f"upstream gradient shape {np.shape(grad_out)} does not "
                              "match the last forward_train output")
        self._backward(g)
        return self._grads

    def parameters(self):
        """Live views [W0, b0, W1, b1, ...] of `params`."""
        return _views(self.params, self._shapes)

    def set_parameters(self, params):
        own = self.parameters()
        if [p.shape for p in own] != [np.shape(p) for p in params]:
            raise ConfigError("parameter count or shapes mismatch")
        for dst, src in zip(own, params):
            dst[...] = src


class Mlp(_FlatNet):
    """Fully-connected net: ReLU hidden layers, softmax or identity head.

    `forward` is inference-only; `forward_train` additionally caches each
    layer's input so `backward` can produce parameter gradients for an
    arbitrary upstream gradient on the outputs. The (batch, width) input
    gradient is `grad_input`, computed only when read. Weights start fan-in
    scaled uniform, biases at zero.
    """

    def __init__(self, widths, head="identity", rng=None):
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ConfigError(f"bad layer widths {widths}")
        if head not in ("identity", "softmax"):
            raise ConfigError(f"unknown head {head!r}")
        self.widths = list(widths)
        self.head = head
        self.in_dim, self.out_dim = widths[0], widths[-1]
        rng = rng if rng is not None else np.random.default_rng(0)
        self._shapes = [shape for n_in, n_out in zip(widths[:-1], widths[1:])
                        for shape in ((n_out, n_in), (n_out,))]
        size = sum(math.prod(shape) for shape in self._shapes)
        self._bind(np.zeros(size), np.zeros(size))
        for w in self.weights:
            limit = np.sqrt(6.0 / w.shape[1])
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def _bind(self, params, grad):
        """Lay the layers' weights, biases and gradients over these vectors."""
        self.params, self.grad = params, grad
        views = _views(params, self._shapes)
        self.weights, self.biases = views[0::2], views[1::2]
        self._grads = _views(grad, self._shapes)
        # each bias as a (1, n) row: the same add, without the 1-D broadcast
        layers = [(w.T, b[None, :]) for w, b in zip(self.weights, self.biases)]
        self._hidden, self._top = layers[:-1], layers[-1]

    def _forward(self, x, train):
        """The layer loop; with `train`, keeps each layer's input and the
        output for `_backward`."""
        inputs = [x]
        for w_t, b in self._hidden:
            x = x @ w_t
            x += b
            np.maximum(x, 0.0, out=x)
            inputs.append(x)
        w_t, b = self._top
        out = x @ w_t
        out += b
        if self.head == "softmax":
            out = softmax(out)
        if train:
            self._cache = (inputs, out)
        return out

    def _backward(self, g):
        inputs, out = self._cache
        if self.head == "softmax":
            # dL/dz = p * (g - <g, p>) row-wise
            dz = out * (g - (g * out).sum(axis=-1, keepdims=True))
        else:
            dz = g

        last = len(self._hidden)
        for i in range(last, -1, -1):
            if i < last:  # layer i's ReLU passed where layer i + 1's input > 0
                dz *= inputs[i + 1] > 0.0
            np.matmul(dz.T, inputs[i], out=self._grads[2 * i])
            dz.sum(axis=0, out=self._grads[2 * i + 1])
            if i > 0:
                dz = dz @ self.weights[i]
        self._grad_first = dz  # dLoss/d(first layer's output)

    @property
    def grad_input(self):
        """dLoss/d(input) of the last `backward`, (batch, width), computed
        from the current weights: read it before they change."""
        return self._grad_first @ self.weights[0]

    def spec(self):
        """Constructor arguments, as a checkpoint's `meta` entry stores them."""
        return {"kind": "mlp", "widths": self.widths, "head": self.head}


class Adam:
    """Adam with bias correction and decoupled weight decay.

    One optimizer instance owns the moment accumulators for one flat
    parameter vector (a net's `params`); `step` updates that vector in place
    from the matching `grad` vector. A non-finite gradient or second-moment
    estimate (a finite gradient whose square overflows included) means
    training has diverged: `step` raises `DivergenceError` and leaves
    parameters and state as they were.
    """

    def __init__(self, params, lr=0.001, weight_decay=1e-4):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params, grad):
        if params.shape != self.m.shape or grad.shape != self.m.shape:
            raise ConfigError("parameter or gradient vector does not match the optimizer")
        beta1, beta2 = ADAM_BETAS
        t = self.t + 1
        b1c = 1.0 - beta1 ** t
        b2c = 1.0 - beta2 ** t
        # overflow here is not an error in itself: the check below turns
        # any non-finite second moment into a DivergenceError
        with np.errstate(over="ignore"):
            m = self.m * beta1
            m += (1.0 - beta1) * grad
            gg = (1.0 - beta2) * grad
            gg *= grad
            v = self.v * beta2
            v += gg
            denom = v / b2c
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        if not np.isfinite(denom).all():
            raise DivergenceError("non-finite gradient or second moment")
        update = m / b1c
        update /= denom
        if self.weight_decay:
            update += self.weight_decay * params
        update *= self.lr
        params -= update
        self.t, self.m, self.v = t, m, v


class DeepSetsEncoder(_FlatNet):
    """Permutation-invariant network over a fixed-size set of per-element
    vectors, read from flat observations.

    An observation is laid out as [feature-0 of all `n_set` elements,
    feature-1 of all `n_set` elements, ..., tail]. Each element goes through
    the embedding net (`phi`), the embeddings are summed, the pooled vector
    is concatenated with the tail, and the result goes through the
    post-aggregation net (`rho`), whose head determines the output (softmax
    policy or identity values).
    """

    def __init__(self, elem_dim, tail_dim, out_dim, n_set, phi_widths=(16, 8),
                 rho_hidden=(16, 8), head="identity", rng=None):
        if n_set < 1:
            raise ConfigError(f"n_set must be >= 1, got {n_set}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.elem_dim = elem_dim
        self.tail_dim = tail_dim
        self.n_set = n_set
        self.head, self.out_dim = head, out_dim
        self.in_dim = n_set * elem_dim + tail_dim
        self.embed_dim = phi_widths[-1]
        self.phi = Mlp([elem_dim, *phi_widths], head="identity", rng=rng)
        self.rho = Mlp([self.embed_dim + tail_dim, *rho_hidden, out_dim], head=head, rng=rng)
        # one vector for both nets: phi's layers first, then rho's
        self._shapes = self.phi._shapes + self.rho._shapes
        self.params = np.concatenate([self.phi.params, self.rho.params])
        self.grad = np.zeros_like(self.params)
        cut = self.phi.params.size
        self.phi._bind(self.params[:cut], self.grad[:cut])
        self.rho._bind(self.params[cut:], self.grad[cut:])
        self._grads = self.phi._grads + self.rho._grads

    def _forward(self, x, train):
        """rho(sum_i phi(element_i) ++ tail), one element row per server."""
        n, e = self.n_set, self.elem_dim
        # fresh C-order copy of the feature-major block: a strided view
        # would reach BLAS with another layout and could change the bits
        elements = np.array(x[:, : n * e].reshape(-1, e, n).transpose(0, 2, 1), order="C")
        emb = self.phi._forward(elements.reshape(-1, e), train)
        pooled = emb.reshape(-1, n, self.embed_dim).sum(axis=1)
        return self.rho._forward(np.concatenate([pooled, x[:, n * e:]], axis=1), train)

    def _backward(self, g):
        """Backprop through rho, the sum pool, and phi."""
        self.rho._backward(g)
        d_pooled = self.rho.grad_input[:, : self.embed_dim]
        # the sum pool broadcasts the pooled gradient to every element
        self.phi._backward(np.repeat(d_pooled, self.n_set, axis=0))

    def spec(self):
        """Constructor arguments, as a checkpoint's `meta` entry stores them."""
        return {"kind": "deepsets", "elem_dim": self.elem_dim, "tail_dim": self.tail_dim,
                "out_dim": self.out_dim, "phi_widths": self.phi.widths[1:],
                "rho_hidden": self.rho.widths[1:-1], "head": self.head, "n_set": self.n_set}


# --------------------------------------------------------------------------
# checkpoints: a net's `spec()` as JSON in a `meta` entry, then its
# parameters as p0, p1, ... in `parameters()` order


def _build(spec):
    """A net of the given spec, with placeholder parameters."""
    if spec["kind"] == "mlp":
        return Mlp(spec["widths"], head=spec["head"])
    if spec["kind"] == "deepsets":
        return DeepSetsEncoder(
            spec["elem_dim"], spec["tail_dim"], spec["out_dim"], spec["n_set"],
            phi_widths=tuple(spec["phi_widths"]), rho_hidden=tuple(spec["rho_hidden"]),
            head=spec["head"],
        )
    raise ConfigError(f"checkpoint holds an unknown net kind {spec['kind']!r}")


def clone_net(net):
    """An independent copy of `net` with equal parameters."""
    twin = _build(net.spec())
    twin.params[...] = net.params
    return twin


def save_net(net, path):
    arrays = {f"p{i}": p for i, p in enumerate(net.parameters())}
    meta = np.frombuffer(json.dumps(net.spec()).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, meta=meta, **arrays)


def load_net(path):
    """Load either net kind from a checkpoint file."""
    with np.load(path) as data:
        net = _build(json.loads(bytes(data["meta"]).decode()))
        net.set_parameters([data[f"p{i}"] for i in range(len(net.parameters()))])
    return net
