"""Small feed-forward networks with hand-written gradients.

Everything here is plain float64 numpy: an `Mlp` with ReLU hidden layers and
a softmax or identity head, an `Adam` optimizer with decoupled weight decay,
and a `DeepSetsEncoder` that embeds a set of per-element vectors, sums the
embeddings, and maps the pooled vector (plus a fixed "tail" of extra
features) through a second network. Sizes are tiny (hidden widths up to 64),
so there is no need for anything faster.
"""

from __future__ import annotations

import io
import itertools
import json

import numpy as np

from .errors import ConfigError, DivergenceError, UsageError


def he_uniform_init(widths, rng):
    """Fan-in scaled uniform weights, zero biases."""
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / n_in)
        weights.append(rng.uniform(-limit, limit, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return weights, biases


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Mlp:
    """Fully-connected net: ReLU hidden layers, softmax or identity head.

    `forward` is inference-only; `forward_train` additionally caches
    activations so `backward` can produce parameter gradients for an
    arbitrary upstream gradient on the outputs. Inputs may be a single
    vector or a (batch, width) array; gradients are summed over the batch.
    """

    def __init__(self, widths, head="identity", rng=None):
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ConfigError(f"bad layer widths {widths}")
        if head not in ("identity", "softmax"):
            raise ConfigError(f"unknown head {head!r}")
        self.widths = list(widths)
        self.head = head
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weights, self.biases = he_uniform_init(self.widths, rng)
        self._cache = None
        self.grads = None

    @property
    def in_dim(self):
        return self.widths[0]

    @property
    def out_dim(self):
        return self.widths[-1]

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.widths[0]:
            raise ConfigError(
                f"input width {x.shape[-1]} does not match net input {self.widths[0]}"
            )
        return x, squeeze

    def forward(self, x):
        x, squeeze = self._check_input(x)
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            a = np.maximum(z, 0.0) if i < last else z
        out = softmax(a) if self.head == "softmax" else a
        return out[0] if squeeze else out

    def forward_train(self, x):
        """Forward pass that caches activations for a later `backward`."""
        x, squeeze = self._check_input(x)
        acts = [x]  # post-activation of each layer, acts[0] = input
        pre = []
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            pre.append(z)
            a = np.maximum(z, 0.0) if i < last else z
            acts.append(a)
        out = softmax(a) if self.head == "softmax" else a
        self._cache = (acts, pre, out, squeeze)
        return out[0] if squeeze else out

    def backward(self, grad_out):
        """Gradients of a scalar loss w.r.t. all weights and biases.

        `grad_out` is dLoss/d(output) with the same shape as the last
        `forward_train` result. Returns the gradient list (aligned with
        `parameters()`); also stores it on `self.grads` and the input
        gradient on `self.grad_input`.
        """
        if self._cache is None:
            raise UsageError("backward called before forward_train")
        acts, pre, out, squeeze = self._cache
        g = np.asarray(grad_out, dtype=np.float64)
        if squeeze:
            g = g[None, :]
        if g.shape != out.shape:
            raise ConfigError(f"upstream gradient shape {g.shape} != output {out.shape}")

        if self.head == "softmax":
            # dL/dz = p * (g - <g, p>) row-wise
            dz = out * (g - (g * out).sum(axis=-1, keepdims=True))
        else:
            dz = g

        grads = []
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                dz = dz * (pre[i] > 0.0)
            dw = dz.T @ acts[i]
            db = dz.sum(axis=0)
            grads.append(db)
            grads.append(dw)
            if i > 0:
                dz = dz @ self.weights[i]
        self.grad_input = dz @ self.weights[0]
        if squeeze:
            self.grad_input = self.grad_input[0]
        grads.reverse()
        self.grads = grads
        return grads

    def parameters(self):
        """Flat list [W0, b0, W1, b1, ...] of live arrays."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, params):
        own = self.parameters()
        if len(own) != len(params):
            raise ConfigError("parameter count mismatch")
        for dst, src in zip(own, params):
            if dst.shape != np.shape(src):
                raise ConfigError("parameter shape mismatch")
            dst[...] = src

    def clone(self):
        twin = Mlp(self.widths, head=self.head)
        twin.set_parameters(self.parameters())
        return twin

    def to_bytes(self):
        meta = {"kind": "mlp", "widths": self.widths, "head": self.head}
        buf = io.BytesIO()
        arrays = {f"p{i}": p for i, p in enumerate(self.parameters())}
        np.savez(buf, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        return buf.getvalue()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob):
        with np.load(io.BytesIO(blob)) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta["kind"] != "mlp":
                raise ConfigError(f"checkpoint holds a {meta['kind']}, not an mlp")
            net = cls(meta["widths"], head=meta["head"])
            net.set_parameters([data[f"p{i}"] for i in range(len(net.parameters()))])
        return net

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


class Adam:
    """Adam with bias correction and decoupled weight decay.

    One optimizer instance owns the moment accumulators for one parameter
    list, kept as one flat vector each; `step` mutates the parameter arrays
    in place. A non-finite gradient or second-moment estimate (a finite
    gradient whose square overflows included) means training has diverged:
    `step` raises `DivergenceError` and leaves parameters and state as they
    were.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=1e-4):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._bounds = [0, *itertools.accumulate(np.size(p) for p in params)]
        self.m = np.zeros(self._bounds[-1])
        self.v = np.zeros(self._bounds[-1])

    def step(self, params, grads):
        n = len(self._bounds) - 1
        if len(params) != n or len(grads) != n:
            raise ConfigError("optimizer state does not match parameter list")
        g = np.concatenate([x.ravel() for x in grads])
        if g.size != self.m.size:
            raise ConfigError("gradient sizes do not match parameter list")
        t = self.t + 1
        b1c = 1.0 - self.beta1 ** t
        b2c = 1.0 - self.beta2 ** t
        # overflow here is not an error in itself: the check below turns
        # any non-finite second moment into a DivergenceError
        with np.errstate(over="ignore"):
            m = self.m * self.beta1
            m += (1.0 - self.beta1) * g
            gg = (1.0 - self.beta2) * g
            gg *= g
            v = self.v * self.beta2
            v += gg
            denom = v / b2c
        np.sqrt(denom, out=denom)
        denom += self.eps
        if not np.isfinite(denom).all():
            raise DivergenceError("non-finite gradient or second moment")
        update = m / b1c
        update /= denom
        if self.weight_decay:
            update += self.weight_decay * np.concatenate([p.ravel() for p in params])
        update *= self.lr
        for p, lo, hi in zip(params, self._bounds, self._bounds[1:]):
            p -= update[lo:hi].reshape(p.shape)
        self.t, self.m, self.v = t, m, v


class DeepSetsEncoder:
    """Permutation-invariant network over a set of per-element vectors.

    Each element goes through the embedding net (`phi`), the embeddings are
    summed, the pooled vector is concatenated with a `tail` of extra features,
    and the result goes through the post-aggregation net (`rho`), whose head
    determines the output (softmax policy or identity values).

    Also usable as a drop-in policy/value net over flat observations laid out
    as [feature-0 of all n elements, feature-1 of all n elements, ..., tail].
    """

    def __init__(self, elem_dim, tail_dim, out_dim, phi_widths=(16, 8),
                 rho_hidden=(16, 8), head="identity", n_set=None, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.elem_dim = elem_dim
        self.tail_dim = tail_dim
        self.n_set = n_set
        self.embed_dim = phi_widths[-1]
        self.phi = Mlp([elem_dim, *phi_widths], head="identity", rng=rng)
        self.rho = Mlp([self.embed_dim + tail_dim, *rho_hidden, out_dim], head=head, rng=rng)
        self._cache = None

    @property
    def head(self):
        return self.rho.head

    @property
    def out_dim(self):
        return self.rho.out_dim

    def _check_set(self, elements, tail):
        # fresh C-order copy: keeps evaluation independent of the caller's
        # memory layout (permuted views would otherwise perturb BLAS results)
        elements = np.array(elements, dtype=np.float64, order="C", copy=True)
        tail = np.asarray(tail, dtype=np.float64)
        squeeze = elements.ndim == 2
        if squeeze:
            elements = elements[None]
            tail = tail[None, :] if tail.ndim == 1 else tail
        if elements.ndim != 3 or elements.shape[2] != self.elem_dim:
            raise ConfigError(f"elements must be (batch, n, {self.elem_dim})")
        if elements.shape[1] == 0:
            raise ConfigError("element set is empty; at least one element required")
        if tail.shape != (elements.shape[0], self.tail_dim):
            raise ConfigError(f"tail must have width {self.tail_dim}")
        return elements, tail, squeeze

    def encode(self, elements, tail, train=False):
        """rho(sum_i phi(element_i) ++ tail).

        `elements` is (n, elem_dim) or (batch, n, elem_dim); `tail` matches.
        With `train=True`, caches intermediates for `backward`.
        """
        elements, tail, squeeze = self._check_set(elements, tail)
        batch, n, _ = elements.shape
        flat = elements.reshape(batch * n, self.elem_dim)
        if train:
            emb = self.phi.forward_train(flat)
        else:
            emb = self.phi.forward(flat)
        pooled = emb.reshape(batch, n, self.embed_dim).sum(axis=1)
        joint = np.concatenate([pooled, tail], axis=1)
        out = self.rho.forward_train(joint) if train else self.rho.forward(joint)
        if train:
            self._cache = (batch, n, squeeze)
        return out[0] if squeeze else out

    def backward(self, grad_out):
        """Backprop through rho, the sum pool, and phi; see `Mlp.backward`."""
        if self._cache is None:
            raise UsageError("backward called before a training-mode encode")
        batch, n, squeeze = self._cache
        g = np.asarray(grad_out, dtype=np.float64)
        if squeeze:
            g = g[None, :]
        rho_grads = self.rho.backward(g)
        d_joint = self.rho.grad_input
        d_pooled = d_joint[:, : self.embed_dim]
        self.grad_tail = d_joint[:, self.embed_dim:]
        # the sum pool broadcasts the pooled gradient to every element
        d_emb = np.repeat(d_pooled, n, axis=0)
        phi_grads = self.phi.backward(d_emb)
        if squeeze:
            self.grad_tail = self.grad_tail[0]
        self.grads = phi_grads + rho_grads
        return self.grads

    # --- flat-observation adapter -------------------------------------------
    def _split_flat(self, x):
        if self.n_set is None:
            raise ConfigError("flat input requires n_set to be configured")
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        want = self.n_set * self.elem_dim + self.tail_dim
        if x.shape[1] != want:
            raise ConfigError(f"flat input width {x.shape[1]} != expected {want}")
        block = x[:, : self.n_set * self.elem_dim]
        # layout: feature-major blocks of n_set values each
        elements = block.reshape(x.shape[0], self.elem_dim, self.n_set).transpose(0, 2, 1)
        tail = x[:, self.n_set * self.elem_dim:]
        return elements, tail, squeeze

    def forward(self, x):
        elements, tail, squeeze = self._split_flat(x)
        out = self.encode(elements, tail, train=False)
        return out[0] if squeeze else out

    def forward_train(self, x):
        elements, tail, squeeze = self._split_flat(x)
        out = self.encode(elements, tail, train=True)
        return out[0] if squeeze else out

    # --- parameter plumbing ---------------------------------------------------
    def parameters(self):
        return self.phi.parameters() + self.rho.parameters()

    def set_parameters(self, params):
        n_phi = len(self.phi.parameters())
        self.phi.set_parameters(params[:n_phi])
        self.rho.set_parameters(params[n_phi:])

    def clone(self):
        twin = DeepSetsEncoder(
            self.elem_dim, self.tail_dim, self.rho.out_dim,
            phi_widths=self.phi.widths[1:], rho_hidden=self.rho.widths[1:-1],
            head=self.rho.head, n_set=self.n_set,
        )
        twin.set_parameters(self.parameters())
        return twin

    def to_bytes(self):
        meta = {
            "kind": "deepsets",
            "elem_dim": self.elem_dim,
            "tail_dim": self.tail_dim,
            "out_dim": self.rho.out_dim,
            "phi_widths": self.phi.widths[1:],
            "rho_hidden": self.rho.widths[1:-1],
            "head": self.rho.head,
            "n_set": self.n_set,
        }
        buf = io.BytesIO()
        arrays = {f"p{i}": p for i, p in enumerate(self.parameters())}
        np.savez(buf, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        return buf.getvalue()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob):
        with np.load(io.BytesIO(blob)) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta["kind"] != "deepsets":
                raise ConfigError(f"checkpoint holds a {meta['kind']}, not a deepsets net")
            net = cls(
                meta["elem_dim"], meta["tail_dim"], meta["out_dim"],
                phi_widths=tuple(meta["phi_widths"]), rho_hidden=tuple(meta["rho_hidden"]),
                head=meta["head"], n_set=meta["n_set"],
            )
            net.set_parameters([data[f"p{i}"] for i in range(len(net.parameters()))])
        return net

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def load_net(path):
    """Load either net kind from a checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    with np.load(io.BytesIO(blob)) as data:
        kind = json.loads(bytes(data["meta"]).decode())["kind"]
    return Mlp.from_bytes(blob) if kind == "mlp" else DeepSetsEncoder.from_bytes(blob)
