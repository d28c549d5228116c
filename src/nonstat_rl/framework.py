"""Control-plane components for learning in a time-varying system:

* `GmmDetector` -- a diagonal-covariance Gaussian mixture fit to workload
  features, with dwell hysteresis on the reported environment index.
* `ExpertManager` -- per-environment policies (or a shared one) plus the
  one-time-exploration bookkeeping for every environment index.
* `SafetyMonitor` -- the hysteresis state machine that hands control to a
  default policy in unsafe conditions.
* `augment_observation` -- optional appending of normalized workload
  features to the agent's observation.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError

VAR_FLOOR = 1e-6
EM_MAX_ITER = 200
EM_TOL = 1e-8  # stop once the mean log-likelihood moves less than this


class GmmDetector:
    """Diagonal GMM over workload features with a dwell-smoothed readout.

    Components are canonicalized by ascending first-feature mean after
    fitting, so refits on the same data with the same seed are identical.
    The reported index changes only after `dwell` consecutive windows
    favor a different component.
    """

    def __init__(self, n_components, dwell=4, seed=0):
        if n_components < 1:
            raise ConfigError("need at least one component")
        if dwell < 1:
            raise ConfigError("dwell must be >= 1")
        self.n_components = n_components
        self.dwell = dwell
        self.seed = seed
        self.means = None
        self.variances = None
        self.weights = None
        self.fitted = False
        self.degenerate = False
        self._reported = None
        self._pending = None
        self._pending_count = 0

    def fit(self, history):
        """EM fit. Requires at least 10 samples per component."""
        x = np.asarray(history, dtype=np.float64)
        if x.ndim != 2:
            raise ConfigError("feature history must be 2-D (windows, features)")
        n, d = x.shape
        if n < 10 * self.n_components:
            raise ConfigError(
                f"history too short: {n} windows for {self.n_components} components"
            )
        overall_var = x.var(axis=0)
        if np.all(overall_var < 1e-12):
            warnings.warn("degenerate (zero-variance) features; single-component fallback")
            self.degenerate = True
            self.means = x.mean(axis=0, keepdims=True)
            self.variances = np.full((1, d), VAR_FLOOR)
            self.weights = np.ones(1)
            self._fitted()
            return self

        k = self.n_components
        rng = np.random.default_rng(self.seed)
        means = x[rng.choice(n, size=k, replace=False)].copy()
        variances = np.tile(np.maximum(overall_var, VAR_FLOOR), (k, 1))
        weights = np.full(k, 1.0 / k)

        prev_ll = -np.inf
        for _ in range(EM_MAX_ITER):
            log_norm = np.log(2.0 * np.pi * variances).sum(axis=1)
            log_resp = self._log_prob(x, means, variances, log_norm) + np.log(weights)
            norm = _logsumexp(log_resp)
            ll = float(norm.mean())
            resp = np.exp(log_resp - norm[:, None])
            nk = resp.sum(axis=0) + 1e-12
            weights = nk / n
            means = (resp.T @ x) / nk[:, None]
            variances = (resp.T @ (x * x)) / nk[:, None] - means**2
            variances = np.maximum(variances, VAR_FLOOR)
            if abs(ll - prev_ll) < EM_TOL:
                break
            prev_ll = ll

        order = np.argsort(means[:, 0], kind="stable")
        self.means = means[order]
        self.variances = variances[order]
        self.weights = weights[order] / weights.sum()
        self.degenerate = False
        self._fitted()
        return self

    def _fitted(self):
        """Mark the parameters set: cache the posterior's constant terms and
        restart the dwell readout."""
        self._log_norm = np.log(2.0 * np.pi * self.variances).sum(axis=1)
        self._log_weights = np.log(self.weights)
        self.fitted = True
        self._reset_readout()

    def _reset_readout(self):
        self._reported = None
        self._pending = None
        self._pending_count = 0

    @staticmethod
    def _log_prob(x, means, variances, log_norm):
        # (n, k) log N(x | mean_k, diag var_k); log_norm[k] = sum_d log(2 pi var_kd)
        diff = x[:, None, :] - means[None, :, :]
        return -0.5 * ((diff**2 / variances[None]).sum(axis=2) + log_norm[None, :])

    def posterior(self, features):
        if not self.fitted:
            raise UsageError("detector not fitted")
        x = np.asarray(features, dtype=np.float64)[None, :]
        log_post = (self._log_prob(x, self.means, self.variances, self._log_norm)[0]
                    + self._log_weights)
        log_post -= _logsumexp(log_post[None, :])[0]
        return np.exp(log_post)

    def classify(self, features, post=None):
        """Maximum-posterior component index, subject to dwell hysteresis.

        `post` is `posterior(features)`, for a caller that already has it.
        """
        if post is None:
            post = self.posterior(features)
        winner = int(np.argmax(post))
        if self._reported is None:
            self._reported = winner
            return self._reported
        if winner == self._reported:
            self._pending = None
            self._pending_count = 0
        else:
            if winner == self._pending:
                self._pending_count += 1
            else:
                self._pending = winner
                self._pending_count = 1
            if self._pending_count >= self.dwell:
                self._reported = winner
                self._pending = None
                self._pending_count = 0
        return self._reported

    def save(self, path):
        if not self.fitted:
            raise UsageError("cannot save an unfitted detector")
        meta = {"n_components": self.n_components, "dwell": self.dwell,
                "seed": self.seed, "degenerate": self.degenerate}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     means=self.means, variances=self.variances, weights=self.weights)

    @classmethod
    def load(cls, path):
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            det = cls(meta["n_components"], dwell=meta["dwell"], seed=meta["seed"])
            det.means = data["means"]
            det.variances = data["variances"]
            det.weights = data["weights"]
        det.degenerate = meta["degenerate"]
        det._fitted()
        return det


def _logsumexp(a):
    m = a.max(axis=1)
    return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


@dataclass
class ExpertRecord:
    learner: object
    exploration_epochs: int = 0


class ExpertManager:
    """Routes environment signals to experts and their exploration state.

    In "multi" mode each environment index owns a fresh learner created by
    `factory`; in "single" mode one shared learner serves every index but
    exploration progress is still tracked per environment, so revisiting a
    known environment resumes (or skips) its one-time exploration span.
    Each environment accrues at most `exploration_span` exploration epochs,
    ever.
    """

    def __init__(self, factory, exploration_span, mode="multi"):
        if mode not in ("multi", "single"):
            raise ConfigError(f"unknown expert mode {mode!r}")
        self.factory = factory
        self.exploration_span = exploration_span
        self.mode = mode
        self.records = {}
        self._shared = None
        self.active_index = None

    def signal(self, env_index):
        """Activate the expert for `env_index`, creating it on first sight.

        Returns the active `ExpertRecord`; its `exploration_epochs` is the
        schedule position for entropy/epsilon annealing.
        """
        rec = self.records.get(env_index)
        if rec is None:
            if self.mode == "single":
                if self._shared is None:
                    self._shared = self.factory(env_index)
                learner = self._shared
            else:
                learner = self.factory(env_index)
            rec = self.records[env_index] = ExpertRecord(learner)
        self.active_index = env_index
        return rec

    def note_epoch(self):
        """Advance the active environment's exploration counter."""
        rec = self.records[self.active_index]
        if rec.exploration_epochs < self.exploration_span:
            rec.exploration_epochs += 1

    def exploration_complete(self, env_index):
        rec = self.records.get(env_index)
        return rec is not None and rec.exploration_epochs >= self.exploration_span


@dataclass
class SafetyMonitor:
    """Hysteresis switch between the agent and a default policy.

    The controller flips to "default" when the reading reaches
    `unsafe_threshold` and back to "agent" once it drops to
    `safe_threshold`; in between it holds its previous state.
    """

    unsafe_threshold: float
    safe_threshold: float
    controller: str = "agent"
    transitions: list = field(default_factory=list)

    def step(self, reading, t=None):
        if self.controller == "agent" and reading >= self.unsafe_threshold:
            self.controller = "default"
            self.transitions.append((t, "unsafe", float(reading)))
        elif self.controller == "default" and reading <= self.safe_threshold:
            self.controller = "agent"
            self.transitions.append((t, "safe", float(reading)))
        return self.controller


def augment_observation(obs, features, enabled, scales=None):
    """Append (optionally normalized) workload features to an observation."""
    if not enabled:
        return obs
    feats = np.asarray(features, dtype=np.float64)
    if scales is not None:
        feats = feats / np.asarray(scales, dtype=np.float64)
    return np.concatenate([np.asarray(obs, dtype=np.float64), feats])
