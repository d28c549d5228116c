"""Experiment orchestration: workload schedules, the observe/detect/guard/
act/learn control loop, baselines, run summaries, and CSV emission.

A run is driven by an `ExperimentConfig` and produces a `RunSummary` plus
(if `out_dir` is set) `timeseries.csv` and `detections.csv`, written as
each epoch ends, then `summary.csv` and per-environment expert checkpoints.
Identical config + seed gives byte-identical outputs.

Training runs, oracle runs, checkpoint pretraining and frozen-policy
evaluation all go through one loop, `_loop`. What differs between the two
case studies lives in one class each (`_Straggler`, `_Abr`); what differs
between the learners in one class each (`_A2c`, `_Dqn`).

Default sizes are desk scale: the paper-scale epoch budgets shrink by
roughly 25-50x so a full scenario finishes in minutes on one core, while
every schedule keeps its shape (switch periods expressed in units of the
convergence span T_c). Paper-scale values are plain config fields.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import abr as abr_mod
from . import straggler as st
from .a2c import A2cLearner, EpisodeBatch, Trajectory
from .dqn import DqnLearner, RewardScaler
from .errors import ConfigError, DivergenceError
from .framework import ExpertManager, GmmDetector, SafetyMonitor, augment_observation
from .nets import DeepSetsEncoder, Mlp, load_net
from .replay import STRATEGIES, Experience, make_buffer
from .stats import BoxStats

# --------------------------------------------------------------------------
# scenarios


@dataclass
class Scenario:
    """A schedule of (workload key, epochs) dwells."""

    name: str
    dwells: list

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"scenario name must be a string, got {self.name!r}")
        if not self.dwells or not all(
                isinstance(n, Integral) and not isinstance(n, bool) and n > 0
                for _, n in self.dwells):
            raise ConfigError("scenario needs positive integer dwell lengths")
        self._ends = list(accumulate(n for _, n in self.dwells))
        order = []
        for key, _ in self.dwells:
            if key not in order:
                order.append(key)
        self.keys = order
        self.label_of = {k: i for i, k in enumerate(order)}

    @property
    def total_epochs(self):
        return self._ends[-1]

    def workload_at(self, epoch):
        key = self.dwells[bisect_right(self._ends, epoch)][0]
        return key, self.label_of[key]

    def to_json(self):
        return {"name": self.name, "dwells": [list(d) for d in self.dwells]}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(obj["name"], [tuple(d) for d in obj["dwells"]])
        except KeyError as exc:
            raise ConfigError(f"scenario has no {exc.args[0]!r} entry") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario {obj!r}: {exc}") from None


def scenario_stationary(key, epochs, name=None):
    return Scenario(name or f"stationary-{key}", [(key, epochs)])


def scenario_cyclic(t_sw, keys=("A", "B", "C"), cycles=2, name="I"):
    """Scenario I: cycle through the workloads, each active T_sw at a time."""
    return Scenario(name, [(k, t_sw) for _ in range(cycles) for k in keys])


def scenario_new_workload(t_sw, common=("A", "B"), rare="C", pre_switches=6,
                          rare_epochs=None, post_cycles=2, name="II"):
    """Scenario II: two workloads alternate until a new one appears; once it
    has converged, all three rotate so each can be evaluated."""
    dwells = [(common[i % 2], t_sw) for i in range(pre_switches)]
    dwells.append((rare, rare_epochs if rare_epochs is not None else 2 * t_sw))
    for _ in range(post_cycles):
        dwells += [(k, t_sw) for k in (*common, rare)]
    return Scenario(name, dwells)


def scenario_rare_reoccur(t_sw, keys=("A", "B", "C"), rare="C", pre_cycles=2,
                          dormant_switches=6, name="III"):
    """Scenario III: cyclic at first, then the rare workload goes dormant
    for a long stretch and finally reoccurs."""
    common = [k for k in keys if k != rare]
    dwells = [(k, t_sw) for _ in range(pre_cycles) for k in keys]
    dwells += [(common[i % len(common)], t_sw) for i in range(dormant_switches)]
    dwells.append((rare, t_sw))
    return Scenario(name, dwells)


# --------------------------------------------------------------------------
# experiment config

_EXPERT_MODES = ("single", "multi", "oracle")
_DETECTORS = ("truth", "gmm")


# annotation -> (accepted type, its name in an error message); a bool is
# accepted only where the annotation is bool, and a number must be a finite
# float (NaN fails the comparison)
_FIELD_KINDS = {"int": (Integral, "an integer"), "float": (Real, "a finite number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


@dataclass
class ExperimentConfig:
    """What a run sets; every other hyperparameter is its component's own
    default. Checked once, when built (or `replace`d): a bad value raises
    ConfigError here rather than deep inside a run."""

    scenario: Scenario
    env: str = "straggler"              # straggler | abr
    learner: str = "a2c"                # a2c | dqn
    expert_mode: str = "multi"          # single | multi | oracle
    buffer: str = "ltst"                # dqn replay strategy
    workload_info: bool = False
    safeguard: bool = True
    detector: str = "truth"             # truth | gmm
    label_noise: float = 0.0
    seed: int = 0
    out_dir: str = ""

    # schedule scale
    t_c: int = 120                      # convergence span = one-time exploration span
    episode_len: int = 48

    # both learners
    gamma: float = 0.9

    # A2C; `lr` is its step size (DQN keeps DqnLearner's own 0.001)
    lr: float = 0.02
    entropy_start: float = 0.1
    entropy_epochs: int = 100
    reward_scale: float = 1000.0        # training-reward divisor

    # DQN
    eps_random_epochs: int = 20
    eps_decay_epochs: int = 100
    batch_size: int = 64
    train_every: int = 2
    buffer_capacity: int = 1_000_000   # large / per-environment rings
    ltst_long_capacity: int = 8_000    # ~1.4x T_c of desk-scale samples
    small_capacity: int = 2_000        # ~0.35x T_c

    # ABR fake-replay guard
    guard_calibration_epochs: int = 5
    guard_anneal_epochs: int = 133

    # GMM detector
    detector_warmup_epochs: int = 6

    def __post_init__(self):
        for f in fields(self):
            kind = _FIELD_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kind and (isinstance(value, bool) != (kind[0] is bool)
                         or not isinstance(value, kind[0])
                         or kind[0] is Real and not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{f.name} must be {kind[1]}, got {value!r}")
        for name, valid in (("env", _CASES), ("learner", _LEARNERS),
                            ("expert_mode", _EXPERT_MODES), ("buffer", STRATEGIES),
                            ("detector", _DETECTORS)):
            value = getattr(self, name)
            if value not in valid:
                raise ConfigError(f"unknown {name} {value!r} (expected one of "
                                  f"{', '.join(valid)})")
        presets = _CASES[self.env].presets
        for key in self.scenario.keys:
            if key not in presets:
                raise ConfigError(f"scenario workload {key!r} is not among the "
                                  f"{self.env} presets ({', '.join(presets)})")
        for name in ("t_c", "episode_len", "batch_size", "train_every",
                     "buffer_capacity", "ltst_long_capacity", "small_capacity"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "entropy_start", "entropy_epochs", "eps_random_epochs",
                     "eps_decay_epochs", "guard_calibration_epochs",
                     "guard_anneal_epochs", "detector_warmup_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr", "reward_scale"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("gamma", "label_noise"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.expert_mode == "oracle" and (self.detector != "truth" or self.label_noise > 0):
            raise ConfigError("oracle mode requires clean ground-truth labels")
        if self.detector == "gmm" and self.label_noise > 0:
            raise ConfigError("label_noise applies to the truth detector only")

    def to_json(self):
        d = asdict(self)
        d["scenario"] = self.scenario.to_json()
        return d

    @classmethod
    def from_json(cls, obj):
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        if "scenario" not in obj:
            raise ConfigError("config has no scenario")
        obj = dict(obj)
        obj["scenario"] = Scenario.from_json(obj["scenario"])
        return cls(**obj)


def abr_defaults(scenario, **overrides):
    """Desk-scale ABR configuration (Table-3 shapes, scaled epochs).

    The guard anneal runs past T_c (1.3x) at this scale: the desk agent
    sees far fewer samples per threshold step, so a proportionally faster
    anneal would hand over control while the policy is still noisy.
    """
    cfg = ExperimentConfig(
        scenario=scenario, env="abr", gamma=0.96, lr=0.01, t_c=200,
        episode_len=98, entropy_start=0.25, entropy_epochs=133,
        reward_scale=10.0, guard_anneal_epochs=260,
    )
    return replace(cfg, **overrides)


def paper_scale(cfg):
    """The paper's full-size epoch budgets (hours-to-days of compute)."""
    return replace(cfg, **_CASES[cfg.env].paper_scale)


def paper_scale_fields(env):
    """The config fields `paper_scale` sets for `env`."""
    return tuple(_CASES[env].paper_scale)


# --------------------------------------------------------------------------
# run artifacts


class Epoch(NamedTuple):
    """What the loop recorded for one epoch."""

    workload: str           # true workload key
    label: int              # environment index its experience was routed to
    metric: float | None    # epoch metric; None if the epoch measured nothing
    rebuffer: float         # real rebuffer seconds (abr; 0 for straggler)
    n_steps: int            # steps the learner trained on
    default_windows: int    # windows under the safeguard


@dataclass
class RunSummary:
    config: ExperimentConfig
    per_workload: dict = field(default_factory=dict)  # key -> BoxStats, post-convergence
    epochs: list = field(default_factory=list)        # one Epoch per epoch run
    post_convergence_from: int = 0      # first epoch with every workload explored
    explored_at: dict = field(default_factory=dict)  # label -> completion epoch
    diverged: bool = False
    wall_clock_s: float = 0.0
    experts: dict = field(default_factory=dict)   # label -> learner (in memory)

    def metric_values(self, workload):
        """Per-epoch metrics for one workload, from the epoch on which *every*
        workload has finished its exploration span (the red-box rule)."""
        lo = self.post_convergence_from
        return [ep.metric for e, ep in enumerate(self.epochs)
                if ep.workload == workload and e >= lo and ep.metric is not None]


# --------------------------------------------------------------------------
# case studies: what the loop needs to know about an environment


class _Case:
    """One case study: its environment (`self.env`), safeguard, nets and
    epoch metric.

    Subclasses set `presets` (workload key -> preset), `n_actions`,
    `step_ms` (simulated time per window), `feature_scales` and
    `paper_scale` (config overrides), and implement `start_epoch(key,
    epoch)`, `window(agent_act)` -> (executed action, controller, reward,
    the environment's next observation, session end), `clock_ms()`,
    `end_epoch()` -> (epoch metric, rebuffer seconds) and `net(head, out,
    rng)`. `agent_act()` draws the agent's action; a window calls it at
    most once.
    """

    def __init__(self, cfg, env):
        self.cfg = cfg
        self.env = env
        self.width = env.obs_dim + (len(self.feature_scales) if cfg.workload_info else 0)

    def observed(self, obs, features):
        """The agent's view of observation `obs`: with `cfg.workload_info`,
        `features`, the workload features of the same state, appended."""
        if not self.cfg.workload_info:
            return obs
        return augment_observation(obs, features, self.feature_scales)


class _Straggler(_Case):
    """Hedging proxy: per-server queues feed DeepSets nets; the epoch metric
    is the p95 job latency; the `SafetyMonitor` on queue length hands
    control to never-hedging."""

    presets = st.WORKLOAD_PRESETS
    n_actions = len(st.TIMEOUTS_MS)
    step_ms = st.WINDOW_MS
    feature_scales = st.FEATURE_SCALES
    paper_scale = dict(t_c=6000, episode_len=128, lr=0.001, entropy_epochs=5000,
                       eps_random_epochs=1000, eps_decay_epochs=5000)

    def __init__(self, cfg, guard_rng=None):
        """`guard_rng` is unused: the monitor draws nothing."""
        super().__init__(cfg, st.StragglerSim(
            self.presets[cfg.scenario.workload_at(0)[0]], seed=cfg.seed,
            safeguard_enabled=cfg.safeguard))
        self.monitor = (SafetyMonitor(st.UNSAFE_QUEUE, st.SAFE_QUEUE) if cfg.safeguard
                        else None)
        self._latencies = []

    def net(self, head, out, rng):
        n = self.env.n
        return DeepSetsEncoder(2, self.width - 2 * n, out, head=head, n_set=n, rng=rng)

    def start_epoch(self, key, epoch):
        self.env.set_workload(self.presets[key])

    def window(self, agent_act):
        """The agent acts only while the monitor leaves it in control."""
        sim = self.env
        controller = ("agent" if self.monitor is None
                      else self.monitor.step(sim.last_window_max_queue))
        action = st.NO_HEDGE_ACTION if controller == "default" else agent_act()
        res = sim.step(action)
        self._latencies.extend(res.stats["latencies"])
        return action, controller, res.reward, res.obs, False

    def clock_ms(self):
        return self.env.now

    def end_epoch(self):
        lat, self._latencies = self._latencies, []
        return (st.nearest_rank(lat, 95) if lat else None), 0.0


class _Abr(_Case):
    """Adaptive bitrate: back-to-back sessions, an Mlp over chunk history,
    the mean chunk QoE as epoch metric. Given a `guard_rng` (training runs)
    and `cfg.safeguard`, it owns the `FakeReplayGuard`: it gates each chunk,
    advances the guard's fictitious buffer, and while a fiction is active
    rewards the agent with the fictitious QoE and shows it that buffer."""

    presets = abr_mod.USER_GROUPS
    n_actions = len(abr_mod.BITRATES_KBPS)
    step_ms = abr_mod.CHUNK_S * 1000.0    # playback time per chunk
    feature_scales = abr_mod.FEATURE_SCALES
    paper_scale = dict(t_c=3000, episode_len=490, lr=0.001, entropy_epochs=2000,
                       guard_anneal_epochs=2000)

    def __init__(self, cfg, guard_rng=None):
        super().__init__(cfg, abr_mod.AbrEnv(
            self.presets[cfg.scenario.workload_at(0)[0]], seed=cfg.seed))
        self.guard = None
        if cfg.safeguard and guard_rng is not None:
            self.guard = abr_mod.FakeReplayGuard(
                calibration_epochs=cfg.guard_calibration_epochs,
                anneal_epochs=cfg.guard_anneal_epochs)
        self.guard_rng = guard_rng
        self._qoe = []
        self._rebuffer = 0.0

    def net(self, head, out, rng):
        return Mlp([self.width, 64, 32, out], head=head, rng=rng)

    def start_epoch(self, key, epoch):
        self.env.set_group(self.presets[key])
        if self.guard is not None:
            self.guard.set_epoch(epoch)

    def window(self, agent_act):
        """The agent always draws its action; the guard may then override it.
        The epoch metric and rebuffer seconds are the real chunk's."""
        env, guard = self.env, self.guard
        action, controller = agent_act(), "agent"
        if guard is not None:
            action, controller = abr_mod.guard_step(
                guard, env.session.buffer_s, action, env.default_action(),
                self.guard_rng)
        info, done = env.step(action)
        self._qoe.append(info["qoe"])
        self._rebuffer += info["rebuffer_s"]
        reward, shown = info["qoe"], None
        if guard is not None and guard.fict_buffer is not None:
            fict_rebuffer = guard.note_download(info["download_s"], env.spec.chunk_s)
            reward = abr_mod.qoe(info["quality"], info["quality_prev"], fict_rebuffer,
                                 env.session.mu)
            if not done:
                shown = guard.fict_buffer
        return action, controller, reward, env.observe(shown), done

    def clock_ms(self):
        return self.env.session.clock_s * 1000.0

    def end_epoch(self):
        qoe, rebuffer = self._qoe, self._rebuffer
        self._qoe, self._rebuffer = [], 0.0
        return (float(np.mean(qoe)) if qoe else None), rebuffer


_CASES = {"straggler": _Straggler, "abr": _Abr}


# --------------------------------------------------------------------------
# learners: how an expert is built, acts and trains
#
# `make(cfg, case, rng)` builds an expert from the case's nets;
# `act(rec, obs, rng)` draws the action of the expert in ExpertRecord `rec`.
# An instance is one run's training step: `window(rec, label, w, ...)` sees
# every transition, `end_epoch(rec, obs)` returns the steps it trained on,
# `explored(label)` runs once an environment has finished its exploration
# span.


class _A2c:
    """Agent-controlled windows form on-policy segments (a safeguard
    hand-off or a session end closes one); one update per epoch."""

    replay = False

    @staticmethod
    def make(cfg, case, rng):
        return A2cLearner(case.net("softmax", case.n_actions, rng),
                          case.net("identity", 1, rng),
                          gamma=cfg.gamma, lr=cfg.lr,
                          entropy_start=cfg.entropy_start,
                          entropy_epochs=cfg.entropy_epochs)

    @staticmethod
    def act(rec, obs, rng):
        return rec.learner.act(obs, rng)

    def __init__(self, cfg, rng):
        """`rng` is unused: A2C training draws nothing."""
        self.reward_scale = cfg.reward_scale
        self.batch = EpisodeBatch()
        self.segment = []   # (obs, action, scaled reward) of the open segment

    def _close(self, final_obs, terminal):
        if self.segment:
            states, actions, rewards = (np.asarray(c) for c in zip(*self.segment))
            self.batch.add(Trajectory(states, actions, rewards, final_obs, terminal))
            self.segment = []

    def window(self, rec, label, w, obs, action, reward, next_obs, done, agent):
        if agent:
            self.segment.append((obs, action, reward / self.reward_scale))
            if done:
                self._close(next_obs, True)
        else:
            self._close(obs, False)

    def end_epoch(self, rec, obs):
        self._close(obs, False)
        batch, self.batch = self.batch, EpisodeBatch()
        n_steps = batch.n_steps()
        if n_steps > 0:
            rec.learner.update(batch, schedule_epoch=rec.exploration_epochs)
        return n_steps

    def explored(self, label):
        pass


class _Dqn:
    """One replay buffer and one RewardScaler per run, shared by every
    expert; a minibatch update every `train_every` windows. An
    environment's reward scale freezes when its exploration ends."""

    replay = True

    @staticmethod
    def make(cfg, case, rng):
        return DqnLearner(case.net("identity", case.n_actions, rng), gamma=cfg.gamma,
                          batch_size=cfg.batch_size,
                          random_epochs=cfg.eps_random_epochs,
                          decay_epochs=cfg.eps_decay_epochs)

    @staticmethod
    def act(rec, obs, rng):
        return rec.learner.act(obs, rng, schedule_epoch=rec.exploration_epochs)

    def __init__(self, cfg, rng):
        self.buffer = make_buffer(cfg.buffer, buffer_capacity=cfg.buffer_capacity,
                                  small_capacity=cfg.small_capacity,
                                  ltst_long_capacity=cfg.ltst_long_capacity)
        self.scaler = RewardScaler()
        self.rng = rng
        self.train_every = cfg.train_every
        self.batch_size = cfg.batch_size

    def window(self, rec, label, w, obs, action, reward, next_obs, done, agent):
        self.buffer.insert(Experience(obs, action, reward, next_obs, done, env_index=label))
        self.scaler.observe(label, reward)  # ignored once the label's scale is frozen
        if w % self.train_every == 0 and len(self.buffer) >= self.batch_size:
            rec.learner.train_from(self.buffer, self.rng, self.scaler)

    def end_epoch(self, rec, obs):
        return 0

    def explored(self, label):
        self.scaler.freeze(label)


_LEARNERS = {"a2c": _A2c, "dqn": _Dqn}


# --------------------------------------------------------------------------
# the control loop


class _Detector:
    """Environment labeling: noisy ground truth (decided per epoch) or an
    online-fitted GMM over per-window workload features (which therefore
    reacts to switches with the feature-window + dwell lag).

    `width` is the length of every posterior it reports, fixed by config:
    the GMM's component count, or the number of labels the truth can report
    (a noisy label of a one-workload scenario is 1)."""

    def __init__(self, cfg, n_labels, rng):
        self.cfg = cfg
        self.rng = rng
        self.gmm = None
        self.history = []
        self.reported = 0
        self.width = n_labels
        if cfg.detector == "gmm":
            self.gmm = GmmDetector(n_labels, seed=cfg.seed)
        elif cfg.label_noise > 0:
            self.width = max(n_labels, 2)
        # what every window of the epoch reports: the truth's one-hot, or
        # zeros before the GMM is fitted
        self.post = np.zeros(self.width)
        self._windows = 0
        self._features = []  # this epoch's windows, once the GMM is fitted

    def start_epoch(self, epoch, true_label):
        """The environment index that routes this epoch: the (noisy) truth,
        or the GMM's last report, the GMM first fitted if it is due."""
        if self.gmm is None:
            label = true_label
            if self.cfg.label_noise > 0 and self.rng.random() < self.cfg.label_noise:
                others = [i for i in range(self.width) if i != label]
                label = int(others[self.rng.integers(len(others))])
            self.reported = label
            self.post = np.zeros(self.width)
            self.post[label] = 1.0
        elif (not self.gmm.fitted and epoch >= self.cfg.detector_warmup_epochs
              and len(self.history) >= 10 * self.gmm.n_components):
            self.gmm.fit(np.asarray(self.history))
        return self.reported

    def observe_window(self, features):
        """Note one window. Only the GMM keeps its workload `features`: in the
        history it is fitted on, or once fitted for `end_epoch` to score."""
        self._windows += 1
        if self.gmm is not None:
            features = np.asarray(features, dtype=np.float64)
            (self._features if self.gmm.fitted else self.history).append(features)

    def end_epoch(self):
        """(posterior, reported) of each window observed since the last call,
        in order. The fitted GMM scores them all in one posterior call and
        then runs its dwell readout over the rows; otherwise every window
        shares `self.post` and `self.reported`."""
        n, self._windows = self._windows, 0
        if not self._features:
            return [(self.post, self.reported)] * n
        features, self._features = self._features, []
        posts = self.gmm.posterior(np.array(features))
        if posts.shape[1] < self.width:  # a degenerate fit has one component
            posts = np.pad(posts, ((0, 0), (0, self.width - posts.shape[1])))
        rows = []
        for x, post in zip(features, posts):
            self.reported = self.gmm.classify(x, post=post)
            rows.append((post, self.reported))
        return rows


def _loop(cfg, case, experts, act, act_rng, detector, train=None, write_epoch=None):
    """Run `cfg.scenario` through `case`, one epoch per scenario step.

    Per epoch: set the workload, detect the environment with `detector` (a
    `_Detector`) and route to its expert in `experts` (an ExpertManager),
    and record one `Epoch`. Per window: one `case.window` call, in which the
    case's safeguard or the expert (`act(rec, obs, act_rng)`) picks the
    action and the environment steps; then its workload features are read
    once if a reader needs them, the detector notes them and the training
    step `train` sees the transition. When the epoch ends, a diverged run's
    partial last one included, the detector reads out every window it noted
    at once (`detector.end_epoch()`: one posterior call for a fitted GMM);
    the reported label routes the next epoch. A frozen run
    (`train=None`) never changes an expert and has nothing to converge:
    every epoch counts as post-convergence.

    Given `write_epoch` (from `_epoch_writer`), each finished epoch is
    passed to it with its window rows and their detections, which are then
    dropped.
    """
    scenario, env = cfg.scenario, case.env
    windows = []
    s = RunSummary(cfg)
    read_features = cfg.workload_info or detector.gmm is not None
    obs = case.observed(env.observe(),
                        env.workload_features() if cfg.workload_info else None)

    for epoch in range(scenario.total_epochs):
        wkey, true_label = scenario.workload_at(epoch)
        case.start_epoch(wkey, epoch)
        label = detector.start_epoch(epoch, true_label)
        rec = experts.signal(label)
        default_windows = n_steps = 0
        try:
            for w in range(cfg.episode_len):
                action, controller, reward, next_obs, done = case.window(
                    lambda: act(rec, obs, act_rng))
                features = env.workload_features() if read_features else None
                next_obs = case.observed(next_obs, features)
                detector.observe_window(features)
                if write_epoch is not None:
                    windows.append((case.clock_ms(), controller))
                agent = controller == "agent"
                if not agent:
                    default_windows += 1
                if train is not None:
                    train.window(rec, label, w, obs, action, reward, next_obs, done,
                                 agent)
                obs = next_obs
            if train is not None:
                n_steps = train.end_epoch(rec, obs)
        except DivergenceError:
            s.diverged = True
        detections = detector.end_epoch()

        if train is not None:
            experts.note_epoch(label)
        if experts.exploration_complete(label):
            if train is not None:
                train.explored(label)
            s.explored_at.setdefault(label, epoch)

        ep = Epoch(wkey, label, *case.end_epoch(), n_steps, default_windows)
        s.epochs.append(ep)
        if write_epoch is not None:
            write_epoch(epoch, ep, windows, detections)
            windows.clear()
        if s.diverged:
            break

    if train is not None:
        done = [s.explored_at.get(scenario.label_of[k]) for k in scenario.keys]
        s.post_convergence_from = (scenario.total_epochs if None in done
                                   else max(done) + 1)
    s.experts = {i: r.learner for i, r in experts.records.items()}
    for key in scenario.keys:
        vals = s.metric_values(key)
        if vals:
            s.per_workload[key] = BoxStats.from_values(vals)
    return s


def _stationary(cfg, workload_key, epochs, seed):
    """`cfg` as a run on one workload, for oracle and checkpoint pretraining
    and frozen-policy evaluation: clean labels (one expert), no artifacts."""
    return replace(cfg, scenario=scenario_stationary(workload_key, epochs), seed=seed,
                   expert_mode="multi", detector="truth", label_noise=0.0, out_dir="")


def _pretrain_oracle_experts(cfg):
    """An ExpertManager holding one converged expert per scenario workload,
    each trained on a stationary run with the same settings (exactly a plain
    single-workload training run, reused as the oracle baseline)."""
    pretrained = {}
    for key in cfg.scenario.keys:
        label = cfg.scenario.label_of[key]
        sub = _stationary(cfg, key, cfg.t_c, cfg.seed + 7919 * (label + 1))
        pretrained[label] = run_experiment(sub).experts[0]
    manager = ExpertManager(pretrained.__getitem__, cfg.t_c, mode="multi")
    for label in pretrained:
        manager.signal(label).exploration_epochs = cfg.t_c
    return manager


def run_experiment(cfg):
    """Train (or, in oracle mode, run pretrained frozen experts) through
    the control loop; returns a RunSummary. When cfg.out_dir is set it
    writes the CSV artifacts, `timeseries.csv` and `detections.csv` as each
    epoch ends; an `out_dir` that cannot be written is a ConfigError raised
    before the first epoch."""
    t_start = time.perf_counter()
    if cfg.out_dir:
        _write_config(cfg)
    _, s_act, s_guard, s_noise, s_train = [
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(5)
    ]
    case = _CASES[cfg.env](cfg, guard_rng=s_guard)
    learner = _LEARNERS[cfg.learner]
    if cfg.expert_mode == "oracle":
        experts, train = _pretrain_oracle_experts(cfg), None
    else:
        experts = ExpertManager(
            lambda label: learner.make(
                cfg, case, np.random.default_rng((cfg.seed, label, 0xA11CE))),
            cfg.t_c, mode=cfg.expert_mode)
        train = learner(cfg, s_train)
    detector = _Detector(cfg, len(cfg.scenario.keys), s_noise)
    with (_epoch_writer(cfg, detector.width) if cfg.out_dir
          else contextlib.nullcontext()) as write_epoch:
        summary = _loop(cfg, case, experts, learner.act, s_act, detector, train,
                        write_epoch)
    summary.wall_clock_s = time.perf_counter() - t_start
    if cfg.out_dir:
        _write_artifacts(summary, detector)
    return summary


# --------------------------------------------------------------------------
# artifacts


def _fmt(x):
    return f"{x:.6f}"


def _write_config(cfg):
    """Create `cfg.out_dir` and write `config.json` into it."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "config.json"), "w") as fh:
            json.dump(cfg.to_json(), fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {cfg.out_dir}: {exc}") from None


@contextlib.contextmanager
def _epoch_writer(cfg, width):
    """Open `timeseries.csv` and `detections.csv` in `cfg.out_dir` and yield
    `write(epoch, ep, windows, detections)`, which writes the `Epoch` row
    `ep` and one row per (t_ms, controller) window with its (posterior of
    `width`, reported) detection, and flushes both files, so a run stopped
    after k epochs leaves k epochs."""
    out = cfg.out_dir
    with open(os.path.join(out, "timeseries.csv"), "w", newline="") as ts_fh, \
            open(os.path.join(out, "detections.csv"), "w", newline="") as det_fh:
        ts, det = csv.writer(ts_fh), csv.writer(det_fh)
        ts.writerow(["epoch", "t_ms", "workload_true", "workload_detected",
                     "controller", "metric"])
        det.writerow(["t_ms"] + [f"posterior_{i}" for i in range(width)]
                     + ["reported", "controller"])
        epoch_ms = _CASES[cfg.env].step_ms * cfg.episode_len

        def write(e, ep, windows, detections):
            ctl = "default" if ep.default_windows > cfg.episode_len // 2 else "agent"
            ts.writerow([e, _fmt(e * epoch_ms), ep.workload, ep.label, ctl,
                         _fmt(ep.metric) if ep.metric is not None else ""])
            last = cells = None
            for (t, controller), (post, reported) in zip(windows, detections):
                if post is not last:  # windows share one array until a GMM fit
                    cells, last = [_fmt(p) for p in post.tolist()], post
                det.writerow([_fmt(t), *cells, reported, controller])
            ts_fh.flush()
            det_fh.flush()

        yield write


def _write_artifacts(summary, detector):
    """Write `summary.csv`, `status.json`, the expert checkpoints and a
    fitted detector into `cfg.out_dir`, which `_write_config` made before
    the run."""
    cfg = summary.config
    out = cfg.out_dir

    with open(os.path.join(out, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "workload", "expert_mode", "buffer", "seed",
                    "p1", "p25", "p50", "p75", "p99", "mean"])
        buf = cfg.buffer if _LEARNERS[cfg.learner].replay else "-"
        for key in cfg.scenario.keys:
            stats = summary.per_workload.get(key)
            if stats is None:
                continue
            w.writerow([cfg.scenario.name, key, cfg.expert_mode, buf, cfg.seed]
                       + [_fmt(v) for v in stats.row()])

    with open(os.path.join(out, "status.json"), "w") as fh:
        json.dump({"diverged": summary.diverged,
                   "post_convergence_from": summary.post_convergence_from}, fh)

    for label, learner in summary.experts.items():
        learner.save(os.path.join(out, "experts", f"env_{label}"))
    if detector.gmm is not None and detector.gmm.fitted:
        detector.gmm.save(os.path.join(out, "detector.npz"))


# --------------------------------------------------------------------------
# frozen-policy evaluation and cross-workload evaluation


def evaluate_policy(cfg, policy_fn, workload_key, epochs, seed):
    """Mean per-epoch tail latency (or mean QoE) of a fixed policy.

    A frozen run of the control loop on one stationary workload:
    `policy_fn(obs, rng)` is the only expert, the straggler monitor still
    hands off (with `cfg.safeguard`), the ABR training guard is absent."""
    sub = _stationary(cfg, workload_key, epochs, seed)
    case = _CASES[sub.env](sub)
    experts = ExpertManager(lambda label: policy_fn, sub.t_c)
    summary = _loop(sub, case, experts, lambda rec, obs, rng: rec.learner(obs, rng),
                    np.random.default_rng(seed + 1),
                    _Detector(sub, len(sub.scenario.keys), None))
    return float(np.mean([ep.metric for ep in summary.epochs if ep.metric is not None]))


def pretrain_checkpoint(cfg, workload_key, ckpt_dir):
    """Train on one stationary workload and save the policy checkpoint."""
    summary = run_experiment(_stationary(cfg, workload_key, cfg.t_c, cfg.seed))
    summary.experts[0].save(os.path.join(ckpt_dir, workload_key))
    return summary


def _greedy_policy_from_checkpoint(ckpt_dir, workload_key):
    actor_path = os.path.join(ckpt_dir, workload_key, "actor.npz")
    qnet_path = os.path.join(ckpt_dir, workload_key, "qnet.npz")
    path = actor_path if os.path.exists(actor_path) else qnet_path
    if not os.path.exists(path):
        raise ConfigError(f"no checkpoint for workload {workload_key!r} in {ckpt_dir}")
    net = load_net(path)
    return lambda obs, rng: int(np.argmax(net.forward(obs)))


def cross_eval(train_key, test_key, ckpt_dir, cfg, eval_epochs=25, seed=1234):
    """Normalized frozen-policy transfer metric.

    1 means the train->test policy matches the policy trained on the test
    workload itself; 0 means it is no better than never hedging; below 0 is
    worse than never hedging.
    """
    policy = _greedy_policy_from_checkpoint(ckpt_dir, train_key)
    matched = _greedy_policy_from_checkpoint(ckpt_dir, test_key)
    no_hedge = lambda obs, rng: st.NO_HEDGE_ACTION
    l_policy = evaluate_policy(cfg, policy, test_key, eval_epochs, seed)
    l_matched = evaluate_policy(cfg, matched, test_key, eval_epochs, seed)
    l_nohedge = evaluate_policy(cfg, no_hedge, test_key, eval_epochs, seed)
    denom = l_nohedge - l_matched
    if abs(denom) < 1e-9:
        raise ConfigError("degenerate normalization: matched policy equals no-hedging")
    return (l_nohedge - l_policy) / denom
