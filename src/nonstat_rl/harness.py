"""Experiment orchestration: workload schedules, the observe/detect/guard/
act/learn control loop, baselines, metric aggregation, and CSV emission.

A run is driven by an `ExperimentConfig` and produces a `RunSummary` plus
(if `out_dir` is set) `timeseries.csv`, `detections.csv`, `summary.csv`,
and per-environment expert checkpoints. Identical config + seed gives
byte-identical outputs.

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

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real

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
        if not self.dwells or any(n <= 0 for _, n in self.dwells):
            raise ConfigError("scenario needs positive-length dwells")
        self._epoch_key = []
        for key, n in self.dwells:
            self._epoch_key.extend([key] * n)
        order = []
        for key, _ in self.dwells:
            if key not in order:
                order.append(key)
        self.keys = order
        self.label_of = {k: i for i, k in enumerate(order)}

    @property
    def total_epochs(self):
        return len(self._epoch_key)

    def workload_at(self, epoch):
        key = self._epoch_key[epoch]
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


def scenario_drift(epochs, name="SmoothDrift"):
    return Scenario(name, [("drift", epochs)])


def scenario_fastswitch(epochs, name="FastSwitch"):
    return Scenario(name, [("fastswitch", epochs)])


# --------------------------------------------------------------------------
# experiment config

_EXPERT_MODES = ("single", "multi", "oracle")
_DETECTORS = ("truth", "gmm")


# annotation -> (accepted type, its name in an error message)
_NUMBER_KINDS = {"int": (Integral, "an integer"), "float": (Real, "a number")}


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
            kind = _NUMBER_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kind and (isinstance(value, bool) or not isinstance(value, kind[0])):
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
        for name in ("t_c", "episode_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ConfigError(f"label_noise must be in [0, 1], got {self.label_noise}")
        if self.expert_mode == "oracle" and (self.detector != "truth" or self.label_noise > 0):
            raise ConfigError("oracle mode requires clean ground-truth labels")

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


# --------------------------------------------------------------------------
# run artifacts


@dataclass
class RunSummary:
    config: ExperimentConfig
    per_workload: dict = field(default_factory=dict)  # key -> BoxStats, post-convergence
    epoch_metric: list = field(default_factory=list)
    epoch_workload: list = field(default_factory=list)
    epoch_detected: list = field(default_factory=list)
    epoch_controller: list = field(default_factory=list)
    training_log: list = field(default_factory=list)  # per-epoch routing audit
    post_convergence_from: int = 0      # first epoch with every workload explored
    explored_at: dict = field(default_factory=dict)  # label -> completion epoch
    epoch_rebuffer: list = field(default_factory=list)  # real rebuffer s (abr)
    diverged: bool = False
    wall_clock_s: float = 0.0
    experts: dict = field(default_factory=dict)   # label -> learner (in memory)

    def metric_values(self, workload):
        """Per-epoch metrics for one workload, from the epoch on which *every*
        workload has finished its exploration span (the red-box rule)."""
        lo = self.post_convergence_from
        return [m for e, (m, w) in enumerate(zip(self.epoch_metric, self.epoch_workload))
                if w == workload and e >= lo and m is not None]


# --------------------------------------------------------------------------
# case studies: what the loop needs to know about an environment


class _Case:
    """One case study: its environment (`self.env`), safeguard, nets and
    epoch metric.

    Subclasses set `presets` (workload key -> preset), `n_actions`,
    `step_ms` (simulated time per window), `feature_scales` and
    `paper_scale` (config overrides), and implement `start_epoch(key,
    epoch)`, `decide(agent_act)` -> (executed action, controller),
    `_record(step_result)` -> session end, `clock_ms()`, `end_epoch()` ->
    (epoch metric, rebuffer seconds) and `net(head, out, rng)`.
    """

    def __init__(self, cfg, env):
        self.cfg = cfg
        self.env = env
        self.width = env.obs_dim + (len(self.feature_scales) if cfg.workload_info else 0)

    def _augment(self, obs, feats):
        return augment_observation(obs, feats, self.cfg.workload_info, self.feature_scales)

    def observe(self):
        return self._augment(self.env.observe(), self.env.workload_features())

    def step(self, action):
        """(reward, next observation, session end, workload features)."""
        res = self.env.step(action)
        done = self._record(res)
        feats = self.env.workload_features()
        return res.reward, self._augment(res.obs, feats), done, feats


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

    def __init__(self, cfg, seed, guard_rng=None):
        """`guard_rng` is unused: the monitor draws nothing."""
        super().__init__(cfg, st.StragglerSim(
            self.presets[cfg.scenario.workload_at(0)[0]], seed=seed,
            safeguard_enabled=cfg.safeguard))
        self.monitor = (SafetyMonitor(st.UNSAFE_QUEUE, st.SAFE_QUEUE) if cfg.safeguard
                        else None)
        self._latencies = []

    def net(self, head, out, rng):
        n = self.env.n
        return DeepSetsEncoder(2, self.width - 2 * n, out, head=head, n_set=n, rng=rng)

    def start_epoch(self, key, epoch):
        self.env.set_workload(self.presets[key])

    def decide(self, agent_act):
        """The agent acts only while the monitor leaves it in control."""
        sim = self.env
        controller = ("agent" if self.monitor is None
                      else self.monitor.step(sim.last_window_max_queue, t=sim.now))
        if controller == "default":
            return st.NO_HEDGE_ACTION, controller
        return agent_act(), controller

    def _record(self, res):
        self._latencies.extend(res.stats["latencies"])
        return False

    def clock_ms(self):
        return self.env.now

    def end_epoch(self):
        lat, self._latencies = self._latencies, []
        return (st.nearest_rank(lat, 95) if lat else None), 0.0


class _Abr(_Case):
    """Adaptive bitrate: back-to-back sessions, an Mlp over chunk history,
    the mean chunk QoE as epoch metric. Given a `guard_rng` (training runs)
    and `cfg.safeguard`, it owns the `FakeReplayGuard`."""

    presets = abr_mod.USER_GROUPS
    n_actions = len(abr_mod.BITRATES_KBPS)
    step_ms = abr_mod.CHUNK_S * 1000.0    # playback time per chunk
    feature_scales = abr_mod.FEATURE_SCALES
    paper_scale = dict(t_c=3000, episode_len=490, lr=0.001, entropy_epochs=2000,
                       guard_anneal_epochs=2000)

    def __init__(self, cfg, seed, guard_rng=None):
        guard = None
        if cfg.safeguard and guard_rng is not None:
            guard = abr_mod.FakeReplayGuard(
                calibration_epochs=cfg.guard_calibration_epochs,
                anneal_epochs=cfg.guard_anneal_epochs)
        super().__init__(cfg, abr_mod.AbrEnv(
            self.presets[cfg.scenario.workload_at(0)[0]], seed=seed, guard=guard))
        self.guard, self.guard_rng = guard, guard_rng
        self._qoe = []
        self._rebuffer = 0.0

    def net(self, head, out, rng):
        return Mlp([self.width, 64, 32, out], head=head, rng=rng)

    def start_epoch(self, key, epoch):
        self.env.set_group(self.presets[key])
        if self.guard is not None:
            self.guard.set_epoch(epoch)

    def decide(self, agent_act):
        """The agent always draws its action; the guard may then override it."""
        agent_action = agent_act()
        if self.guard is None:
            return agent_action, "agent"
        env = self.env
        action, _, controller = abr_mod.guard_step(
            self.guard, env.real_buffer(), agent_action, env.default_action(),
            self.guard_rng)
        return action, controller

    def _record(self, res):
        self._qoe.append(res.stats["qoe"])
        self._rebuffer += res.stats["rebuffer_s"]
        return res.done

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
        sizes = {"large": dict(capacity=cfg.buffer_capacity),
                 "small": dict(capacity=cfg.small_capacity),
                 "ltst": dict(long_capacity=cfg.ltst_long_capacity,
                              short_capacity=cfg.small_capacity),
                 "multi": dict(capacity_each=cfg.buffer_capacity)}
        self.buffer = make_buffer(cfg.buffer, **sizes[cfg.buffer])
        self.scaler = RewardScaler()
        self.rng = rng
        self.train_every = cfg.train_every
        self.batch_size = cfg.batch_size

    def window(self, rec, label, w, obs, action, reward, next_obs, done, agent):
        self.buffer.insert(Experience(obs, action, reward, next_obs, done, env_index=label))
        if not self.scaler.frozen(label):
            self.scaler.observe(label, reward)
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
    reacts to switches with the feature-window + dwell lag)."""

    def __init__(self, cfg, n_labels, rng):
        self.cfg = cfg
        self.n_labels = n_labels
        self.rng = rng
        self.mode = cfg.detector
        self.gmm = None
        self.history = []
        self.reported = 0
        if self.mode == "gmm":
            self.gmm = GmmDetector(n_labels, seed=cfg.seed)

    def epoch_label(self, true_label):
        """The environment index used to route this epoch's experience."""
        if self.mode == "truth":
            label = true_label
            if self.cfg.label_noise > 0 and self.rng.random() < self.cfg.label_noise:
                others = [i for i in range(max(self.n_labels, 2)) if i != label]
                label = int(others[self.rng.integers(len(others))])
            self.reported = label
        return self.reported

    def observe_window(self, features):
        """Per-window detector update; returns (reported, posterior) to log."""
        if self.mode == "truth":
            post = np.zeros(max(self.n_labels, self.reported + 1))
            post[self.reported] = 1.0
            return self.reported, post
        if self.gmm.fitted:
            post = self.gmm.posterior(features)
            self.reported = self.gmm.classify(features, post=post)
            return self.reported, post
        self.history.append(np.asarray(features, dtype=np.float64))  # to fit on
        return self.reported, np.zeros(self.gmm.n_components)

    def maybe_fit(self, epoch):
        if (self.mode == "gmm" and not self.gmm.fitted
                and epoch >= self.cfg.detector_warmup_epochs
                and len(self.history) >= 10 * self.gmm.n_components):
            self.gmm.fit(np.asarray(self.history))


def _loop(cfg, case, experts, act, act_rng, noise_rng, train=None):
    """Run `cfg.scenario` through `case`, one epoch per scenario step.

    Per epoch: set the workload, detect the environment and route to its
    expert in `experts` (an ExpertManager). Per window: the case's
    safeguard or the expert (`act(rec, obs, act_rng)`) picks the action,
    the environment steps, the detector sees the window's workload features
    and the training step `train` sees the transition. A frozen run
    (`train=None`) never changes an expert and has nothing to converge:
    every epoch counts as post-convergence.

    Returns (RunSummary, per-window detection rows, detector); the rows are
    kept only when `cfg.out_dir` is set.
    """
    scenario = cfg.scenario
    detector = _Detector(cfg, len(scenario.keys), noise_rng)
    keep_windows = bool(cfg.out_dir)
    windows = []
    s = RunSummary(cfg)
    obs = case.observe()

    for epoch in range(scenario.total_epochs):
        wkey, true_label = scenario.workload_at(epoch)
        case.start_epoch(wkey, epoch)
        detector.maybe_fit(epoch)
        label = detector.epoch_label(true_label)
        rec = experts.signal(label)
        default_windows = n_steps = 0
        try:
            for w in range(cfg.episode_len):
                action, controller = case.decide(lambda: act(rec, obs, act_rng))
                reward, next_obs, done, feats = case.step(action)
                detected, post = detector.observe_window(feats)
                if keep_windows:
                    windows.append((case.clock_ms(), post, detected, controller))
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

        if train is not None:
            experts.note_epoch()
        if experts.exploration_complete(label):
            if train is not None:
                train.explored(label)
            s.explored_at.setdefault(label, epoch)

        metric, rebuffer = case.end_epoch()
        s.epoch_metric.append(metric)
        s.epoch_rebuffer.append(rebuffer)
        s.epoch_workload.append(wkey)
        s.epoch_detected.append(label)
        s.epoch_controller.append("default" if default_windows > cfg.episode_len // 2
                                  else "agent")
        s.training_log.append({
            "epoch": epoch, "workload_true": wkey, "label_used": label,
            "expert": label if cfg.expert_mode != "single" else 0,
            "n_steps": n_steps, "controller_windows_default": default_windows,
        })
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
    return s, windows, detector


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
    the control loop; returns a RunSummary (and writes CSV artifacts when
    cfg.out_dir is set)."""
    t_start = time.perf_counter()
    _, s_act, s_guard, s_noise, s_train = [
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(5)
    ]
    case = _CASES[cfg.env](cfg, cfg.seed, guard_rng=s_guard)
    learner = _LEARNERS[cfg.learner]
    if cfg.expert_mode == "oracle":
        experts, train = _pretrain_oracle_experts(cfg), None
    else:
        experts = ExpertManager(
            lambda label: learner.make(
                cfg, case, np.random.default_rng((cfg.seed, label, 0xA11CE))),
            cfg.t_c, mode=cfg.expert_mode)
        train = learner(cfg, s_train)
    summary, windows, detector = _loop(cfg, case, experts, learner.act, s_act,
                                       s_noise, train)
    summary.wall_clock_s = time.perf_counter() - t_start
    if cfg.out_dir:
        _write_artifacts(summary, windows, detector)
    return summary


# --------------------------------------------------------------------------
# artifacts


def _fmt(x):
    return f"{x:.6f}"


def _write_artifacts(summary, detection_rows, detector):
    cfg = summary.config
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)

    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(cfg.to_json(), fh, indent=2, sort_keys=True)

    with open(os.path.join(out, "timeseries.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "t_ms", "workload_true", "workload_detected",
                    "controller", "metric"])
        epoch_ms = _CASES[cfg.env].step_ms * cfg.episode_len
        for e, (metric, wkey, det, ctl) in enumerate(zip(
                summary.epoch_metric, summary.epoch_workload,
                summary.epoch_detected, summary.epoch_controller)):
            w.writerow([e, _fmt(e * epoch_ms), wkey, det, ctl,
                        _fmt(metric) if metric is not None else ""])

    n_comp = max((len(p) for _, p, _, _ in detection_rows), default=0)
    with open(os.path.join(out, "detections.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_ms"] + [f"posterior_{i}" for i in range(n_comp)]
                   + ["reported", "controller"])
        for t, post, reported, controller in detection_rows:
            padded = list(post) + [0.0] * (n_comp - len(post))
            w.writerow([_fmt(t)] + [_fmt(p) for p in padded]
                       + [reported, controller])

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
    case = _CASES[sub.env](sub, seed)
    experts = ExpertManager(lambda label: policy_fn, sub.t_c)
    summary = _loop(sub, case, experts, lambda rec, obs, rng: rec.learner(obs, rng),
                    np.random.default_rng(seed + 1), None)[0]
    return float(np.mean([m for m in summary.epoch_metric if m is not None]))


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


# --------------------------------------------------------------------------
# aggregation


def aggregate_boxstats(groups):
    """Pooled box statistics per group: {key: values} -> rows of
    [group, p1, p25, p50, p75, p99, mean, count]; empty groups are omitted."""
    rows = []
    for key in sorted(groups):
        vals = [v for v in groups[key] if v is not None]
        if not vals:
            continue
        stats = BoxStats.from_values(vals)
        rows.append([key] + [_fmt(v) for v in stats.row()] + [stats.count])
    return rows


def aggregate_timeseries_files(paths, group_col="workload_true"):
    """Pool metric values from timeseries.csv files, grouped by a column."""
    groups = {}
    for path in paths:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["metric"] == "":
                    continue
                groups.setdefault(row[group_col], []).append(float(row["metric"]))
    return groups
