"""Adaptive-bitrate streaming environment.

A video is split into fixed-length chunks encoded at six bitrates. Per chunk
the policy picks a level; the chunk downloads over a per-second bandwidth
trace (the effective chunk bandwidth is the harmonic mean of the trace over
the download interval), the playback buffer follows `buffer_step`

    b' = max(0, b - download) + chunk_s,

capped at the client's request threshold `MAX_BUFFER_S` (the client idles
until the buffer drains back to it), and the reward is the chunk `qoe`

    qoe = q - |q - q_prev| - mu * rebuffer_seconds

with quality q in ladder units (kbps/100). The real session and the
safeguard's fictitious buffer both follow these two rules. Bandwidth traces
come from a Markov chain over coarse throughput states with a mean-reverting
(Ornstein-Uhlenbeck) overlay; five user-group presets span different
average-bandwidth / per-user-variance / cross-user-diversity profiles.

The training safeguard (`FakeReplayGuard`) hands control to a buffer-based
default policy (linear BBA) whenever the real buffer is below an annealed
threshold, and when the agent regains control it observes a fictitious
buffer drawn uniformly from [0, real buffer] so that risky low-buffer states
are still represented in its experience.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .stats import nearest_rank

BITRATES_KBPS = (300, 750, 1200, 1850, 2850, 4300)
CHUNK_S = 4.0
N_CHUNKS = 49
MAX_BUFFER_S = 25.0
DEFAULT_MU = 4.3
QUALITY_PER_KBPS = 0.01  # q in units of kbps/100
HISTORY_K = 9
SESSION_TRACE_S = 1600  # bandwidth drawn per session; a session uses ~200 s
# normalization of `AbrEnv.workload_features` when appended to observations
FEATURE_SCALES = (2000.0, 600.0, 2000.0, 600.0)


def qoe(q, q_prev, rebuffer_s, mu):
    """Chunk QoE: quality minus smoothness penalty minus rebuffer penalty."""
    return q - abs(q - q_prev) - mu * rebuffer_s


def buffer_step(buffer_s, download_s, chunk_s):
    """One chunk's effect on the playback buffer: (rebuffer s, buffer s capped
    at MAX_BUFFER_S, idle s while the buffer drains back to the cap)."""
    rebuffer = max(0.0, download_s - buffer_s)
    after = max(0.0, buffer_s - download_s) + chunk_s
    capped = min(after, MAX_BUFFER_S)
    return rebuffer, capped, after - capped


def bba_action(buffer_s, bitrates=BITRATES_KBPS, reservoir=5.0, cushion=10.0):
    """Linear buffer-based bitrate choice.

    At or below the reservoir pick the lowest level; at or above
    reservoir+cushion pick the highest; in between pick the largest bitrate
    not exceeding the linear interpolation between the two extremes.
    """
    if buffer_s <= reservoir:
        return 0
    if buffer_s >= reservoir + cushion:
        return len(bitrates) - 1
    target = bitrates[0] + (buffer_s - reservoir) / cushion * (bitrates[-1] - bitrates[0])
    level = 0
    for i, b in enumerate(bitrates):
        if b <= target:
            level = i
    return level


# --------------------------------------------------------------------------
# video description


@dataclass
class VideoSpec:
    chunk_s: float
    bitrates_kbps: tuple
    sizes_bytes: np.ndarray  # (n_chunks, n_levels)

    def __post_init__(self):
        self.sizes_bytes = np.asarray(self.sizes_bytes, dtype=np.float64)
        if self.sizes_bytes.ndim != 2 or self.sizes_bytes.shape[1] != len(self.bitrates_kbps):
            raise ConfigError("sizes must be (chunks, levels)")
        if not np.all(np.diff(self.sizes_bytes, axis=1) > 0):
            raise ConfigError("chunk sizes must strictly increase with level")

    @property
    def n_chunks(self):
        return self.sizes_bytes.shape[0]

    @property
    def n_levels(self):
        return len(self.bitrates_kbps)

    @classmethod
    def synth(cls, seed=0):
        """N_CHUNKS chunks of BITRATES_KBPS x CHUNK_S, +-10% per-chunk jitter."""
        rng = np.random.default_rng(seed)
        base = np.asarray(BITRATES_KBPS, dtype=np.float64) * 1000.0 / 8.0 * CHUNK_S
        noise = 1.0 + rng.uniform(-0.1, 0.1, size=(N_CHUNKS, len(BITRATES_KBPS)))
        return cls(CHUNK_S, BITRATES_KBPS, base[None, :] * noise)

    @classmethod
    def from_csv(cls, path, bitrates_kbps=BITRATES_KBPS, chunk_s=CHUNK_S):
        sizes = np.genfromtxt(path, delimiter=",", skip_header=1)[:, 1:]
        return cls(chunk_s, tuple(bitrates_kbps), sizes)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["chunk"] + [f"level{i}_bytes" for i in range(self.n_levels)])
            for c in range(self.n_chunks):
                w.writerow([c] + [f"{v:.1f}" for v in self.sizes_bytes[c]])


# --------------------------------------------------------------------------
# bandwidth generation


@dataclass
class UserGroupParams:
    """Markov chain + OU overlay parameters for one user population."""

    name: str
    states_kbps: tuple
    kernel: tuple          # rows sum to 1
    ou_sigma: float
    ou_theta: float
    dwell_s: float = 4.0
    floor_kbps: float = 50.0

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.shape != (len(self.states_kbps), len(self.states_kbps)):
            raise ConfigError("kernel must be square over the state space")
        if np.any(k < 0) or np.any(np.abs(k.sum(axis=1) - 1.0) > 1e-9):
            raise ConfigError("kernel rows must be distributions")
        if not 0 < self.ou_theta <= 1:
            raise ConfigError("ou_theta must be in (0, 1]")


def _sticky(n, stay):
    off = (1.0 - stay) / (n - 1)
    return tuple(tuple(stay if i == j else off for j in range(n)) for i in range(n))


USER_GROUPS = {
    # low bandwidth, medium cross-user diversity, high per-trace variance
    "UG1": UserGroupParams("UG1", (700, 1100, 1500), _sticky(3, 0.85), 170.0, 0.2,
                           floor_kbps=300.0),
    # high bandwidth, high diversity, low per-trace variance
    "UG2": UserGroupParams("UG2", (2500, 4000, 6000), _sticky(3, 0.995), 60.0, 0.3),
    # medium bandwidth, low diversity, medium variance
    "UG3": UserGroupParams("UG3", (1700, 2000, 2300), _sticky(3, 0.4), 130.0, 0.25),
    # medium-low bandwidth, low diversity, medium variance
    "UG4": UserGroupParams("UG4", (1050, 1300, 1550), _sticky(3, 0.4), 120.0, 0.25),
    # medium bandwidth, very high diversity, high variance
    "UG5": UserGroupParams("UG5", (400, 1500, 3200, 5600), _sticky(4, 0.99), 260.0, 0.2),
}


class BandwidthGen:
    """Per-second throughput traces from a user-group preset."""

    def __init__(self, params, rng):
        self.params = params
        self.rng = rng
        self.kernel = np.asarray(params.kernel, dtype=np.float64)
        self.cum = np.cumsum(self.kernel, axis=1)

    def generate(self, duration_s):
        p = self.params
        n_states = len(p.states_kbps)
        state = int(self.rng.integers(n_states))  # uniform initial distribution
        out = np.empty(int(duration_s))
        y = 0.0
        dwell = max(1, int(p.dwell_s))
        for t in range(len(out)):
            if t and t % dwell == 0:
                state = int(np.searchsorted(self.cum[state], self.rng.random()))
            level = p.states_kbps[state]
            y += p.ou_theta * (0.0 - y)
            if p.ou_sigma > 0:
                y += p.ou_sigma * self.rng.standard_normal()
            out[t] = max(p.floor_kbps, level + y)
        return out


def load_bandwidth_csv(path):
    rows = np.genfromtxt(path, delimiter=",", names=True)
    rows = np.atleast_1d(rows)
    return np.asarray(rows["throughput_kbps"], dtype=np.float64)


def write_bandwidth_csv(path, trace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "throughput_kbps"])
        for t, bw in enumerate(trace):
            w.writerow([t, f"{bw:.3f}"])


# --------------------------------------------------------------------------
# one video session


class AbrSession:
    """Buffer dynamics for a single video over a fixed bandwidth trace."""

    def __init__(self, spec, trace_kbps, mu=DEFAULT_MU):
        self.spec = spec
        self.trace = np.asarray(trace_kbps, dtype=np.float64)
        if self.trace.size == 0 or np.any(self.trace <= 0):
            raise ConfigError("bandwidth trace must be positive")
        if mu < 0:
            raise ConfigError("mu must be non-negative")
        self.mu = mu
        self.chunk = 0
        self.buffer_s = 0.0
        self.prev_level = 0
        self.clock_s = 0.0
        self.rows = []

    @property
    def done(self):
        return self.chunk >= self.spec.n_chunks

    def _download(self, size_bytes):
        """Consume trace seconds until `size_bytes` have transferred."""
        need_kbit = size_bytes * 8.0 / 1000.0
        t = self.clock_s
        n = len(self.trace)
        while need_kbit > 1e-12:
            idx = int(t) % n
            frac = 1.0 - (t - math.floor(t))
            can = self.trace[idx] * frac
            if can >= need_kbit:
                t += need_kbit / self.trace[idx]
                need_kbit = 0.0
            else:
                need_kbit -= can
                t = math.floor(t) + 1.0
        d = t - self.clock_s
        self.clock_s = t
        return d

    def step(self, level):
        """Download the next chunk at `level`; returns the chunk record."""
        if self.done:
            raise ConfigError("session already finished")
        if not 0 <= level < self.spec.n_levels:
            raise ConfigError(f"level {level} out of range")
        size = float(self.spec.sizes_bytes[self.chunk][level])
        d = self._download(size)
        rebuffer, self.buffer_s, idle = buffer_step(self.buffer_s, d, self.spec.chunk_s)
        self.clock_s += idle
        q = self.spec.bitrates_kbps[level] * QUALITY_PER_KBPS
        q_prev = self.spec.bitrates_kbps[self.prev_level] * QUALITY_PER_KBPS
        info = {
            "chunk": self.chunk,
            "level": level,
            "download_s": d,
            "throughput_kbps": size * 8.0 / 1000.0 / d,
            "rebuffer_s": rebuffer,
            "buffer_s": self.buffer_s,
            "qoe": qoe(q, q_prev, rebuffer, self.mu),
            "quality": q,
            "quality_prev": q_prev,
            "smoothness_penalty": abs(q - q_prev),
        }
        self.rows.append(info)
        self.prev_level = level
        self.chunk += 1
        return info

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["chunk", "level", "download_s", "rebuffer_s", "buffer_s", "qoe"])
            for r in self.rows:
                w.writerow([r["chunk"], r["level"], f"{r['download_s']:.6f}",
                            f"{r['rebuffer_s']:.6f}", f"{r['buffer_s']:.6f}",
                            f"{r['qoe']:.6f}"])


# --------------------------------------------------------------------------
# fake-replay safeguard


class FakeReplayGuard:
    """Buffer-threshold safeguard with fictitious low-buffer observations.

    The threshold starts at min(cap, p99 of buffers seen in the first
    `calibration_epochs` epochs) and anneals linearly to 0 over
    `anneal_epochs`. While the real buffer is below the threshold a default
    policy (BBA) acts on the real state; when the agent regains control it
    is shown a fictitious buffer drawn uniformly from [0, real buffer],
    which then follows the real download times until control returns to the
    default policy. A threshold of 0 disables the guard entirely.
    """

    def __init__(self, cap=20.0, calibration_epochs=5, anneal_epochs=2000):
        self.cap = cap
        self.calibration_epochs = calibration_epochs
        self.anneal_epochs = anneal_epochs
        self.epoch = 0
        self.start_value = None
        self._calib_buffers = []
        self.controller = "guard"
        self.fict_buffer = None

    def set_epoch(self, epoch):
        self.epoch = epoch
        if self.start_value is None and epoch >= self.calibration_epochs:
            self.start_value = (
                min(self.cap, nearest_rank(self._calib_buffers, 99))
                if self._calib_buffers else self.cap
            )

    def threshold(self):
        if self.start_value is None:
            return self.cap
        if self.anneal_epochs <= 0:
            return 0.0
        frac = (self.epoch - self.calibration_epochs) / self.anneal_epochs
        return self.start_value * max(0.0, 1.0 - frac)

    def gate(self, real_buffer, rng):
        """Who controls this chunk, and the buffer the agent should observe."""
        if self.start_value is None:
            self._calib_buffers.append(float(real_buffer))
        thr = self.threshold()
        if thr <= 0.0:
            self.controller = "agent"
            self.fict_buffer = None
            return "agent", float(real_buffer)
        if real_buffer >= thr:
            if self.controller != "agent":
                self.controller = "agent"
                self.fict_buffer = float(rng.uniform(0.0, real_buffer))
            return "agent", float(self.fict_buffer)
        self.controller = "guard"
        self.fict_buffer = None
        return "guard", float(real_buffer)

    def note_download(self, download_s, chunk_s):
        """Advance the fictitious buffer by a real download of a `chunk_s`
        chunk; returns the fictitious rebuffer time (0 when no fiction is
        active)."""
        if self.fict_buffer is None:
            return 0.0
        fict_rebuffer, self.fict_buffer, _ = buffer_step(self.fict_buffer, download_s,
                                                         chunk_s)
        return fict_rebuffer


def guard_step(guard, real_buffer, agent_action, default_action, rng):
    """(executed action, observed buffer) under the fake-replay safeguard."""
    controller, observed = guard.gate(real_buffer, rng)
    executed = agent_action if controller == "agent" else default_action
    return executed, observed, controller


# --------------------------------------------------------------------------
# streaming environment: sessions back-to-back


@dataclass
class AbrStepResult:
    obs: np.ndarray
    reward: float
    done: bool          # session boundary
    stats: dict


class AbrEnv:
    """Back-to-back video sessions with fresh bandwidth draws per session.

    Each step downloads one chunk. Observations: download time and measured
    throughput of the last K chunks, the (possibly fictitious) buffer,
    chunks left, the previous level, and the next chunk's sizes, all scaled
    to O(1). The guard, when present, decides per chunk whether the agent's
    action or BBA's executes.
    """

    def __init__(self, group, spec=None, seed=0, guard=None):
        self.group = group
        self.spec = spec if spec is not None else VideoSpec.synth(seed=0)
        self.rng = np.random.default_rng(seed)
        self.guard = guard
        self._tput_window = []  # cross-session throughput history for detection
        self.session = None
        self._new_session()

    def set_group(self, group):
        self.group = group

    def _new_session(self):
        trace = BandwidthGen(self.group, self.rng).generate(SESSION_TRACE_S)
        self.session = AbrSession(self.spec, trace)
        self._downloads = [0.0] * HISTORY_K
        self._tputs = [0.0] * HISTORY_K

    @property
    def obs_dim(self):
        return 2 * HISTORY_K + 3 + self.spec.n_levels

    def observe(self, observed_buffer=None):
        buf = self.session.buffer_s if observed_buffer is None else observed_buffer
        spec = self.spec
        next_sizes = spec.sizes_bytes[min(self.session.chunk, spec.n_chunks - 1)]
        size_scale = spec.bitrates_kbps[-1] * 1000.0 / 8.0 * spec.chunk_s
        return np.concatenate([
            np.asarray(self._downloads) / 10.0,
            np.asarray(self._tputs) / 5000.0,
            [buf / MAX_BUFFER_S,
             (spec.n_chunks - self.session.chunk) / spec.n_chunks,
             self.session.prev_level / (spec.n_levels - 1)],
            next_sizes / size_scale,
        ])

    def real_buffer(self):
        return self.session.buffer_s

    def default_action(self):
        return bba_action(self.session.buffer_s, self.spec.bitrates_kbps)

    def step(self, level):
        """Execute `level` for the next chunk (gating already decided)."""
        info = self.session.step(level)
        self._downloads.pop(0)
        self._downloads.append(info["download_s"])
        self._tputs.pop(0)
        self._tputs.append(info["throughput_kbps"])
        self._tput_window.append(info["throughput_kbps"])
        if len(self._tput_window) > 25:
            self._tput_window.pop(0)

        fict_rebuffer = (self.guard.note_download(info["download_s"], self.spec.chunk_s)
                         if self.guard else 0.0)
        fiction = self.guard is not None and self.guard.fict_buffer is not None
        if fiction:
            reward = qoe(info["quality"], info["quality_prev"], fict_rebuffer,
                         self.session.mu)
            observed_buffer = self.guard.fict_buffer
        else:
            reward = info["qoe"]
            observed_buffer = info["buffer_s"]

        done = self.session.done
        stats = dict(info)
        stats["fict_rebuffer_s"] = fict_rebuffer
        stats["fiction"] = fiction
        if done:
            self._new_session()
        return AbrStepResult(self.observe(observed_buffer if not done else None),
                             reward, done, stats)

    def workload_features(self):
        """Mean/std of measured throughput over short and long windows."""
        w = self._tput_window
        if not w:
            return np.zeros(4)
        short = np.asarray(w[-5:])
        long_ = np.asarray(w)
        return np.array([short.mean(), short.std(), long_.mean(), long_.std()])
