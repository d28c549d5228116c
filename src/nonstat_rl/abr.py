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
average-bandwidth / per-user-variance / cross-user-diversity profiles. Each
session's trace is one stream, drawn `BLOCK_S` seconds at a time as the
download walk reaches its end, so a session draws about what it reads.

The training safeguard (`FakeReplayGuard`) hands control to a buffer-based
default policy (linear BBA) whenever the real buffer is below an annealed
threshold, and when the agent regains control it observes a fictitious
buffer drawn uniformly from [0, real buffer] so that risky low-buffer states
are still represented in its experience.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .stats import linear_decay, nearest_rank

BITRATES_KBPS = (300, 750, 1200, 1850, 2850, 4300)
CHUNK_S = 4.0
N_CHUNKS = 49
MAX_BUFFER_S = 25.0
DEFAULT_MU = 4.3
QUALITY_PER_KBPS = 0.01  # q in units of kbps/100
HISTORY_K = 9
BLOCK_S = 64  # trace seconds a session draws each time its walk reaches the end
# normalization of `AbrEnv.workload_features` when appended to observations
FEATURE_SCALES = (2000.0, 600.0, 2000.0, 600.0)
# `bba_action`'s ramp: lowest level up to the reservoir, highest from reservoir + cushion
BBA_RESERVOIR_S = 5.0
BBA_CUSHION_S = 10.0


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


def bba_action(buffer_s, bitrates=BITRATES_KBPS):
    """Linear buffer-based bitrate choice.

    At or below the reservoir pick the lowest level; at or above
    reservoir+cushion pick the highest; in between pick the largest bitrate
    not exceeding the linear interpolation between the two extremes.
    """
    if buffer_s <= BBA_RESERVOIR_S:
        return 0
    if buffer_s >= BBA_RESERVOIR_S + BBA_CUSHION_S:
        return len(bitrates) - 1
    target = bitrates[0] + ((buffer_s - BBA_RESERVOIR_S) / BBA_CUSHION_S
                            * (bitrates[-1] - bitrates[0]))
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
        if not self.ou_sigma >= 0:
            raise ConfigError("ou_sigma must be non-negative")
        if not self.dwell_s >= 1 or self.dwell_s % 1 != 0:
            raise ConfigError("dwell_s must be a whole number of seconds, at least 1")
        if not self.floor_kbps > 0:
            raise ConfigError("floor_kbps must be positive")


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
    """One per-second throughput trace from a user-group preset, as a stream.

    The stream is a uniform initial state, then per dwell one `random()`
    for the next state (at every boundary after the first) and one
    standard normal per second for the OU overlay. `generate(seconds)`
    returns the next `seconds` of it: the first call draws the initial
    state, and later calls carry on from the state, OU value and place in
    the dwell where the last one stopped. So calls of any lengths give,
    concatenated, the values and leave the generator where one call of the
    total length would. A dwell's normals are drawn as one block, up to the
    end of the call, which draws the same stream as one at a time. Build
    one generator per trace; generators may share `rng`.
    """

    def __init__(self, params, rng):
        self.params = params
        self.rng = rng
        self.cum = np.cumsum(np.asarray(params.kernel, dtype=np.float64), axis=1).tolist()
        self.state = None  # drawn by the first call
        self.y = 0.0       # the OU overlay
        self.left = 0      # seconds left in the current dwell

    def generate(self, duration_s):
        p = self.params
        n, dwell = int(duration_s), int(p.dwell_s)
        theta, sigma = p.ou_theta, p.ou_sigma
        state, y, left = self.state, self.y, self.left
        if state is None:  # uniform initial distribution
            state, left = int(self.rng.integers(len(p.states_kbps))), dwell
        out = []
        while len(out) < n:
            if not left:  # bisect_left is np.searchsorted's default side
                state, left = bisect_left(self.cum[state], self.rng.random()), dwell
            level = p.states_kbps[state]
            m = min(left, n - len(out))
            left -= m
            # with sigma 0, y stays exactly 0.0 and nothing is drawn
            for z in self.rng.standard_normal(m).tolist() if sigma > 0 else [0.0] * m:
                y += theta * (0.0 - y)
                y += sigma * z
                out.append(level + y)
        self.state, self.y, self.left = state, y, left
        return np.maximum(p.floor_kbps, np.asarray(out, dtype=np.float64))


# --------------------------------------------------------------------------
# one video session


class AbrSession:
    """Buffer dynamics for a single video over a per-second bandwidth trace.

    `trace` is a `BandwidthGen`, whose stream the session draws `BLOCK_S`
    seconds at a time as its download walk reaches the end of what it has
    drawn, or a fixed array of kbps, which grows by repeating itself.
    """

    def __init__(self, spec, trace, mu=DEFAULT_MU):
        self.spec = spec
        if isinstance(trace, BandwidthGen):
            self._block = lambda: trace.generate(BLOCK_S).tolist()
        else:
            fixed = np.asarray(trace, dtype=np.float64)
            if fixed.size == 0 or np.any(fixed <= 0):
                raise ConfigError("bandwidth trace must be positive")
            fixed = fixed.tolist()
            self._block = lambda: fixed
        self._kbps = []  # Python floats for `_download`'s walk, grown by `_block`
        if mu < 0:
            raise ConfigError("mu must be non-negative")
        self.mu = mu
        self.chunk = 0
        self.buffer_s = 0.0
        self.prev_level = 0
        self.clock_s = 0.0

    @property
    def done(self):
        return self.chunk >= self.spec.n_chunks

    def _download(self, size_bytes):
        """Consume trace seconds until `size_bytes` have transferred, growing
        the trace by a block whenever the walk reaches its end."""
        need_kbit = size_bytes * 8.0 / 1000.0
        t = self.clock_s
        trace = self._kbps
        n = len(trace)
        while need_kbit > 1e-12:
            idx = int(t)
            while idx >= n:
                trace.extend(self._block())
                n = len(trace)
            frac = 1.0 - (t - math.floor(t))
            can = trace[idx] * frac
            if can >= need_kbit:
                t += need_kbit / trace[idx]
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
        self.prev_level = level
        self.chunk += 1
        return info


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
        return linear_decay(self.start_value, self.epoch - self.calibration_epochs,
                            self.anneal_epochs)

    def gate(self, real_buffer, rng):
        """Who controls this chunk. Afterwards `fict_buffer` is the buffer
        the agent is shown (None: the real one)."""
        if self.start_value is None:
            self._calib_buffers.append(float(real_buffer))
        thr = self.threshold()
        if thr <= 0.0:
            self.controller, self.fict_buffer = "agent", None
        elif real_buffer >= thr:
            if self.controller != "agent":
                self.controller = "agent"
                self.fict_buffer = float(rng.uniform(0.0, real_buffer))
        else:
            self.controller, self.fict_buffer = "guard", None
        return self.controller

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
    """(executed action, controller) under the fake-replay safeguard."""
    controller = guard.gate(real_buffer, rng)
    return (agent_action if controller == "agent" else default_action), controller


# --------------------------------------------------------------------------
# streaming environment: sessions back-to-back


class AbrEnv:
    """Back-to-back video sessions, each over its own bandwidth stream.

    Every session's `BandwidthGen` draws from the one `rng`, and only as far
    as the session reads, so the next session's trace starts where this
    one stopped. Each step downloads one chunk at the level it is given.
    Observations:
    download time and measured throughput of the last K chunks, the buffer
    (the real one unless the caller passes another), chunks left, the
    previous level, and the next chunk's sizes, all scaled to O(1).
    """

    def __init__(self, group, spec=None, seed=0):
        self.group = group
        self.spec = spec = spec if spec is not None else VideoSpec.synth(seed=0)
        self.rng = np.random.default_rng(seed)
        self._tput_window = []  # cross-session throughput history for detection
        size_scale = spec.bitrates_kbps[-1] * 1000.0 / 8.0 * spec.chunk_s
        self._scaled_sizes = spec.sizes_bytes / size_scale
        self._row = np.zeros(self.obs_dim)
        self.session = None
        self._new_session()

    def set_group(self, group):
        self.group = group

    def _new_session(self):
        self.session = AbrSession(self.spec, BandwidthGen(self.group, self.rng))
        self._row[:2 * HISTORY_K] = 0.0

    @property
    def obs_dim(self):
        return 2 * HISTORY_K + 3 + self.spec.n_levels

    def observe(self, observed_buffer=None):
        session, spec, obs = self.session, self.spec, self._row.copy()
        k = 2 * HISTORY_K
        buf = session.buffer_s if observed_buffer is None else observed_buffer
        obs[k] = buf / MAX_BUFFER_S
        obs[k + 1] = (spec.n_chunks - session.chunk) / spec.n_chunks
        obs[k + 2] = session.prev_level / (spec.n_levels - 1)
        obs[k + 3:] = self._scaled_sizes[min(session.chunk, spec.n_chunks - 1)]
        return obs

    def default_action(self):
        return bba_action(self.session.buffer_s, self.spec.bitrates_kbps)

    def step(self, level):
        """Download the next chunk at `level`; returns (the session's chunk
        record, whether the session ended). A new session starts at the end."""
        info = self.session.step(level)
        row, k = self._row, HISTORY_K
        # the history blocks of the observation row, shifted in place by one
        # move: the oldest throughput lands in the newest download slot,
        # which is overwritten next
        row[:2 * k - 1] = row[1:2 * k]
        row[k - 1] = info["download_s"] / 10.0
        row[2 * k - 1] = info["throughput_kbps"] / 5000.0
        self._tput_window.append(info["throughput_kbps"])
        if len(self._tput_window) > 25:
            self._tput_window.pop(0)
        done = self.session.done
        if done:
            self._new_session()
        return info, done

    def workload_features(self):
        """Mean/std of measured throughput over short and long windows."""
        w = self._tput_window
        if not w:
            return np.zeros(4)
        short = np.asarray(w[-5:])
        long_ = np.asarray(w)
        return np.array([short.mean(), short.std(), long_.mean(), long_.std()])
