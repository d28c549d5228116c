"""Discrete-event simulator of a request proxy with hedging.

`n` servers drain FIFO queues of job copies. The proxy dispatches each
arriving job to the server with the shortest queue (ties to the lowest
index). A job's service time equals its nominal size, inflated by a factor
`k` with probability `p` independently per copy. If a job is still
incomplete `timeout` ms after arrival it is hedged once: a duplicate copy
goes to the shortest queue among the *other* servers. The job completes
when either copy finishes; a still-queued sibling is removed, an in-service
sibling runs to completion.

The agent acts once per 500 ms window, choosing the hedging timeout applied
to every job arriving in that window. The reward is the negated nearest-rank
95th-percentile latency of the jobs completed in the window (carrying the
previous value through empty windows). An optional safeguard latch disables
hedging from the moment any queue reaches the unsafe threshold until every
queue has drained to the safe threshold.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .errors import ConfigError
from .stats import nearest_rank

TIMEOUTS_MS = (3.0, 10.0, 30.0, 60.0, 100.0, 300.0, math.inf)
NO_HEDGE_ACTION = len(TIMEOUTS_MS) - 1
WINDOW_MS = 500.0

# fixed normalization constants for observations and workload features
QUEUE_SCALE = 50.0
PROC_SCALE = 1000.0
RATE_SCALE = 100.0
FEATURE_SCALES = (RATE_SCALE, PROC_SCALE)


def default_policy_action(state=None):
    """The safeguard's default policy: never hedge."""
    return NO_HEDGE_ACTION


# --------------------------------------------------------------------------
# workloads


@dataclass
class StationaryWorkload:
    """Poisson arrivals at a fixed rate; lognormal nominal sizes."""

    rate: float            # jobs/s
    mean_size: float       # ms
    sigma: float = 0.5     # lognormal shape (log-space std)
    name: str = ""

    def rate_at(self, t_ms):
        return self.rate

    def mean_size_at(self, t_ms):
        return self.mean_size


@dataclass
class SmoothDriftWorkload:
    """Arrival rate sweeps sinusoidally between two levels (slow drift)."""

    rate_low: float
    rate_high: float
    period_ms: float
    mean_size: float
    sigma: float = 0.5
    name: str = "drift"

    def rate_at(self, t_ms):
        mid = 0.5 * (self.rate_low + self.rate_high)
        amp = 0.5 * (self.rate_high - self.rate_low)
        return mid + amp * math.sin(2.0 * math.pi * t_ms / self.period_ms)

    def mean_size_at(self, t_ms):
        return self.mean_size


@dataclass
class FastSwitchWorkload:
    """Arrival rate alternates between an idle and a rushed level."""

    rate_low: float
    rate_high: float
    dwell_ms: float
    mean_size: float
    sigma: float = 0.5
    name: str = "fastswitch"

    def rate_at(self, t_ms):
        return self.rate_high if int(t_ms // self.dwell_ms) % 2 else self.rate_low

    def mean_size_at(self, t_ms):
        return self.mean_size

    def level_at(self, t_ms):
        """Ground-truth regime label: 0 idle, 1 rushed."""
        return int(t_ms // self.dwell_ms) % 2


@dataclass
class TraceWorkload:
    """Replays per-window (arrival rate, mean size) rows from a trace file."""

    t_ms: np.ndarray
    rates: np.ndarray
    sizes: np.ndarray
    sigma: float = 0.5
    name: str = "trace"

    def _row(self, t):
        i = int(np.searchsorted(self.t_ms, t, side="right")) - 1
        return min(max(i, 0), len(self.rates) - 1)

    def rate_at(self, t_ms):
        return float(self.rates[self._row(t_ms)])

    def mean_size_at(self, t_ms):
        return float(self.sizes[self._row(t_ms)])

    @classmethod
    def from_csv(cls, path, sigma=0.5):
        rows = np.genfromtxt(path, delimiter=",", names=True)
        rows = np.atleast_1d(rows)
        return cls(
            t_ms=np.asarray(rows["t_ms"], dtype=np.float64),
            rates=np.asarray(rows["arrivals_per_s"], dtype=np.float64),
            sizes=np.asarray(rows["mean_size_ms"], dtype=np.float64),
            sigma=sigma,
        )


def write_trace_csv(path, workload, n_windows, window_ms=WINDOW_MS):
    """Materialize any workload into the trace CSV schema."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_ms", "arrivals_per_s", "mean_size_ms"])
        for i in range(n_windows):
            t = i * window_ms
            w.writerow([f"{t:.1f}", f"{workload.rate_at(t):.6f}",
                        f"{workload.mean_size_at(t):.6f}"])


# Synthetic stand-ins for production traces. Rates/sizes are picked so every
# workload is stable without hedging (including the expected 1.9x slowdown
# inflation) but wants a different timeout: roughly 100 ms for A, 300 ms for
# B, 30 ms for C, with every wrong-policy pairing costing >= ~1.5x in tail
# latency. "high_rate" is stable without hedging but diverges under a
# constant 3 ms timeout, which is what the safeguard experiments need.
WORKLOAD_PRESETS = {
    "A": StationaryWorkload(rate=25.0, mean_size=80.0, name="A"),
    "B": StationaryWorkload(rate=15.0, mean_size=180.0, name="B"),
    "C": StationaryWorkload(rate=80.0, mean_size=25.0, name="C"),
    "high_rate": StationaryWorkload(rate=105.0, mean_size=45.0, name="high_rate"),
    "drift": SmoothDriftWorkload(rate_low=20.0, rate_high=90.0,
                                 period_ms=3_000_000.0, mean_size=45.0),
    "fastswitch": FastSwitchWorkload(rate_low=20.0, rate_high=90.0,
                                     dwell_ms=60_000.0, mean_size=45.0),
}


# --------------------------------------------------------------------------
# discrete-event core


class _Job:
    __slots__ = ("jid", "t_arrive", "size", "done", "hedged", "copies")

    def __init__(self, jid, t_arrive, size):
        self.jid = jid
        self.t_arrive = t_arrive
        self.size = size
        self.done = False
        self.hedged = False
        self.copies = []


class _Copy:
    __slots__ = ("job", "service", "server", "state")  # 0 queued, 1 serving, 2 done

    def __init__(self, job, service, server):
        self.job = job
        self.service = service
        self.server = server
        self.state = 0


@dataclass
class StepResult:
    obs: np.ndarray
    reward: float
    stats: dict


class StragglerSim:
    """Event-driven proxy simulation advanced one action window at a time."""

    def __init__(self, workload, n_servers=10, seed=0, slowdown_factor=10.0,
                 slowdown_prob=0.1, timeouts=TIMEOUTS_MS, window_ms=WINDOW_MS,
                 m_windows=4, safeguard_enabled=False, unsafe_queue=50,
                 safe_queue=3, keep_event_log=False):
        if n_servers < 2:
            raise ConfigError("need at least two servers to hedge")
        self.workload = workload
        self.n = n_servers
        self.k = slowdown_factor
        self.p = slowdown_prob
        self.timeouts = tuple(timeouts)
        self.window_ms = window_ms
        self.m_windows = m_windows
        self.safeguard_enabled = safeguard_enabled
        self.unsafe_queue = unsafe_queue
        self.safe_queue = safe_queue
        self.keep_event_log = keep_event_log
        self.rng = random.Random(seed)
        self.reset()

    # -- lifecycle ----------------------------------------------------------
    def reset(self):
        self.now = 0.0
        self.heap = []
        self._seq = 0
        self._jid = 0
        n = self.n
        self.queues = [[] for _ in range(n)]  # waiting copies, FIFO
        self.serving = [None] * n
        self.qlen = [0] * n
        self.q_acc = [0.0] * n
        self.busy_acc = [0.0] * n
        self.last_upd = [0.0] * n
        self.latch = False
        self.arrived_total = 0
        self.completed_total = 0
        self.hedges_total = 0
        self.event_log = []
        self.window_history = []  # (avg_proc, max_proc, rate) per past window
        self.load_last = 0.0
        self.prev_reward = 0.0
        self.last_window_max_queue = 0
        self._arrivals_on = True
        self._window_timeout = math.inf
        self._schedule_arrival()
        return self.observe()

    def set_workload(self, workload):
        self.workload = workload

    def stop_arrivals(self):
        self._arrivals_on = False

    # -- internals ----------------------------------------------------------
    def _log(self, t, event, jid, server, detail=""):
        # callers check keep_event_log first, so the detail string is only
        # formatted when it is kept
        self.event_log.append((t, event, jid, server, detail))

    def _schedule_arrival(self):
        rate = self.workload.rate_at(self.now)
        if rate <= 0:
            raise ConfigError("arrival rate must be positive")
        dt = self.rng.expovariate(rate / 1000.0)  # rate per ms
        self._seq += 1
        heappush(self.heap, (self.now + dt, self._seq, 0, None))

    def _draw_size(self, t):
        mean = self.workload.mean_size_at(t)
        sigma = self.workload.sigma
        mu = math.log(mean) - 0.5 * sigma * sigma
        return self.rng.lognormvariate(mu, sigma)

    def draw_service_time(self, nominal):
        """nominal * k with probability p, else nominal (independent per copy)."""
        if nominal <= 0:
            raise ConfigError("nominal size must be positive")
        return nominal * self.k if self.rng.random() < self.p else nominal

    def _touch(self, s, t):
        dt = t - self.last_upd[s]
        if dt > 0.0:
            self.q_acc[s] += self.qlen[s] * dt
            if self.serving[s] is not None:
                self.busy_acc[s] += dt
            self.last_upd[s] = t

    def dispatch(self, exclude=-1):
        """Index of the shortest queue (ties to lowest index)."""
        best, best_q = -1, None
        for s in range(self.n):
            if s == exclude:
                continue
            q = self.qlen[s]
            if best_q is None or q < best_q:
                best, best_q = s, q
        return best

    def _enqueue(self, copy, t):
        s = copy.server
        self._touch(s, t)
        self.qlen[s] += 1
        if self.serving[s] is None:
            self.serving[s] = copy
            copy.state = 1
            self._seq += 1
            heappush(self.heap, (t + copy.service, self._seq, 1, copy))
        else:
            self.queues[s].append(copy)
        q = self.qlen[s]
        if q > self._win_max_queue:
            self._win_max_queue = q
        if self.safeguard_enabled and not self.latch and q >= self.unsafe_queue:
            self.latch = True
            if self.keep_event_log:
                self._log(t, "latch_on", -1, s, str(q))

    def inject_job(self, t_ms, size_ms):
        """Deterministic arrival for oracle event traces (testing hook)."""
        if t_ms < self.now:
            raise ConfigError("cannot inject a job in the past")
        self._seq += 1
        heappush(self.heap, (t_ms, self._seq, 0, float(size_ms)))

    def _arrive(self, t, size=None):
        if size is None and self._arrivals_on:
            self.now = t
            self._schedule_arrival()
        self._jid += 1
        job = _Job(self._jid, t, size if size is not None else self._draw_size(t))
        self.arrived_total += 1
        self._win_arrivals += 1
        s = self.dispatch()
        copy = _Copy(job, self.draw_service_time(job.size), s)
        job.copies.append(copy)
        self._enqueue(copy, t)
        if self.keep_event_log:
            self._log(t, "arrive", job.jid, s, f"{job.size:.3f}")
        timeout = self._window_timeout
        if timeout != math.inf:
            self._seq += 1
            heappush(self.heap, (t + timeout, self._seq, 2, job))

    def _finish(self, t, copy):
        s = copy.server
        self._touch(s, t)
        self.qlen[s] -= 1
        copy.state = 2
        self.serving[s] = None
        if self.queues[s]:
            nxt = self.queues[s].pop(0)
            nxt.state = 1
            self.serving[s] = nxt
            self._seq += 1
            heappush(self.heap, (t + nxt.service, self._seq, 1, nxt))
        job = copy.job
        if not job.done:
            job.done = True
            self.completed_total += 1
            latency = t - job.t_arrive
            self._win_latencies.append(latency)
            self._win_proc.append(copy.service)
            if self.keep_event_log:
                self._log(t, "complete", job.jid, s, f"{latency:.3f}")
            for sib in job.copies:
                if sib is not copy and sib.state == 0:
                    s2 = sib.server
                    self._touch(s2, t)
                    self.queues[s2].remove(sib)
                    self.qlen[s2] -= 1
                    sib.state = 2
                    if self.keep_event_log:
                        self._log(t, "cancel", job.jid, s2)
        elif self.keep_event_log:
            self._log(t, "sibling_done", job.jid, s)
        if self.latch and max(self.qlen) <= self.safe_queue:
            self.latch = False
            if self.keep_event_log:
                self._log(t, "latch_off", -1, -1)

    def _hedge(self, t, job):
        if job.done or job.hedged or self.latch:
            return
        job.hedged = True
        origin = job.copies[0].server
        s = self.dispatch(exclude=origin)
        copy = _Copy(job, self.draw_service_time(job.size), s)
        job.copies.append(copy)
        self.hedges_total += 1
        self._win_hedges += 1
        if self.keep_event_log:
            self._log(t, "hedge", job.jid, s)
        self._enqueue(copy, t)

    # -- stepping -----------------------------------------------------------
    def step(self, action):
        """Advance one window with the given hedge-timeout action index."""
        if not 0 <= action < len(self.timeouts):
            raise ConfigError(f"action {action} out of range")
        self._window_timeout = self.timeouts[action]
        window_end = self.now + self.window_ms
        self._win_latencies = []
        self._win_proc = []
        self._win_arrivals = 0
        self._win_hedges = 0
        self._win_max_queue = max(self.qlen)

        heap = self.heap
        while heap and heap[0][0] <= window_end:
            t, _, kind, payload = heappop(heap)
            self.now = t
            if kind == 0:
                self._arrive(t, payload)
            elif kind == 1:
                self._finish(t, payload)
            else:
                self._hedge(t, payload)

        self.now = window_end
        for s in range(self.n):
            self._touch(s, window_end)
        avg_q = [self.q_acc[s] / self.window_ms for s in range(self.n)]
        self.load_last = sum(self.busy_acc) / (self.n * self.window_ms)
        self.q_acc = [0.0] * self.n
        self.busy_acc = [0.0] * self.n

        lat = self._win_latencies
        p95 = nearest_rank(lat, 95) if lat else None
        reward = -p95 if p95 is not None else self.prev_reward
        self.prev_reward = reward

        avg_proc = sum(self._win_proc) / len(self._win_proc) if self._win_proc else 0.0
        max_proc = max(self._win_proc) if self._win_proc else 0.0
        rate = self._win_arrivals / (self.window_ms / 1000.0)
        self.window_history.append((avg_proc, max_proc, rate))
        if len(self.window_history) > self.m_windows:
            self.window_history.pop(0)
        self.last_window_max_queue = self._win_max_queue

        stats = {
            "t_ms": self.now,
            "arrivals": self._win_arrivals,
            "latencies": lat,
            "p95": p95,
            "max_queue": self._win_max_queue,
            "hedges": self._win_hedges,
            "guard_active": self.latch,
            "load": self.load_last,
        }
        return StepResult(self.observe(avg_q), reward, stats)

    def observe(self, avg_q=None):
        """Observation: [inst queues, window-avg queues, m x (avg/max proc,
        rate), load, guard flag], all normalized by fixed constants."""
        n = self.n
        obs = np.empty(2 * n + 3 * self.m_windows + 2)
        obs[:n] = np.asarray(self.qlen) / QUEUE_SCALE
        obs[n:2 * n] = (np.asarray(avg_q) / QUEUE_SCALE) if avg_q is not None else 0.0
        hist = [(0.0, 0.0, 0.0)] * (self.m_windows - len(self.window_history))
        hist += self.window_history
        base = 2 * n
        for i, (ap, mp, rt) in enumerate(hist):
            obs[base + 3 * i] = ap / PROC_SCALE
            obs[base + 3 * i + 1] = mp / PROC_SCALE
            obs[base + 3 * i + 2] = rt / RATE_SCALE
        obs[base + 3 * self.m_windows] = self.load_last
        obs[base + 3 * self.m_windows + 1] = 1.0 if self.latch else 0.0
        return obs

    @property
    def obs_dim(self):
        return 2 * self.n + 3 * self.m_windows + 2

    def workload_features(self):
        """(mean arrival rate, mean observed processing time) over the last
        m windows, in raw units."""
        if not self.window_history:
            return np.zeros(2)
        rates = [w[2] for w in self.window_history]
        procs = [w[0] for w in self.window_history]
        return np.array([sum(rates) / len(rates), sum(procs) / len(procs)])

    def drain(self, max_ms=10_000_000.0):
        """Stop arrivals and run until every job has completed."""
        self.stop_arrivals()
        deadline = self.now + max_ms
        while self.heap and self.heap[0][0] <= deadline:
            t, _, kind, payload = heappop(self.heap)
            self.now = t
            if kind == 0:
                continue
            if kind == 1:
                self._finish(t, payload)
            else:
                self._hedge(t, payload)

    def dump_event_log(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_ms", "event", "job_id", "server", "detail"])
            for t, event, jid, server, detail in self.event_log:
                w.writerow([f"{t:.6f}", event, jid, server, detail])


# --------------------------------------------------------------------------
# evaluation metrics


@dataclass
class MetricWindow:
    """Latency percentile summary over one evaluation window."""

    t_start_ms: float
    count: int
    p1: float
    p25: float
    p50: float
    p75: float
    p95: float
    p99: float


def metric_windows(samples, window_ms=300_000.0):
    """Bucket (t_ms, latency) samples into fixed windows of percentiles.

    Empty windows produce no row.
    """
    buckets = {}
    for t, lat in samples:
        buckets.setdefault(int(t // window_ms), []).append(lat)
    out = []
    for idx in sorted(buckets):
        vals = buckets[idx]
        out.append(MetricWindow(
            t_start_ms=idx * window_ms,
            count=len(vals),
            p1=nearest_rank(vals, 1), p25=nearest_rank(vals, 25),
            p50=nearest_rank(vals, 50), p75=nearest_rank(vals, 75),
            p95=nearest_rank(vals, 95), p99=nearest_rank(vals, 99),
        ))
    return out


# --------------------------------------------------------------------------
# synthetic labeled feature streams (for detector evaluation)


def feature_stream(workload, n_windows, rng, m_windows=4, window_s=0.5,
                   slowdown_factor=10.0, slowdown_prob=0.1, t0_ms=0.0):
    """Per-window workload features as the proxy would measure them.

    Draws Poisson arrival counts and lognormal (occasionally inflated)
    processing times directly from the generative description, then applies
    the same m-window smoothing as the live feature extractor. Returns an
    (n_windows, 2) array of (arrival rate, mean processing time).
    """
    raw = np.empty((n_windows, 2))
    prev_proc = 0.0
    for i in range(n_windows):
        t_ms = t0_ms + i * window_s * 1000.0
        lam = workload.rate_at(t_ms) * window_s
        count = rng.poisson(lam)
        if count > 0:
            mean = workload.mean_size_at(t_ms)
            mu = math.log(mean) - 0.5 * workload.sigma**2
            sizes = rng.lognormal(mu, workload.sigma, size=count)
            inflate = rng.random(count) < slowdown_prob
            proc = float(np.mean(np.where(inflate, sizes * slowdown_factor, sizes)))
            prev_proc = proc
        else:
            proc = prev_proc
        raw[i] = (count / window_s, proc)
    feats = np.empty_like(raw)
    for i in range(n_windows):
        lo = max(0, i - m_windows + 1)
        feats[i] = raw[lo:i + 1].mean(axis=0)
    return feats
