"""Discrete-event simulator of a request proxy with hedging.

`n` servers drain FIFO queues of job copies. The proxy dispatches each
arriving job to the server with the shortest queue (ties to the lowest
index). A job's service time equals its nominal size, inflated by a factor
`k` with probability `p` independently per copy. If a job is still
incomplete `timeout` ms after arrival it is hedged once: a duplicate copy
goes to the shortest queue among the *other* servers. The job completes
when either copy finishes; a still-queued sibling is cancelled, an
in-service sibling runs to completion.

One event loop, `StragglerSim._run`, handles arrivals, completions and hedge
timers for both `step` and `drain`. Each queue is a deque with lazy
cancellation: a cancelled copy leaves the queue-length count at once but
stays in its deque until its server reaches it and skips it.

The agent acts once per 500 ms window, choosing the hedging timeout applied
to every job arriving in that window. The reward is the negated nearest-rank
95th-percentile latency of the jobs completed in the window (carrying the
previous value through empty windows). An optional safeguard latch disables
hedging from the moment any queue reaches the unsafe threshold until every
queue has drained to the safe threshold.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import ConfigError
from .stats import nearest_rank

TIMEOUTS_MS = (3.0, 10.0, 30.0, 60.0, 100.0, 300.0, math.inf)
NO_HEDGE_ACTION = len(TIMEOUTS_MS) - 1  # the safeguard's default policy
WINDOW_MS = 500.0
M_WINDOWS = 4            # past windows in observations and workload features
SLOWDOWN_FACTOR = 10.0   # service-time inflation of a straggling copy
SLOWDOWN_PROB = 0.1
UNSAFE_QUEUE = 50        # safeguard: a queue this long hands control off ...
SAFE_QUEUE = 3           # ... until every queue is at most this long

# fixed normalization constants for observations and workload features
QUEUE_SCALE = 50.0
PROC_SCALE = 1000.0
RATE_SCALE = 100.0
FEATURE_SCALES = (RATE_SCALE, PROC_SCALE)


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

    def level_at(self, t_ms):
        """Ground-truth regime label: 0 idle, 1 rushed."""
        return int(t_ms // self.dwell_ms) % 2


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

    def __init__(self, workload, n_servers=10, seed=0, slowdown_prob=SLOWDOWN_PROB,
                 safeguard_enabled=False, unsafe_queue=UNSAFE_QUEUE,
                 safe_queue=SAFE_QUEUE, keep_event_log=False):
        if n_servers < 2:
            raise ConfigError("need at least two servers to hedge")
        self.workload = workload
        self.n = n_servers
        self.p = slowdown_prob
        self.timeouts = TIMEOUTS_MS
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
        # waiting copies, FIFO; a cancelled copy stays until its server pops it
        self.queues = [deque() for _ in range(n)]
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
        self._window_timeout = math.inf
        self._seq += 1  # the first arrival; each arrival schedules the next
        heappush(self.heap, (self._arrival_gap(0.0), self._seq, 0, None))
        return self.observe()

    def set_workload(self, workload):
        self.workload = workload

    # -- internals ----------------------------------------------------------
    def _arrival_gap(self, t):
        """Exponential wait from `t` to the next Poisson arrival, in ms."""
        rate = self.workload.rate_at(t)
        if rate <= 0:
            raise ConfigError("arrival rate must be positive")
        return self.rng.expovariate(rate / 1000.0)  # rate per ms

    def draw_service_time(self, nominal):
        """nominal * SLOWDOWN_FACTOR with probability p, else nominal
        (independent per copy)."""
        if nominal <= 0:
            raise ConfigError("nominal size must be positive")
        return nominal * SLOWDOWN_FACTOR if self.rng.random() < self.p else nominal

    def _touch(self, s, t):
        """Accrue server `s`'s queue-length and busy time up to `t`."""
        dt = t - self.last_upd[s]
        if dt > 0.0:
            self.q_acc[s] += self.qlen[s] * dt
            if self.serving[s] is not None:
                self.busy_acc[s] += dt
            self.last_upd[s] = t

    def dispatch(self, exclude=-1):
        """Index of the shortest queue (ties to lowest index), leaving out
        server `exclude` when one is given."""
        qlen = self.qlen
        if exclude < 0:
            return qlen.index(min(qlen))
        held = qlen[exclude]
        qlen[exclude] = math.inf
        best = qlen.index(min(qlen))
        qlen[exclude] = held
        return best

    def inject_job(self, t_ms, size_ms):
        """Deterministic arrival for oracle event traces (testing hook)."""
        if t_ms < self.now:
            raise ConfigError("cannot inject a job in the past")
        self._seq += 1
        heappush(self.heap, (t_ms, self._seq, 0, float(size_ms)))

    def _run(self, deadline, arrivals=True):
        """Handle every event due by `deadline`, in (time, sequence) order.

        Events are (t, seq, kind, item): kind 0 is an arrival (item is an
        injected size, or None for a Poisson arrival, which schedules the
        next one), kind 1 the end of a copy's service, kind 2 a job's hedge
        timer. With `arrivals` False, arrival events are dropped unhandled.
        Returns the latencies of the jobs completed, the service times of
        the copies that completed them, the arrival and hedge counts and
        the largest queue length seen.
        """
        heap, qlen, queues, serving = self.heap, self.qlen, self.queues, self.serving
        q_acc, busy_acc, last_upd = self.q_acc, self.busy_acc, self.last_upd
        push, pop = heappush, heappop
        lognormvariate, sigma = self.rng.lognormvariate, self.workload.sigma
        mu = math.log(self.workload.mean_size) - 0.5 * sigma * sigma
        gap, dispatch, service_time = self._arrival_gap, self.dispatch, self.draw_service_time
        log = self.event_log.append if self.keep_event_log else None
        guard, unsafe, safe = self.safeguard_enabled, self.unsafe_queue, self.safe_queue
        timeout = self._window_timeout
        hedging = timeout != math.inf
        seq, jid, latch, now = self._seq, self._jid, self.latch, self.now
        n_arrived = n_completed = n_hedges = 0
        latencies, procs = [], []
        max_queue = max(qlen)
        try:
            while heap and heap[0][0] <= deadline:
                t, _, kind, item = pop(heap)
                now = t
                # find the server `s` the event changes (and, for an arrival
                # or a hedge, the new copy it gets)
                if kind == 1:
                    copy = item
                    s = copy.server
                elif kind == 0:
                    if not arrivals:
                        continue
                    if item is None:
                        seq += 1
                        push(heap, (t + gap(t), seq, 0, None))
                        item = lognormvariate(mu, sigma)
                    jid += 1
                    job = _Job(jid, t, item)
                    n_arrived += 1
                    s = dispatch()
                    copy = _Copy(job, service_time(item), s)
                    job.copies.append(copy)
                else:
                    job = item
                    if job.done or job.hedged or latch:
                        continue
                    job.hedged = True
                    s = dispatch(job.copies[0].server)
                    copy = _Copy(job, service_time(job.size), s)
                    job.copies.append(copy)
                    n_hedges += 1
                    if log:
                        log((t, "hedge", job.jid, s, ""))

                dt = t - last_upd[s]  # _touch(s, t), inlined
                if dt > 0.0:
                    q_acc[s] += qlen[s] * dt
                    if serving[s] is not None:
                        busy_acc[s] += dt
                    last_upd[s] = t

                if kind != 1:  # enqueue the new copy
                    q = qlen[s] = qlen[s] + 1
                    if serving[s] is None:
                        serving[s] = copy
                        copy.state = 1
                        seq += 1
                        push(heap, (t + copy.service, seq, 1, copy))
                    else:
                        queues[s].append(copy)
                    if q > max_queue:
                        max_queue = q
                    if guard and not latch and q >= unsafe:
                        latch = True
                        if log:
                            log((t, "latch_on", -1, s, str(q)))
                    if kind == 0:
                        if log:
                            log((t, "arrive", job.jid, s, f"{job.size:.3f}"))
                        if hedging:
                            seq += 1
                            push(heap, (t + timeout, seq, 2, job))
                    continue

                # copy's service ends: start the next live copy in s's queue
                qlen[s] -= 1
                copy.state = 2
                serving[s] = None
                queue = queues[s]
                while queue:
                    nxt = queue.popleft()
                    if nxt.state == 0:  # else a cancelled sibling
                        nxt.state = 1
                        serving[s] = nxt
                        seq += 1
                        push(heap, (t + nxt.service, seq, 1, nxt))
                        break
                job = copy.job
                if not job.done:
                    job.done = True
                    n_completed += 1
                    latency = t - job.t_arrive
                    latencies.append(latency)
                    procs.append(copy.service)
                    if log:
                        log((t, "complete", job.jid, s, f"{latency:.3f}"))
                    for sib in job.copies:
                        if sib is not copy and sib.state == 0:
                            # cancelled in place: its queue skips it later
                            s2 = sib.server
                            self._touch(s2, t)
                            qlen[s2] -= 1
                            sib.state = 2
                            if log:
                                log((t, "cancel", job.jid, s2, ""))
                    # nothing reads a done job's copies: dropping them breaks
                    # the job <-> copy cycle, so reference counting frees both
                    job.copies = None
                elif log:
                    log((t, "sibling_done", job.jid, s, ""))
                if latch and max(qlen) <= safe:
                    latch = False
                    if log:
                        log((t, "latch_off", -1, -1, ""))
        finally:
            self._seq, self._jid, self.latch, self.now = seq, jid, latch, now
            self.arrived_total += n_arrived
            self.completed_total += n_completed
            self.hedges_total += n_hedges
        return latencies, procs, n_arrived, n_hedges, max_queue

    # -- stepping -----------------------------------------------------------
    def step(self, action):
        """Advance one window with the given hedge-timeout action index."""
        if not 0 <= action < len(self.timeouts):
            raise ConfigError(f"action {action} out of range")
        self._window_timeout = self.timeouts[action]
        window_end = self.now + WINDOW_MS
        lat, procs, arrivals, hedges, max_queue = self._run(window_end)

        self.now = window_end
        for s in range(self.n):
            self._touch(s, window_end)
        avg_q = [self.q_acc[s] / WINDOW_MS for s in range(self.n)]
        self.load_last = sum(self.busy_acc) / (self.n * WINDOW_MS)
        self.q_acc = [0.0] * self.n
        self.busy_acc = [0.0] * self.n

        p95 = nearest_rank(lat, 95) if lat else None
        reward = -p95 if p95 is not None else self.prev_reward
        self.prev_reward = reward

        avg_proc = sum(procs) / len(procs) if procs else 0.0
        max_proc = max(procs) if procs else 0.0
        rate = arrivals / (WINDOW_MS / 1000.0)
        self.window_history.append((avg_proc, max_proc, rate))
        if len(self.window_history) > M_WINDOWS:
            self.window_history.pop(0)
        self.last_window_max_queue = max_queue

        stats = {
            "t_ms": self.now,
            "arrivals": arrivals,
            "latencies": lat,
            "p95": p95,
            "max_queue": max_queue,
            "hedges": hedges,
            "guard_active": self.latch,
            "load": self.load_last,
        }
        return StepResult(self.observe(avg_q), reward, stats)

    def observe(self, avg_q=None):
        """Observation: [inst queues, window-avg queues, m x (avg/max proc,
        rate), load, guard flag], all normalized by fixed constants."""
        vals = [q / QUEUE_SCALE for q in self.qlen]
        vals += [q / QUEUE_SCALE for q in avg_q] if avg_q is not None else [0.0] * self.n
        hist = [(0.0, 0.0, 0.0)] * (M_WINDOWS - len(self.window_history))
        for ap, mp, rt in hist + self.window_history:
            vals += (ap / PROC_SCALE, mp / PROC_SCALE, rt / RATE_SCALE)
        vals += (self.load_last, 1.0 if self.latch else 0.0)
        return np.array(vals)

    @property
    def obs_dim(self):
        return 2 * self.n + 3 * M_WINDOWS + 2

    def workload_features(self):
        """(mean arrival rate, mean observed processing time) over the last
        M_WINDOWS windows, in raw units."""
        if not self.window_history:
            return np.zeros(2)
        rates = [w[2] for w in self.window_history]
        procs = [w[0] for w in self.window_history]
        return np.array([sum(rates) / len(rates), sum(procs) / len(procs)])

    def drain(self):
        """Drop arrivals and run until every job has completed."""
        self._run(self.now + 10_000_000.0, arrivals=False)

