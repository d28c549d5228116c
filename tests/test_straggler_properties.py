"""Property tests for the straggler simulator's event loop.

Random seeds, presets and action sequences drive `StragglerSim` with the
safeguard latch on, its unsafe threshold drawn low enough that the latch
turns on and off within a few windows. After every window the queue-length
counters must match the queues themselves (cancelled copies stay in a queue
until their server reaches them), and the arrival and completion counters
must differ by the unfinished jobs still holding a copy. Whole runs must
conserve jobs, never finish a job sooner than the copy that completed it
was served, never hedge while latched and give the same results whether
or not the event log is kept.

Seeded distribution checks, with margins fixed before they were first run,
compare what the simulator draws with what its presets say: inter-arrival
gaps and job sizes read from the event log, and the slowdown fraction of
`draw_service_time`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonstat_rl.straggler import (NO_HEDGE_ACTION, SLOWDOWN_FACTOR, SLOWDOWN_PROB,
                                  TIMEOUTS_MS, WORKLOAD_PRESETS, StragglerSim)

SETTINGS = settings(max_examples=30, deadline=None)
PRESETS = ("A", "B", "C", "high_rate")
seeds = st.integers(0, 2**32 - 1)
# 3 ms hedging is drawn as often as all other timeouts together, so runs
# reach hedging storms and the latch
actions = st.lists(st.one_of(st.just(0), st.integers(0, len(TIMEOUTS_MS) - 1)),
                   min_size=5, max_size=40)


sims = st.fixed_dictionaries({"preset": st.sampled_from(PRESETS), "seed": seeds,
                              "unsafe_queue": st.integers(2, 6),
                              "safe_queue": st.integers(0, 1)})


def make(spec, keep_event_log=False):
    spec = dict(spec)
    return StragglerSim(WORKLOAD_PRESETS[spec.pop("preset")], safeguard_enabled=True,
                        keep_event_log=keep_event_log, **spec)


@SETTINGS
@given(spec=sims, acts=actions)
def test_queue_length_counts_live_copies(spec, acts):
    sim = make(spec)
    for a in acts:
        sim.step(a)
        for s in range(sim.n):
            live = [c for c in sim.queues[s] if c.state == 0]
            assert sim.qlen[s] == len(live) + (sim.serving[s] is not None)
            assert all(c.server == s for c in live)
            if sim.serving[s] is not None:
                assert sim.serving[s].state == 1 and sim.serving[s].server == s


@SETTINGS
@given(spec=sims, acts=actions)
def test_jobs_in_system_match_the_counters(spec, acts):
    # every arrived, unfinished job holds a serving or a live queued copy
    sim = make(spec)
    for a in acts:
        sim.step(a)
        copies = [c for q in sim.queues for c in q if c.state == 0]
        copies += [c for c in sim.serving if c is not None]
        in_system = {c.job for c in copies if not c.job.done}
        assert sim.arrived_total - sim.completed_total == len(in_system)


@SETTINGS
@given(spec=sims, acts=actions)
def test_drain_completes_every_arrival(spec, acts):
    sim = make(spec)
    for a in acts:
        sim.step(a)
    sim.drain()
    assert sim.completed_total == sim.arrived_total
    assert sim.qlen == [0] * sim.n
    assert sim.serving == [None] * sim.n


# A latency is `t_done - t_arrive` with `t_done = t_start + service` and
# `t_start >= t_arrive`; rounding in that sum and difference can put it up
# to ~4e-12 ms below `service`, so the bound allows 1e-9 ms.
LATENCY_SLACK_MS = 1e-9


@SETTINGS
@given(spec=sims, acts=actions)
def test_latency_is_at_least_the_completing_service_time(spec, acts):
    sim = make(spec)
    run, completed = sim._run, []

    def recording_run(*args, **kwargs):
        out = run(*args, **kwargs)
        completed.extend(zip(out[0], out[1]))  # aligned latencies, procs
        return out

    sim._run = recording_run
    for a in acts:
        sim.step(a)
    sim.drain()
    assert len(completed) == sim.completed_total
    for latency, service in completed:
        assert latency >= service - LATENCY_SLACK_MS


@SETTINGS
@given(spec=sims, acts=actions)
def test_no_hedge_while_latched(spec, acts):
    sim = make(spec, keep_event_log=True)
    for a in acts:
        sim.step(a)
    latched = False
    for _, event, *_ in sim.event_log:
        if event == "latch_on":
            latched = True
        elif event == "latch_off":
            latched = False
        elif event == "hedge":
            assert not latched


@SETTINGS
@given(qlen=st.lists(st.integers(0, 4), min_size=2, max_size=12), data=st.data())
def test_dispatch_matches_reference(qlen, data):
    # small queue lengths, so most draws have ties
    exclude = data.draw(st.integers(-1, len(qlen) - 1), label="exclude")
    sim = StragglerSim(WORKLOAD_PRESETS["A"], n_servers=len(qlen))
    sim.qlen = list(qlen)
    want = min((s for s in range(len(qlen)) if s != exclude), key=qlen.__getitem__)
    assert sim.dispatch(exclude) == want
    assert sim.qlen == qlen


@SETTINGS
@given(spec=sims, acts=actions)
def test_event_log_does_not_change_results(spec, acts):
    quiet, logged = make(spec), make(spec, keep_event_log=True)
    for a in acts:
        r1, r2 = quiet.step(a), logged.step(a)
        assert r1.obs.tobytes() == r2.obs.tobytes()
        assert (r1.reward, r1.stats) == (r2.reward, r2.stats)
    assert not quiet.event_log and logged.event_log


# --------------------------------------------------------------------------
# distributions

DIST_WINDOWS = 400
KS_CRITICAL = 1.95  # sqrt(n) * D at the 0.1% level


def logged_arrivals(key, seed):
    """(arrival times, job sizes) of the `arrive` events of an unhedged
    run of preset `key`, in ms."""
    sim = StragglerSim(WORKLOAD_PRESETS[key], seed=seed, keep_event_log=True)
    for _ in range(DIST_WINDOWS):
        sim.step(NO_HEDGE_ACTION)
    arrive = [(t, float(size)) for t, event, _, _, size in sim.event_log
              if event == "arrive"]
    return tuple(np.array(col) for col in zip(*arrive))


def ks_statistic(sample, cdf):
    """The largest distance between `sample`'s empirical CDF and `cdf`."""
    x = np.sort(sample)
    f = cdf(x)
    i = np.arange(1, len(x) + 1)
    return max(np.max(i / len(x) - f), np.max(f - (i - 1) / len(x)))


@pytest.mark.parametrize("key, seed", [("A", 101), ("C", 102)])
def test_arrival_gaps_are_exponential_at_the_preset_rate(key, seed):
    times, _ = logged_arrivals(key, seed)
    gaps = np.diff(times, prepend=0.0)  # the first arrival is drawn from t = 0
    rate_per_ms = WORKLOAD_PRESETS[key].rate / 1000.0
    d = ks_statistic(gaps, lambda x: 1.0 - np.exp(-rate_per_ms * x))
    assert d < KS_CRITICAL / math.sqrt(len(gaps))


@pytest.mark.parametrize("key, seed", [("A", 103), ("C", 104)])
def test_job_sizes_are_lognormal_with_the_preset_mean(key, seed):
    _, sizes = logged_arrivals(key, seed)
    preset = WORKLOAD_PRESETS[key]
    sigma = preset.sigma
    mu = math.log(preset.mean_size) - 0.5 * sigma * sigma  # E[size] = mean_size
    erf = np.vectorize(math.erf)
    d = ks_statistic(sizes, lambda x: 0.5 * (1.0 + erf((np.log(x) - mu)
                                                       / (sigma * math.sqrt(2.0)))))
    assert d < KS_CRITICAL / math.sqrt(len(sizes))


def test_slowdown_fraction_matches_the_slowdown_probability():
    sim = StragglerSim(WORKLOAD_PRESETS["A"], seed=105)
    n = 20_000
    slowed = sum(sim.draw_service_time(1.0) == SLOWDOWN_FACTOR for _ in range(n))
    stderr = math.sqrt(SLOWDOWN_PROB * (1.0 - SLOWDOWN_PROB) / n)
    assert abs(slowed / n - SLOWDOWN_PROB) < 4 * stderr
