"""Property tests for the straggler simulator's event loop.

Random seeds, presets and action sequences drive `StragglerSim` with the
safeguard latch on, its unsafe threshold drawn low enough that the latch
turns on and off within a few windows. After every window the queue-length
counters must match the queues themselves (cancelled copies stay in a queue
until their server reaches them), and the arrival and completion counters
must differ by the unfinished jobs still holding a copy. Whole runs must
conserve jobs, never hedge while latched and give the same results whether
or not the event log is kept.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nonstat_rl.straggler import (TIMEOUTS_MS, WORKLOAD_PRESETS,  # noqa: E402
                                  StragglerSim)

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
