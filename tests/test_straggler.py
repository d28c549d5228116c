"""Straggler-simulator correctness: hand-computed event traces, FIFO/JSQ
rules, slowdown draws, percentile metrics, and conservation/causality
invariants."""

import math

import numpy as np
import pytest

from nonstat_rl.errors import ConfigError
from nonstat_rl.stats import BoxStats, nearest_rank
from nonstat_rl.straggler import (NO_HEDGE_ACTION, SAFE_QUEUE, TIMEOUTS_MS,
                                  UNSAFE_QUEUE, WORKLOAD_PRESETS, FastSwitchWorkload,
                                  StationaryWorkload, StragglerSim, TraceWorkload,
                                  feature_stream, write_trace_csv)


def quiet_sim(n_servers=2, slowdown_prob=0.0, **kw):
    """A simulator with no stochastic arrivals; jobs are injected by hand."""
    sim = StragglerSim(WORKLOAD_PRESETS["A"], n_servers=n_servers,
                       slowdown_prob=slowdown_prob, **kw)
    sim.stop_arrivals()
    sim.heap.clear()
    return sim


class TestHandEventTraces:
    def test_single_job_no_hedging(self):
        sim = quiet_sim(keep_event_log=True)
        sim.inject_job(1.0, 10.0)
        res = sim.step(NO_HEDGE_ACTION)
        assert res.stats["latencies"] == [pytest.approx(10.0)]
        assert res.reward == pytest.approx(-10.0)
        assert res.stats["hedges"] == 0

    def test_single_job_hedged_at_3ms(self):
        # hedge fires at t=4 onto the other idle server; the original
        # (finishing at t=11) wins; both copies consume 10 ms of service
        sim = quiet_sim(keep_event_log=True)
        sim.inject_job(1.0, 10.0)
        res = sim.step(0)  # 3 ms timeout
        assert res.stats["latencies"] == [pytest.approx(10.0)]
        assert res.stats["hedges"] == 1
        assert res.stats["load"] == pytest.approx(20.0 / (2 * 500.0))
        events = [e[1] for e in sim.event_log]
        assert events == ["arrive", "hedge", "complete", "sibling_done"]

    def test_empty_window_carries_previous_reward(self):
        sim = quiet_sim()
        sim.inject_job(1.0, 10.0)
        first = sim.step(NO_HEDGE_ACTION)
        second = sim.step(NO_HEDGE_ACTION)
        assert second.reward == first.reward == pytest.approx(-10.0)

    def test_hedge_timer_anchored_at_arrival(self):
        # job arrives at 100, timeout 30 -> hedge event at t=130
        sim = quiet_sim(keep_event_log=True)
        sim.inject_job(100.0, 200.0)
        sim.step(2)  # 30 ms
        hedge_events = [e for e in sim.event_log if e[1] == "hedge"]
        assert len(hedge_events) == 1
        assert hedge_events[0][0] == pytest.approx(130.0)

    def test_completed_job_is_not_hedged(self):
        sim = quiet_sim(keep_event_log=True)
        sim.inject_job(1.0, 5.0)  # completes at 6, before the 10 ms timeout
        res = sim.step(1)
        assert res.stats["hedges"] == 0

    def test_queued_sibling_removed_on_completion(self):
        # two long jobs occupy both servers (arriving in a no-hedge window);
        # a short job then queues on server 0 and its hedge copy queues on
        # server 1. The original starts first (server 0 frees at 600) and
        # wins; the still-queued sibling is removed without service.
        sim = quiet_sim(keep_event_log=True)
        sim.inject_job(0.0, 600.0)
        sim.inject_job(0.0, 650.0)
        sim.step(NO_HEDGE_ACTION)
        sim.inject_job(501.0, 10.0)
        res = sim.step(0)
        cancels = [e for e in sim.event_log if e[1] == "cancel"]
        assert len(cancels) == 1
        assert cancels[0][3] == 1  # removed from server 1's queue
        # short job: arrived 501, served 600-610
        assert sorted(res.stats["latencies"])[0] == pytest.approx(109.0)


class TestDispatch:
    def test_shortest_queue_wins(self):
        sim = quiet_sim(n_servers=3)
        sim.qlen = [3, 1, 2]
        assert sim.dispatch() == 1

    def test_tie_breaks_lowest_index(self):
        sim = quiet_sim(n_servers=3)
        sim.qlen = [2, 2, 2]
        assert sim.dispatch() == 0

    def test_hedge_excludes_origin_server(self):
        sim = quiet_sim(n_servers=3)
        sim.qlen = [0, 5, 5]
        assert sim.dispatch(exclude=0) == 1


class TestServiceDraw:
    def test_prob_zero_always_nominal(self):
        sim = quiet_sim(slowdown_prob=0.0)
        assert all(sim.draw_service_time(7.0) == 7.0 for _ in range(100))

    def test_prob_one_always_inflated(self):
        sim = quiet_sim(slowdown_prob=1.0)
        assert sim.draw_service_time(7.0) == pytest.approx(70.0)

    def test_inflation_frequency_monte_carlo(self):
        sim = quiet_sim(slowdown_prob=0.1, seed=13)
        n = 100_000
        hits = sum(1 for _ in range(n) if sim.draw_service_time(1.0) > 1.0)
        assert abs(hits / n - 0.1) < 0.005

    def test_nonpositive_size_is_error(self):
        with pytest.raises(ConfigError):
            quiet_sim().draw_service_time(0.0)


class TestDefaultPolicy:
    def test_always_no_hedge(self):
        assert NO_HEDGE_ACTION == len(TIMEOUTS_MS) - 1
        assert math.isinf(TIMEOUTS_MS[NO_HEDGE_ACTION])

    def test_composed_with_monitor_at_queue_51(self):
        from nonstat_rl.framework import SafetyMonitor
        mon = SafetyMonitor(UNSAFE_QUEUE, SAFE_QUEUE)
        action = (NO_HEDGE_ACTION if mon.step(51) == "default" else 0)
        assert action == NO_HEDGE_ACTION


class TestMetricWindows:
    """Nearest-rank percentiles of one window of samples."""

    def test_nearest_rank_1_to_100(self):
        assert nearest_rank(list(range(1, 101)), 95) == 95

    def test_constant_samples_all_percentiles_equal(self):
        box = BoxStats.from_values([42.0] * 50)
        assert box.p1 == box.p25 == box.p50 == box.p75 == box.p99 == 42.0
        assert nearest_rank([42.0] * 50, 95) == 42.0

    def test_lognormal_against_interpolating_oracle(self):
        rng = np.random.default_rng(17)
        vals = rng.lognormal(3.0, 0.7, size=10_000)
        box = BoxStats.from_values(vals)
        for pct, got in [(25, box.p25), (50, box.p50), (75, box.p75),
                         (95, nearest_rank(vals, 95)), (99, box.p99)]:
            want = float(np.percentile(vals, pct))  # linear interpolation
            assert abs(got - want) / want < 0.02
            assert got == nearest_rank(list(vals), pct)


class TestInvariants:
    def test_conservation_every_job_completes(self):
        sim = StragglerSim(WORKLOAD_PRESETS["C"], seed=5)
        for i in range(150):
            sim.step(i % len(TIMEOUTS_MS))
        sim.drain()
        assert sim.completed_total == sim.arrived_total
        assert all(q == 0 for q in sim.qlen)

    def test_drain_leaves_the_last_step_result_alone(self):
        # drain completes the jobs still in flight; they belong to no window
        sim = StragglerSim(WORKLOAD_PRESETS["C"], seed=3)
        res = sim.step(6)
        latencies = list(res.stats["latencies"])
        assert sim.completed_total < sim.arrived_total
        sim.drain()
        assert sim.completed_total == sim.arrived_total
        assert res.stats["latencies"] == latencies

    def test_hedging_helps_inflated_singleton_jobs(self):
        # light load: a lone job per window; hedging can only help the tail
        def run(action, seed=11):
            sim = quiet_sim(n_servers=4, slowdown_prob=0.1, seed=seed)
            lats = []
            for w in range(400):
                sim.inject_job(sim.now + 1.0, 10.0)
                lats.extend(sim.step(action).stats["latencies"])
            return np.asarray(lats)

        hedged = run(2)     # 30 ms timeout
        unhedged = run(NO_HEDGE_ACTION)
        assert nearest_rank(hedged, 95) < nearest_rank(unhedged, 95)
        assert hedged.mean() < unhedged.mean()

    def test_causality_event_log_nondecreasing(self):
        sim = StragglerSim(WORKLOAD_PRESETS["A"], seed=6, keep_event_log=True)
        for _ in range(50):
            sim.step(0)
        times = [e[0] for e in sim.event_log]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_no_hedge_events_while_latched(self):
        sim = StragglerSim(WORKLOAD_PRESETS["high_rate"], seed=7,
                           safeguard_enabled=True, keep_event_log=True)
        for _ in range(400):
            sim.step(0)
        latched = False
        saw_latch = False
        for t, event, *_ in sim.event_log:
            if event == "latch_on":
                latched, saw_latch = True, True
            elif event == "latch_off":
                latched = False
            elif event == "hedge":
                assert not latched
        assert saw_latch

    def test_determinism_identical_event_logs(self):
        def run():
            sim = StragglerSim(WORKLOAD_PRESETS["B"], seed=21, keep_event_log=True)
            for i in range(40):
                sim.step(i % 7)
            return sim.event_log

        assert run() == run()

    def test_observation_width_fixed(self):
        sim = StragglerSim(WORKLOAD_PRESETS["A"], seed=1)
        assert sim.obs_dim == 2 * 10 + 14
        for i in range(6):
            res = sim.step(i % 7)
            assert res.obs.shape == (34,)


class TestWorkloads:
    def test_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, WORKLOAD_PRESETS["fastswitch"], 200)
        tw = TraceWorkload.from_csv(path)
        for t in (0.0, 30_000.0, 90_000.0):
            assert tw.rate_at(t) == pytest.approx(
                WORKLOAD_PRESETS["fastswitch"].rate_at(t), rel=1e-6)

    def test_fast_switch_levels(self):
        w = FastSwitchWorkload(10.0, 50.0, dwell_ms=1000.0, mean_size=20.0)
        assert w.rate_at(500.0) == 10.0 and w.level_at(500.0) == 0
        assert w.rate_at(1500.0) == 50.0 and w.level_at(1500.0) == 1

    def test_feature_stream_tracks_generator_gap(self):
        rng = np.random.default_rng(3)
        fa = feature_stream(WORKLOAD_PRESETS["A"], 300, rng)
        fb = feature_stream(WORKLOAD_PRESETS["B"], 300, rng)
        assert fa[:, 0].mean() == pytest.approx(WORKLOAD_PRESETS["A"].rate, rel=0.1)
        assert fb[:, 0].mean() == pytest.approx(WORKLOAD_PRESETS["B"].rate, rel=0.1)
        # B's jobs are ~2x bigger; the observed processing-time feature shows it
        assert fb[:, 1].mean() > 1.5 * fa[:, 1].mean()

    def test_stationary_presets_positive(self):
        for w in WORKLOAD_PRESETS.values():
            assert w.rate_at(0.0) > 0 and w.mean_size_at(0.0) > 0
