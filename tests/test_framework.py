"""Detector, expert-manager, and safety-monitor behavior."""

import itertools

import numpy as np
import pytest

from nonstat_rl.errors import ConfigError, UsageError
from nonstat_rl.framework import (ExpertManager, GmmDetector, SafetyMonitor,
                                  augment_observation)
from nonstat_rl.straggler import (SAFE_QUEUE, UNSAFE_QUEUE, WORKLOAD_PRESETS,
                                  feature_stream)


def two_cluster_data(n_each=300, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([100.0, 10.0], [8.0, 1.0], size=(n_each, 2))
    b = rng.normal([1000.0, 50.0], [60.0, 4.0], size=(n_each, 2))
    x = np.concatenate([a, b])
    labels = np.concatenate([np.zeros(n_each, int), np.ones(n_each, int)])
    perm = rng.permutation(len(x))
    return x[perm], labels[perm]


class TestGmmFit:
    def test_two_separated_clusters_within_ten_percent(self):
        x, _ = two_cluster_data()
        det = GmmDetector(2, seed=1).fit(x)
        assert np.all(np.abs(det.means[0] - [100.0, 10.0]) / [100.0, 10.0] < 0.1)
        assert np.all(np.abs(det.means[1] - [1000.0, 50.0]) / [1000.0, 50.0] < 0.1)
        assert det.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(det.variances >= 1e-6)

    def test_single_component_mean_is_sample_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        det = GmmDetector(1, seed=0).fit(x)
        assert np.allclose(det.means[0], x.mean(axis=0), atol=1e-9)

    def test_refit_same_data_same_seed_identical(self):
        x, _ = two_cluster_data(seed=3)
        d1 = GmmDetector(2, seed=7).fit(x)
        d2 = GmmDetector(2, seed=7).fit(x)
        assert np.array_equal(d1.means, d2.means)
        assert np.array_equal(d1.variances, d2.variances)
        assert np.array_equal(d1.weights, d2.weights)

    def test_history_too_short_is_error(self):
        with pytest.raises(ConfigError):
            GmmDetector(3).fit(np.zeros((25, 2)))

    def test_degenerate_data_falls_back_to_single_component(self):
        with pytest.warns(UserWarning):
            det = GmmDetector(3, seed=0).fit(np.full((60, 2), 5.0))
        assert det.degenerate
        assert det.classify(np.array([5.0, 5.0])) == 0

    def test_components_ordered_by_first_feature_mean(self):
        x, _ = two_cluster_data(seed=4)
        det = GmmDetector(2, seed=9).fit(x)
        assert det.means[0, 0] < det.means[1, 0]

    def test_save_load_roundtrip(self, tmp_path):
        x, _ = two_cluster_data(seed=5)
        det = GmmDetector(2, seed=1).fit(x)
        det.save(tmp_path / "gmm.npz")
        back = GmmDetector.load(tmp_path / "gmm.npz")
        assert np.array_equal(back.means, det.means)
        f = np.array([100.0, 10.0])
        assert back.classify(f) == det.classify(f)


class TestClassify:
    def test_unfitted_is_error(self):
        with pytest.raises(UsageError):
            GmmDetector(2).classify(np.zeros(2))

    def test_point_at_component_mean(self):
        x, _ = two_cluster_data(seed=6)
        det = GmmDetector(2, seed=2).fit(x)
        assert det.classify(det.means[0]) == 0
        det._reset_readout()
        assert det.classify(det.means[1]) == 1

    def test_single_window_blips_suppressed_by_dwell(self):
        x, _ = two_cluster_data(seed=7)
        det = GmmDetector(2, dwell=3, seed=3).fit(x)
        lo, hi = det.means[0], det.means[1]
        assert det.classify(lo) == 0
        for _ in range(6):  # alternating blips never accumulate 3 in a row
            assert det.classify(hi) == 0
            assert det.classify(lo) == 0

    def test_dwell_switch_after_consecutive_windows(self):
        x, _ = two_cluster_data(seed=8)
        det = GmmDetector(2, dwell=3, seed=4).fit(x)
        lo, hi = det.means[0], det.means[1]
        assert det.classify(lo) == 0
        assert det.classify(hi) == 0
        assert det.classify(hi) == 0
        assert det.classify(hi) == 1

    def test_three_cluster_sweep_accuracy(self):
        rng = np.random.default_rng(9)
        blocks, labels = [], []
        workloads = [WORKLOAD_PRESETS[k] for k in ("A", "B", "C")]
        for rep in range(6):
            for w_idx, w in enumerate(workloads):
                blocks.append(feature_stream(w, 80, rng))
                labels.extend([w_idx] * 80)
        feats = np.concatenate(blocks)
        labels = np.asarray(labels)
        det = GmmDetector(3, dwell=4, seed=0).fit(feats)
        pred = np.array([det.classify(f) for f in feats])
        best = max(
            np.mean(np.array([perm[p] for p in pred]) == labels)
            for perm in itertools.permutations(range(3))
        )
        assert best >= 0.9


class TestExpertManager:
    def make(self, span=10, mode="multi"):
        counter = itertools.count()
        return ExpertManager(lambda idx: f"learner-{next(counter)}", span, mode=mode)

    def test_first_signal_creates_fresh_expert(self):
        mgr = self.make()
        rec = mgr.signal(2)
        assert rec.exploration_epochs == 0
        assert mgr.active_index == 2

    def test_revisit_after_completion_is_exploit_mode(self):
        mgr = self.make(span=5)
        mgr.signal(0)
        for _ in range(5):
            mgr.note_epoch()
        mgr.signal(1)
        rec = mgr.signal(0)
        assert rec.exploration_epochs == 5
        assert mgr.exploration_complete(0)

    def test_interrupted_exploration_resumes_from_saved_epoch(self):
        # counter bookkeeping oracle: track the expected counter by hand
        mgr = self.make(span=10)
        expected = {0: 0, 1: 0}
        mgr.signal(0)
        for _ in range(4):
            mgr.note_epoch()
            expected[0] += 1
        mgr.signal(1)
        for _ in range(2):
            mgr.note_epoch()
            expected[1] += 1
        rec = mgr.signal(0)
        assert rec.exploration_epochs == expected[0] == 4
        assert mgr.records[1].exploration_epochs == expected[1] == 2

    def test_exploration_capped_at_span(self):
        mgr = self.make(span=3)
        rng = np.random.default_rng(10)
        for _ in range(100):
            mgr.signal(int(rng.integers(4)))
            mgr.note_epoch()
        for rec in mgr.records.values():
            assert rec.exploration_epochs <= 3

    def test_single_mode_shares_learner_but_tracks_counters(self):
        mgr = self.make(mode="single")
        a = mgr.signal(0).learner
        mgr.note_epoch()
        b = mgr.signal(1).learner
        assert a is b
        assert mgr.records[0].exploration_epochs == 1
        assert mgr.records[1].exploration_epochs == 0

    def test_multi_mode_never_shares(self):
        mgr = self.make(mode="multi")
        assert mgr.signal(0).learner != mgr.signal(1).learner
        assert len(mgr.records) == 2


class TestSafetyMonitor:
    def test_unsafe_trigger(self):
        mon = SafetyMonitor(UNSAFE_QUEUE, SAFE_QUEUE)
        assert mon.step(51) == "default"

    def test_return_to_safe(self):
        mon = SafetyMonitor(UNSAFE_QUEUE, SAFE_QUEUE)
        mon.step(51)
        assert mon.step(3) == "agent"

    def test_hysteresis_band_holds_state(self):
        mon = SafetyMonitor(UNSAFE_QUEUE, SAFE_QUEUE)
        assert mon.step(20) == "agent"
        mon.step(51)
        assert mon.step(20) == "default"

    def test_exactly_one_transition_each_way_on_monotone_trace(self):
        mon = SafetyMonitor(UNSAFE_QUEUE, SAFE_QUEUE)
        readings = list(range(0, 80, 5)) + list(range(80, -1, -5))
        tags = [mon.step(r) for r in readings]
        flips = sum(1 for a, b in zip(tags, tags[1:]) if a != b)
        assert flips == 2
        assert len(mon.transitions) == 2
        assert mon.transitions[0][1] == "unsafe" and mon.transitions[1][1] == "safe"


class TestAugmentObservation:
    def test_disabled_unchanged(self):
        obs = np.arange(4.0)
        out = augment_observation(obs, np.array([5.0, 6.0]), enabled=False)
        assert out is obs

    def test_enabled_grows_by_feature_count(self):
        out = augment_observation(np.zeros(4), np.array([5.0, 6.0]), enabled=True)
        assert out.shape == (6,)

    def test_workload_gap_visible_in_features(self):
        # two different generators -> arrival-rate coordinate differs by the
        # configured gap (up to sampling noise)
        rng = np.random.default_rng(11)
        a = feature_stream(WORKLOAD_PRESETS["A"], 400, rng)
        c = feature_stream(WORKLOAD_PRESETS["C"], 400, rng)
        gap = (WORKLOAD_PRESETS["C"].rate - WORKLOAD_PRESETS["A"].rate)
        obs_a = augment_observation(np.zeros(2), a.mean(axis=0), True, scales=(100.0, 1000.0))
        obs_c = augment_observation(np.zeros(2), c.mean(axis=0), True, scales=(100.0, 1000.0))
        measured = (obs_c[2] - obs_a[2]) * 100.0
        assert measured == pytest.approx(gap, rel=0.15)
