"""Harness behavior: scenario schedules, run artifacts, reproducibility,
oracle equivalence, batch-routing audits and cross-evaluation anchors."""

import csv
import gc
import json
import os
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nonstat_rl.abr import AbrEnv
from nonstat_rl.errors import ConfigError, DivergenceError
from nonstat_rl.framework import ExpertManager
from nonstat_rl.harness import (ExperimentConfig, RunSummary, Scenario,
                                abr_defaults, cross_eval, evaluate_policy,
                                paper_scale, pretrain_checkpoint, run_experiment,
                                scenario_cyclic, scenario_new_workload,
                                scenario_rare_reoccur, scenario_stationary)
from nonstat_rl.straggler import NO_HEDGE_ACTION, StragglerSim


def tiny_cfg(**kw):
    kw.setdefault("scenario", scenario_stationary("C", 6))
    kw.setdefault("t_c", 4)
    kw.setdefault("episode_len", 8)
    kw.setdefault("entropy_epochs", 3)
    kw.setdefault("eps_random_epochs", 1)
    kw.setdefault("eps_decay_epochs", 3)
    kw.setdefault("seed", 5)
    return ExperimentConfig(**kw)


class TestScenarios:
    def test_cyclic_emits_each_workload_every_three_switch_periods(self):
        sc = scenario_cyclic(t_sw=10, cycles=3)
        for key in ("A", "B", "C"):
            actives = [e for e in range(sc.total_epochs) if sc.workload_at(e)[0] == key]
            starts = [actives[0]]
            for e in actives[1:]:
                if e != starts[-1] and e - 1 not in actives:
                    starts.append(e)
            gaps = {b - a for a, b in zip(starts, starts[1:])}
            assert gaps == {30}

    def test_labels_by_first_appearance(self):
        sc = scenario_cyclic(t_sw=5, keys=("B", "A", "C"), cycles=1)
        assert sc.label_of == {"B": 0, "A": 1, "C": 2}

    def test_new_workload_structure(self):
        sc = scenario_new_workload(t_sw=5, common=("A", "B"), rare="C",
                                   pre_switches=4, rare_epochs=10, post_cycles=1)
        assert sc.dwells[:4] == [("A", 5), ("B", 5), ("A", 5), ("B", 5)]
        assert sc.dwells[4] == ("C", 10)
        assert sc.dwells[5:] == [("A", 5), ("B", 5), ("C", 5)]

    def test_rare_reoccur_has_dormant_span(self):
        sc = scenario_rare_reoccur(t_sw=5, keys=("A", "B", "C"), rare="C",
                                   pre_cycles=1, dormant_switches=4)
        keys = [k for k, _ in sc.dwells]
        assert keys == ["A", "B", "C", "A", "B", "A", "B", "C"]

    def test_empty_dwell_rejected(self):
        with pytest.raises(ConfigError):
            Scenario("bad", [("A", 0)])

    @pytest.mark.parametrize("length", [2.0, 2.5, True, "2"])
    def test_non_integer_dwell_rejected(self, length):
        with pytest.raises(ConfigError):
            Scenario("bad", [("A", 3), ("B", length)])

    @pytest.mark.parametrize("length", [True, 2.0])
    def test_json_dwell_must_be_an_integer(self, length):
        obj = ExperimentConfig(scenario=scenario_stationary("C", 3)).to_json()
        obj["scenario"]["dwells"] = [["C", length]]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(obj)

    def test_json_roundtrip(self):
        sc = scenario_new_workload(t_sw=7)
        back = Scenario.from_json(sc.to_json())
        assert back.dwells == sc.dwells and back.name == sc.name


class TestRunBasics:
    def test_straggler_a2c_run_shapes(self):
        s = run_experiment(tiny_cfg())
        assert [ep.workload for ep in s.epochs] == ["C"] * 6
        assert not s.diverged
        assert 0 in s.experts

    def test_dqn_run(self):
        s = run_experiment(tiny_cfg(learner="dqn", expert_mode="single"))
        assert len(s.epochs) == 6

    def test_abr_run(self):
        cfg = abr_defaults(scenario_stationary("UG3", 4), t_c=3, episode_len=20,
                           entropy_epochs=2, guard_anneal_epochs=3,
                           guard_calibration_epochs=1, seed=2)
        s = run_experiment(cfg)
        assert len(s.epochs) == 4
        assert all(ep.metric is not None and ep.rebuffer >= 0.0 for ep in s.epochs)

    def test_multi_mode_uses_one_expert_per_workload(self):
        sc = Scenario("s", [("A", 3), ("C", 3)])
        s = run_experiment(tiny_cfg(scenario=sc))
        assert set(s.experts) == {0, 1}
        assert s.experts[0] is not s.experts[1]

    def test_single_mode_shares_expert(self):
        sc = Scenario("s", [("A", 3), ("C", 3)])
        s = run_experiment(tiny_cfg(scenario=sc, expert_mode="single"))
        assert s.experts[0] is s.experts[1]

    def test_a2c_makes_one_update_per_epoch(self):
        s = run_experiment(tiny_cfg(scenario=scenario_stationary("A", 6)))
        assert s.experts[0].updates == 6

    def test_unknown_env_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_cfg(env="nope"))

    def test_workload_info_widens_observation(self):
        s = run_experiment(tiny_cfg(workload_info=True))
        actor = s.experts[0].actor
        assert actor.tail_dim == 14 + 2


class TestArtifacts:
    def test_csv_files_written(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out_dir=str(out)))
        for name in ("timeseries.csv", "detections.csv", "summary.csv",
                     "config.json", "status.json"):
            assert (out / name).exists()
        with open(out / "timeseries.csv") as fh:
            header = fh.readline().strip()
        assert header == "epoch,t_ms,workload_true,workload_detected,controller,metric"
        with open(out / "summary.csv") as fh:
            header = fh.readline().strip()
        assert header == "scenario,workload,expert_mode,buffer,seed,p1,p25,p50,p75,p99,mean"
        assert (out / "experts" / "env_0" / "actor.npz").exists()

    def test_reproducibility_byte_identical_summary(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        sc = scenario_cyclic(t_sw=4, keys=("A", "C"), cycles=1)
        run_experiment(tiny_cfg(scenario=sc, out_dir=str(out1)))
        run_experiment(tiny_cfg(scenario=sc, out_dir=str(out2)))
        for name in ("summary.csv", "timeseries.csv", "detections.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_config_json_roundtrip(self, tmp_path):
        cfg = tiny_cfg(out_dir=str(tmp_path / "x"))
        run_experiment(cfg)
        with open(tmp_path / "x" / "config.json") as fh:
            back = ExperimentConfig.from_json(json.load(fh))
        assert back == cfg


class TestEpochByEpochArtifacts:
    """timeseries.csv and detections.csv are written as each epoch ends."""

    def test_stopped_run_keeps_its_finished_epochs(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(scenario=scenario_cyclic(t_sw=3, keys=("A", "C"), cycles=1),
                       detector="gmm", detector_warmup_epochs=2)
        run_experiment(replace(cfg, out_dir=str(tmp_path / "full")))

        class Stop(Exception):
            pass

        k, started = 4, []
        signal = ExpertManager.signal

        def stop_at_epoch_k(self, label):
            if len(started) == k:
                raise Stop
            started.append(label)
            return signal(self, label)

        monkeypatch.setattr(ExpertManager, "signal", stop_at_epoch_k)
        with pytest.raises(Stop):
            run_experiment(replace(cfg, out_dir=str(tmp_path / "stopped")))
        for name, rows in (("timeseries.csv", k), ("detections.csv", k * cfg.episode_len)):
            stopped = (tmp_path / "stopped" / name).read_bytes()
            assert stopped.count(b"\n") == 1 + rows, name
            assert (tmp_path / "full" / name).read_bytes().startswith(stopped), name

    def test_run_diverged_mid_epoch_writes_a_detection_row_per_window(
            self, tmp_path, monkeypatch):
        # the GMM is fitted from epoch 3 on; the run diverges in window 5 of
        # epoch 4, after the detector has noted that window
        from nonstat_rl import harness
        cfg = tiny_cfg(scenario=scenario_cyclic(t_sw=3, keys=("A", "C"), cycles=1),
                       detector="gmm", detector_warmup_epochs=2)
        run_experiment(replace(cfg, out_dir=str(tmp_path / "full")))

        ran = 4 * cfg.episode_len + 6
        calls, window = [], harness._A2c.window

        def diverge(self, *args):
            calls.append(None)
            if len(calls) == ran:
                raise DivergenceError("forced")
            return window(self, *args)

        monkeypatch.setattr(harness._A2c, "window", diverge)
        s = run_experiment(replace(cfg, out_dir=str(tmp_path / "diverged")))
        assert s.diverged and len(s.epochs) == 5
        diverged = (tmp_path / "diverged" / "detections.csv").read_bytes()
        assert diverged.count(b"\n") == 1 + ran
        assert (tmp_path / "full" / "detections.csv").read_bytes().startswith(diverged)
        with open(tmp_path / "diverged" / "detections.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows[-6:]:  # the partial epoch's windows, read out by the fit
            assert float(row["posterior_0"]) + float(row["posterior_1"]) > 0.99

    def test_memory_does_not_grow_with_run_length(self, tmp_path):
        def peak(epochs):
            cfg = tiny_cfg(scenario=scenario_stationary("A", epochs), t_c=2,
                           episode_len=48, entropy_epochs=2,
                           out_dir=str(tmp_path / str(epochs)))
            gc.collect()
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up: first-use allocations
        growth = peak(34) - peak(2)
        # 32 more epochs of 48 windows; keeping every window's detection row
        # until the run ends costs about 120 B a window here (about 180 KB)
        assert growth < 48_000


class TestExplorationAccounting:
    def test_one_exploration_span_per_workload(self):
        # scenario I with multi experts: each workload explores exactly once
        sc = scenario_cyclic(t_sw=4, keys=("A", "C"), cycles=2)
        s = run_experiment(tiny_cfg(scenario=sc))
        assert s.explored_at == {0: 3, 1: 7}
        assert s.post_convergence_from == 8

    def test_interrupted_exploration_resumes(self):
        # t_sw < t_c: exploration completes on the second visit
        sc = scenario_cyclic(t_sw=2, keys=("A", "C"), cycles=2)
        s = run_experiment(tiny_cfg(scenario=sc))
        assert s.explored_at == {0: 5, 1: 7}

    def test_safeguarded_windows_excluded_from_a2c_batches(self):
        cfg = tiny_cfg(scenario=scenario_stationary("high_rate", 12), t_c=12,
                       episode_len=48)
        s = run_experiment(cfg)
        guarded = sum(ep.default_windows for ep in s.epochs)
        trained = sum(ep.n_steps for ep in s.epochs)
        assert guarded > 0
        assert trained == 12 * cfg.episode_len - guarded


class TestOracleMode:
    def test_oracle_pretraining_equals_plain_training(self):
        # the oracle's per-workload pretraining is exactly a plain stationary
        # training run (t_c epochs) with the derived seed
        cfg = tiny_cfg(scenario=scenario_stationary("C", 5), expert_mode="oracle")
        oracle = run_experiment(cfg)
        plain = run_experiment(replace(cfg, expert_mode="multi",
                                       scenario=scenario_stationary("C", cfg.t_c),
                                       seed=cfg.seed + 7919))
        a = oracle.experts[0].actor.parameters()
        b = plain.experts[0].actor.parameters()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_oracle_experts_never_train_during_scenario(self):
        sc = scenario_cyclic(t_sw=3, keys=("A", "C"), cycles=1)
        s = run_experiment(tiny_cfg(scenario=sc, expert_mode="oracle"))
        assert all(ep.n_steps == 0 for ep in s.epochs)
        assert s.post_convergence_from == 0

    @pytest.mark.parametrize("learner", ["a2c", "dqn"])
    def test_oracle_run_leaves_experts_bit_identical(self, learner):
        # each oracle expert must equal the plain stationary run it came
        # from: the scenario itself never trains it
        sc = scenario_cyclic(t_sw=3, keys=("A", "C"), cycles=2)
        cfg = tiny_cfg(scenario=sc, learner=learner, expert_mode="oracle",
                       batch_size=8, train_every=1)
        oracle = run_experiment(cfg)
        for key, label in sc.label_of.items():
            plain = run_experiment(replace(
                cfg, expert_mode="multi", scenario=scenario_stationary(key, cfg.t_c),
                seed=cfg.seed + 7919 * (label + 1))).experts[0]
            frozen = oracle.experts[label]
            assert frozen.updates == plain.updates > 0
            nets = ((frozen.actor, plain.actor), (frozen.critic, plain.critic)) \
                if learner == "a2c" else ((frozen.online, plain.online),
                                          (frozen.target, plain.target))
            for a, b in nets:
                for x, y in zip(a.parameters(), b.parameters()):
                    assert np.array_equal(x, y)

    def test_oracle_requires_clean_labels(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_cfg(expert_mode="oracle", label_noise=0.1))


class TestBatchRouting:
    def test_rare_workload_expert_gets_zero_batches_while_dormant(self):
        sc = scenario_rare_reoccur(t_sw=2, keys=("A", "B", "C"), rare="C",
                                   pre_cycles=1, dormant_switches=4)
        s = run_experiment(tiny_cfg(scenario=sc, t_c=2))
        label_c = sc.label_of["C"]
        dormant = [ep for ep in s.epochs if ep.workload != "C" and ep.label == label_c]
        assert dormant == []

    def test_experts_only_trained_on_matching_epochs(self):
        sc = scenario_cyclic(t_sw=3, keys=("A", "C"), cycles=2)
        s = run_experiment(tiny_cfg(scenario=sc))
        for ep in s.epochs:
            assert ep.label == sc.label_of[ep.workload]


class TestCrossEval:
    @pytest.fixture(scope="class")
    def checkpoints(self, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("ckpt")
        cfg = tiny_cfg(t_c=40, episode_len=24, entropy_epochs=30)
        for key in ("A", "C"):
            pretrain_checkpoint(cfg, key, str(ckpt))
        return str(ckpt), cfg

    def test_matched_pair_is_one_by_construction(self, checkpoints):
        ckpt, cfg = checkpoints
        assert cross_eval("A", "A", ckpt, cfg, eval_epochs=8) == pytest.approx(1.0)

    def test_no_hedging_policy_is_zero_by_construction(self, checkpoints):
        ckpt, cfg = checkpoints
        no_hedge = lambda obs, rng: NO_HEDGE_ACTION
        l_nh = evaluate_policy(cfg, no_hedge, "C", 8, seed=1234)
        matched = cross_eval("C", "C", ckpt, cfg, eval_epochs=8)
        value = (l_nh - l_nh) / 1.0
        assert value == 0.0 and matched == pytest.approx(1.0)

    def test_mismatched_pair_degrades(self, checkpoints):
        ckpt, cfg = checkpoints
        assert cross_eval("A", "C", ckpt, cfg, eval_epochs=8) < 1.0

    def test_pretrain_checkpoint_ignores_label_noise(self, tmp_path):
        # one stationary workload is one environment: a noisy label would
        # invent a second expert and take epochs from the saved one
        cfg = tiny_cfg(label_noise=0.5, t_c=8, seed=3)
        s = pretrain_checkpoint(cfg, "C", str(tmp_path))
        assert [ep.label for ep in s.epochs] == [0] * 8
        assert list(s.experts) == [0] and s.experts[0].updates == 8

    def test_missing_checkpoint_is_error(self, checkpoints):
        ckpt, cfg = checkpoints
        with pytest.raises(ConfigError):
            cross_eval("B", "A", ckpt, cfg)


class TestDetectorModes:
    def test_label_noise_routes_some_epochs_elsewhere(self):
        sc = scenario_cyclic(t_sw=10, keys=("A", "C"), cycles=2)
        s = run_experiment(tiny_cfg(scenario=sc, label_noise=0.3, seed=9))
        wrong = [ep for ep in s.epochs if ep.label != sc.label_of[ep.workload]]
        assert 0 < len(wrong) < 40

    def test_gmm_detector_fits_and_reports(self):
        sc = scenario_cyclic(t_sw=6, keys=("A", "C"), cycles=3)
        s = run_experiment(tiny_cfg(scenario=sc, detector="gmm",
                                    detector_warmup_epochs=12, t_c=3))
        # after warmup the reported labels should track the workload switches
        agree = np.mean([ep.label == sc.label_of[ep.workload] for ep in s.epochs[24:]])
        # component order is canonical (by arrival rate): A(25/s)=0, C(80/s)=1
        assert agree >= 0.7

    def test_gmm_feature_history_stops_growing_once_fitted(self):
        from nonstat_rl.harness import _Detector
        cfg = tiny_cfg(detector="gmm")
        det = _Detector(cfg, 2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        centres = ([25.0, 80.0], [80.0, 25.0])
        env = lambda i: SimpleNamespace(
            workload_features=lambda: rng.normal(centres[i % 2], 1.0))
        for i in range(30):
            det.observe_window(env(i).workload_features())
        det.start_epoch(cfg.detector_warmup_epochs, 0)
        assert det.gmm.fitted
        for i in range(30):
            det.observe_window(env(i).workload_features())
        assert len(det.history) == 30

    @pytest.mark.parametrize("scenario, label_noise, width", [
        (scenario_stationary("A", 1), 0.0, 1),
        (scenario_stationary("A", 1), 0.2, 2),   # the noisy label is 1
        (scenario_cyclic(1, keys=("A", "B", "C")), 0.2, 3),
    ])
    def test_truth_posterior_width_is_fixed_by_config(self, scenario, label_noise,
                                                      width):
        from nonstat_rl.harness import _Detector
        cfg = tiny_cfg(scenario=scenario, label_noise=label_noise)
        det = _Detector(cfg, len(scenario.keys), np.random.default_rng(0))
        for _ in range(20):
            label = det.start_epoch(0, 0)
            det.observe_window(None)
            [(post, reported)] = det.end_epoch()
            assert reported == label < width == det.width == len(post)
            assert post[label] == 1.0 == post.sum()

    def test_degenerate_gmm_posterior_keeps_the_width(self):
        from nonstat_rl.harness import _Detector
        det = _Detector(tiny_cfg(detector="gmm"), 3, None)
        constant = SimpleNamespace(workload_features=lambda: np.array([5.0, 1.0]))
        for _ in range(30):
            det.observe_window(constant.workload_features())
        assert [len(post) for post, _ in det.end_epoch()] == [3] * 30
        with pytest.warns(UserWarning, match="degenerate"):
            det.start_epoch(det.cfg.detector_warmup_epochs, 0)
        assert det.gmm.degenerate
        det.observe_window(constant.workload_features())
        [(post, reported)] = det.end_epoch()
        assert reported == 0 and list(post) == [1.0, 0.0, 0.0]

    def test_paper_scale_fields(self):
        cfg = paper_scale(tiny_cfg())
        assert cfg.t_c == 6000 and cfg.episode_len == 128
        abr = paper_scale(abr_defaults(scenario_stationary("UG1", 1)))
        assert abr.t_c == 3000 and abr.episode_len == 490


def tiny_env_cfg(env, **kw):
    """A few epochs of either case study with two workloads."""
    if env == "straggler":
        return tiny_cfg(scenario=scenario_cyclic(2, keys=("A", "C"), cycles=2),
                        detector_warmup_epochs=2, **kw)
    return abr_defaults(scenario_cyclic(2, keys=("UG1", "UG3"), cycles=2), t_c=2,
                        episode_len=12, entropy_epochs=2, guard_anneal_epochs=3,
                        guard_calibration_epochs=1, detector_warmup_epochs=2,
                        seed=2, **kw)


class TestWorkloadFeaturesReadOnlyWhereUsed:
    """Workload features are computed only for the GMM detector and for a
    `workload_info` observation, at most once per window; they draw
    nothing, so skipping them moves no result."""

    @pytest.mark.parametrize("env", ["straggler", "abr"])
    def test_truth_run_without_workload_info_never_computes_them(self, env,
                                                                  monkeypatch, tmp_path):
        def refuse(self):
            raise AssertionError("workload features computed, and no one reads them")

        monkeypatch.setattr(AbrEnv, "workload_features", refuse)
        monkeypatch.setattr(StragglerSim, "workload_features", refuse)
        s = run_experiment(tiny_env_cfg(env, out_dir=str(tmp_path / "run")))
        assert len(s.epochs) == 8 and not s.diverged
        key = "C" if env == "straggler" else "UG3"
        assert np.isfinite(evaluate_policy(tiny_env_cfg(env), lambda obs, rng: 0,
                                           key, 2, seed=3))

    @pytest.mark.parametrize("env", ["straggler", "abr"])
    @pytest.mark.parametrize("detector,workload_info,per_window,initial", [
        ("gmm", False, 1, 0),      # the detector reads every window
        ("truth", True, 1, 1),     # every observation, the first one too
        ("gmm", True, 1, 1),       # both readers share one computation
    ])
    def test_readers_compute_them(self, env, detector, workload_info, per_window,
                                  initial, monkeypatch):
        calls = []
        for cls in (AbrEnv, StragglerSim):
            def counted(self, inner=cls.workload_features):
                calls.append(type(self))
                return inner(self)
            monkeypatch.setattr(cls, "workload_features", counted)
        cfg = tiny_env_cfg(env, detector=detector, workload_info=workload_info)
        s = run_experiment(cfg)
        windows = len(s.epochs) * cfg.episode_len
        assert len(calls) == per_window * windows + initial
        assert set(calls) == {StragglerSim if env == "straggler" else AbrEnv}


class TestDivergenceHandling:
    def test_diverged_run_is_recorded_not_raised(self, tmp_path):
        cfg = tiny_cfg(lr=1e9, out_dir=str(tmp_path / "d"))  # force blow-up
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = run_experiment(cfg)
        # the absurd learning rate overflows Adam's second moment, which is
        # divergence: recorded in the summary, never raised
        assert isinstance(s, RunSummary)
        assert s.diverged
        with open(tmp_path / "d" / "status.json") as fh:
            assert json.load(fh)["diverged"] == s.diverged
