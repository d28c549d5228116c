"""Harness behavior: scenario schedules, run artifacts, reproducibility,
oracle equivalence, batch-routing audits, cross-evaluation anchors, and
aggregation."""

import csv
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nonstat_rl.errors import ConfigError
from nonstat_rl.harness import (ExperimentConfig, RunSummary, Scenario,
                                abr_defaults, aggregate_boxstats,
                                aggregate_timeseries_files, cross_eval,
                                evaluate_policy, paper_scale,
                                pretrain_checkpoint, run_experiment,
                                scenario_cyclic, scenario_drift,
                                scenario_fastswitch, scenario_new_workload,
                                scenario_rare_reoccur, scenario_stationary)
from nonstat_rl.straggler import NO_HEDGE_ACTION


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

    def test_json_roundtrip(self):
        sc = scenario_new_workload(t_sw=7)
        back = Scenario.from_json(sc.to_json())
        assert back.dwells == sc.dwells and back.name == sc.name


class TestRunBasics:
    def test_straggler_a2c_run_shapes(self):
        s = run_experiment(tiny_cfg())
        assert len(s.epoch_metric) == 6
        assert s.epoch_workload == ["C"] * 6
        assert not s.diverged
        assert 0 in s.experts

    def test_dqn_run(self):
        s = run_experiment(tiny_cfg(learner="dqn", expert_mode="single"))
        assert len(s.epoch_metric) == 6

    def test_abr_run(self):
        cfg = abr_defaults(scenario_stationary("UG3", 4), t_c=3, episode_len=20,
                           entropy_epochs=2, guard_anneal_epochs=3,
                           guard_calibration_epochs=1, seed=2)
        s = run_experiment(cfg)
        assert len(s.epoch_metric) == 4
        assert all(m is not None for m in s.epoch_metric)
        assert len(s.epoch_rebuffer) == 4

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
        guarded = sum(e["controller_windows_default"] for e in s.training_log)
        trained = sum(e["n_steps"] for e in s.training_log)
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
        assert all(e["n_steps"] == 0 for e in s.training_log)
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
        dormant = [e for e in s.training_log
                   if e["workload_true"] != "C" and e["label_used"] == label_c]
        assert dormant == []

    def test_experts_only_trained_on_matching_epochs(self):
        sc = scenario_cyclic(t_sw=3, keys=("A", "C"), cycles=2)
        s = run_experiment(tiny_cfg(scenario=sc))
        for entry in s.training_log:
            assert entry["label_used"] == sc.label_of[entry["workload_true"]]


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
        assert [e["label_used"] for e in s.training_log] == [0] * 8
        assert list(s.experts) == [0] and s.experts[0].updates == 8

    def test_missing_checkpoint_is_error(self, checkpoints):
        ckpt, cfg = checkpoints
        with pytest.raises(ConfigError):
            cross_eval("B", "A", ckpt, cfg)


class TestAggregation:
    def test_single_constant_group(self):
        rows = aggregate_boxstats({"g": [5.0] * 10})
        assert rows[0][1:6] == ["5.000000"] * 5

    def test_pooled_matches_sort_oracle(self):
        rng = np.random.default_rng(8)
        a, b = rng.lognormal(1, 1, 300), rng.lognormal(2, 0.5, 200)
        rows = aggregate_boxstats({"g": list(a) + list(b)})
        pooled = np.sort(np.concatenate([a, b]))
        import math
        want = pooled[max(0, math.ceil(0.5 * pooled.size) - 1)]
        assert float(rows[0][3]) == pytest.approx(want, abs=1e-6)

    def test_empty_group_omitted(self):
        rows = aggregate_boxstats({"empty": [], "full": [1.0]})
        assert [r[0] for r in rows] == ["full"]

    def test_timeseries_file_grouping(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out_dir=str(out)))
        groups = aggregate_timeseries_files([str(out / "timeseries.csv")])
        assert "C" in groups and len(groups["C"]) > 0


class TestDetectorModes:
    def test_label_noise_routes_some_epochs_elsewhere(self):
        sc = scenario_cyclic(t_sw=10, keys=("A", "C"), cycles=2)
        s = run_experiment(tiny_cfg(scenario=sc, label_noise=0.3, seed=9))
        wrong = [e for e in s.training_log
                 if e["label_used"] != sc.label_of[e["workload_true"]]]
        assert 0 < len(wrong) < 40

    def test_gmm_detector_fits_and_reports(self):
        sc = scenario_cyclic(t_sw=6, keys=("A", "C"), cycles=3)
        s = run_experiment(tiny_cfg(scenario=sc, detector="gmm",
                                    detector_warmup_epochs=12, t_c=3))
        # after warmup the reported labels should track the workload switches
        tail = s.training_log[24:]
        agree = np.mean([
            e["label_used"] == sc.label_of[e["workload_true"]] for e in tail
        ])
        # component order is canonical (by arrival rate): A(25/s)=0, C(80/s)=1
        assert agree >= 0.7

    def test_gmm_feature_history_stops_growing_once_fitted(self):
        from nonstat_rl.harness import _Detector
        cfg = tiny_cfg(detector="gmm")
        det = _Detector(cfg, 2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        centres = ([25.0, 80.0], [80.0, 25.0])
        for i in range(30):
            det.observe_window(rng.normal(centres[i % 2], 1.0))
        det.maybe_fit(cfg.detector_warmup_epochs)
        assert det.gmm.fitted
        for i in range(30):
            det.observe_window(rng.normal(centres[i % 2], 1.0))
        assert len(det.history) == 30

    def test_paper_scale_fields(self):
        cfg = paper_scale(tiny_cfg())
        assert cfg.t_c == 6000 and cfg.episode_len == 128
        abr = paper_scale(abr_defaults(scenario_stationary("UG1", 1)))
        assert abr.t_c == 3000 and abr.episode_len == 490


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
