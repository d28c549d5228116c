"""CLI surface: subcommands, config files, exit codes."""

import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from nonstat_rl import cli, harness
from nonstat_rl.cli import main
from nonstat_rl.harness import ExperimentConfig, scenario_stationary


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_with_flags(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["run", "--seed", "3", "--out-dir", str(out),
               "--scenario", "stationary:C", "--epochs", "4", "--t-c", "3",
               "--episode-len", "8", "--entropy-epochs", "2"])
    assert rc == 0
    assert (out / "summary.csv").exists()
    assert "post-convergence" in capsys.readouterr().out


def test_run_with_config_file(tmp_path):
    cfg = ExperimentConfig(scenario=scenario_stationary("C", 3), t_c=2,
                           episode_len=6, entropy_epochs=2)
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_json(), fh)
    out = tmp_path / "run"
    rc = main(["run", "--config", str(path), "--seed", "9", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "config.json") as fh:
        assert json.load(fh)["seed"] == 9


def test_config_file_run_repeats_itself_with_its_own_seed(tmp_path):
    # a run's own config.json, fed back with only --out-dir, gives the same
    # rows; --seed still replaces the file's seed
    first, again, reseeded = (tmp_path / n for n in ("first", "again", "reseeded"))
    assert main(["run", "--seed", "4", "--out-dir", str(first),
                 "--scenario", "stationary:C", "--epochs", "3", "--t-c", "2",
                 "--episode-len", "6", "--entropy-epochs", "2"]) == 0
    config = str(first / "config.json")
    assert main(["run", "--config", config, "--out-dir", str(again)]) == 0
    assert main(["run", "--config", config, "--out-dir", str(reseeded),
                 "--seed", "5"]) == 0
    for name in ("timeseries.csv", "detections.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    assert (reseeded / "timeseries.csv").read_bytes() != (first / "timeseries.csv").read_bytes()
    with open(reseeded / "config.json") as fh:
        assert json.load(fh)["seed"] == 5


def test_config_file_run_without_out_dir_writes_into_its_own(tmp_path, monkeypatch):
    configs = stub_run(monkeypatch)
    obj = ExperimentConfig(scenario=scenario_stationary("C", 3), seed=77,
                           out_dir=str(tmp_path / "elsewhere")).to_json()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert main(["run", "--config", str(path)]) == 0
    assert main(["run", "--out-dir", "o", "--config", str(path)]) == 0
    assert [(cfg.seed, cfg.out_dir) for cfg in configs] == [
        (77, str(tmp_path / "elsewhere")), (77, "o")]
    # a file without an out_dir of its own needs --out-dir
    path.write_text(json.dumps(dict(obj, out_dir="")))
    assert main(["run", "--config", str(path)]) == 2
    assert len(configs) == 2


@pytest.mark.parametrize("flags, missing", [
    (["--out-dir", "x"], "--seed"),
    (["--seed", "1"], "--out-dir"),
    ([], "--seed, --out-dir"),
], ids=["no-seed", "no-out-dir", "neither"])
def test_run_without_config_needs_seed_and_out_dir(flags, missing, capsys, monkeypatch):
    configs = stub_run(monkeypatch)
    rc = main(["run", "--scenario", "stationary:C", *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(missing)
    assert configs == []


def test_unknown_scenario_is_config_error(tmp_path):
    rc = main(["run", "--seed", "1", "--out-dir", str(tmp_path / "x"),
               "--scenario", "bogus"])
    assert rc == 2


def fail_if_called(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return fail


def assert_one_line_config_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_unwritable_out_dir_fails_before_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_loop", fail_if_called("training"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["run", "--seed", "1", "--out-dir", str(blocker / "sub"),
               "--scenario", "stationary:C", "--epochs", "2", "--t-c", "1",
               "--episode-len", "4"])
    assert_one_line_config_error(rc, capsys)


def stub_run(monkeypatch):
    """Stub `run_experiment` in the CLI; returns the list of configs it got."""
    configs = []

    def run(cfg):
        configs.append(cfg)
        return SimpleNamespace(epochs=[], post_convergence_from=0, per_workload={},
                               diverged=False)

    monkeypatch.setattr(cli, "run_experiment", run)
    return configs


@pytest.mark.parametrize("env, t_c, episode_len, n_keys", [
    ("straggler", 6000, 128, 3), ("abr", 3000, 490, 5)])
def test_paper_scale_builds_the_scenario_at_paper_t_c(env, t_c, episode_len, n_keys,
                                                      tmp_path, monkeypatch):
    configs = stub_run(monkeypatch)
    assert main(["run", "--seed", "1", "--out-dir", str(tmp_path), "--env", env,
                 "--scenario", "I", "--paper-scale"]) == 0
    cfg, = configs
    assert (cfg.t_c, cfg.episode_len) == (t_c, episode_len)
    assert [n for _, n in cfg.scenario.dwells] == [t_c] * (2 * n_keys)


@pytest.mark.parametrize("flags", [
    ["--t-c", "50"], ["--episode-len", "9"], ["--lr", "0.1"],
    ["--entropy-epochs", "3"], ["--env", "abr", "--guard-anneal-epochs", "5"],
], ids=["t-c", "episode-len", "lr", "entropy-epochs", "guard-anneal-epochs"])
def test_paper_scale_rejects_the_flags_it_sets(flags, tmp_path, capsys, monkeypatch):
    configs = stub_run(monkeypatch)
    rc = main(["run", "--seed", "1", "--out-dir", str(tmp_path / "x"),
               "--paper-scale", *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert flags[-2] in err
    assert configs == []


@pytest.mark.parametrize("flags, unread", [
    (["--scenario", "I", "--epochs", "5"], "--epochs"),
    (["--scenario", "II", "--epochs", "5"], "--epochs"),
    (["--scenario", "II", "--cycles", "3"], "--cycles"),
    (["--scenario", "drift", "--cycles", "3"], "--cycles"),
    (["--scenario", "stationary:C", "--t-sw", "4"], "--t-sw"),
    (["--scenario", "fastswitch", "--t-sw-mult", "2"], "--t-sw-mult"),
    (["--scenario", "I", "--t-sw", "4", "--t-sw-mult", "2"], "--t-sw-mult"),
], ids=["epochs-I", "epochs-II", "cycles-II", "cycles-drift", "t-sw-stationary",
        "t-sw-mult-fastswitch", "t-sw-and-t-sw-mult"])
def test_scenario_flag_the_scenario_does_not_read_exits_2(flags, unread, tmp_path,
                                                          capsys, monkeypatch):
    configs = stub_run(monkeypatch)
    rc = main(["run", "--seed", "1", "--out-dir", str(tmp_path / "x"), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert unread in err
    assert configs == []


def test_scenario_flags_where_read_build_the_schedule(tmp_path, monkeypatch):
    configs = stub_run(monkeypatch)
    out = str(tmp_path / "x")
    for flags in (["--scenario", "I", "--cycles", "3", "--t-sw", "4"],
                  ["--scenario", "III", "--t-sw-mult", "0.5", "--t-c", "10"],
                  ["--scenario", "drift", "--epochs", "7"]):
        assert main(["run", "--seed", "1", "--out-dir", out, *flags]) == 0
    cyclic, rare, drift = (cfg.scenario for cfg in configs)
    assert [n for _, n in cyclic.dwells] == [4] * 9
    assert {n for _, n in rare.dwells} == {5}
    assert drift.total_epochs == 7


def write_timeseries(path, rows):
    """A timeseries.csv holding one row per (workload, metric) in `rows`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "t_ms", "workload_true", "workload_detected",
                    "controller", "metric"])
        for i, (wk, m) in enumerate(rows):
            w.writerow([i, 0, wk, 0, "agent", m])
    return str(path)


def aggregate(tmp_path, *inputs):
    out = tmp_path / "agg.csv"
    assert main(["aggregate", "--inputs", *inputs, "--out", str(out)]) == 0
    return read_rows(out)


def test_aggregate(tmp_path):
    ts = write_timeseries(tmp_path / "ts.csv", [("A", 1.0), ("A", 3.0), ("B", 10.0)])
    rows = aggregate(tmp_path, ts)
    assert [r["workload_true"] for r in rows] == ["A", "B"]
    assert float(rows[0]["count"]) == 2


def test_aggregate_single_constant_group(tmp_path):
    rows = aggregate(tmp_path, write_timeseries(tmp_path / "ts.csv", [("g", 5.0)] * 10))
    assert [rows[0][p] for p in ("p1", "p25", "p50", "p75", "p99")] == ["5.000000"] * 5


def test_aggregate_pools_files_like_a_sort_oracle(tmp_path):
    rng = np.random.default_rng(8)
    a, b = rng.lognormal(1, 1, 300), rng.lognormal(2, 0.5, 200)
    rows = aggregate(tmp_path,
                     write_timeseries(tmp_path / "a.csv", [("g", v) for v in a]),
                     write_timeseries(tmp_path / "b.csv", [("g", v) for v in b]))
    pooled = np.sort(np.concatenate([a, b]))
    want = pooled[max(0, math.ceil(0.5 * pooled.size) - 1)]
    assert float(rows[0]["p50"]) == pytest.approx(want, abs=1e-6)
    assert int(rows[0]["count"]) == 500


def test_aggregate_reads_a_run_timeseries(tmp_path):
    run = tmp_path / "run"
    assert main(["run", "--seed", "5", "--out-dir", str(run),
                 "--scenario", "stationary:C", "--epochs", "3", "--t-c", "2",
                 "--episode-len", "6"]) == 0
    rows = aggregate(tmp_path, str(run / "timeseries.csv"))
    assert [r["workload_true"] for r in rows] == ["C"]
    assert int(rows[0]["count"]) == 3       # every epoch, exploration included


@pytest.mark.parametrize("header", [
    None, "epoch,workload_true", "epoch,metric", "metric,workload_true",
], ids=["missing-file", "no-metric-column", "no-workload-column",
        "non-numeric-metric"])
def test_aggregate_bad_input_exits_2_with_one_line(header, tmp_path, capsys):
    ts = tmp_path / "ts.csv"
    if header is not None:
        ts.write_text(header + "\nA,1.0\n")
    out = tmp_path / "agg.csv"
    rc = main(["aggregate", "--inputs", str(ts), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_aggregate_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    ts = tmp_path / "ts.csv"
    ts.write_text("workload_true,metric\nA,1.0\n")
    rc = main(["aggregate", "--inputs", str(ts),
               "--out", str(tmp_path / "missing" / "x.csv")])
    assert_one_line_config_error(rc, capsys)


def test_cross_eval_unwritable_out_fails_before_any_work(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "pretrain_checkpoint", fail_if_called("pretraining"))
    monkeypatch.setattr(cli, "cross_eval", fail_if_called("evaluation"))
    rc = main(["cross-eval", "--train", "C", "--test", "A",
               "--checkpoints", str(tmp_path / "ckpt"), "--pretrain",
               "--out", str(tmp_path / "missing" / "y.csv")])
    assert_one_line_config_error(rc, capsys)


def test_cross_eval_with_pretrain(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    rc = main(["cross-eval", "--train", "C", "--test", "C",
               "--checkpoints", str(ckpt), "--pretrain",
               "--eval-epochs", "3", "--seed", "4",
               "--out", str(tmp_path / "ce.csv")])
    assert rc == 0
    rows = read_rows(tmp_path / "ce.csv")
    assert float(rows[0]["normalized"]) == pytest.approx(1.0)


def _json(**changes):
    """Flags loading a JSON config file: a valid config with `changes`."""
    def flags(tmp_path):
        obj = ExperimentConfig(scenario=scenario_stationary("C", 3)).to_json()
        obj.update(changes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        return ["--config", str(path)]
    return flags


@pytest.mark.parametrize("flags", [
    _json(episode_length=8),    # misspelt key
    _json(scenario={"dwells": [["A", 3]]}),
    _json(scenario={"name": "s", "dwells": [["C", True]]}),
    _json(scenario={"name": "s", "dwells": [["C", 3.0]]}),
    _json(episode_len="8"),
    _json(phi_widths=["a"]),    # a removed key, malformed as well
    ["--scenario", "stationary:Z"],
    ["--env", "abr", "--scenario", "stationary:A"],
    ["--episode-len", "0"],
    ["--label-noise", "5"],
    _json(mu=-1.0),
    ["--env", "bogus"],
    ["--learner", "bogus"],
    ["--expert-mode", "bogus"],
    ["--buffer", "bogus"],
    ["--detector", "bogus"],
    _json(learner="dqn", train_every=0),
    _json(learner="dqn", batch_size=0),
    _json(reward_scale=0.0),
    _json(lr=-1.0),
    _json(gamma=-3.0),
    _json(gamma=1.5),
    _json(entropy_start=-0.1),
    _json(entropy_epochs=-1),
    _json(learner="dqn", eps_random_epochs=-1),
    _json(learner="dqn", eps_decay_epochs=-1),
    _json(guard_calibration_epochs=-1),
    _json(guard_anneal_epochs=-1),
    _json(detector="gmm", detector_warmup_epochs=-1),
    _json(buffer_capacity=0),
    _json(ltst_long_capacity=0),
    _json(small_capacity=0),
    ["--t-c", "0"],
    ["--t-sw", "0"],
    ["--scenario", "stationary:A", "--epochs", "0"],
    _json(safeguard="false"),
    _json(workload_info=1),
    _json(env=["straggler"]),
    ["--seed", "-1"],
    ["--lr", "nan"],
    _json(entropy_start=float("inf")),
    _json(reward_scale=float("inf")),
    ["--detector", "gmm", "--label-noise", "0.2"],
    _json(lr=10**400),          # an int beyond float range
    _json(scenario={"name": ["s"], "dwells": [["C", 3]]}),
    ["--out-dir", ""],
], ids=["unknown-json-key", "json-scenario-without-name", "json-bool-dwell",
        "json-float-dwell", "json-string-number",
        "json-malformed-widths", "unknown-workload", "workload-of-other-env",
        "zero-episode-len", "label-noise-above-one", "negative-mu",
        "unknown-env", "unknown-learner", "unknown-expert-mode", "unknown-buffer",
        "unknown-detector", "zero-train-every", "zero-batch-size", "zero-reward-scale",
        "negative-lr", "negative-gamma", "gamma-above-one", "negative-entropy-start",
        "negative-entropy-epochs", "negative-eps-random-epochs",
        "negative-eps-decay-epochs", "negative-guard-calibration-epochs",
        "negative-guard-anneal-epochs", "negative-detector-warmup-epochs",
        "zero-buffer-capacity", "zero-ltst-long-capacity", "zero-small-capacity",
        "zero-t-c", "zero-t-sw", "zero-epochs", "json-string-bool", "json-int-bool",
        "json-list-env", "negative-seed", "nan-lr", "json-inf-entropy-start",
        "json-inf-reward-scale", "gmm-label-noise", "json-int-lr-beyond-float",
        "json-list-scenario-name", "empty-out-dir"])
def test_invalid_config_exits_2_with_one_line(flags, tmp_path, capsys):
    if callable(flags):
        flags = flags(tmp_path)
    out = tmp_path / "run"
    rc = main(["run", "--seed", "1", "--out-dir", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--learner", "dqn", "--env", "abr", "--paper-scale", "--episode-len", "999"],
    ["--env", "straggler"],     # a flag's default value is ignored all the same
    ["--label-noise", "0"],
    ["--workload-info"],
    ["--t-sw", "0", "--cycles", "2"],
], ids=["several", "default-env", "zero-label-noise", "store-true", "zero-t-sw"])
def test_config_file_rejects_other_config_flags(extra, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["run", "--seed", "1", "--out-dir", str(out), *_json()(tmp_path), *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    for flag in extra:
        if flag.startswith("--"):
            assert flag in err
    assert not out.exists()
