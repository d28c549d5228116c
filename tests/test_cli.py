"""CLI surface: subcommands, config files, exit codes."""

import csv
import json

import numpy as np
import pytest

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


def test_unknown_scenario_is_config_error(tmp_path):
    rc = main(["run", "--seed", "1", "--out-dir", str(tmp_path / "x"),
               "--scenario", "bogus"])
    assert rc == 2


def test_gen_traces_straggler(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["gen-traces", "--kind", "straggler", "--preset", "A",
                 "--windows", "10", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 10
    assert float(rows[0]["arrivals_per_s"]) == 25.0


def test_gen_traces_abr(tmp_path):
    out = tmp_path / "bw.csv"
    assert main(["gen-traces", "--kind", "abr", "--preset", "UG2",
                 "--duration-s", "30", "--seed", "1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 30
    assert all(float(r["throughput_kbps"]) > 0 for r in rows)


def test_gen_traces_unknown_preset(tmp_path):
    assert main(["gen-traces", "--kind", "abr", "--preset", "UG9",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_aggregate(tmp_path):
    ts = tmp_path / "ts.csv"
    with open(ts, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "t_ms", "workload_true", "workload_detected",
                    "controller", "metric"])
        for i, (wk, m) in enumerate([("A", 1.0), ("A", 3.0), ("B", 10.0)]):
            w.writerow([i, 0, wk, 0, "agent", m])
    out = tmp_path / "agg.csv"
    assert main(["aggregate", "--inputs", str(ts), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["workload_true"] for r in rows] == ["A", "B"]
    assert float(rows[0]["count"]) == 2


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
], ids=["unknown-json-key", "json-scenario-without-name", "json-string-number",
        "json-malformed-widths", "unknown-workload", "workload-of-other-env",
        "zero-episode-len", "label-noise-above-one", "negative-mu",
        "unknown-env", "unknown-learner", "unknown-expert-mode", "unknown-buffer",
        "unknown-detector"])
def test_invalid_config_exits_2_with_one_line(flags, tmp_path, capsys):
    if callable(flags):
        flags = flags(tmp_path)
    out = tmp_path / "run"
    rc = main(["run", "--seed", "1", "--out-dir", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()
