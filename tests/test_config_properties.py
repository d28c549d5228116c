"""Property test over the whole config surface of `run --config`.

Three tiny valid configs (straggler A2C, straggler DQN and ABR, each a
stationary run of 2 epochs of 4 windows) get one field, or one entry of
their scenario, replaced by an odd value. Whatever the value, the run either
stops before it starts, with exit 2, one `config error:` line and no output
directory, or it runs to its end: exit 0, or 3 when training diverged (a
divergence is recorded, not raised).
"""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from nonstat_rl.cli import main
from nonstat_rl.harness import ExperimentConfig, abr_defaults, scenario_stationary

BIG = 2**64
POOL = (float("nan"), float("inf"), float("-inf"), -1, 0, BIG, True, "x", None,
        [1], {"a": 1})
BASES = {
    "straggler-a2c": ExperimentConfig(scenario=scenario_stationary("A", 2),
                                      episode_len=4),
    "straggler-dqn": ExperimentConfig(scenario=scenario_stationary("A", 2),
                                      episode_len=4, learner="dqn"),
    "abr-a2c": abr_defaults(scenario_stationary("UG1", 2), episode_len=4),
}
# where the value goes: a config field, the scenario's name or dwell list, or
# the one dwell's workload key or length
PATHS = [(f.name,) for f in fields(ExperimentConfig)] + [
    ("scenario", "name"), ("scenario", "dwells"),
    ("scenario", "dwells", 0, 0), ("scenario", "dwells", 0, 1)]
# a run with BIG windows per epoch or BIG epochs is valid and never ends
ENDLESS = {("episode_len",), ("scenario", "dwells", 0, 1)}


def replaced(cfg, path, value):
    """`cfg` as JSON, with the entry at `path` set to `value`."""
    obj = cfg.to_json()
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.sampled_from(PATHS), st.sampled_from(POOL))
def test_one_odd_value_is_a_config_error_or_a_finished_run(base, path, value):
    obj = replaced(BASES[base], path, value)
    if path in ENDLESS and value is BIG:
        ExperimentConfig.from_json(obj)
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "run")
        with open(cfg_path, "w") as fh:
            json.dump(obj, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", cfg_path, "--seed", "1", "--out-dir", out])
        if rc == 2:
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
        else:
            assert rc in (0, 3)
