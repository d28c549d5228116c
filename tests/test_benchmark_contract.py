"""The names `perfbench/tracing.py` wraps still exist and are still called.

The tracer patches classes for the whole process, so each run happens in a
fresh interpreter: it installs the tracer, runs one tiny config and prints
the per-layer call counts. A wrapped name that was renamed, deleted or
called around its module or class attribute shows up here as an error or
as a layer with no calls.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
import tracing
from nonstat_rl import harness
tracer = tracing.Tracer()
tracing.install(tracer)
harness.run_experiment(harness.ExperimentConfig.from_json(json.loads(sys.argv[1])))
metrics = tracing.layer_metrics(tracer, tracer.arrays())
print(json.dumps({k: v for k, (v, _) in metrics.items()}))
"""

NETS = ("nets.forward", "nets.forward_train", "nets.backward", "nets.adam_step")
STRAGGLER = dict(t_c=2, episode_len=8,
                 scenario={"name": "s", "dwells": [["A", 2], ["C", 2]] * 2})
ABR = dict(env="abr", t_c=2, episode_len=12, gamma=0.96, lr=0.01, reward_scale=10.0,
           entropy_epochs=2, guard_calibration_epochs=1, guard_anneal_epochs=3,
           scenario={"name": "s", "dwells": [["UG1", 2], ["UG3", 2]] * 2})

# config, layers that must record calls, layers that must record none
CASES = {
    "straggler-a2c-gmm": (
        dict(STRAGGLER, detector="gmm", detector_warmup_epochs=2),
        ("straggler.step", "straggler.workload_features", "a2c.act", "a2c.update",
         "framework.gmm_posterior", "framework.gmm_classify", "framework.monitor_step")
        + NETS, ("abr.", "dqn.", "replay.")),
    "straggler-dqn-ltst": (
        dict(STRAGGLER, learner="dqn", expert_mode="single", batch_size=8,
             eps_random_epochs=1, eps_decay_epochs=2),
        ("straggler.step", "dqn.act", "dqn.train_from", "replay.insert",
         "replay.sample", "nets.forward_batch", "framework.monitor_step") + NETS,
        ("abr.", "a2c.", "framework.gmm_", "straggler.workload_features")),
    "abr-a2c-guard": (
        ABR, ("abr.env_step", "abr.bandwidth_generate", "abr.guard_step", "a2c.act",
              "a2c.update") + NETS,
        ("straggler.", "dqn.", "replay.", "framework.", "abr.workload_features")),
}


@pytest.mark.parametrize("name", CASES)
def test_traced_run_records_every_wrapped_layer(name, tmp_path):
    cfg, called, bypassed = CASES[name]
    cfg = dict(cfg, seed=3, out_dir=str(tmp_path / "run"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    for layer in called:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["harness.write_artifacts.ms"] > 0
    for key, value in metrics.items():
        if key.endswith(".calls") and key.startswith(bypassed):
            assert value == 0, key
    if name == "straggler-a2c-gmm":
        assert metrics["framework.gmm_fit.ms"] > 0
        assert (metrics["straggler.workload_features.calls"]
                == metrics["straggler.step.calls"])
