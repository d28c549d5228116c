"""Training-time rebuffer protection in the streaming environment.

Trains an actor-critic on the low-bandwidth user group twice -- once bare,
once behind the annealed buffer-threshold guard with fictitious low-buffer
observations -- and compares cumulative rebuffering during early training
plus final quality. Takes a couple of minutes.

Run: python demos/fake_replay_guard.py
"""

import numpy as np

from nonstat_rl.harness import abr_defaults, run_experiment, scenario_stationary

scenario = scenario_stationary("UG1", 300)
runs = {}
for guarded in (False, True):
    cfg = abr_defaults(scenario, safeguard=guarded, seed=5)
    summary = run_experiment(cfg)
    quarter = len(summary.epochs) // 4
    runs[guarded] = (
        sum(ep.rebuffer for ep in summary.epochs[:quarter]),
        float(np.mean([ep.metric for ep in summary.epochs[-60:]])),
    )
    tag = "guarded" if guarded else "plain"
    print(f"{tag:8s}: first-quarter rebuffer {runs[guarded][0]:8.1f} s, "
          f"final mean QoE {runs[guarded][1]:.2f}")

ratio = runs[True][0] / runs[False][0]
print(f"\nthe guard cuts early-training rebuffering to {ratio:.1%} of the "
      "bare agent's,\nwhile the fictitious low-buffer observations keep the "
      "final policy equivalent.")
