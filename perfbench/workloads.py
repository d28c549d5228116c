"""The benchmark's workloads: one `ExperimentConfig` per name.

Each config is a ROADMAP baseline shape. `dwell` overrides the epochs per
scenario dwell (the self-test uses it to run at tiny length); the timed
benchmark always uses the default.
"""

NAMES = ("straggler-a2c-gmm", "straggler-dqn-ltst", "abr-a2c-guard")

# Epochs per workload dwell at full length; each scenario has three dwells.
DEFAULT_DWELL = {"straggler-a2c-gmm": 120, "straggler-dqn-ltst": 120,
                 "abr-a2c-guard": 200}


def build_config(harness, name, seed, out_dir, dwell=None):
    """The workload's config; `harness` is the imported `nonstat_rl.harness`."""
    dwell = dwell or DEFAULT_DWELL[name]
    if name == "straggler-a2c-gmm":
        return harness.ExperimentConfig(
            scenario=harness.scenario_cyclic(dwell, cycles=1), learner="a2c",
            expert_mode="multi", detector="gmm", seed=seed, out_dir=out_dir)
    if name == "straggler-dqn-ltst":
        return harness.ExperimentConfig(
            scenario=harness.scenario_cyclic(dwell, cycles=1), learner="dqn",
            expert_mode="single", buffer="ltst", detector="truth", seed=seed,
            out_dir=out_dir)
    if name == "abr-a2c-guard":
        return harness.abr_defaults(
            harness.scenario_cyclic(dwell, keys=("UG1", "UG2", "UG3"), cycles=1),
            safeguard=True, seed=seed, out_dir=out_dir)
    raise ValueError(f"unknown workload {name!r}")


def paper_scale_steps(harness, cfg):
    """Agent decisions in the same schedule at `paper_scale()` budgets: each
    dwell stretches with the convergence span t_c."""
    big = harness.paper_scale(cfg)
    epochs = cfg.scenario.total_epochs * big.t_c / cfg.t_c
    return int(round(epochs * big.episode_len))
