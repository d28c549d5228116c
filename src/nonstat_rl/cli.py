"""Command-line entry point.

Subcommands:
  run         execute one experiment (config from flags or a JSON file)
  cross-eval  frozen-policy transfer between two workloads
  aggregate   pooled box statistics from timeseries CSV files

Exit codes: 0 success, 2 configuration error, 3 training divergence recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import replace

from .errors import ConfigError
from .harness import (ExperimentConfig, abr_defaults, aggregate_boxstats,
                      aggregate_timeseries_files, cross_eval, paper_scale,
                      paper_scale_fields, pretrain_checkpoint, run_experiment,
                      scenario_cyclic, scenario_new_workload,
                      scenario_rare_reoccur, scenario_stationary)


# `run` rejects each of these that is given and `_build_scenario` does not read
_SCENARIO_FLAGS = ("cycles", "t_sw", "t_sw_mult", "epochs")


def _build_scenario(name, env, t_c, flag):
    """The scenario `name`; `flag(name, default)` gives a scenario flag's
    value, and the flags it is asked for are the ones the scenario reads."""
    switch_period = lambda: flag("t_sw", int(round(flag("t_sw_mult", 1.0) * t_c)))
    if name == "I":
        if env == "abr":
            return scenario_cyclic(switch_period(),
                                   keys=("UG1", "UG2", "UG3", "UG4", "UG5"),
                                   cycles=flag("cycles", 2))
        return scenario_cyclic(switch_period(), cycles=flag("cycles", 2))
    if name == "II":
        return scenario_new_workload(switch_period())
    if name == "III":
        return scenario_rare_reoccur(switch_period())
    if name == "drift":
        return scenario_stationary("drift", flag("epochs", 6 * t_c), name="SmoothDrift")
    if name == "fastswitch":
        return scenario_stationary("fastswitch", flag("epochs", 6 * t_c),
                                   name="FastSwitch")
    if name.startswith("stationary:"):
        return scenario_stationary(name.split(":", 1)[1], flag("epochs", t_c))
    raise ConfigError(f"unknown scenario {name!r}")


def _flags(names):
    return ", ".join("--" + name.replace("_", "-") for name in names)


# `run`'s config flags parse to None when not given, so that any given next
# to --config can be named. Without --config, a flag named for a config field
# sets it when given (else the base config's value stands), and these two
# give the environment and scenario when not given.
_SCENARIO_DEFAULTS = {"env": "straggler", "scenario": "I"}
_FIELD_FLAGS = ("learner", "expert_mode", "buffer", "workload_info", "detector",
                "label_noise", "episode_len", "lr", "gamma", "entropy_start",
                "entropy_epochs", "reward_scale", "guard_anneal_epochs")
_NOT_CONFIG_FLAGS = ("cmd", "fn", "config", "seed", "out_dir")


def _cmd_run(args):
    given = {name: value for name, value in vars(args).items()
             if value is not None and name not in _NOT_CONFIG_FLAGS}
    if args.config:
        if given:
            raise ConfigError(f"with --config, give only --seed and --out-dir, "
                              f"not {_flags(given)}")
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
        cfg = replace(ExperimentConfig.from_json(obj), seed=args.seed,
                      out_dir=args.out_dir)
    else:
        for name, default in _SCENARIO_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        if args.env == "abr":
            base = abr_defaults(scenario_stationary("UG1", 1))
        else:
            base = ExperimentConfig(scenario=scenario_stationary("A", 1))
        if args.paper_scale:
            scaled = [name for name in given if name in paper_scale_fields(base.env)]
            if scaled:
                raise ConfigError(f"--paper-scale sets {_flags(scaled)}; "
                                  f"do not give them with it")
            base = paper_scale(base)
        if "t_sw" in given and "t_sw_mult" in given:
            raise ConfigError("give --t-sw or --t-sw-mult, not both")
        t_c = given.get("t_c", base.t_c)
        read = set()

        def flag(name, default=None):
            read.add(name)
            return given.get(name, default)

        scenario = _build_scenario(args.scenario, args.env, t_c, flag)
        unread = [name for name in _SCENARIO_FLAGS if name in given and name not in read]
        if unread:
            raise ConfigError(f"--scenario {args.scenario} does not read "
                              f"{_flags(unread)}")
        cfg = replace(
            base, scenario=scenario, env=args.env,
            safeguard=not args.no_safeguard, seed=args.seed, out_dir=args.out_dir,
            t_c=t_c, **{name: given[name] for name in _FIELD_FLAGS if name in given},
        )
    summary = run_experiment(cfg)
    print(f"done: {len(summary.epochs)} epochs, "
          f"post-convergence from {summary.post_convergence_from}, "
          f"outputs in {cfg.out_dir}")
    for key, stats in summary.per_workload.items():
        print(f"  {key}: median {stats.p50:.2f}  mean {stats.mean:.2f}")
    return 3 if summary.diverged else 0


def _open_out(path):
    """`path` opened for a CSV result; an unwritable path is a config error."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _cmd_cross_eval(args):
    cfg = ExperimentConfig(scenario=scenario_stationary(args.train, 1),
                           seed=args.seed)
    # opened first, so a bad path costs no pretraining or evaluation
    with _open_out(args.out) if args.out else contextlib.nullcontext() as out:
        if args.pretrain:
            for key in {args.train, args.test}:
                pretrain_checkpoint(cfg, key, args.checkpoints)
        value = cross_eval(args.train, args.test, args.checkpoints, cfg,
                           eval_epochs=args.eval_epochs, seed=args.seed)
        print(f"normalized({args.train}->{args.test}) = {value:.4f}")
        if out is not None:
            w = csv.writer(out)
            w.writerow(["train", "test", "normalized"])
            w.writerow([args.train, args.test, f"{value:.6f}"])
    return 0


def _cmd_aggregate(args):
    groups = aggregate_timeseries_files(args.inputs, group_col=args.group_col)
    rows = aggregate_boxstats(groups)
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else _open_out(args.out)) as out:
        w = csv.writer(out)
        w.writerow([args.group_col, "p1", "p25", "p50", "p75", "p99", "mean", "count"])
        w.writerows(rows)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="nonstat-rl",
                                description="online RL for time-varying systems")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run one experiment")
    r.add_argument("--config",
                   help="JSON config file; with it, no flag but --seed and "
                        "--out-dir may be given")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out-dir", required=True)
    # the config flags: ExperimentConfig checks their values, so a bad one is
    # a one-line config error
    r.add_argument("--env")
    r.add_argument("--learner")
    r.add_argument("--expert-mode")
    r.add_argument("--buffer")
    r.add_argument("--scenario",
                   help="I | II | III | drift | fastswitch | stationary:<KEY>; "
                        "II, III, drift and fastswitch are straggler scenarios")
    r.add_argument("--cycles", type=int)
    r.add_argument("--t-sw", type=int, help="switch period in epochs")
    r.add_argument("--t-sw-mult", type=float,
                   help="switch period as a multiple of T_c")
    r.add_argument("--epochs", type=int,
                   help="total epochs for single-workload scenarios")
    r.add_argument("--t-c", type=int)
    r.add_argument("--episode-len", type=int)
    r.add_argument("--lr", type=float)
    r.add_argument("--gamma", type=float)
    r.add_argument("--entropy-start", type=float)
    r.add_argument("--entropy-epochs", type=int)
    r.add_argument("--reward-scale", type=float)
    r.add_argument("--guard-anneal-epochs", type=int)
    r.add_argument("--workload-info", action="store_true", default=None)
    r.add_argument("--no-safeguard", action="store_true", default=None)
    r.add_argument("--detector")
    r.add_argument("--label-noise", type=float)
    r.add_argument("--paper-scale", action="store_true", default=None,
                   help="use the full-size epoch budgets")
    r.set_defaults(fn=_cmd_run)

    c = sub.add_parser("cross-eval", help="frozen-policy transfer evaluation")
    c.add_argument("--train", required=True)
    c.add_argument("--test", required=True)
    c.add_argument("--checkpoints", required=True)
    c.add_argument("--pretrain", action="store_true",
                   help="train missing checkpoints first")
    c.add_argument("--eval-epochs", type=int, default=25)
    c.add_argument("--seed", type=int, default=1234)
    c.add_argument("--out", default="")
    c.set_defaults(fn=_cmd_cross_eval)

    a = sub.add_parser("aggregate", help="pooled box stats from timeseries files")
    a.add_argument("--inputs", nargs="+", required=True)
    a.add_argument("--group-col", default="workload_true")
    a.add_argument("--out", default="-")
    a.set_defaults(fn=_cmd_aggregate)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
