"""Command-line entry point.

Subcommands:
  run         execute one experiment (config from flags or a JSON file)
  cross-eval  frozen-policy transfer between two workloads
  aggregate   pooled box statistics per workload from timeseries CSV files

Exit codes: 0 success, 2 configuration error, 3 training divergence recorded.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import csv
import json
import sys
from dataclasses import fields, replace

from .errors import ConfigError
from .harness import (ExperimentConfig, abr_defaults, cross_eval, paper_scale,
                      paper_scale_fields, pretrain_checkpoint, run_experiment,
                      scenario_cyclic, scenario_new_workload,
                      scenario_rare_reoccur, scenario_stationary)
from .stats import BoxStats


# `run` rejects each of these that is given and `_build_scenario` does not read
_SCENARIO_FLAGS = ("cycles", "t_sw", "t_sw_mult", "epochs")


def _build_scenario(name, env, t_c, flag):
    """The scenario `name`; `flag(name, default)` gives a scenario flag's
    value, and is asked only for the flags the scenario reads."""
    def switch_period():
        t_sw = flag("t_sw", None)
        return int(round(flag("t_sw_mult", 1.0) * t_c)) if t_sw is None else t_sw
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


# `run`'s flags named for ExperimentConfig fields, each parsed to its field's
# type; ExperimentConfig checks the values, so a bad one is a config error
_FIELD_FLAGS = ("seed", "out_dir", "env", "learner", "expert_mode", "buffer", "t_c",
                "episode_len", "lr", "gamma", "entropy_start", "entropy_epochs",
                "reward_scale", "guard_anneal_epochs", "workload_info", "detector",
                "label_noise")
# the field flags `run` needs without --config; with it, each one given
# replaces the file's value
_CONFIG_OVERRIDES = ("seed", "out_dir")


def _cmd_run(args):
    # `run` parses no defaults: `given` holds the flags given, in command-line
    # order; each is popped where it is read, and the rest set config fields
    given = vars(args)
    del given["cmd"], given["fn"]
    if "config" in given:
        path = given.pop("config")
        other = [name for name in given if name not in _CONFIG_OVERRIDES]
        if other:
            raise ConfigError(f"with --config, give only --seed and --out-dir, "
                              f"not {_flags(other)}")
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
        cfg = replace(ExperimentConfig.from_json(obj), **given)
    else:
        missing = [name for name in _CONFIG_OVERRIDES if name not in given]
        if missing:
            raise ConfigError(f"without --config, give {_flags(missing)}")
        env = given.pop("env", "straggler")
        base = (abr_defaults(scenario_stationary("UG1", 1)) if env == "abr"
                else ExperimentConfig(scenario=scenario_stationary("A", 1)))
        if given.pop("paper_scale", False):
            scaled = [name for name in given if name in paper_scale_fields(base.env)]
            if scaled:
                raise ConfigError(f"--paper-scale sets {_flags(scaled)}; "
                                  f"do not give them with it")
            base = paper_scale(base)
        t_c = given.pop("t_c", base.t_c)
        name = given.pop("scenario", "I")
        scenario = _build_scenario(name, env, t_c, given.pop)
        unread = [flag for flag in given if flag in _SCENARIO_FLAGS]
        if unread:
            raise ConfigError(f"--scenario {name} does not read {_flags(unread)}")
        safeguard = not given.pop("no_safeguard", False)
        cfg = replace(base, scenario=scenario, env=env, safeguard=safeguard,
                      t_c=t_c, **given)
    if not cfg.out_dir:     # the run would write nothing
        raise ConfigError("the output directory is empty: give --out-dir")
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
    # every row with a metric counts, exploration epochs included; the inputs
    # are read in full before `--out` is opened, so a bad one writes nothing
    groups = {}
    for path in args.inputs:
        try:
            fh = open(path, newline="")
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
        with fh:
            reader = csv.DictReader(fh)
            missing = sorted({"metric", "workload_true"} - set(reader.fieldnames or ()))
            if missing:
                raise ConfigError(f"{path} has no column {', '.join(missing)}")
            for row in reader:
                if row["metric"] == "":
                    continue
                try:
                    value = float(row["metric"])
                except (TypeError, ValueError):
                    raise ConfigError(f"{path} line {reader.line_num}: metric "
                                      f"{row['metric']!r} is not a number") from None
                groups.setdefault(row["workload_true"], []).append(value)
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else _open_out(args.out)) as out:
        w = csv.writer(out)
        w.writerow(["workload_true", "p1", "p25", "p50", "p75", "p99", "mean", "count"])
        for key in sorted(groups):
            stats = BoxStats.from_values(groups[key])
            w.writerow([key, *(f"{v:.6f}" for v in stats.row()), stats.count])
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="nonstat-rl",
                                description="online RL for time-varying systems")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run one experiment",
                       argument_default=argparse.SUPPRESS)
    r.add_argument("--config",
                   help="JSON config file; with it, no flag but --seed and "
                        "--out-dir may be given, each replacing the file's value")
    r.add_argument("--scenario",
                   help="I | II | III | drift | fastswitch | stationary:<KEY>; "
                        "II, III, drift and fastswitch are straggler scenarios")
    r.add_argument("--cycles", type=int)
    r.add_argument("--t-sw", type=int, help="switch period in epochs")
    r.add_argument("--t-sw-mult", type=float,
                   help="switch period as a multiple of T_c")
    r.add_argument("--epochs", type=int,
                   help="total epochs for single-workload scenarios")
    annotations = {f.name: f.type for f in fields(ExperimentConfig)}
    for name in _FIELD_FLAGS:
        kind = getattr(builtins, annotations[name])     # int, float, str or bool
        r.add_argument("--" + name.replace("_", "-"),
                       **{"action": "store_true"} if kind is bool else {"type": kind})
    r.add_argument("--no-safeguard", action="store_true")
    r.add_argument("--paper-scale", action="store_true",
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

    a = sub.add_parser("aggregate", help="pooled box stats per workload from timeseries files")
    a.add_argument("--inputs", nargs="+", required=True)
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
