"""Command-line entry point.

Subcommands:
  run         execute one experiment (config from flags or a JSON file)
  cross-eval  frozen-policy transfer between two workloads
  aggregate   pooled box statistics from timeseries CSV files
  gen-traces  materialize synthetic workload / bandwidth traces

Exit codes: 0 success, 2 configuration error, 3 training divergence recorded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import abr as abr_mod
from . import straggler as st
from .errors import ConfigError
from .harness import (ExperimentConfig, abr_defaults, aggregate_boxstats,
                      aggregate_timeseries_files, cross_eval, paper_scale,
                      pretrain_checkpoint, run_experiment, scenario_cyclic,
                      scenario_drift, scenario_fastswitch, scenario_new_workload,
                      scenario_rare_reoccur, scenario_stationary)


def _build_scenario(args, env, t_c):
    t_sw = args.t_sw if args.t_sw else int(round(args.t_sw_mult * t_c))
    name = args.scenario
    if name == "I":
        if env == "abr":
            return scenario_cyclic(t_sw, keys=("UG1", "UG2", "UG3", "UG4", "UG5"),
                                   cycles=args.cycles)
        return scenario_cyclic(t_sw, cycles=args.cycles)
    if name == "II":
        return scenario_new_workload(t_sw)
    if name == "III":
        return scenario_rare_reoccur(t_sw)
    if name == "drift":
        return scenario_drift(args.epochs or 6 * t_c)
    if name == "fastswitch":
        return scenario_fastswitch(args.epochs or 6 * t_c)
    if name.startswith("stationary:"):
        return scenario_stationary(name.split(":", 1)[1], args.epochs or t_c)
    raise ConfigError(f"unknown scenario {name!r}")


def _cmd_run(args):
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
        cfg = replace(ExperimentConfig.from_json(obj), seed=args.seed,
                      out_dir=args.out_dir)
    else:
        if args.env == "abr":
            base = abr_defaults(scenario_stationary("UG1", 1))
        else:
            base = ExperimentConfig(scenario=scenario_stationary("A", 1))
        t_c = args.t_c or base.t_c
        overrides = {name: getattr(args, name) for name in (
            "episode_len", "lr", "gamma", "entropy_start", "entropy_epochs",
            "reward_scale", "guard_anneal_epochs") if getattr(args, name) is not None}
        cfg = replace(
            base, scenario=_build_scenario(args, args.env, t_c), env=args.env,
            learner=args.learner, expert_mode=args.expert_mode,
            buffer=args.buffer, workload_info=args.workload_info,
            safeguard=not args.no_safeguard, detector=args.detector,
            label_noise=args.label_noise, seed=args.seed, out_dir=args.out_dir,
            t_c=t_c, **overrides,
        )
        if args.paper_scale:
            cfg = paper_scale(cfg)
    summary = run_experiment(cfg)
    print(f"done: {len(summary.epoch_metric)} epochs, "
          f"post-convergence from {summary.post_convergence_from}, "
          f"outputs in {cfg.out_dir}")
    for key, stats in summary.per_workload.items():
        print(f"  {key}: median {stats.p50:.2f}  mean {stats.mean:.2f}")
    return 3 if summary.diverged else 0


def _cmd_cross_eval(args):
    cfg = ExperimentConfig(scenario=scenario_stationary(args.train, 1),
                           seed=args.seed)
    if args.pretrain:
        for key in {args.train, args.test}:
            pretrain_checkpoint(cfg, key, args.checkpoints)
    value = cross_eval(args.train, args.test, args.checkpoints, cfg,
                       eval_epochs=args.eval_epochs, seed=args.seed)
    print(f"normalized({args.train}->{args.test}) = {value:.4f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["train", "test", "normalized"])
            w.writerow([args.train, args.test, f"{value:.6f}"])
    return 0


def _cmd_aggregate(args):
    groups = aggregate_timeseries_files(args.inputs, group_col=args.group_col)
    rows = aggregate_boxstats(groups)
    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        w = csv.writer(out)
        w.writerow([args.group_col, "p1", "p25", "p50", "p75", "p99", "mean", "count"])
        w.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_gen_traces(args):
    if args.kind == "straggler":
        if args.preset not in st.WORKLOAD_PRESETS:
            raise ConfigError(f"unknown workload preset {args.preset!r}")
        st.write_trace_csv(args.out, st.WORKLOAD_PRESETS[args.preset], args.windows)
    else:
        if args.preset not in abr_mod.USER_GROUPS:
            raise ConfigError(f"unknown user group {args.preset!r}")
        gen = abr_mod.BandwidthGen(abr_mod.USER_GROUPS[args.preset],
                                   np.random.default_rng(args.seed))
        abr_mod.write_bandwidth_csv(args.out, gen.generate(args.duration_s))
    print(f"wrote {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="nonstat-rl",
                                description="online RL for time-varying systems")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run one experiment")
    r.add_argument("--config", help="JSON config file (overrides most flags)")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out-dir", required=True)
    r.add_argument("--env", choices=("straggler", "abr"), default="straggler")
    r.add_argument("--learner", choices=("a2c", "dqn"), default="a2c")
    r.add_argument("--expert-mode", choices=("single", "multi", "oracle"),
                   default="multi")
    r.add_argument("--buffer", choices=("large", "small", "ltst", "multi"),
                   default="ltst")
    r.add_argument("--scenario", default="I",
                   help="I | II | III | drift | fastswitch | stationary:<KEY>")
    r.add_argument("--cycles", type=int, default=2)
    r.add_argument("--t-sw", type=int, default=0, help="switch period in epochs")
    r.add_argument("--t-sw-mult", type=float, default=1.0,
                   help="switch period as a multiple of T_c")
    r.add_argument("--epochs", type=int, default=0,
                   help="total epochs for single-workload scenarios")
    r.add_argument("--t-c", type=int, default=0)
    r.add_argument("--episode-len", type=int, default=None)
    r.add_argument("--lr", type=float, default=None)
    r.add_argument("--gamma", type=float, default=None)
    r.add_argument("--entropy-start", type=float, default=None)
    r.add_argument("--entropy-epochs", type=int, default=None)
    r.add_argument("--reward-scale", type=float, default=None)
    r.add_argument("--guard-anneal-epochs", type=int, default=None)
    r.add_argument("--workload-info", action="store_true")
    r.add_argument("--no-safeguard", action="store_true")
    r.add_argument("--detector", choices=("truth", "gmm"), default="truth")
    r.add_argument("--label-noise", type=float, default=0.0)
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

    a = sub.add_parser("aggregate", help="pooled box stats from timeseries files")
    a.add_argument("--inputs", nargs="+", required=True)
    a.add_argument("--group-col", default="workload_true")
    a.add_argument("--out", default="-")
    a.set_defaults(fn=_cmd_aggregate)

    g = sub.add_parser("gen-traces", help="write synthetic trace CSVs")
    g.add_argument("--kind", choices=("straggler", "abr"), required=True)
    g.add_argument("--preset", required=True)
    g.add_argument("--windows", type=int, default=2000,
                   help="500 ms windows (straggler)")
    g.add_argument("--duration-s", type=int, default=2000, help="seconds (abr)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen_traces)
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
