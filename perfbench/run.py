"""The repository benchmark: desk-scale training runs, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Workloads are listed in `workloads.py` and
`BENCHMARK.json`. Every run is a fresh interpreter (`child.py`) with BLAS
pinned to one thread, started one at a time, so no two runs share a core.

`--trace 0` repeats the untraced same-seed run until `--seconds` would be
exceeded (at least twice), measuring set-up twice more before each run, and
reports the `end_to_end` metrics. `--trace 1` makes one untraced and one
traced run of the same seed and reports the `per_layer` metrics; spans are
kept in `.perfbench-out/`. Either way every run's artifacts are checked, the
same-seed runs must give identical artifact digests, and the last line of
standard output is the JSON result. Lines before it start with `#`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_PER_RUN = 2
CHILD_TIMEOUT_S = 160
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def spawn(mode, workload, seed, out_dir, dwell):
    """Run child.py; returns (perf_counter at spawn, its JSON result).

    On Linux `time.perf_counter` reads CLOCK_MONOTONIC, which every process
    shares, so the child's timestamps can be compared with the spawn time.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
           str(seed), out_dir] + ([str(dwell)] if dwell else [])
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} run exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{mode} run exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    """HEAD's commit, read from `.git` without running git; the benchmark may
    run in an exported tree that has none."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


class Runner:
    """Runs of one workload and seed, with their checks."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.digests = []

    def fail(self, what, exc):
        self.failed += 1
        print(f"# {what} failed: {exc}", file=sys.stderr)

    def setup_time(self):
        """Seconds from spawning a fresh interpreter to the first epoch's
        start, or None if the set-up run failed."""
        a = self.args
        try:
            t_spawn, res = spawn("setup", a.workload, a.seed, "", a.dwell)
            return res["first_epoch"] - t_spawn
        except (RunFailed, ValueError, KeyError) as exc:
            self.attempted += 1
            self.fail("set-up run", exc)
            return None

    def run(self, mode):
        """One checked run; returns (spawn time, child result with the facts
        read from its artifacts), or None if it failed."""
        a = self.args
        self.attempted += 1
        out_dir = os.path.join(OUT, f"{a.workload}-{a.seed}-{self.attempted}")
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            t_spawn, res = spawn(mode, a.workload, a.seed, out_dir, a.dwell)
            facts = checks.check_run(out_dir, res["epochs"], res["episode_len"])
            if mode == "run" and len(res["stamps"]) != res["epochs"]:
                raise checks.CheckError(f"{len(res['stamps'])} epoch stamps for "
                                        f"{res['epochs']} epochs")
            if self.digests and facts["digest"] != self.digests[0]:
                raise checks.CheckError("artifacts differ from the first same-seed run")
            self.digests.append(facts["digest"])
            res.update(facts=facts, out_dir=out_dir,
                       artifact_bytes=checks.artifact_bytes(out_dir))
            return t_spawn, res
        except (RunFailed, checks.CheckError, ValueError, KeyError) as exc:
            self.fail(f"{mode} run {self.attempted}", exc)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def report(self, metrics, info):
        a = self.args
        for line in info:
            print(f"# {line}")
        print(f"# error_rate {self.failed / max(1, self.attempted):.4f} "
              f"({self.failed} of {self.attempted} runs)")
        if self.digests:
            print(f"# digest {a.workload} seed={a.seed} sha256={self.digests[0]} "
                  f"(timeseries, detections, summary, status; "
                  f"{len(self.digests)} same-seed runs)")
        correct = self.failed == 0 and len(self.digests) >= 2
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed,
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}}))
        return 0 if correct else 1


def quality(facts, workload):
    """(name, value, description, unit) of the learned policy's outcome,
    which is fixed for a given code and seed."""
    m = facts["metric"]
    if workload.startswith("straggler"):
        return ("straggler.tail_latency_ms", statistics.median(m),
                f"median over {len(m)} epochs of the epoch's p95 request latency, "
                "simulated ms", "ms")
    return ("abr.qoe", statistics.fmean(m), f"mean per-chunk QoE over {len(m)} epochs",
            "qoe")


def untraced(runner, header):
    a = runner.args
    started = time.perf_counter()
    setup, runs, walls = [], [], []
    while not runner.failed and (len(walls) < 2 or time.perf_counter() - started
                                 + statistics.fmean(walls) <= a.seconds):
        # Set-up samples are spread between the runs, not taken in one burst.
        setup += [runner.setup_time() for _ in range(SETUP_PER_RUN)]
        t = time.perf_counter()
        got = runner.run("run")
        walls.append(time.perf_counter() - t)
        if got is not None:
            t_spawn, res = got
            setup.append(res["stamps"][0] - t_spawn)
            runs.append(res)
    if runner.failed:
        return runner.report({}, header)

    epochs_s = sorted(b - e for r in runs for e, b in zip(r["stamps"], r["stamps"][1:]))
    p95 = nearest_rank(epochs_s, 95)
    steps_per_s = statistics.median(r["facts"]["decisions"] / r["run_s"] for r in runs)
    paper_h = runs[0]["paper_steps"] / steps_per_s / 3600.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "epoch_ms_p50": (statistics.median(epochs_s) * 1e3, "ms"),
        "epoch_ms_p95": (p95 * 1e3, "ms"),
        "steps_per_s": (steps_per_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in runs) / 1024.0, "MiB"),
    }
    info = header + [
        f"{len(runs)} same-seed runs of {runs[0]['epochs']} epochs x "
        f"{runs[0]['episode_len']} decisions; {len(epochs_s)} epoch intervals, "
        f"{sum(e > p95 for e in epochs_s)} beyond p95; {len(setup)} set-up samples",
        "{} {:.6f} ({})".format(*quality(runs[0]["facts"], a.workload)),
        f"projected paper-scale run: {runs[0]['paper_steps']} decisions at "
        f"{steps_per_s:.1f}/s = {paper_h:.2f} h (informational)",
    ]
    return runner.report(metrics, info)


def traced(runner, header):
    plain = runner.run("run")
    got = plain and runner.run("trace")
    if not got:
        return runner.report({}, header)
    plain, res = plain[1], got[1]
    layers = {k: tuple(v) for k, v in res["layers"].items()}
    facts = plain["facts"]
    layers["framework.detector_accuracy"] = (facts["detector_accuracy"], "ratio")
    layers["framework.default_share"] = (facts["default_share"], "ratio")
    layers["abr.guard_share"] = (facts["guard_share"], "ratio")
    layers["straggler.tail_latency_ms"] = (0.0, "ms")
    layers["abr.qoe"] = (0.0, "qoe")
    name, value, _, unit = quality(facts, runner.args.workload)
    layers[name] = (value, unit)
    layers["harness.artifact_bytes"] = (plain["artifact_bytes"], "bytes")
    layers["harness.tracing_overhead"] = (
        layers["harness.run_ms"][0] / 1e3 / plain["run_s"] - 1.0, "ratio")
    spans = os.path.relpath(res["out_dir"] + ".spans.npz", ROOT)
    return runner.report(layers, header + [f"spans written to {spans}"])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dwell", type=int, default=None,
                   help="epochs per scenario dwell (default: the workload's full "
                        "length; the self-test uses a tiny one)")
    args = p.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "nonstat_rl", "harness.py")):
        print("perfbench: no src/nonstat_rl in this tree; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        _, env = spawn("setup", args.workload, args.seed, "", args.dwell)  # warm-up
    except RunFailed as exc:
        print(f"perfbench: the program does not start: {exc}", file=sys.stderr)
        return 2
    header = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds:g}",
              f"git {git_sha()}; python {env['python']}; numpy {env['numpy']}; "
              f"{env['blas']}; nproc {os.cpu_count()}; child BLAS threads "
              + ", ".join(f"{k}={v}" for k, v in BLAS_ENV.items())]
    runner = Runner(args)
    return (traced if args.trace else untraced)(runner, header)


if __name__ == "__main__":
    sys.exit(main())
