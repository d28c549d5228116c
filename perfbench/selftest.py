"""Self-test of the benchmark at tiny length (about half a minute).

    python3 perfbench/selftest.py

For every workload and both trace modes it runs `run.py` with a tiny dwell
and checks that the result line has the contract's shape, that every metric
named in `BENCHMARK.json` is emitted with its unit, that the traced self
shares plus the loop's self share add up to the run's wall time, and that
layers a workload bypasses record no calls. Finally it runs the benchmark
in a tree that holds only the benchmark, which must fail without a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_DWELL = 8
SELF_SHARE_TOLERANCE = 1e-6
BYPASSED = {
    "straggler-a2c-gmm": ("abr.", "dqn.", "replay."),
    "straggler-dqn-ltst": ("abr.", "a2c.", "framework.gmm_"),
    "abr-a2c-guard": ("straggler.", "framework.gmm_", "framework.monitor_",
                      "dqn.", "replay."),
}


class SelfTestError(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise SelfTestError(message)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--dwell", str(TINY_DWELL)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(workload, trace, spec):
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: {result}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 2, where)

    metrics = result["metrics"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    expect(set(metrics) == {m["name"] for m in wanted},
           f"{where}: emitted and declared metrics differ: "
           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']!r}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{where}: {m['name']} = {got['value']!r}")
        if not trace:
            expect(got["value"] > 0, f"{where}: {m['name']} is 0")
    if trace:
        shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_share"))
        expect(abs(shares - 1.0) < SELF_SHARE_TOLERANCE,
               f"{where}: self shares plus loop self share sum to {shares!r}")
        for k, v in metrics.items():
            if k.endswith(".calls") and k.startswith(BYPASSED[workload]):
                expect(v["value"] == 0,
                       f"{where}: bypassed layer call {k} = {v['value']}")


def check_without_program():
    bare = os.path.join(ROOT, ".perfbench-out", "bare-tree")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "straggler-a2c-gmm", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark succeeded without the program")
    expect('"correct"' not in proc.stdout,
           "benchmark printed a result without the program")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec)
            print(f"ok  {w['name']} --trace {trace}")
    check_without_program()
    print("ok  fails without the program")


if __name__ == "__main__":
    main()
