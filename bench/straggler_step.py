"""Per-call microbenchmark of `StragglerSim.step`.

    PYTHONPATH=src python3 bench/straggler_step.py [--windows N] [--repeats K]

For presets A, C and high_rate, each at action 0 (3 ms hedge timeout) and
action 6 (no hedging), prints the microseconds per window: the median of K
timed runs of N windows, after one untimed warm-up run. Every run starts a
fresh simulator with the same seed and the safeguard latch on, as the
harness builds it, so each run does the same work. `completed` is
`completed_total` after one run: compare it between two versions of the
simulator to check that both timed the same events.
"""

import argparse
import statistics
import time

from nonstat_rl.straggler import WORKLOAD_PRESETS, StragglerSim

CASES = [(key, action) for key in ("A", "C", "high_rate") for action in (0, 6)]


def run(key, action, windows, seed):
    """Seconds for `windows` steps at `action`, and completed_total after."""
    sim = StragglerSim(WORKLOAD_PRESETS[key], seed=seed, safeguard_enabled=True)
    step = sim.step
    t0 = time.perf_counter()
    for _ in range(windows):
        step(action)
    return time.perf_counter() - t0, sim.completed_total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--windows", type=int, default=400)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"{'preset':<10} {'action':>6} {'us/window':>10} {'completed':>10}")
    for key, action in CASES:
        run(key, action, args.windows, args.seed)
        times = []
        for _ in range(args.repeats):
            secs, completed = run(key, action, args.windows, args.seed)
            times.append(secs)
        us = statistics.median(times) / args.windows * 1e6
        print(f"{key:<10} {action:>6} {us:>10.1f} {completed:>10}")


if __name__ == "__main__":
    main()
