"""Paired, alternating benchmark runs: a base revision against this tree.

    python3 bench/pairs.py --base REV --workload W --seed N --pairs K \
        [--out BENCH.json]

Run it from a git checkout. Both sides run from fresh temporary
`git worktree`s, which are removed on every exit path: REV for the base,
and for the change a temporary commit of this working tree (uncommitted
and untracked, non-ignored files included) on top of HEAD, made through a
temporary index so that neither the index nor HEAD moves. So neither side
runs in this tree, with its `.perfbench-out/` and `__pycache__` history.
Each pair runs the benchmark command of this tree's `BENCHMARK.json` with
`--workload W --seed N --trace 0 --seconds S`, S being its `run_seconds`,
once on each side; the side that goes first alternates from pair to pair,
so a drift in machine speed falls on both sides alike.

The record is written to `--out` under the key "W seed=N", or "W seed=N
null" when REV is this tree's HEAD and the working tree, untracked files
included, is the same as HEAD (both sides then run the same code, so the
record is a noise floor); the entries of other keys already in that file
are kept. For each metric it holds both sides' medians, the base's
quartiles, the change's wins out of the pairs in which both runs
succeeded (the direction comes from `BENCHMARK.json`), and the gap between
the medians in units of the base's interquartile range. It also holds
every run's `attempted` count and digest, whether each side's runs all
gave one digest, both sides' `# digest` lines and whether they match,
both commits and the machine; the change side is named by
HEAD and, when the working tree differs from it, the sha256 of the binary
diff from HEAD to the temporary commit (untracked files included).
Standard library only.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def snapshot(index):
    """A commit of the working tree, untracked non-ignored files included,
    whose parent is HEAD. It is built in the temporary index file `index`,
    so the real index and HEAD do not move."""
    env = dict(os.environ, GIT_INDEX_FILE=index,
               GIT_AUTHOR_NAME="bench-pairs", GIT_AUTHOR_EMAIL="bench-pairs@localhost",
               GIT_COMMITTER_NAME="bench-pairs", GIT_COMMITTER_EMAIL="bench-pairs@localhost")
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    tree = git("write-tree", env=env)
    return git("commit-tree", "-p", "HEAD", "-m", "bench/pairs.py working tree", tree,
               env=env)


def declared_benchmark():
    """This tree's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench_once(tree, cmd):
    """One run of `cmd` in `tree`: its result JSON (None if it failed), its
    `# digest` line and its `# git ...` machine line."""
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        print(f"# run in {tree} failed ({proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
    pick = lambda prefix: next((ln for ln in lines if ln.startswith(prefix)), None)
    return {"result": result, "digest": pick("# digest "), "machine": pick("# git ")}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 2 if values else [None, None]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(values, better):
    """Per-metric comparison of paired runs. `values` holds one (base,
    change) pair of {metric: value} dicts per pair, empty for a failed run."""
    metrics = {}
    names = sorted({name for pair in values for side in pair for name in side})
    for name in names:
        pairs = [(b.get(name), c.get(name)) for b, c in values]
        base = [b for b, _ in pairs if b is not None]
        change = [c for _, c in pairs if c is not None]
        both = [(b, c) for b, c in pairs if b is not None and c is not None]
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in both)
        q1, q3 = quartiles(base)
        entry = {"better": better.get(name, "lower"),
                 "base_median": statistics.median(base) if base else None,
                 "change_median": statistics.median(change) if change else None,
                 "base_quartiles": [q1, q3],
                 "wins": wins, "of": len(both),
                 "base": base, "change": change}
        if base and change and q3 is not None and q3 > q1:
            entry["gap_over_base_iqr"] = (entry["change_median"]
                                          - entry["base_median"]) / (q3 - q1)
        metrics[name] = entry
    return metrics


def metric_values(side):
    """{metric: value} of one benchmark run, empty if it failed."""
    result = side["result"]
    return {n: m["value"] for n, m in result["metrics"].items()} if result else {}


def digest_of(line):
    return line.split("sha256=")[1].split()[0] if line and "sha256=" in line else None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH.json"))
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    # On SIGTERM, unwind through the finally below, which removes the worktrees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    change_sha = git("rev-parse", "HEAD")
    bench = declared_benchmark()
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    cmd = bench["command"] + ["--workload", args.workload, "--seed", str(args.seed),
                              "--trace", "0", "--seconds", str(bench["run_seconds"])]
    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    trees = {side: os.path.join(tmp, side) for side in ("base", "change")}
    try:
        work_sha = snapshot(os.path.join(tmp, "index"))
        diff = subprocess.run(["git", "diff", "--binary", change_sha, work_sha], cwd=ROOT,
                              check=True, capture_output=True).stdout
        for side, sha in (("base", base_sha), ("change", work_sha)):
            git("worktree", "add", "--detach", trees[side], sha)
        runs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {}
            for side in order:
                print(f"# pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                pair[side] = bench_once(trees[side], cmd)
            pair["first"] = order[0]
            runs.append(pair)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT,
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    first = lambda side, key: next((r[side][key] for r in runs if r[side][key]), None)
    digests = {side: first(side, "digest") for side in ("base", "change")}
    run_digests = {side: [digest_of(r[side]["digest"]) for r in runs]
                   for side in ("base", "change")}
    null = base_sha == change_sha and not diff
    record = {
        "command": " ".join(cmd),
        "pairs": args.pairs,
        "null": null,
        "base": {"rev": args.base, "sha": base_sha},
        "change": {"sha": change_sha, "uncommitted_changes": bool(diff),
                   "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None},
        "first_in_pair": [r["first"] for r in runs],
        "attempted": {side: [r[side]["result"]["attempted"] if r[side]["result"]
                             else None for r in runs] for side in ("base", "change")},
        "correct": {side: [bool(r[side]["result"] and r[side]["result"]["correct"])
                           for r in runs] for side in ("base", "change")},
        "digest_lines": digests,
        "run_digests": run_digests,
        "one_digest_per_side": {side: None not in d and len(set(d)) == 1
                                for side, d in run_digests.items()},
        "digests_match": (digest_of(digests["base"]) is not None
                          and digest_of(digests["base"]) == digest_of(digests["change"])),
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(), "cpus": os.cpu_count(),
                    "perfbench": {side: first(side, "machine")
                                  for side in ("base", "change")}},
        "metrics": summarize([(metric_values(r["base"]), metric_values(r["change"]))
                              for r in runs], better),
    }
    book = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            book = json.load(fh)
    book[f"{args.workload} seed={args.seed}" + (" null" if null else "")] = record
    with open(args.out, "w") as fh:
        json.dump(book, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in (m["name"] for m in bench["end_to_end"]):
        m = record["metrics"].get(name)
        if m and m["base_median"] is not None and m["change_median"] is not None:
            print(f"{name}: base {m['base_median']:.4g} -> change "
                  f"{m['change_median']:.4g}, wins {m['wins']}/{m['of']}")
    ok = all(all(c) for c in record["correct"].values())
    steady = record["one_digest_per_side"]
    print(f"one digest per side: base {steady['base']}, change {steady['change']}; "
          f"digests match: {record['digests_match']}; written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
