"""Output checks on one run's artifacts, using the standard library only.

`check_run` parses every artifact a run must write, checks row counts and
that every number is finite, and returns the sha256 over the artifacts that
must be byte-identical for a given config and seed.
"""

import csv
import hashlib
import itertools
import json
import math
import os
import zipfile

DIGESTED = ("timeseries.csv", "detections.csv", "summary.csv", "status.json")


class CheckError(Exception):
    """An artifact is missing, malformed, or disagrees with the schedule."""


def _rows(path, columns):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as exc:
        raise CheckError(f"cannot read {os.path.basename(path)}: {exc}") from None
    missing = set(columns) - set(reader.fieldnames or ())
    if missing:
        raise CheckError(f"{os.path.basename(path)} lacks columns {sorted(missing)}")
    return rows


def _finite(text, what):
    try:
        x = float(text)
    except ValueError:
        raise CheckError(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(x):
        raise CheckError(f"{what}: {text!r} is not finite")
    return x


def _json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot parse {os.path.basename(path)}: {exc}") from None


def _npz(path):
    try:
        with zipfile.ZipFile(path) as zf:
            bad = zf.testzip()
            members = zf.namelist()
    except (OSError, zipfile.BadZipFile) as exc:
        raise CheckError(f"cannot open {path}: {exc}") from None
    if bad is not None or not members or not all(m.endswith(".npy") for m in members):
        raise CheckError(f"{path} is not a readable .npz archive")


def digest(out_dir):
    h = hashlib.sha256()
    for name in DIGESTED:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def check_run(out_dir, epochs, episode_len):
    """Validate a finished run's artifacts; returns the facts read from them:
    the per-epoch metric, decision count, digest, detector accuracy and the
    shares of decisions the safeguards made. Raises CheckError on the first
    problem."""
    cfg = _json(os.path.join(out_dir, "config.json"))
    status = _json(os.path.join(out_dir, "status.json"))
    if status.get("diverged") is not False:
        raise CheckError(f"run recorded divergence: {status}")

    series = _rows(os.path.join(out_dir, "timeseries.csv"),
                   ("epoch", "workload_true", "metric"))
    if len(series) != epochs:
        raise CheckError(f"timeseries.csv has {len(series)} rows for {epochs} epochs")
    if [int(r["epoch"]) for r in series] != list(range(epochs)):
        raise CheckError("timeseries.csv epochs are not 0..n-1 in order")
    metric = [_finite(r["metric"], f"timeseries metric, epoch {r['epoch']}")
              for r in series]

    windows = _rows(os.path.join(out_dir, "detections.csv"),
                    ("t_ms", "reported", "controller"))
    if len(windows) != epochs * episode_len:
        raise CheckError(f"detections.csv has {len(windows)} rows for "
                         f"{epochs} x {episode_len} windows")
    for i, r in enumerate(windows):
        for k, v in r.items():
            if k.startswith("posterior_") or k == "t_ms":
                _finite(v, f"detections {k}, window {i}")

    # One-cycle schedules end before every workload has converged, so the
    # post-convergence summary is legitimately empty at these lengths.
    stats = ("p1", "p25", "p50", "p75", "p99", "mean")
    for r in _rows(os.path.join(out_dir, "summary.csv"), ("workload",) + stats):
        for k in stats:
            _finite(r[k], f"summary {k}, workload {r['workload']}")

    experts = os.path.join(out_dir, "experts")
    nets = sorted(os.path.join(d, f) for d, _, fs in os.walk(experts) for f in fs)
    if not nets:
        raise CheckError("no expert checkpoints written")
    for path in nets:
        _npz(path)
    if cfg["detector"] == "gmm":
        _npz(os.path.join(out_dir, "detector.npz"))

    controllers = [r["controller"] for r in windows]
    return {"metric": metric, "decisions": len(windows), "digest": digest(out_dir),
            "detector_accuracy": _detector_accuracy(series, windows, episode_len),
            "default_share": controllers.count("default") / len(windows),
            "guard_share": controllers.count("guard") / len(windows)}


def _detector_accuracy(series, windows, episode_len):
    """Share of windows whose reported environment matches the true one,
    under the best relabelling of reported indices (as the GMM numbers its
    components in its own order)."""
    order = []
    for r in series:
        if r["workload_true"] not in order:
            order.append(r["workload_true"])
    truth = [order.index(r["workload_true"]) for r in series for _ in range(episode_len)]
    reported = [int(r["reported"]) for r in windows]
    labels = range(max(len(order), max(reported) + 1))
    best = max(sum(perm[p] == t for p, t in zip(reported, truth))
               for perm in itertools.permutations(labels))
    return best / len(truth)


def artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(out_dir) for f in fs)
