"""Environment detection from workload features.

Fits the diagonal-Gaussian-mixture detector on simulator windows: the
per-window workload features (arrival rate + observed processing time) that
`StragglerSim.workload_features` reports to the live detector, with no
hedging. Reports window-level accuracy against ground truth for (a) three
cleanly switching workloads and (b) the fast idle/rushed alternation.

Run: python demos/environment_detection.py
"""

import itertools

import numpy as np

from nonstat_rl.framework import GmmDetector
from nonstat_rl.straggler import NO_HEDGE_ACTION, WINDOW_MS, WORKLOAD_PRESETS, StragglerSim


def window_features(sim, n_windows):
    """Step `sim` unhedged for `n_windows` windows; their features in order."""
    feats = []
    for _ in range(n_windows):
        sim.step(NO_HEDGE_ACTION)
        feats.append(sim.workload_features())
    return feats


# (a) three workloads switching every 80 windows, as the control loop does
sim = StragglerSim(WORKLOAD_PRESETS["A"], seed=0)
feats, labels = [], []
for _ in range(6):
    for idx, key in enumerate(("A", "B", "C")):
        sim.set_workload(WORKLOAD_PRESETS[key])
        feats += window_features(sim, 80)
        labels.extend([idx] * 80)
feats, labels = np.array(feats), np.asarray(labels)
det = GmmDetector(3, dwell=4, seed=0).fit(feats)
pred = np.array([det.classify(f) for f in feats])
acc = max(
    np.mean(np.array([perm[p] for p in pred]) == labels)
    for perm in itertools.permutations(range(3))
)
print(f"three-workload switching: {acc:.1%} window accuracy")
for i, (m, v) in enumerate(zip(det.means, det.variances)):
    print(f"  component {i}: rate {m[0]:6.1f}/s  proc {m[1]:6.1f} ms")

# (b) fast idle/rushed alternation; window i starts at i * WINDOW_MS
w = WORKLOAD_PRESETS["fastswitch"]
feats = np.array(window_features(StragglerSim(w, seed=0), 2400))
truth = np.array([w.level_at(i * WINDOW_MS) for i in range(2400)])
det2 = GmmDetector(2, dwell=4, seed=0).fit(feats)
pred = np.array([det2.classify(f) for f in feats])
acc = max(np.mean((pred if flip else 1 - pred) == truth) for flip in (0, 1))
print(f"fast idle/rushed alternation: {acc:.1%} window accuracy")
