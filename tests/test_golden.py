"""Golden digests of whole-run artifacts, frozen-policy metrics and
checkpoint parameters.

Each case runs a short config end to end and compares the sha256 of the
four deterministic artifacts with a stored value. A change that alters
results (RNG draw order, float operation order, buffer sampling) fails
here even when every per-module test still passes. Regenerating a digest
is a deliberate behaviour change and must be stated in CHANGES.md.

The same holds for the values in `PINNED`: exact `evaluate_policy` and
`cross_eval` results, and the sha256 of the *loaded* parameter arrays of
checkpoints (`np.savez` stamps each zip entry with the current time, so
the file bytes themselves vary between runs).

To print fresh digests and values: ``python tests/test_golden.py``.
"""

import ctypes
import glob
import hashlib
import os
import random
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from nonstat_rl.harness import (
    ExperimentConfig, abr_defaults, cross_eval, evaluate_policy,
    pretrain_checkpoint, run_experiment, scenario_cyclic, scenario_stationary,
)
from nonstat_rl.straggler import TIMEOUTS_MS, WORKLOAD_PRESETS, StragglerSim

ARTIFACTS = ("timeseries.csv", "detections.csv", "summary.csv", "status.json")


def openblas_core():
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


# The values below that pass through matrix products were made under the
# SkylakeX core. Another core sums in another order, so the last bits of
# trained parameters differ and a failure there need not be a behaviour change.
BLAS_NOTE = f"OpenBLAS core {openblas_core()}; the goldens were made under SkylakeX"

# short straggler schedule: 3 dwells of 4 epochs, 24 windows each
STRAGGLER = dict(t_c=3, episode_len=24, entropy_epochs=3, eps_random_epochs=1,
                 eps_decay_epochs=4)


def _dqn(seed, **kw):
    return ExperimentConfig(scenario=scenario_cyclic(4, cycles=1), learner="dqn",
                            detector="truth", seed=seed, **STRAGGLER, **kw)


CASES = {
    "straggler-a2c-multi-gmm": lambda: ExperimentConfig(
        scenario=scenario_cyclic(4, cycles=1), learner="a2c", expert_mode="multi",
        detector="gmm", detector_warmup_epochs=2, seed=3, **STRAGGLER),
    # 288 inserts: the long ring grows past 64 and 128 rows, the short one wraps
    "straggler-dqn-single-ltst": lambda: _dqn(
        4, expert_mode="single", buffer="ltst", ltst_long_capacity=400,
        small_capacity=90),
    "straggler-dqn-multi-multi": lambda: _dqn(
        5, expert_mode="multi", buffer="multi", buffer_capacity=70),
    "straggler-dqn-single-large-wrap": lambda: _dqn(
        6, expert_mode="single", buffer="large", buffer_capacity=150),
    "straggler-dqn-single-small-wrap": lambda: _dqn(
        7, expert_mode="single", buffer="small", small_capacity=100),
    "abr-a2c-guard": lambda: abr_defaults(
        scenario_cyclic(3, keys=("UG1", "UG2", "UG3"), cycles=1), safeguard=True,
        t_c=2, episode_len=20, entropy_epochs=3, guard_calibration_epochs=1,
        guard_anneal_epochs=5, seed=8),
    "straggler-a2c-oracle": lambda: ExperimentConfig(
        scenario=scenario_stationary("A", 3), learner="a2c", expert_mode="oracle",
        seed=9, **STRAGGLER),
}

GOLDEN = {
    "abr-a2c-guard": {
        "timeseries.csv": "8ca52f786e73f3677fc6bd59959326b8a4f00ec32becf23dd9e9ad8205b82552",
        "detections.csv": "5e52b11cf429b4b60fcfc787afcf8147aa96409692732d6915a6de71c801b732",
        "summary.csv": "1c05df593488ce9120a7b1e403772e2a867782b4134f36b6a7e7cd5ba3576be4",
        "status.json": "7b458347f68460f199eed5a0309a0bb51043f3a0ef0abb28adbca4a5e05c533c",
    },
    "straggler-a2c-multi-gmm": {
        "timeseries.csv": "1cb728e701962355cd275b170759e44b95586582fe6cc39cc86359a3d9baa3ab",
        "detections.csv": "686f270f9d28c31b424a8aa18bf9c1bff7da1292542fd1ef1952497ae38bf73a",
        "summary.csv": "515117da5428c0f4dad215d5fe28fd9de21a6cc6132e8c4466eb0772f695e557",
        "status.json": "357c733e65fed87e440dade0710f04eb58d82f762082e56aec9a1f388bdccec0",
    },
    "straggler-a2c-oracle": {
        "timeseries.csv": "d067423b7c32c674f63e5e8ce80289abe1f185d1d061440ae0a894c554d992eb",
        "detections.csv": "447d14c5e364f7671b75b6d7ad0762d43a7efccae8839ef164b0022c1953cc57",
        "summary.csv": "ece9ed1cced53da3adb8497c06f77e90b0555300995c00652061f9ad8004b2f1",
        "status.json": "13def9006e410305cb67a9510246785c0cee8951bf5f918b68ec04dc645e4c11",
    },
    "straggler-dqn-multi-multi": {
        "timeseries.csv": "ae85f923878c908d99ebd17aa7cc72fabd1b56ba4d2771e8ca8ce3b005ade901",
        "detections.csv": "82cae679ab8498c5e92a99cc3a913faf9dc44e8a5ee7048ddbe352b5a262629e",
        "summary.csv": "52b3afe67e24b837b5b10c9cdce3015364ae531f7ca7268811f04fe585e29347",
        "status.json": "61a0ed7b8b9b78299599cf364d3d21040313ee39e2290e6a348e81f061ef2cf1",
    },
    "straggler-dqn-single-large-wrap": {
        "timeseries.csv": "92d41c8a3bd39dcdf8deb09a9ba780fe26aed6916be5b4c830f0ee2d5ee843f6",
        "detections.csv": "82cae679ab8498c5e92a99cc3a913faf9dc44e8a5ee7048ddbe352b5a262629e",
        "summary.csv": "38e721df2f576dd264b017d25b698e8c07b960dbff06c532ab58d1577cce7579",
        "status.json": "61a0ed7b8b9b78299599cf364d3d21040313ee39e2290e6a348e81f061ef2cf1",
    },
    "straggler-dqn-single-ltst": {
        "timeseries.csv": "8c782dd310459f1ebbfd523e60dbb25293504bdecd3278364584bf4eccbef18c",
        "detections.csv": "82cae679ab8498c5e92a99cc3a913faf9dc44e8a5ee7048ddbe352b5a262629e",
        "summary.csv": "c0733ad1c6faf7e0d2cbdec84baa6ce64fcb9e316edf0f6f10587bb038fea59b",
        "status.json": "61a0ed7b8b9b78299599cf364d3d21040313ee39e2290e6a348e81f061ef2cf1",
    },
    "straggler-dqn-single-small-wrap": {
        "timeseries.csv": "ed229e336f8086cf3dbaf0bd19f7b218e28f81f30974230e9e9eadeffb4ef932",
        "detections.csv": "82cae679ab8498c5e92a99cc3a913faf9dc44e8a5ee7048ddbe352b5a262629e",
        "summary.csv": "4996fbd99b4b28592b46ef2825857e44d153f903dbf15bae9f9b69a543ed102f",
        "status.json": "61a0ed7b8b9b78299599cf364d3d21040313ee39e2290e6a348e81f061ef2cf1",
    },
}


def digests(cfg, out_dir):
    cfg.out_dir = out_dir
    run_experiment(cfg)
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digests_unchanged(case, tmp_path):
    assert digests(CASES[case](), str(tmp_path)) == GOLDEN[case], BLAS_NOTE


# --------------------------------------------------------------------------
# frozen-policy evaluation, cross-evaluation and checkpoint parameters


def mixed_policy(n_actions, p_fixed, fixed=None):
    """A policy that reads both the observation and the policy rng: with
    probability `p_fixed` action `fixed` (a uniform draw when None), else an
    action hashed from the observation."""
    def act(obs, rng):
        if rng.random() < p_fixed:
            return int(rng.integers(n_actions)) if fixed is None else fixed
        return int(np.floor(abs(obs.sum()) * 7)) % n_actions
    return act


STRAGGLER_EVAL = ExperimentConfig(scenario=scenario_stationary("A", 1),
                                  episode_len=24, seed=3)
# tiny A2C budgets for checkpoints; the trained policies still differ from
# never hedging, so cross_eval's normalization is defined
PRETRAIN = dict(t_c=6, episode_len=16, entropy_epochs=4, eps_random_epochs=1,
                eps_decay_epochs=4, seed=5)

EVALUATIONS = {
    # mostly 3 ms hedging on high_rate: the safeguard hands off to no-hedging
    "straggler-safeguard": lambda: evaluate_policy(
        STRAGGLER_EVAL, mixed_policy(7, 0.8, fixed=0), "high_rate", 4, seed=21),
    "straggler-unguarded": lambda: evaluate_policy(
        replace(STRAGGLER_EVAL, safeguard=False), mixed_policy(7, 0.8, fixed=0),
        "high_rate", 4, seed=21),
    "straggler-workload-info": lambda: evaluate_policy(
        replace(STRAGGLER_EVAL, workload_info=True), mixed_policy(7, 0.5),
        "C", 4, seed=22),
    "abr-workload-info": lambda: evaluate_policy(
        abr_defaults(scenario_stationary("UG1", 1), episode_len=20,
                     workload_info=True),
        mixed_policy(6, 0.5), "UG2", 3, seed=13),
}

PINNED = {
    "straggler-safeguard": 2165.2507200648724,
    "straggler-unguarded": 2822.2945091566316,
    "straggler-workload-info": 119.6843363801579,
    "abr-workload-info": 5.182463212742216,
    "cross-eval A->C": 0.19903497656311503,
    "cross-eval C->A": 3.496964340325501,
    "pretrain-a2c": "badad71204ce9041061e1f13bfe6602259e228d92ce2a0198ea56298e7de5d94",
    "pretrain-dqn": "af930a162af4a3bda5bae774dffce7219df3a06e19b12ba8e7bee401920e035a",
    "run-a2c-gmm": "766d3b77bc0498f7931ebb2f0abdffef895f30703d14ab00b282b0da5acc97dc",
    "run-dqn-multi": "32ab7661ff8352fecdeefc40052906ab189b4bc06e38fe6ce6d59ef9c7130631",
}


def array_digest(root):
    """sha256 over the parameter arrays of every .npz under `root` (names,
    dtypes, shapes and values), independent of zip timestamps."""
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, fs in os.walk(root) for f in fs if f.endswith(".npz"))
    for rel in paths:
        with np.load(os.path.join(root, rel)) as data:
            for key in sorted(data.files):
                a = data[key]
                h.update(f"{rel}:{key}:{a.dtype.str}:{a.shape}\0".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest(), paths


def pretrained(learner, keys, root):
    cfg = ExperimentConfig(scenario=scenario_stationary(keys[0], 1),
                           learner=learner, **PRETRAIN)
    for key in keys:
        pretrain_checkpoint(cfg, key, root)
    return cfg


def pinned_values():
    got = {name: fn() for name, fn in EVALUATIONS.items()}
    with tempfile.TemporaryDirectory() as d:
        cfg = pretrained("a2c", ("A", "C"), d)
        got["cross-eval A->C"] = cross_eval("A", "C", d, cfg, eval_epochs=4)
        got["cross-eval C->A"] = cross_eval("C", "A", d, cfg, eval_epochs=4)
        got["pretrain-a2c"] = array_digest(d)[0]
    with tempfile.TemporaryDirectory() as d:
        pretrained("dqn", ("C",), d)
        got["pretrain-dqn"] = array_digest(d)[0]
    for name, case in (("run-a2c-gmm", "straggler-a2c-multi-gmm"),
                       ("run-dqn-multi", "straggler-dqn-multi-multi")):
        with tempfile.TemporaryDirectory() as d:
            cfg = CASES[case]()
            cfg.out_dir = d
            run_experiment(cfg)
            got[name] = array_digest(d)[0]
    return got


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_frozen_policy_evaluation_unchanged(name):
    assert EVALUATIONS[name]() == PINNED[name], BLAS_NOTE


def test_safeguard_engages_in_evaluation():
    assert PINNED["straggler-safeguard"] != PINNED["straggler-unguarded"]


def test_cross_eval_unchanged(tmp_path):
    cfg = pretrained("a2c", ("A", "C"), str(tmp_path))
    assert (cross_eval("A", "C", str(tmp_path), cfg, eval_epochs=4)
            == PINNED["cross-eval A->C"]), BLAS_NOTE
    assert (cross_eval("C", "A", str(tmp_path), cfg, eval_epochs=4)
            == PINNED["cross-eval C->A"]), BLAS_NOTE


@pytest.mark.parametrize("learner, keys, files", [
    ("a2c", ("A", "C"), ["A/actor.npz", "A/critic.npz", "C/actor.npz", "C/critic.npz"]),
    ("dqn", ("C",), ["C/qnet.npz"]),
], ids=["a2c", "dqn"])
def test_pretrained_checkpoint_arrays_unchanged(learner, keys, files, tmp_path):
    pretrained(learner, keys, str(tmp_path))
    digest, paths = array_digest(str(tmp_path))
    assert paths == files
    assert digest == PINNED[f"pretrain-{learner}"], BLAS_NOTE


@pytest.mark.parametrize("name, case, files", [
    ("run-a2c-gmm", "straggler-a2c-multi-gmm",
     ["detector.npz"] + [f"experts/env_{i}/{n}.npz" for i in range(3)
                         for n in ("actor", "critic")]),
    ("run-dqn-multi", "straggler-dqn-multi-multi",
     [f"experts/env_{i}/qnet.npz" for i in range(3)]),
], ids=["a2c-gmm", "dqn-multi"])
def test_run_checkpoint_arrays_unchanged(name, case, files, tmp_path):
    cfg = CASES[case]()
    cfg.out_dir = str(tmp_path)
    run_experiment(cfg)
    digest, paths = array_digest(str(tmp_path))
    assert paths == files
    assert digest == PINNED[name], BLAS_NOTE


# --------------------------------------------------------------------------
# the straggler simulator on its own, long enough for hedging storms, the
# safeguard latch turning on and off, and queued-sibling cancellation

SIM_PRESETS = ("A", "C", "high_rate")
SIM_WINDOWS = 400

SIM_GOLDEN = {
    "steps": "940d2dd93449a543ece368617eccf45db50b576110da05970f9b3df560020bd7",
    "event_log": "a9f4574d5fd906c3e909fe2b8e4321b8dddedbe3d8ca07be0f1aa03429fcef16",
}


def sim_digests(keep_event_log):
    """sha256 over every `step()` result (observation bytes, reward, stats)
    and the state after `drain()`, for each of `SIM_PRESETS`; plus the sha256
    of the event logs when they are kept."""
    steps, log = hashlib.sha256(), hashlib.sha256()
    for key in SIM_PRESETS:
        actions = random.Random(f"sim-{key}")
        sim = StragglerSim(WORKLOAD_PRESETS[key], seed=17, safeguard_enabled=True,
                           keep_event_log=keep_event_log)
        for _ in range(SIM_WINDOWS):
            # 3 ms hedging about half the time, so hedges pile up and latch
            a = 0 if actions.random() < 0.4 else actions.randrange(len(TIMEOUTS_MS))
            res = sim.step(a)
            steps.update(res.obs.tobytes())
            steps.update(repr((res.reward, sorted(res.stats.items()))).encode())
        sim.drain()
        steps.update(repr((sim.now, sim.arrived_total, sim.completed_total,
                           sim.hedges_total, sim.qlen)).encode())
        log.update(repr(sim.event_log).encode())
    return steps.hexdigest(), (log.hexdigest() if keep_event_log else None)


@pytest.mark.parametrize("keep_event_log", [False, True], ids=["log-off", "log-on"])
def test_simulator_step_results_unchanged(keep_event_log):
    steps, log = sim_digests(keep_event_log)
    assert steps == SIM_GOLDEN["steps"]
    if keep_event_log:
        assert log == SIM_GOLDEN["event_log"]


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            got = digests(CASES[case](), d)
        sys.stdout.write(f'    "{case}": {{\n')
        for name in ARTIFACTS:
            sys.stdout.write(f'        "{name}": "{got[name]}",\n')
        sys.stdout.write("    },\n")
    steps, log = sim_digests(True)
    sys.stdout.write(f'SIM_GOLDEN = {{\n    "steps": "{steps}",\n'
                     f'    "event_log": "{log}",\n}}\n')
    sys.stdout.write("PINNED = {\n")
    for name, value in pinned_values().items():
        sys.stdout.write(f"    {name!r}: {value!r},\n")
    sys.stdout.write("}\n")
