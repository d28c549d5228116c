"""Golden digests of whole-run artifacts.

Each case runs a short config end to end and compares the sha256 of the
four deterministic artifacts with a stored value. A change that alters
results (RNG draw order, float operation order, buffer sampling) fails
here even when every per-module test still passes. Regenerating a digest
is a deliberate behaviour change and must be stated in CHANGES.md.

To print fresh digests: ``python tests/test_golden.py``.
"""

import hashlib
import os
import sys
import tempfile

import pytest

from nonstat_rl.harness import (
    ExperimentConfig, abr_defaults, run_experiment, scenario_cyclic,
    scenario_stationary,
)

ARTIFACTS = ("timeseries.csv", "detections.csv", "summary.csv", "status.json")

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
    assert digests(CASES[case](), str(tmp_path)) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            got = digests(CASES[case](), d)
        sys.stdout.write(f'    "{case}": {{\n')
        for name in ARTIFACTS:
            sys.stdout.write(f'        "{name}": "{got[name]}",\n')
        sys.stdout.write("    },\n")
