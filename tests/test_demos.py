"""The quick demos still run: each exits 0 and prints something.

Each demo runs as a script in a fresh interpreter, the way the README tells
a reader to run it. The two claim demos (`fake_replay_guard.py`,
`multi_expert_vs_single.py`) take tens of seconds and are left out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["abr_session", "bandwidth_user_groups",
                                  "environment_detection", "hedging_tradeoff"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
