"""Smoke test: the quick demos run to completion.

Demo 02 (local against global fairness) is left out: its global Dykstra
projection takes about 50 s, too long for the tier-1 suite until the
baseline is vectorized.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_smoothing_basics.py", "03_asymptotic_limits.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
