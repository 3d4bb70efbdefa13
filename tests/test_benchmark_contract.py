"""The benchmark binds package functions by name; its self-check must keep passing.

``perfbench/selfcheck.py`` runs the benchmark's oracles and tracer against
the package on a tiny input, so renaming or removing a function the tracer
or the oracles use fails here rather than in a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parent.parent / "perfbench" / "selfcheck.py"


def test_benchmark_selfcheck_passes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SELFCHECK)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert list(tmp_path.iterdir()) == []
