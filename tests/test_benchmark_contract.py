"""The benchmark binds package functions by name; its self-check must keep passing.

``perfbench/selfcheck.py`` runs the benchmark's oracles and tracer against
the package on a tiny input, so renaming or removing a function the tracer
or the oracles use fails here rather than in a traced benchmark run.  The
self-check traces the closed form only; the coordinate-descent counters and
the Laplacian's span and counter are checked in process below.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from fairsmooth import SmoothingConfig, graph_from_annotations, smoother
from fairsmooth.laplacian import NORMALIZED_RW, make_laplacian

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SELFCHECK = PERFBENCH / "selfcheck.py"


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


def test_traced_coordinate_descent_fills_its_counters(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(smoother, "DENSE_LIMIT", 2)
    tracing = importlib.import_module("tracing")
    n = 6
    g = graph_from_annotations([(i, i + 1) for i in range(n - 1)], n=n)
    y = np.linspace(-1.0, 1.0, n)
    configs = [
        # the random-walk kind above its dense limit falls back to CD
        SmoothingConfig(laplacian_kind=NORMALIZED_RW, epochs=40, tolerance=1e-12),
        SmoothingConfig(mode="coordinate_descent", epochs=40, tolerance=1e-12),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up at call time, where the tracer has wrapped it
        metas = [smoother.run_smoothing(y, g, config)[1] for config in configs]
    finally:
        tracer.uninstall()
    tracer.flush()
    metrics = tracer.layer_metrics(1)
    assert [m["fallback_to_cd"] for m in metas] == [True, False]
    epochs = sum(m["iterations"] for m in metas)
    assert epochs > 2
    assert metrics["smoother.smooth_coordinate_descent.epochs_used"] == epochs
    assert metrics["smoother.smooth_coordinate_descent.coordinate_updates"] == epochs * n
    assert metrics["smoother.run_smoothing.fallback_to_cd"] == 1


def test_traced_random_walk_solve_records_the_laplacian(monkeypatch):
    # the tracer counts the nnz of make_laplacian's matrix and wraps
    # apply_symmetrized, the product of the residual certificate
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    g = graph_from_annotations([(0, 1), (0, 2), (1, 2), (2, 3)], n=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, meta = smoother.run_smoothing(np.linspace(0.0, 1.0, 5), g, SmoothingConfig(laplacian_kind=NORMALIZED_RW))
    finally:
        tracer.uninstall()
    tracer.flush()
    metrics = tracer.layer_metrics(1)
    assert (meta["solver"], meta["converged"]) == ("cholesky", True)
    assert metrics["laplacian.make_laplacian.nnz"] == make_laplacian(g, NORMALIZED_RW).matrix.nnz
    assert "laplacian.apply_symmetrized" in {span[0] for span in tracer.spans}
