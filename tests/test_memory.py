"""Memory guard: graph build, smoothing and the limits check hold no n x n array.

Peak numpy allocation, as tracemalloc sees it, must stay below one n x n
float64 array at n = 3000 (72 MB): the row-block products are O(block * n),
and smoothing on a sparse graph runs conjugate gradient on the sparse
Laplacian.
"""

import tracemalloc

import numpy as np

from fairsmooth import (
    FairMetricSpec,
    SmoothingConfig,
    SyntheticSpec,
    build_similarity_graph,
    convergence_report,
    run_smoothing,
    validate_metric,
)

N = 3000
DENSE_BYTES = 8 * N * N


def peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_build_below_one_dense_array():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 3.0, size=(N, 5))
    metric = validate_metric(
        FairMetricSpec("projection_complement", basis=np.eye(5)[:1])
    )
    g, peak = peak_bytes(lambda: build_similarity_graph(X, metric, theta=1.0, tau=1.0))
    assert g.num_edges > 10 * N
    assert peak < DENSE_BYTES


def test_run_smoothing_below_one_dense_array():
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 5.0, size=(N, 3))
    g = build_similarity_graph(X, validate_metric(FairMetricSpec("euclidean")), theta=1.0, tau=1.0)
    y = rng.uniform(size=(N, 2))
    (f, meta), peak = peak_bytes(lambda: run_smoothing(y, g, SmoothingConfig(lam=1.0)))
    assert meta["converged"] and f.shape == (N, 2)
    assert peak < DENSE_BYTES


def test_convergence_report_below_one_dense_array():
    rows, peak = peak_bytes(lambda: convergence_report(SyntheticSpec(), [N], seeds=[0]))
    assert len(rows) == 2
    assert peak < DENSE_BYTES
