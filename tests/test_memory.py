"""Memory guard: graph build, smoothing and the limits check hold no n x n array.

Peak numpy allocation, as tracemalloc sees it, must stay below one n x n
float64 array at n = 3000 (72 MB): the row-block products are O(block * n),
and smoothing on a sparse graph runs conjugate gradient on the sparse
Laplacian, within a small multiple of the Laplacian's own CSR bytes.  The
dense Cholesky solve holds one n x n array, and an operator keeps one CSR.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import sparse

from fairsmooth import (
    FairMetricSpec,
    SmoothingConfig,
    SyntheticSpec,
    build_similarity_graph,
    convergence_report,
    graph_from_annotations,
    run_smoothing,
    smooth_closed_form,
    smooth_kl,
)
from fairsmooth.graph import SimilarityGraph
from fairsmooth.laplacian import KINDS, NORMALIZED_RW, UNNORMALIZED, make_laplacian

N = 3000
DENSE_BYTES = 8 * N * N

# peak of a conjugate-gradient run_smoothing over the CSR bytes of its
# Laplacian: 3.6 with the Laplacian assembled through COO and CG iterating
# on (n, K) arrays, 2.0 with the upper-triangle build and (K, n) iterates
CSR_MULTIPLE = 2.8


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
    metric = FairMetricSpec("projection_complement", basis=np.eye(5)[:1])
    g, peak = peak_bytes(lambda: build_similarity_graph(X, metric, theta=1.0, tau=1.0))
    assert g.num_edges > 10 * N
    assert peak < DENSE_BYTES


@pytest.fixture(scope="module")
def sparse_problem():
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 5.0, size=(N, 3))
    g = build_similarity_graph(X, FairMetricSpec("euclidean"), theta=1.0, tau=1.0)
    return g, rng.uniform(size=(N, 2))


def test_run_smoothing_below_one_dense_array(sparse_problem):
    g, y = sparse_problem
    (f, meta), peak = peak_bytes(lambda: run_smoothing(y, g, SmoothingConfig(lam=1.0)))
    assert meta["converged"] and f.shape == (N, 2)
    assert peak < DENSE_BYTES


def fresh(g):
    """A graph over g's arrays that has built no Laplacian yet."""
    return SimilarityGraph(g.n, g.rows, g.cols, g.weights)


def test_run_smoothing_within_a_multiple_of_laplacian_bytes(sparse_problem):
    # a cold run: the traced window holds the Laplacian's build
    g, y = sparse_problem
    L = make_laplacian(g, UNNORMALIZED).matrix
    csr_bytes = L.data.nbytes + L.indices.nbytes + L.indptr.nbytes
    cold = fresh(g)
    (_, meta), peak = peak_bytes(lambda: run_smoothing(y, cold, SmoothingConfig(lam=1.0)))
    assert meta["solver"] == "cg" and meta["converged"]
    assert peak <= CSR_MULTIPLE * csr_bytes


def kept_csr_bytes(L):
    """Bytes of the distinct sparse matrices an operator holds as fields."""
    kept = {id(M): M for M in (getattr(L, f.name) for f in dataclasses.fields(L)) if sparse.issparse(M)}
    return sum(a.nbytes for M in kept.values() for a in (M.data, M.indices, M.indptr))


def test_random_walk_operator_keeps_one_csr(sparse_problem):
    g = fresh(sparse_problem[0])
    assert kept_csr_bytes(make_laplacian(g, NORMALIZED_RW)) <= kept_csr_bytes(make_laplacian(g, UNNORMALIZED))


def reference_closed_form(y, L, lam):
    """The two-array closed form: I + lambda S from np.eye, copied into Fortran order by cho_factor."""
    A = np.eye(L.n) + lam * L.matrix.toarray()
    return sla.cho_solve(sla.cho_factor(A, lower=True, check_finite=False), y, check_finite=False)


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_holds_one_dense_array(sparse_problem, kind):
    g, y = sparse_problem
    L = make_laplacian(g, kind)
    f, peak = peak_bytes(lambda: smooth_closed_form(y, L, 1.0))
    assert peak <= 1.1 * DENSE_BYTES
    assert f.tobytes() == reference_closed_form(y, L, 1.0).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lam", [5e-324, 1e-300, 1e-3, 1.0, 10.0])
def test_closed_form_matches_the_two_array_form(kind, lam):
    # at lambda = 5e-324 an entry lambda S_ij underflows to -0.0, which the
    # identity's 0.0 turns into 0.0; with signed zeros in y the sign reaches f
    g = graph_from_annotations([(0, 1), (0, 2), (0, 3), (1, 6), (2, 4), (2, 6), (3, 6), (4, 5), (4, 6), (5, 6)], n=7)
    y = np.random.default_rng(5).choice([0.0, -0.0, 1.0, -1.0], size=(7, 4))
    L = make_laplacian(g, kind)
    assert smooth_closed_form(y, L, lam).tobytes() == reference_closed_form(y, L, lam).tobytes()


def test_warm_run_smoothing_peaks_below_the_cold_run(sparse_problem):
    # the second solve on a graph reuses the Laplacian the first one built
    g, y = sparse_problem
    g = fresh(g)
    (f, _), cold = peak_bytes(lambda: run_smoothing(y, g, SmoothingConfig(lam=1.0)))
    (f_warm, _), warm = peak_bytes(lambda: run_smoothing(y, g, SmoothingConfig(lam=1.0)))
    assert f_warm.tobytes() == f.tobytes()
    assert warm < cold


def test_smooth_kl_above_dense_limit_far_below_one_dense_array():
    # a path graph past the dense limit: smooth_kl runs certified CG, as
    # run_smoothing does, instead of factorizing an n x n matrix
    n = 12_000
    g = SimilarityGraph(n=n, rows=np.arange(n - 1), cols=np.arange(1, n), weights=np.ones(n - 1))
    p = np.random.default_rng(4).dirichlet(np.ones(3), size=n)
    L = make_laplacian(g, UNNORMALIZED)
    out, peak = peak_bytes(lambda: smooth_kl(p, L, 1.0))
    assert peak < 8 * n * n / 100
    ref, meta = run_smoothing(p, g, SmoothingConfig(lam=1.0, discrepancy="kl"))
    assert (meta["solver"], meta["converged"]) == ("cg", True)
    assert np.array_equal(out, ref)


def test_convergence_report_below_one_dense_array():
    rows, peak = peak_bytes(lambda: convergence_report(SyntheticSpec(), [N], seeds=[0]))
    assert len(rows) == 2
    assert peak < DENSE_BYTES
