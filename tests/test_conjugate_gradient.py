"""Certified conjugate gradient for the unnormalized Laplacian.

The oracle is a dense ``np.linalg.solve`` of (I + lambda * L) f = y on sparse
k-d-tree graphs.  I + lambda * (D - W) is strictly diagonally dominant with
margin 1, so ||A^{-1}||_inf <= 1 and any f's error is at most its residual:
|f - f_ref|_inf <= tolerance * max(1, |y|_inf) (the certificate) plus the
reference's own residual, plus the rounding of evaluating both residuals.
"""

import os
import threading

import numpy as np
import pytest
from scipy import sparse

from fairsmooth import (
    FairMetricSpec,
    SmoothingConfig,
    build_similarity_graph,
    run_smoothing,
    smooth_conjugate_gradient,
    smoother,
    to_natural_params,
)
from fairsmooth.cli import main
from fairsmooth.errors import InvalidParameter, NotConverged
from fairsmooth.graph import SimilarityGraph, write_edge_list
from fairsmooth.io import write_matrix_csv
from fairsmooth.laplacian import NORMALIZED_RW, UNNORMALIZED, make_laplacian

EUCLID = FairMetricSpec("euclidean")
EPS = np.finfo(float).eps
TOL = SmoothingConfig().tolerance


def kdtree_graph(n, seed, box=5.0, dim=3, tau=1.0):
    """Points uniform in [0, box]^dim joined within Euclidean distance tau."""
    X = np.random.default_rng(seed).uniform(0.0, box, size=(n, dim))
    return build_similarity_graph(X, EUCLID, theta=1.0, tau=tau)


def reference_pcg(y, A, diag, lam, bound, cap):
    """Jacobi-preconditioned CG stepping all columns of an (n, K) table in
    lockstep on one thread: the bit-for-bit reference for
    smooth_conjugate_gradient.

    The iterates are (K, n) rows; a column is frozen with a zero search
    direction once its residual is within its ``bound`` or its r.z or p.Ap
    is no longer a normal positive number.  ``cap`` bounds the shared
    iteration count.  Returns (f, iterations, residual).
    """
    inv_diag = 1.0 / (1.0 + lam * diag)
    tiny = np.finfo(float).tiny
    y = np.ascontiguousarray(y.T)
    f = y.copy()
    iterations = 0
    while True:
        r = np.empty_like(f)
        for k in range(len(f)):
            r[k] = y[k] - f[k] - lam * (A @ f[k])
        residual = np.max(np.abs(r), axis=1, initial=0.0)
        failing = ~(residual <= bound)
        if not failing.any():
            return np.ascontiguousarray(f.T), iterations, float(np.max(residual, initial=0.0))
        z = inv_diag * r
        rz = np.sum(r * z, axis=1)
        active = failing & (rz >= tiny)
        if iterations >= cap or not active.any():
            raise NotConverged(f"reference residual above its bound after {iterations} iterations")
        p = np.where(active[:, None], z, 0.0)
        while active.any() and iterations < cap:
            stepping = active.copy()
            q = np.zeros_like(p)
            for k in np.flatnonzero(stepping):
                q[k] = p[k] + lam * (A @ p[k])
            pq = np.sum(p * q, axis=1)
            active &= pq >= tiny
            alpha = np.divide(rz, pq, out=np.zeros_like(rz), where=active)[:, None]
            np.add(f, alpha * p, out=f, where=stepping[:, None])
            r -= alpha * q
            iterations += 1
            np.multiply(inv_diag, r, out=z)
            rz_next = np.sum(r * z, axis=1)
            active &= (np.max(np.abs(r), axis=1) > bound) & (rz_next >= tiny)
            beta = np.divide(rz_next, rz, out=np.zeros_like(rz), where=active)[:, None]
            p = np.where(active[:, None], z + beta * p, 0.0)
            rz = rz_next


def usable_cores(monkeypatch, cores):
    """Make the solver see ``cores`` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def dense_reference(L, lam, y):
    """np.linalg.solve of the dense system and the max-norm of its residual."""
    A = np.eye(L.n) + lam * L.matrix.toarray()
    f = np.linalg.solve(A, y)
    return f, float(np.max(np.abs(A @ f - y)))


def rounding(L, lam, y):
    """A bound on the rounding of one residual evaluation, |A| |f| ulps."""
    return 64 * EPS * (1.0 + 2.0 * lam * float(L.matrix.diagonal().max())) * max(1.0, float(np.max(np.abs(y))))


def error_bound(L, lam, y, ref_residual):
    """Certificate + reference residual + rounding of two residual evaluations."""
    return TOL * max(1.0, float(np.max(np.abs(y)))) + ref_residual + 2 * rounding(L, lam, y)


@pytest.fixture(scope="module")
def graph_1500():
    return kdtree_graph(1500, seed=0)


@pytest.mark.parametrize("k", [1, 3])
def test_matches_dense_solve(graph_1500, k):
    L = make_laplacian(graph_1500, UNNORMALIZED)
    rng = np.random.default_rng(1)
    y = rng.normal(size=1500) if k == 1 else rng.normal(size=(1500, k))
    f, info = smooth_conjugate_gradient(y, L, 2.0, TOL, return_info=True)
    assert f.shape == y.shape
    assert info["iterations"] > 0
    # the reported residual is that of the recomputed certificate, -r bit for bit
    assert info["residual"] == float(np.max(np.abs(f - y + 2.0 * (L.matrix @ f))))
    ref, ref_residual = dense_reference(L, 2.0, y)
    assert np.max(np.abs(f - ref)) <= error_bound(L, 2.0, y, ref_residual)
    # the certificate itself, evaluated independently
    residual = np.abs(f - y + 2.0 * (L.matrix.toarray() @ f)).reshape(1500, -1)
    bound = TOL * np.maximum(1.0, np.abs(y).reshape(1500, -1).max(axis=0))
    assert np.all(residual.max(axis=0) <= bound + rounding(L, 2.0, y))


def test_rerun_byte_identical(graph_1500):
    L = make_laplacian(graph_1500, UNNORMALIZED)
    y = np.random.default_rng(2).normal(size=(1500, 2))
    assert smooth_conjugate_gradient(y, L, 1.0, TOL).tobytes() == smooth_conjugate_gradient(y, L, 1.0, TOL).tobytes()


def test_columns_solve_independently(graph_1500):
    # a K-column solve is K one-column solves, down to the sign of a zero
    # column's entries
    L = make_laplacian(graph_1500, UNNORMALIZED)
    rng = np.random.default_rng(10)
    y = np.column_stack([rng.normal(size=1500), 1e3 * rng.uniform(size=1500), np.full(1500, -0.0)])
    f = smooth_conjugate_gradient(y, L, 2.0, TOL)
    for k in range(3):
        assert f[:, k].tobytes() == smooth_conjugate_gradient(y[:, k], L, 2.0, TOL).tobytes()
    assert np.all(np.signbit(f[:, 2]))


@pytest.mark.parametrize("lam", [0.5, 2.0, 100.0])
@pytest.mark.parametrize("k", [1, 4])
def test_matches_reference_pcg(graph_1500, lam, k):
    # a normal, a 1e3-scaled, a -0.0 and an all-zero column
    L = make_laplacian(graph_1500, UNNORMALIZED)
    rng = np.random.default_rng(11)
    y = np.column_stack([rng.normal(size=1500), 1e3 * rng.uniform(size=1500), np.full(1500, -0.0), np.zeros(1500)])
    y = y[:, :k]
    f, info = smooth_conjugate_gradient(y, L, lam, TOL, return_info=True)
    cap = smoother.CG_ITERATION_CAP * smoother._cg_iteration_bound(L, lam, TOL)
    ref, iterations, residual = reference_pcg(y, L.matrix, L.diagonal, lam, smoother._column_bounds(y, TOL), cap)
    assert f.tobytes() == ref.tobytes()
    assert (info["iterations"], info["residual"]) == (iterations, residual)
    assert iterations > 0


def test_underflowing_step_matches_reference():
    # with I + lam * A = 1e-10 * I and no preconditioning, p.Ap underflows on
    # every step while r.z does not: both solvers take each step with
    # alpha = 0, leaving f as it is, until the cap
    n, lam = 6, 2.0
    A = sparse.diags(np.full(n, -(1.0 - 1e-10) / lam)).tocsr()
    y = 1e-150 * np.array([1.0, -2.0, -0.0, 3.0, 0.5, -1.0])
    bound, cap = 1e-300, 7
    with pytest.raises(NotConverged, match="after 7 iterations"):
        reference_pcg(y[:, None], A, np.zeros(n), lam, np.array([bound]), cap)
    with pytest.raises(NotConverged, match="after 7 iterations"):
        smoother._pcg(0, y, A, np.ones(n), lam, bound, cap)


def test_core_count_does_not_change_result(graph_1500, monkeypatch):
    L = make_laplacian(graph_1500, UNNORMALIZED)
    y = np.random.default_rng(12).normal(size=(1500, 3)) * [1.0, 1e-3, 1e3]
    results = set()
    for cores in (1, 2, 8):
        usable_cores(monkeypatch, cores)
        f, info = smooth_conjugate_gradient(y, L, 2.0, TOL, return_info=True)
        results.add((f.tobytes(), info["iterations"], info["residual"]))
    assert len(results) == 1


@pytest.mark.parametrize("cores", [1, 2])
def test_caller_errstate_holds_in_every_column(graph_1500, monkeypatch, cores):
    # r.z of the 1e300-scaled column overflows; under the caller's
    # over="raise" that raises in the column's own thread too
    usable_cores(monkeypatch, cores)
    L = make_laplacian(graph_1500, UNNORMALIZED)
    rng = np.random.default_rng(13)
    y = np.column_stack([rng.normal(size=1500), 1e300 * rng.normal(size=1500)])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        smooth_conjugate_gradient(y, L, 2.0, TOL)


@pytest.mark.parametrize("cores", [1, 2, 8])
def test_no_thread_outlives_a_solve(monkeypatch, cores):
    usable_cores(monkeypatch, cores)
    L = make_laplacian(kdtree_graph(40, seed=6, box=2.0, dim=2), UNNORMALIZED)
    y = np.random.default_rng(14).normal(size=(40, 3))
    before = threading.active_count()
    smooth_conjugate_gradient(y, L, 2.0, TOL)
    assert threading.active_count() == before
    with pytest.raises(NotConverged):
        smooth_conjugate_gradient(y, L, 2.0, 1e-300)
    assert threading.active_count() == before


@pytest.mark.parametrize("cores", [1, 2])
def test_lowest_failing_column_raised(monkeypatch, cores):
    # both columns miss a 1e-300 bound; column 0's failure is raised, the same
    # message on every run and core count
    usable_cores(monkeypatch, cores)
    g = kdtree_graph(40, seed=6, box=2.0, dim=2)
    L = make_laplacian(g, UNNORMALIZED)
    y = np.random.default_rng(15).normal(size=(40, 2))
    messages = set()
    for _ in range(3):
        with pytest.raises(NotConverged, match=r"^conjugate gradient column 0: residual \S+ above its bound "
                           r"\S+ after \d+ iterations$") as raised:
            smooth_conjugate_gradient(y, L, 1.0, 1e-300)
        messages.add(str(raised.value))
    assert len(messages) == 1


def test_kl_through_run_smoothing(graph_1500):
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(3), size=1500)
    out, meta = run_smoothing(p, graph_1500, SmoothingConfig(lam=1.5, discrepancy="kl"))
    assert (meta["solver"], meta["converged"]) == ("cg", True)
    assert np.allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    L = make_laplacian(graph_1500, UNNORMALIZED)
    eta = to_natural_params(p)
    ref, ref_residual = dense_reference(L, 1.5, eta)
    # the softmax and log of the round trip add a few ulps of max(1, |eta|)
    round_trip = 64 * EPS * max(1.0, float(np.max(np.abs(eta))))
    assert np.max(np.abs(to_natural_params(out) - ref)) <= error_bound(L, 1.5, eta, ref_residual) + round_trip


def test_lambda_zero_returns_copy(graph_1500):
    L = make_laplacian(graph_1500, UNNORMALIZED)
    y = np.random.default_rng(4).normal(size=(1500, 2))
    f, info = smooth_conjugate_gradient(y, L, 0.0, TOL, return_info=True)
    assert np.array_equal(f, y) and f is not y
    assert info["iterations"] == 0


def test_zero_column_stays_zero(graph_1500):
    # an all-zero column has r.z = 0 from the start; it must not turn into 0/0
    L = make_laplacian(graph_1500, UNNORMALIZED)
    y = np.random.default_rng(5).normal(size=(1500, 2))
    y[:, 1] = 0.0
    f = smooth_conjugate_gradient(y, L, 3.0, TOL)
    assert np.all(f[:, 1] == 0.0)
    ref, ref_residual = dense_reference(L, 3.0, y)
    assert np.max(np.abs(f - ref)) <= error_bound(L, 3.0, y, ref_residual)


def test_requires_unnormalized(graph_1500):
    with pytest.raises(InvalidParameter):
        smooth_conjugate_gradient(np.zeros(1500), make_laplacian(graph_1500, NORMALIZED_RW), 1.0, TOL)


def test_tiny_tolerance_not_converged():
    g = kdtree_graph(40, seed=6, box=2.0, dim=2)
    y = np.random.default_rng(6).normal(size=40)
    with pytest.raises(NotConverged):
        smooth_conjugate_gradient(y, make_laplacian(g, UNNORMALIZED), 1.0, 1e-300)


def test_underflowing_residual_raises():
    # r.z underflows before the residual meets a 1e-300 bound: no step can be
    # taken, so the solve stops at once instead of restarting forever
    g = kdtree_graph(40, seed=6, box=2.0, dim=2)
    y = 1e-160 * np.random.default_rng(6).normal(size=40)
    with pytest.raises(NotConverged, match="after 0 iterations"):
        smooth_conjugate_gradient(y, make_laplacian(g, UNNORMALIZED), 1.0, 1e-300)


class TestDispatch:
    def test_selfcheck_sized_graph_uses_cholesky(self):
        # the benchmark self-check's graph: 30 points in the unit square, d <= 0.4
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(30, 2))
        i, j = np.triu_indices(30, 1)
        d = np.linalg.norm(X[i] - X[j], axis=1)
        keep = d <= 0.4
        g = SimilarityGraph(n=30, rows=i[keep], cols=j[keep], weights=np.exp(-d[keep] ** 2))
        _, meta = run_smoothing(rng.uniform(size=30), g, SmoothingConfig(lam=2.0))
        assert (meta["solver"], meta["iterations"], meta["converged"]) == ("cholesky", 0, True)

    def test_pipeline_sized_graph_uses_cg(self):
        # 2500 points at an average degree near 125, as in the file-to-file pipeline
        g = kdtree_graph(2500, seed=8, box=2.775, dim=4)
        assert g.num_edges > 100_000
        y = np.random.default_rng(8).uniform(size=2500)
        f, meta = run_smoothing(y, g, SmoothingConfig(lam=1.0))
        assert (meta["solver"], meta["converged"], meta["fallback_to_cd"]) == ("cg", True, False)
        assert meta["iterations"] > 0 and "epochs_used" not in meta
        assert meta["residual"] <= TOL * max(1.0, float(np.max(np.abs(y))))
        L = make_laplacian(g, UNNORMALIZED)
        assert meta["residual"] == float(np.max(np.abs(f - y + L.matrix @ f)))


def test_cli_tiny_tolerance_exit_code_2(tmp_path, capsys, monkeypatch):
    # a dense limit of 0 forces conjugate gradient, which raises itself
    monkeypatch.setattr(smoother, "DENSE_LIMIT", 0)
    g = kdtree_graph(40, seed=9, box=2.0, dim=2)
    graph = tmp_path / "graph.tsv"
    write_edge_list(g, graph)
    outputs = tmp_path / "outputs.csv"
    write_matrix_csv(outputs, np.random.default_rng(9).normal(size=(40, 1)))
    out = tmp_path / "smoothed.csv"
    code = main(["smooth", "--graph", str(graph), "--outputs", str(outputs),
                 "--tolerance", "1e-300", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: NotConverged: ")
    assert not out.exists()
