import dataclasses
import json
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy import sparse

from fairsmooth import (
    FairMetricSpec,
    SmoothingConfig,
    apply_symmetrized,
    build_similarity_graph,
    graph_from_annotations,
    normalized_rw_laplacian,
    run_smoothing,
    smoother,
    unnormalized_laplacian,
)
from fairsmooth.errors import DimensionMismatch, InvalidParameter
from fairsmooth.graph import SimilarityGraph
from fairsmooth.laplacian import KINDS, NORMALIZED_RW, UNNORMALIZED, make_laplacian

EUCLID = FairMetricSpec("euclidean")


def quadratic_form(L, f):
    """trace(f^T L f); f may be a vector or an n x K matrix."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != L.n:
        raise DimensionMismatch(f"f has {f.shape[0]} rows, Laplacian has n={L.n}")
    return float(np.sum(f * (L.matrix @ f)))


def random_graph(rng, n, p=0.4):
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < p
    ]
    if not pairs:
        pairs = [(0, 1)]
    return graph_from_annotations(pairs, n=n)


@np.errstate(all="ignore")  # as in the package's builders
def reference_rw_laplacian(g):
    """The non-symmetric I - Dt^{-1} Wt as CSR, isolated rows zero.

    The package's arithmetic: Wt_ij = (W_ij s_i) s_j with s = 1 / sqrt(degree),
    and the normalized degrees summed per CSR row.
    """
    M = g.adjacency()
    deg = np.asarray(M.sum(axis=1)).ravel()
    pos = deg > 0
    inv_sqrt = np.zeros(g.n)
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    counts = np.diff(M.indptr)
    M.data *= np.repeat(inv_sqrt, counts)
    M.data *= inv_sqrt[M.indices]
    td = np.asarray(M.sum(axis=1)).ravel()
    inv_td = np.zeros(g.n)
    inv_td[pos] = 1.0 / td[pos]
    M.data *= np.repeat(inv_td, counts)
    return (sparse.diags(pos.astype(float)) - M).tocsr()


def assert_symmetrization_of(L, R):
    """L's matrix is scipy's (R + R^T) / 2, dense bytes bit for bit."""
    assert L.matrix.toarray().tobytes() == (0.5 * (R + R.T)).toarray().tobytes()


def dense_nrw_oracle(W):
    """Dense reference computation of I - Dt^{-1} Wt with isolated rows zero."""
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    deg = W.sum(axis=1)
    pos = deg > 0
    inv_sqrt = np.zeros(n)
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    Wt = np.diag(inv_sqrt) @ W @ np.diag(inv_sqrt)
    td = Wt.sum(axis=1)
    L = np.zeros((n, n))
    for i in range(n):
        if pos[i]:
            L[i] = -Wt[i] / td[i]
            L[i, i] += 1.0
    return L


class TestUnnormalized:
    def test_path_graph(self):
        L = unnormalized_laplacian(graph_from_annotations([(0, 1)], n=2))
        assert np.allclose(L.matrix.toarray(), [[1, -1], [-1, 1]])

    def test_no_edges_zero_matrix(self):
        L = unnormalized_laplacian(graph_from_annotations([], n=3))
        assert np.allclose(L.matrix.toarray(), 0.0)

    def test_triangle(self):
        g = graph_from_annotations([(0, 1), (0, 2), (1, 2)], n=3)
        L = unnormalized_laplacian(g).matrix.toarray()
        assert np.allclose(np.diag(L), 2.0)
        assert np.allclose(L - np.diag(np.diag(L)), -1 + np.eye(3))

    def test_row_sums_zero_and_symmetric(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        L = unnormalized_laplacian(g).matrix.toarray()
        assert np.max(np.abs(L.sum(axis=1))) < 1e-12
        assert np.max(np.abs(L - L.T)) < 1e-12


class TestNormalizedRW:
    def test_single_edge_matches_unnormalized(self):
        g = graph_from_annotations([(0, 1)], n=2)
        L = normalized_rw_laplacian(g)
        assert np.allclose(L.matrix.toarray(), [[1, -1], [-1, 1]])

    def test_no_edges_zero_matrix(self):
        L = normalized_rw_laplacian(graph_from_annotations([], n=3))
        assert np.allclose(L.matrix.toarray(), 0.0)

    def test_star_graph_matches_dense_oracle(self):
        g = graph_from_annotations([(0, 1), (0, 2)], n=3)
        R = reference_rw_laplacian(g)
        assert np.allclose(R.toarray(), dense_nrw_oracle(g.adjacency().toarray()), atol=1e-12)
        assert_symmetrization_of(normalized_rw_laplacian(g), R)

    def test_weighted_random_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        R = reference_rw_laplacian(g)
        assert np.allclose(R.toarray(), dense_nrw_oracle(g.adjacency().toarray()), atol=1e-12)
        assert_symmetrization_of(normalized_rw_laplacian(g), R)

    def test_sorted_csr_and_its_symmetrization(self):
        # the kept matrix has sorted indices and is scipy's (R + R^T) / 2 of
        # the non-symmetric reference R bit for bit; apply_symmetrized and
        # symmetrized() are that matrix
        rng = np.random.default_rng(15)
        g = build_similarity_graph(rng.uniform(size=(150, 2)), EUCLID, theta=3.0, tau=0.2)
        L = normalized_rw_laplacian(g)
        S = L.matrix
        assert S.has_sorted_indices
        assert_symmetrization_of(L, reference_rw_laplacian(g))
        oracle = dense_nrw_oracle(g.adjacency().toarray())
        assert np.allclose(S.toarray(), 0.5 * (oracle + oracle.T), atol=1e-12)
        f = rng.normal(size=(150, 2))
        assert apply_symmetrized(L, f).tobytes() == (S @ f).tobytes()
        assert L.symmetrized() is S

    def test_isolated_node_row_zero(self):
        g = graph_from_annotations([(0, 1)], n=3)
        L = normalized_rw_laplacian(g).matrix.toarray()
        assert np.allclose(L[2], 0.0)
        assert L[2, 2] == 0.0

    def test_non_isolated_rows_sum_zero(self):
        # the rows of the non-symmetric L, not of the kept (L + L^T) / 2
        rng = np.random.default_rng(12)
        g = random_graph(rng, 15)
        R = reference_rw_laplacian(g)
        deg = np.asarray(g.adjacency().sum(axis=1)).ravel()
        assert np.max(np.abs(R.toarray()[deg > 0].sum(axis=1))) < 1e-10
        assert_symmetrization_of(normalized_rw_laplacian(g), R)

    def test_diagonal_one_on_connected_nodes(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 10)
        L = normalized_rw_laplacian(g).matrix.toarray()
        deg = np.asarray(g.adjacency().sum(axis=1)).ravel()
        assert np.allclose(np.diag(L)[deg > 0], 1.0)


class TestQuadraticForm:
    def test_constant_vector_in_null_space(self):
        g = graph_from_annotations([(0, 1), (1, 2)], n=3)
        for kind in (UNNORMALIZED, NORMALIZED_RW):
            L = make_laplacian(g, kind)
            assert quadratic_form(L, np.full(3, 7.0)) == pytest.approx(0.0, abs=1e-10)

    def test_path_unit_difference(self):
        L = unnormalized_laplacian(graph_from_annotations([(0, 1)], n=2))
        assert quadratic_form(L, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_zero_vector(self):
        L = unnormalized_laplacian(graph_from_annotations([(0, 1)], n=2))
        assert quadratic_form(L, np.zeros(2)) == 0.0

    def test_dimension_mismatch(self):
        L = unnormalized_laplacian(graph_from_annotations([(0, 1)], n=2))
        with pytest.raises(DimensionMismatch):
            quadratic_form(L, np.zeros(3))

    def test_pairwise_sum_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            X = rng.normal(size=(n, 2))
            g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
            L = unnormalized_laplacian(g)
            f = rng.normal(size=(n, 3))
            qf = quadratic_form(L, f)
            pair_sum = sum(
                w * float(np.sum((f[i] - f[j]) ** 2)) for i, j, w in g.edges
            )
            assert qf == pytest.approx(pair_sum, rel=1e-9)

    def test_unnormalized_psd(self):
        rng = np.random.default_rng(15)
        g = random_graph(rng, 20)
        L = unnormalized_laplacian(g)
        for _ in range(1000):
            f = rng.normal(size=20)
            assert quadratic_form(L, f) >= -1e-10


class TestApplySymmetrized:
    def test_unnormalized_equals_plain_apply(self):
        rng = np.random.default_rng(16)
        g = random_graph(rng, 12)
        L = unnormalized_laplacian(g)
        f = rng.normal(size=(12, 2))
        assert np.allclose(apply_symmetrized(L, f), L.matrix @ f)

    def test_zero_operator(self):
        L = unnormalized_laplacian(graph_from_annotations([], n=4))
        assert np.allclose(apply_symmetrized(L, np.ones((4, 2))), 0.0)

    def test_nrw_star_matches_dense_oracle(self):
        g = graph_from_annotations([(0, 1), (0, 2)], n=3)
        L = normalized_rw_laplacian(g)
        dense = dense_nrw_oracle(g.adjacency().toarray())
        sym = 0.5 * (dense + dense.T)
        e0 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(apply_symmetrized(L, e0), sym @ e0, atol=1e-12)

    def test_component_indicator_in_null_space(self):
        # Component indicators are annihilated by the symmetrized
        # unnormalized Laplacian.  The random-walk kind annihilates them
        # on the right (row sums are zero), and the quadratic form of the
        # symmetrization vanishes; the symmetrized *matrix* does not
        # annihilate them on non-regular graphs (its column sums are not
        # zero), so that is deliberately not asserted.
        g = graph_from_annotations([(0, 1), (1, 2), (3, 4)], n=5)
        ind_a = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        ind_b = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        L_un = make_laplacian(g, UNNORMALIZED)
        L_rw, R = make_laplacian(g, NORMALIZED_RW), reference_rw_laplacian(g)
        assert_symmetrization_of(L_rw, R)
        for ind in (ind_a, ind_b):
            assert np.max(np.abs(apply_symmetrized(L_un, ind))) < 1e-10
            assert np.max(np.abs(R @ ind)) < 1e-10
            assert abs(quadratic_form(L_rw, ind)) < 1e-10

    def test_nrw_symmetrized_does_not_annihilate_constants(self):
        # Star graph: sym(L_nrw) @ 1 = (-1/2, 1/4, 1/4); guards against
        # accidentally "fixing" the operator to something it is not.
        g = graph_from_annotations([(0, 1), (0, 2)], n=3)
        L = normalized_rw_laplacian(g)
        out = apply_symmetrized(L, np.ones(3))
        assert np.allclose(out, [-0.5, 0.25, 0.25], atol=1e-12)


def coo_adjacency(n, rows, cols, weights):
    """W assembled from both triangles through scipy's COO conversion."""
    i = np.concatenate([rows, cols])
    j = np.concatenate([cols, rows])
    w = np.concatenate([weights, weights])
    return sparse.csr_matrix((w, (i, j)), shape=(n, n))


def coo_laplacian(g, kind, monkeypatch, edges=None):
    """The Laplacian built from the COO adjacency of ``edges``, g's own by default.

    It is built on a fresh graph over g's arrays: make_laplacian keeps the
    operator it built for g, and would return that one again.
    """
    edges = (g.rows, g.cols, g.weights) if edges is None else edges
    with monkeypatch.context() as m:
        m.setattr(SimilarityGraph, "adjacency", lambda self: coo_adjacency(self.n, *edges))
        return make_laplacian(SimilarityGraph(g.n, g.rows, g.cols, g.weights), kind)


def csr_arrays(M):
    return [M.data, M.indices, M.indptr]


def assert_same_csr(ours, ref):
    assert type(ours) is type(ref) and ours.shape == ref.shape
    for a, b in zip(csr_arrays(ours), csr_arrays(ref)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


DOCUMENTED_ORDER = {
    "empty": graph_from_annotations([], n=4),
    "one node": graph_from_annotations([], n=1),
    "isolated nodes": graph_from_annotations([(1, 3), (1, 4), (3, 4), (4, 6)], n=8),
    "k-d tree": build_similarity_graph(
        np.random.default_rng(14).uniform(0.0, 3.0, size=(200, 2)), EUCLID, theta=1.0, tau=0.5
    ),
}


class TestAdjacencyBuild:
    """The upper-triangle CSR build against scipy's COO conversion."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("g", DOCUMENTED_ORDER.values(), ids=DOCUMENTED_ORDER.keys())
    def test_bit_identical_on_documented_order(self, g, kind, monkeypatch):
        ours, ref = make_laplacian(g, kind), coo_laplacian(g, kind, monkeypatch)
        assert_same_csr(ours.matrix, ref.matrix)
        assert_same_csr(g.adjacency(), coo_adjacency(g.n, g.rows, g.cols, g.weights))
        if kind == NORMALIZED_RW:
            assert_symmetrization_of(ours, reference_rw_laplacian(g))

    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_outside_documented_order(self, kind, monkeypatch):
        """Any edge arrays: the graph is canonical, its Laplacians those of the raw edges.

        Each unordered pair appears at most twice, reversed or not, so its
        summed weight a + b does not depend on the order of summation; with
        three copies the COO reference itself sums them in a different order
        in row i than in row j.  The Laplacians' reference leaves zero
        weights out: the COO build would store them, and a stored zero
        regroups scipy's row sums (np.add.reduceat), so the degrees could
        differ in the last bit.  The adjacencies are compared with them.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def edge_arrays(draw):
            n = draw(st.integers(min_value=2, max_value=9))
            pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                 .filter(lambda p: p[0] < p[1])))
            weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0))
            edges = []
            for i, j in sorted(pairs):
                for _ in range(draw(st.integers(1, 2))):
                    edges.append((j, i) if draw(st.booleans()) else (i, j))
            edges = draw(st.permutations(edges))
            weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
            rows = np.array([i for i, _ in edges], dtype=np.int64)
            cols = np.array([j for _, j in edges], dtype=np.int64)
            return n, rows, cols, np.array(weights)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(edge_arrays())
        def check(edges):
            n, rows, cols, weights = edges
            g = SimilarityGraph(n, rows, cols, weights)
            for a, dtype in ((g.rows, np.int64), (g.cols, np.int64), (g.weights, np.float64)):
                assert a.dtype == dtype and a.flags.c_contiguous and not a.flags.writeable
            assert np.all(g.rows < g.cols)
            assert np.all(np.diff(g.rows * n + g.cols) > 0)
            W = coo_adjacency(n, rows, cols, weights)
            assert np.array_equal(g.weights, W.toarray()[g.rows, g.cols])
            assert len(g.rows) == len({(min(i, j), max(i, j)) for i, j in zip(rows, cols)})
            assert g.adjacency().toarray().tobytes() == W.toarray().tobytes()
            nonzero = weights != 0
            raw = (rows[nonzero], cols[nonzero], weights[nonzero])
            ours, ref = make_laplacian(g, kind), coo_laplacian(g, kind, monkeypatch, raw)
            assert_same_csr(ours.matrix, ref.matrix)

        check()

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_weight_edge(self, kind, monkeypatch):
        # the transpose sum stores no zero weight, the COO build does; the
        # Laplacians agree bit for bit either way
        g = SimilarityGraph(n=4, rows=np.array([0, 0, 1]), cols=np.array([1, 2, 3]),
                            weights=np.array([0.5, 0.0, 2.0]))
        assert_same_csr(make_laplacian(g, kind).matrix, coo_laplacian(g, kind, monkeypatch).matrix)
        W = coo_adjacency(g.n, g.rows, g.cols, g.weights)
        assert np.array_equal(g.adjacency().toarray(), W.toarray())


def tau_graph(n, seed):
    X = np.random.default_rng(seed).uniform(0.0, np.sqrt(n) / 4, size=(n, 2))
    return build_similarity_graph(X, EUCLID, theta=1.0, tau=1.0)


class TestKeptOperator:
    """make_laplacian builds each kind once per graph and keeps it with the graph."""

    def test_one_operator_per_graph_and_kind(self):
        g = tau_graph(60, seed=20)
        un, rw = make_laplacian(g, UNNORMALIZED), make_laplacian(g, NORMALIZED_RW)
        assert make_laplacian(g, UNNORMALIZED) is un and make_laplacian(g, NORMALIZED_RW) is rw
        assert un is not rw and un.kind == UNNORMALIZED and rw.kind == NORMALIZED_RW

    def test_not_a_field(self):
        g = tau_graph(30, seed=21)
        L = make_laplacian(g, UNNORMALIZED)
        assert [f.name for f in dataclasses.fields(g)] == ["n", "rows", "cols", "weights"]
        assert "_laplacians" not in repr(g)
        assert make_laplacian(dataclasses.replace(g), UNNORMALIZED) is not L

    @pytest.mark.parametrize("kind", KINDS)
    def test_new_graph_over_the_same_arrays_builds_its_own(self, kind):
        g = tau_graph(60, seed=22)
        L = make_laplacian(g, kind)
        other = SimilarityGraph(g.n, g.rows, g.cols, g.weights)
        assert np.shares_memory(other.weights, g.weights)  # kept without a copy
        M = make_laplacian(other, kind)
        assert M is not L
        assert_same_csr(M.matrix, L.matrix)

    def test_unknown_kind_keeps_nothing(self):
        g = tau_graph(20, seed=23)
        with pytest.raises(InvalidParameter):
            make_laplacian(g, "sym")
        assert g._laplacians == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_array_is_read_only(self, kind):
        L = make_laplacian(tau_graph(60, seed=24), kind)
        assert [f.name for f in dataclasses.fields(L)] == ["kind", "n", "matrix"]
        for a in csr_arrays(L.matrix) + [L.diagonal]:
            assert a.size and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
            with pytest.raises(ValueError):
                a *= 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_freed_with_the_graph(self, kind):
        g = tau_graph(60, seed=25)
        ref = weakref.ref(make_laplacian(g, kind))
        assert ref() is not None
        del g
        assert ref() is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_threads_building_at_once_share_one_operator(self, kind):
        g = tau_graph(400, seed=28)
        start = threading.Barrier(8)
        results = []

        def build():
            start.wait(timeout=10)
            results.append(make_laplacian(g, kind))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 and all(L is g._laplacians[kind] for L in results)

    def test_repeated_solves_match_solves_on_fresh_graphs(self, monkeypatch):
        # large_graph_solve's order and solvers, at a size that runs in a
        # second: CG, the random-walk CD fallback, KL by CG, CG again
        monkeypatch.setattr(smoother, "DENSE_LIMIT", 100)
        g = tau_graph(600, seed=26)
        rng = np.random.default_rng(27)
        y, P = rng.uniform(size=g.n), rng.dirichlet(np.ones(3), size=g.n)
        solves = [
            (y, SmoothingConfig(lam=1.0)),
            (y, SmoothingConfig(lam=1.0, laplacian_kind=NORMALIZED_RW)),
            (P, SmoothingConfig(lam=1.0, discrepancy="kl")),
            (y, SmoothingConfig(lam=1.0)),
        ]
        solvers = []
        for yhat, config in solves:
            f, meta = run_smoothing(yhat, g, config)
            fresh = SimilarityGraph(g.n, g.rows, g.cols, g.weights)
            f_ref, meta_ref = run_smoothing(yhat, fresh, config)
            assert f.dtype == f_ref.dtype and f.tobytes() == f_ref.tobytes()
            assert json.dumps(meta, sort_keys=True) == json.dumps(meta_ref, sort_keys=True)
            solvers.append(meta["solver"])
        assert solvers == ["cg", "coordinate_descent", "cg", "cg"]
        assert set(g._laplacians) == set(KINDS)
