"""Property tests: the k-d tree graph build equals the all-pairs selection bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairsmooth import FairMetricSpec, build_similarity_graph  # noqa: E402
from fairsmooth.graph import WEIGHT_FLOOR  # noqa: E402
from fairsmooth.metric import pairwise_fair_distances  # noqa: E402

EUCLID = FairMetricSpec("euclidean")

METRIC_KINDS = ("euclidean", "full_rank", "rank_deficient", "projection_complement", "zero")


def make_metric(kind, d, rng):
    if kind == "euclidean":
        return EUCLID
    if kind == "full_rank":
        A = rng.normal(size=(d, d))
        return FairMetricSpec("mahalanobis", sigma=A.T @ A + 0.1 * np.eye(d))
    if kind == "rank_deficient":
        A = rng.normal(size=(max(d - 1, 1), d))
        sigma = A.T @ A if d > 1 else np.zeros((1, 1))
        return FairMetricSpec("mahalanobis", sigma=sigma)
    if kind == "projection_complement":
        # k = d leaves Sigma = I - B^T B zero only to rounding, with
        # eigenvalues of either sign
        k = int(rng.integers(1, d + 1))
        B = np.linalg.qr(rng.normal(size=(d, k)))[0].T
        return FairMetricSpec("projection_complement", basis=B)
    return FairMetricSpec("mahalanobis", sigma=np.zeros((d, d)))


def all_pairs_selection(X, metric, theta, tau):
    # reference: every upper-triangle pair of the dense distance matrix,
    # filtered by tau, then by the floor
    n = X.shape[0]
    dist = pairwise_fair_distances(metric, X)
    iu, ju = np.triu_indices(n, k=1)
    d = dist[iu, ju]
    keep = d <= tau
    iu, ju, d = iu[keep], ju[keep], d[keep]
    w = np.exp(-theta * d * d)
    keep = w >= WEIGHT_FLOOR
    return iu[keep], ju[keep], w[keep]


def assert_matches_all_pairs(X, metric, theta, tau):
    g = build_similarity_graph(X, metric, theta=theta, tau=tau)
    rows, cols, weights = all_pairs_selection(X, metric, theta, tau)
    assert np.array_equal(g.rows, rows)
    assert np.array_equal(g.cols, cols)
    assert np.array_equal(g.weights, weights)
    return g


class TestCandidatePairsMatchAllPairs:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        d=st.integers(1, 4),
        kind=st.sampled_from(METRIC_KINDS),
        offset=st.sampled_from([0.0, 1.0, 1e2, 1e4]),
        grid=st.booleans(),
        tie=st.booleans(),
    )
    def test_bit_identical(self, seed, n, d, kind, offset, grid, tie):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * (3.0 if grid else 1.0)
        if grid:
            X = np.round(X)  # integer grid: many equal distances
        X += offset * rng.uniform(-1.0, 1.0, size=d)
        metric = make_metric(kind, d, rng)
        off = pairwise_fair_distances(metric, X)[np.triu_indices(n, k=1)]
        positive = off[off > 0]
        if tie and positive.size:
            tau = float(rng.choice(positive))  # a pair sits exactly at tau
        else:
            tau = float(rng.uniform(0.2, 2.0)) * (np.median(positive) if positive.size else 1.0)
        assert_matches_all_pairs(X, metric, 1.0 / tau**2, tau)

    def test_past_one_row_block(self):
        # 1030 rows: the k-d tree proposes pairs on both sides of row 1024,
        # and the all-pairs reference spans many row blocks
        rng = np.random.default_rng(11)
        X = rng.uniform(0.0, 3.0, size=(1030, 3))
        basis = np.linalg.qr(rng.normal(size=(3, 1)))[0].T
        metric = FairMetricSpec("projection_complement", basis=basis)
        g = assert_matches_all_pairs(X, metric, 1.0, 0.5)
        assert np.any(g.rows < 1024) and np.any(g.cols >= 1024)
        assert 0 < g.num_edges < 1030 * 1029 // 2
