import numpy as np
import pytest

from fairsmooth import (
    FairMetricSpec,
    fair_distance,
    metric_spec_from_json,
    pairwise_fair_distances,
    validate_metric,
)
from fairsmooth.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonOrthonormalBasis,
    NonSymmetric,
    NotPSD,
)


def mahalanobis(sigma):
    return validate_metric(FairMetricSpec("mahalanobis", sigma=np.asarray(sigma, float)))


class TestValidateMetric:
    def test_identity_is_valid(self):
        spec = mahalanobis(np.eye(2))
        assert np.allclose(spec.sigma, np.eye(2))

    def test_indefinite_matrix_rejected(self):
        # eigenvalues of [[1, 2], [2, 1]] are 3 and -1
        with pytest.raises(NotPSD, match="-1"):
            mahalanobis([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NonSymmetric):
            mahalanobis([[1.0, 0.5], [0.0, 1.0]])

    def test_projection_complement_canonical_sigma(self):
        spec = validate_metric(
            FairMetricSpec("projection_complement", basis=np.array([[1.0, 0.0]]))
        )
        assert np.allclose(spec.sigma, [[0.0, 0.0], [0.0, 1.0]])

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(NonOrthonormalBasis):
            validate_metric(
                FairMetricSpec("projection_complement", basis=np.array([[1.0, 1.0]]))
            )

    def test_tiny_negative_eigenvalue_clamped(self):
        sigma = np.eye(2) * 1.0
        sigma[0, 0] = -1e-12
        spec = mahalanobis(sigma)
        eig = np.linalg.eigvalsh(spec.sigma)
        assert eig.min() >= 0.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            validate_metric(FairMetricSpec("cosine"))


class TestFairDistance:
    def test_zero_displacement(self):
        spec = mahalanobis(np.eye(3))
        x = np.array([1.0, 2.0, 3.0])
        assert fair_distance(spec, x, x) == 0.0

    def test_euclidean_3_4_5(self):
        spec = mahalanobis(np.eye(2))
        assert fair_distance(spec, np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_diagonal_sigma(self):
        spec = mahalanobis(np.diag([2.0, 0.5]))
        d = fair_distance(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2.5), abs=1e-12)

    def test_euclidean_kind(self):
        spec = validate_metric(FairMetricSpec("euclidean"))
        assert fair_distance(spec, np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        spec = mahalanobis(np.eye(2))
        with pytest.raises(DimensionMismatch):
            fair_distance(spec, np.zeros(3), np.zeros(3))

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        spec = mahalanobis(A.T @ A)
        for _ in range(50):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert fair_distance(spec, x, y) == pytest.approx(
                fair_distance(spec, y, x), abs=1e-12
            )

    def test_nonnegative_for_random_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            A = rng.normal(size=(3, 3))
            spec = mahalanobis(A.T @ A)
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert fair_distance(spec, x, y) >= 0.0


class TestPairwise:
    def test_single_point(self):
        spec = mahalanobis(np.eye(2))
        D = pairwise_fair_distances(spec, np.zeros((1, 2)))
        assert D.shape == (1, 1) and D[0, 0] == 0.0

    def test_identical_rows(self):
        spec = mahalanobis(np.eye(2))
        X = np.tile([1.0, 2.0], (2, 1))
        assert np.allclose(pairwise_fair_distances(spec, X), 0.0)

    def test_three_points_on_a_line(self):
        spec = mahalanobis(np.eye(1))
        X = np.array([[0.0], [1.0], [3.0]])
        D = pairwise_fair_distances(spec, X)
        assert D[0, 1] == pytest.approx(1.0)
        assert D[1, 2] == pytest.approx(2.0)
        assert D[0, 2] == pytest.approx(3.0)

    def test_matches_scalar_distance(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        spec = mahalanobis(A.T @ A)
        X = rng.normal(size=(12, 3))
        D = pairwise_fair_distances(spec, X, block_size=5)
        for i in range(12):
            for j in range(12):
                assert D[i, j] == pytest.approx(fair_distance(spec, X[i], X[j]), abs=1e-9)
        assert np.max(np.abs(D - D.T)) <= 1e-12
        assert np.all(np.diag(D) == 0.0)

    def test_projection_equivalence(self):
        rng = np.random.default_rng(3)
        B = np.linalg.qr(rng.normal(size=(5, 2)))[0].T  # 2 orthonormal rows in R^5
        proj = validate_metric(FairMetricSpec("projection_complement", basis=B))
        maha = mahalanobis(np.eye(5) - B.T @ B)
        X = rng.normal(size=(10, 5))
        D1 = pairwise_fair_distances(proj, X)
        D2 = pairwise_fair_distances(maha, X)
        assert np.max(np.abs(D1 - D2)) < 1e-10


def reference_pairwise(spec, X, block_size):
    # the expression the in-place version replaces: whole-block temporaries,
    # a fresh array for the root and another for the symmetrization
    SX = X if spec.sigma is None else X @ spec.sigma
    q = np.einsum("ij,ij->i", X, SX)
    n = X.shape[0]
    sq = np.empty((n, n))
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        cross = X[start:stop] @ SX.T
        sq[start:stop] = q[start:stop, None] + q[None, :] - 2.0 * cross
    np.maximum(sq, 0.0, out=sq)
    dist = np.sqrt(sq)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


class TestPairwiseMatchesReference:
    @pytest.mark.parametrize("block_size", [1, 7, 1024])
    @pytest.mark.parametrize("n", [1, 2, 23, 50])
    def test_rank_deficient_sigma(self, n, block_size):
        rng = np.random.default_rng(100 + n)
        B = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
        spec = validate_metric(FairMetricSpec("projection_complement", basis=B))
        assert np.linalg.matrix_rank(spec.sigma) == 2
        X = rng.normal(size=(n, 4))
        D = pairwise_fair_distances(spec, X, block_size=block_size)
        assert np.array_equal(D, reference_pairwise(spec, X, block_size))
        assert np.array_equal(D, D.T)

    @pytest.mark.parametrize("block_size", [1, 7, 1024])
    def test_euclidean_and_full_rank(self, block_size):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        A = rng.normal(size=(3, 3))
        for spec in (validate_metric(FairMetricSpec("euclidean")), mahalanobis(A.T @ A)):
            D = pairwise_fair_distances(spec, X, block_size=block_size)
            assert np.array_equal(D, reference_pairwise(spec, X, block_size))
            assert np.array_equal(D, D.T)
            assert np.all(np.diag(D) == 0.0)


class TestJsonSpec:
    def test_roundtrip_mahalanobis(self):
        spec = metric_spec_from_json({"kind": "mahalanobis", "sigma": [[1, 0], [0, 2]]})
        assert spec.kind == "mahalanobis"
        assert np.allclose(spec.sigma, [[1, 0], [0, 2]])

    def test_extra_field_rejected(self):
        with pytest.raises(InvalidParameter):
            metric_spec_from_json({"kind": "euclidean", "sigma": [[1]]})

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidParameter):
            metric_spec_from_json({"kind": "mahalanobis"})
