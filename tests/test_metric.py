from fractions import Fraction

import numpy as np
import pytest

from fairsmooth import (
    FairMetricSpec,
    GroupedPredictions,
    SimilarityGraph,
    SyntheticSpec,
    accuracy,
    build_similarity_graph,
    constraints_from_distances,
    convergence_report,
    count_violations,
    fair_distance,
    graph_from_annotations,
    inductive_update,
    kl_coordinate_update,
    metric_spec_from_json,
    pairwise_fair_distances,
    project_pair,
    smooth_closed_form,
    smooth_conjugate_gradient,
    smooth_coordinate_descent,
    unnormalized_laplacian,
    violation_histogram,
)
from fairsmooth import metric as metric_mod
from fairsmooth.evalmetrics import predicted_classes
from fairsmooth.metric import PAIR_CHUNK, check_pairs, check_type, pair_fair_distances, pair_gaps
from fairsmooth.synthcheck import kernel_weights, sample_inputs
from fairsmooth.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NonOrthonormalBasis,
    NonSymmetric,
    NotPSD,
)


def mahalanobis(sigma):
    return FairMetricSpec("mahalanobis", sigma=sigma)


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
        spec = FairMetricSpec("projection_complement", basis=np.array([[1.0, 0.0]]))
        assert np.allclose(spec.sigma, [[0.0, 0.0], [0.0, 1.0]])

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(NonOrthonormalBasis):
            FairMetricSpec("projection_complement", basis=np.array([[1.0, 1.0]]))

    def test_tiny_negative_eigenvalue_clamped(self):
        sigma = np.eye(2) * 1.0
        sigma[0, 0] = -1e-12
        spec = mahalanobis(sigma)
        eig = np.linalg.eigvalsh(spec.sigma)
        assert eig.min() >= 0.0

    def test_zero_dimensional_sigma(self):
        # as the euclidean kind in d = 0: every distance is 0
        spec = FairMetricSpec("mahalanobis", sigma=np.zeros((0, 0)))
        assert spec.sigma.shape == (0, 0)
        assert np.array_equal(pairwise_fair_distances(spec, np.empty((3, 0))), np.zeros((3, 3)))

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            FairMetricSpec("cosine")

    def test_indefinite_diagonal_rejected(self):
        # diag(1, -3) used to be taken as given, with weight 1 for pairs 5 apart
        with pytest.raises(NotPSD, match="-3"):
            FairMetricSpec("mahalanobis", sigma=np.diag([1.0, -3.0]))

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"kind": "euclidean", "sigma": np.eye(2)}, "euclidean metric takes no"),
            ({"kind": "euclidean", "basis": np.eye(2)[:1]}, "euclidean metric takes no"),
            ({"kind": "mahalanobis"}, "mahalanobis metric requires sigma"),
            ({"kind": "mahalanobis", "sigma": np.eye(2), "basis": np.eye(2)[:1]}, "takes no basis"),
            ({"kind": "projection_complement"}, "requires basis"),
            # sigma is derived from the basis, never taken from the caller
            ({"kind": "projection_complement", "sigma": np.eye(2), "basis": np.eye(2)[:1]},
             "takes no sigma"),
            ({"kind": "mahalanobis", "sigma": np.ones((2, 3))}, "sigma must be square"),
            ({"kind": "projection_complement", "basis": np.ones(2)}, "basis must be 2-d"),
        ],
    )
    def test_wrong_fields_rejected(self, fields, message):
        with pytest.raises(InvalidParameter, match=message):
            FairMetricSpec(**fields)

    def test_arrays_read_only(self):
        basis = np.array([[0.0, 1.0]])
        spec = FairMetricSpec("projection_complement", basis=basis)
        assert not spec.sigma.flags.writeable and not spec.basis.flags.writeable
        assert basis.flags.writeable
        assert not mahalanobis(np.eye(2)).sigma.flags.writeable


class TestCheckedWhenBuilt:
    """A spec is canonical as built; there is no second call to forget."""

    SPEC = FairMetricSpec("projection_complement", basis=[[1, 0]])
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])

    def test_fair_distance_projects(self):
        assert fair_distance(self.SPEC, self.X[0], self.X[1]) == 0.0
        assert fair_distance(self.SPEC, self.X[0], self.X[2]) == 5.0

    def test_pairwise_and_pair_distances_project(self):
        expected = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        assert np.array_equal(pairwise_fair_distances(self.SPEC, self.X), expected)
        got = pair_fair_distances(self.SPEC, self.X, np.array([0, 0, 1]), np.array([1, 2, 2]))
        assert np.array_equal(got, [0.0, 5.0, 5.0])


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
        spec = FairMetricSpec("euclidean")
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
        D = pairwise_fair_distances(spec, X)
        for i in range(12):
            for j in range(12):
                assert D[i, j] == pytest.approx(fair_distance(spec, X[i], X[j]), abs=1e-9)
        assert np.max(np.abs(D - D.T)) <= 1e-12
        assert np.all(np.diag(D) == 0.0)

    def test_projection_equivalence(self):
        rng = np.random.default_rng(3)
        B = np.linalg.qr(rng.normal(size=(5, 2)))[0].T  # 2 orthonormal rows in R^5
        proj = FairMetricSpec("projection_complement", basis=B)
        maha = mahalanobis(np.eye(5) - B.T @ B)
        X = rng.normal(size=(10, 5))
        D1 = pairwise_fair_distances(proj, X)
        D2 = pairwise_fair_distances(maha, X)
        assert np.max(np.abs(D1 - D2)) < 1e-10


EPS = np.finfo(float).eps


def assert_within_oracle(spec, X, D):
    """Check D against exact rational arithmetic on the float inputs.

    For each pair, |D_ij^2 - delta^T Sigma delta| <= 4 d eps |delta|^T |Sigma| |delta|,
    with delta = x_i - x_j and d^2 evaluated exactly: rounding x_i - x_j and
    the 2 d operations of the quadratic form contribute (2 d + 2) u, the
    square root and squaring D another 2 u, with u = eps / 2.
    """
    n, d = X.shape
    F = [[Fraction(v) for v in row] for row in X.tolist()]
    if spec.sigma is None:
        S = [[Fraction(int(k == l)) for l in range(d)] for k in range(d)]
    else:
        S = [[Fraction(v) for v in row] for row in spec.sigma.tolist()]
    bound = 4 * d * Fraction(EPS)
    for i in range(n):
        for j in range(i + 1, n):
            delta = [a - b for a, b in zip(F[i], F[j])]
            exact = sum(delta[k] * S[k][l] * delta[l] for k in range(d) for l in range(d))
            size = sum(abs(delta[k] * S[k][l] * delta[l]) for k in range(d) for l in range(d))
            assert abs(Fraction(float(D[i, j])) ** 2 - exact) <= bound * size, (i, j)


class TestPairwiseMatchesReference:
    # the entries must not depend on the row blocks they are computed in
    @pytest.mark.parametrize("block_size", [1, 7, 1024])
    @pytest.mark.parametrize("n", [1, 2, 23, 50])
    def test_rank_deficient_sigma(self, n, block_size, monkeypatch):
        monkeypatch.setattr(metric_mod, "BLOCK_SIZE", block_size)
        rng = np.random.default_rng(100 + n)
        B = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
        spec = FairMetricSpec("projection_complement", basis=B)
        assert np.linalg.matrix_rank(spec.sigma) == 2
        X = rng.normal(size=(n, 4))
        D = pairwise_fair_distances(spec, X)
        assert_within_oracle(spec, X, D)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)

    @pytest.mark.parametrize("block_size", [1, 7, 1024])
    def test_euclidean_and_full_rank(self, block_size, monkeypatch):
        monkeypatch.setattr(metric_mod, "BLOCK_SIZE", block_size)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        A = rng.normal(size=(3, 3))
        for spec in (FairMetricSpec("euclidean"), mahalanobis(A.T @ A)):
            D = pairwise_fair_distances(spec, X)
            assert_within_oracle(spec, X, D)
            assert np.array_equal(D, D.T)
            assert np.all(np.diag(D) == 0.0)

    def test_offset_keeps_relative_accuracy(self):
        # far from the origin, q_i + q_j - 2 c_ij cancelled to 1e-8 relative
        # error of d^2; the difference form stays within the bound
        rng = np.random.default_rng(8)
        X = 1e3 + rng.normal(size=(20, 5))
        A = rng.normal(size=(5, 5))
        for spec in (FairMetricSpec("euclidean"), mahalanobis(A.T @ A)):
            assert_within_oracle(spec, X, pairwise_fair_distances(spec, X))

    def test_integer_grid_is_exact(self):
        # integer differences and integer Sigma: every product and sum is an
        # exact integer, so D is the correctly rounded root of the exact d^2
        rng = np.random.default_rng(9)
        X = rng.integers(-50, 51, size=(25, 3)).astype(float)
        A = rng.integers(-3, 4, size=(2, 3))
        spec = mahalanobis(A.T @ A)
        D = pairwise_fair_distances(spec, X)
        for i in range(25):
            for j in range(25):
                delta = (X[i] - X[j]).astype(int)
                exact = int(delta @ (A.T @ A) @ delta)
                assert D[i, j] == np.sqrt(float(exact))


class TestPairDistances:
    @pytest.mark.parametrize("kind", ["euclidean", "full_rank"])
    def test_shuffled_pairs_past_one_chunk(self, kind):
        # more pairs than one chunk, in random order and orientation
        rng = np.random.default_rng(12)
        n = 400
        X = rng.normal(size=(n, 5)) * 10.0
        A = rng.normal(size=(5, 5))
        spec = FairMetricSpec("euclidean") if kind == "euclidean" else mahalanobis(A.T @ A)
        iu, ju = np.triu_indices(n, k=1)
        swap = rng.random(iu.size) < 0.5
        rows, cols = np.where(swap, ju, iu), np.where(swap, iu, ju)
        order = rng.permutation(iu.size)
        rows, cols = rows[order], cols[order]
        assert rows.size > PAIR_CHUNK
        D = pairwise_fair_distances(spec, X)
        assert np.array_equal(pair_fair_distances(spec, X, rows, cols), D[rows, cols])

    def test_scalar_distance_is_the_same_formula(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(4, 4))
        spec = mahalanobis(A.T @ A)
        X = rng.normal(size=(6, 4))
        D = pairwise_fair_distances(spec, X)
        for i in range(6):
            for j in range(6):
                assert fair_distance(spec, X[i], X[j]) == D[i, j]


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

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "projection_complement", "basis": "x"},
            {"kind": "projection_complement", "basis": [[1.0, 0.0], [0.0]]},
            {"kind": "mahalanobis", "sigma": "x"},
            {"kind": "mahalanobis", "sigma": {"a": 1}},
        ],
    )
    def test_non_numeric_array_rejected(self, obj):
        with pytest.raises(InvalidParameter, match="numeric array"):
            metric_spec_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "mahalanobis", "sigma": [[float("nan")]]},
            {"kind": "mahalanobis", "sigma": [[1.0, 0.0], [0.0, float("inf")]]},
            {"kind": "projection_complement", "basis": [[float("nan"), 0.0]]},
        ],
    )
    def test_non_finite_entries_rejected(self, obj):
        # a nan sigma used to pass validation and yield a graph with no edges
        with pytest.raises(InvalidParameter, match="non-finite"):
            metric_spec_from_json(obj)


class TestCheckPairs:
    def test_triples_and_array_agree(self):
        triples = [(0, 2, 0.5), (3, 1, 0.0)]
        for pairs in (triples, np.array(triples, dtype=float)):
            i, j, d = check_pairs(pairs, 4)
            assert i.dtype == j.dtype == np.int64 and d.dtype == float
            assert i.tolist() == [0, 3] and j.tolist() == [2, 1] and d.tolist() == [0.5, 0.0]

    def test_empty(self):
        for pairs in ([], np.empty((0, 3))):
            i, j, d = check_pairs(pairs, 0)
            assert i.size == j.size == d.size == 0

    @pytest.mark.parametrize(
        "pair",
        [(0, 1.5, 1.0), (np.nan, 1, 1.0), (0, 1e19, 1.0), (1, 1, 1.0),
         (0, 1, np.nan), (0, 1, np.inf), (0, 1, -1.0)],
    )
    def test_invalid_pair_rejected(self, pair):
        with pytest.raises(InvalidParameter):
            check_pairs([(0, 1, 1.0), pair])

    @pytest.mark.parametrize("pair", [(0, 3, 1.0), (-1, 1, 1.0)])
    def test_index_outside_n_rejected(self, pair):
        check_pairs([pair])  # no n, no range check
        with pytest.raises(IndexOutOfRange, match="out of range for n=3"):
            check_pairs([pair], 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FairMetricSpec("mahalanobis", sigma=np.eye(2)),
        lambda: SimilarityGraph(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0])),
        lambda: SyntheticSpec(),
        lambda: GroupedPredictions(np.zeros(2), np.array([0, 1]), np.array([True, True])),
        lambda: unnormalized_laplacian(graph_from_annotations([(0, 1), (1, 2)], n=3)),
    ],
    ids=["spec", "graph", "synthetic_spec", "grouped_predictions", "laplacian"],
)
def test_array_holding_records_compare_and_hash_by_identity(build):
    # a generated __eq__ compares the arrays inside a tuple, and raises
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, a, b}) == 2


class TestPairGaps:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_norm_per_row(self, k):
        rng = np.random.default_rng(60)
        f = rng.normal(size=(9, k)) * 10.0 ** rng.integers(-50, 50, size=(9, 1))
        i, j = np.triu_indices(9, 1)
        expected = np.linalg.norm(f[i] - f[j], axis=1)
        assert pair_gaps(f, i, j).tobytes() == expected.tobytes()

    def test_exact_where_the_square_is_not(self):
        f = np.array([[0.0], [1e-170], [-1e200], [1e200]])
        assert pair_gaps(f, np.array([0, 2]), np.array([1, 3])).tolist() == [1e-170, 2e200]


class TestCheckType:
    @pytest.mark.parametrize(
        "value, kind",
        [(3, int), (np.int64(3), int), (np.uint8(3), int), (0.5, float), (2, float),
         (np.float32(0.5), float), (np.int32(2), float), (True, bool), ("a", str)],
    )
    def test_accepted_value_comes_back_unchanged(self, value, kind):
        assert check_type(value, "x", kind) is value

    @pytest.mark.parametrize(
        "value, kind",
        [(2.5, int), (3.0, int), (True, int), (np.True_, int), ("3", int), (None, int),
         (True, float), ("1.0", float), (np.array(1.0), float), (1, bool), (np.True_, bool), (b"a", str)],
    )
    def test_other_value_rejected(self, value, kind):
        with pytest.raises(InvalidParameter, match=f"^x must be of type {kind.__name__}, got "):
            check_type(value, "x", kind)


Y2 = np.array([0.0, 1.0])
X2 = np.array([[0.0], [1.0]])
PATH2 = unnormalized_laplacian(graph_from_annotations([(0, 1)], n=2))
P3 = np.array([0.2, 0.3, 0.5])
EUCLID = FairMetricSpec("euclidean")

# (call taking the bad value, bad value, what the message names) for entry
# points with no parametrized type test of their own; each ended in a bare
# TypeError or returned a result
BAD_SCALARS = [
    (lambda v: smooth_closed_form(Y2, PATH2, v), "1", "lambda"),
    (lambda v: smooth_closed_form(Y2, PATH2, v), True, "lambda"),
    (lambda v: inductive_update(Y2, Y2, 0.0, v), "1", "lambda"),
    (lambda v: kl_coordinate_update(P3, [P3], [1.0], v), True, "lambda"),
    (lambda v: smooth_conjugate_gradient(Y2, PATH2, 1.0, v), True, "tolerance"),
    (lambda v: SimilarityGraph(v, [0], [1], [1.0]), 2.5, "n"),
    (lambda v: SimilarityGraph(v, [], [], []), True, "n"),
    (lambda v: graph_from_annotations([(0, 1)], n=v), 2.5, "n"),
    (lambda v: graph_from_annotations(v, n=3), [(0.5, 1.7)], "edge indices"),
    (lambda v: graph_from_annotations(v, n=3), [(0, 1), (2,)], "annotator pairs"),
    (lambda v: build_similarity_graph(X2, EUCLID, theta=v), "1", "theta"),
    (lambda v: build_similarity_graph(X2, EUCLID, tau=v), True, "tau"),
    (lambda v: SyntheticSpec(dimension=v), 1.5, "dimension"),
    (lambda v: SyntheticSpec(sigma_exponent=v), "0.1", "sigma_exponent"),
    (lambda v: kernel_weights(X2, v, np.eye(1)), True, "sigma"),
    (lambda v: sample_inputs(SyntheticSpec(), v, 0), 2.5, "n"),
    (lambda v: sample_inputs(SyntheticSpec(), 5, v), -1, "seed"),
    (lambda v: sample_inputs(SyntheticSpec(), 5, v), 1.5, "seed"),
    (lambda v: project_pair(0.0, 1.0, v), True, "bound"),
    (lambda v: constraints_from_distances([(0, 1, 1.0)], v), "1", "lipschitz"),
    (lambda v: count_violations(Y2, [(0, 1, 0.5)], slack=v), True, "slack"),
    (lambda v: violation_histogram(Y2, [(0, 1, 1.0)], v), "1", "lipschitz"),
    (lambda v: violation_histogram(Y2, [(0, 1, 1.0)], 1.0, num_bins=v), 2.0, "num_bins"),
    (lambda v: predicted_classes(Y2, v), "0.5", "threshold"),
    (lambda v: accuracy(Y2, [0, 1], v), True, "threshold"),
]


@pytest.mark.parametrize("call, value, name", BAD_SCALARS)
def test_scalar_parameter_of_wrong_type_rejected(call, value, name):
    with pytest.raises(InvalidParameter, match=f"^{name} must be"):
        call(value)


# numpy scalars are numbers like any other
@pytest.mark.parametrize(
    "call",
    [
        lambda: smooth_closed_form(Y2, PATH2, np.float32(0.5)),
        lambda: smooth_coordinate_descent(
            Y2, PATH2, np.int64(1), epochs=np.int32(3), seed=np.uint8(1), tolerance=np.float32(1e-6)
        ),
        lambda: inductive_update(Y2, Y2, 0.0, np.int64(1)),
        lambda: SimilarityGraph(np.int64(2), [0], [1], [1.0]),
        lambda: graph_from_annotations([(np.int32(0), np.int64(1))], n=np.int64(2)),
        lambda: build_similarity_graph(X2, EUCLID, theta=np.float32(1.0), tau=np.int64(2)),
        lambda: SyntheticSpec(dimension=np.int64(2), sigma_exponent=np.float32(0.1)),
        lambda: convergence_report(SyntheticSpec(), [np.int32(20), np.int64(40)], [np.uint8(0)]),
        lambda: project_pair(0.0, 1.0, np.float32(0.5)),
        lambda: count_violations(Y2, [(0, 1, 0.5)], slack=np.float32(0.0)),
        lambda: violation_histogram(Y2, [(0, 1, 1.0)], np.float32(0.5), num_bins=np.int64(2)),
    ],
)
def test_numpy_scalar_parameters_accepted(call):
    call()
