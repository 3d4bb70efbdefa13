from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from fairsmooth import (
    FairMetricSpec,
    SimilarityGraph,
    SmoothingConfig,
    build_similarity_graph,
    from_natural_params,
    graph_from_annotations,
    inductive_update,
    kl_coordinate_update,
    run_smoothing,
    smooth_closed_form,
    smooth_conjugate_gradient,
    smooth_coordinate_descent,
    smooth_kl,
    to_natural_params,
)
from fairsmooth.errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidSimplexRow,
    NotPositiveDefinite,
)
from fairsmooth.laplacian import (
    NORMALIZED_RW,
    UNNORMALIZED,
    make_laplacian,
    unnormalized_laplacian,
)
from fairsmooth.smoother import _cd_sweeps, objective

EUCLID = FairMetricSpec("euclidean")

PATH2 = unnormalized_laplacian(graph_from_annotations([(0, 1)], n=2))


def random_instance(rng, n, k, theta=0.5):
    X = rng.normal(size=(n, 2))
    g = build_similarity_graph(X, EUCLID, theta=theta, tau=np.inf)
    y = rng.normal(size=(n, k)) if k > 1 else rng.normal(size=n)
    return g, y


class TestClosedForm:
    def test_lambda_zero_identity(self):
        y = np.array([0.3, -1.2])
        assert np.array_equal(smooth_closed_form(y, PATH2, 0.0), y)

    def test_two_node_hand_solution(self):
        # solve [[2, -1], [-1, 2]] f = (0, 1): f = (1/3, 2/3)
        f = smooth_closed_form(np.array([0.0, 1.0]), PATH2, 1.0)
        assert np.allclose(f, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_huge_lambda_consensus_at_mean(self):
        f = smooth_closed_form(np.array([0.0, 1.0]), PATH2, 1e9)
        assert np.allclose(f, [0.5, 0.5], atol=1e-6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidParameter):
            smooth_closed_form(np.zeros(2), PATH2, -1.0)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(20)
        for lam in (0.1, 1.0, 10.0):
            g, y = random_instance(rng, 30, 3)
            L = make_laplacian(g, UNNORMALIZED)
            f = smooth_closed_form(y, L, lam)
            residual = f - y + lam * (L.matrix @ f)
            assert np.max(np.abs(residual)) < 1e-8

    def test_shared_factorization_matches_columnwise(self):
        rng = np.random.default_rng(21)
        g, y = random_instance(rng, 25, 4)
        L = make_laplacian(g, UNNORMALIZED)
        f = smooth_closed_form(y, L, 2.0)
        for col in range(4):
            assert np.allclose(f[:, col], smooth_closed_form(y[:, col], L, 2.0))


class TestCoordinateDescent:
    def test_lambda_zero_one_epoch(self):
        y = np.array([0.7, -0.2])
        config = SmoothingConfig(lam=0.0, epochs=1)
        f = smooth_coordinate_descent(y, PATH2, config)
        assert np.allclose(f, y)

    def test_one_epoch_sequential_hand_example(self):
        # seed 0 visits the two coordinates in order (0, 1):
        # f_0 <- (0 + 1*0*1) / 2 = wait -- per-update arithmetic:
        # f_0 <- (y_0 - lam*(-1)*f_1) / (1 + lam*1) = (0 + 1) / 2 ... with
        # f_1 still 1: f_0 = 0.5; then f_1 <- (1 + 0.5) / 2 = 0.75
        assert list(np.random.default_rng(0).permutation(2)) == [0, 1]
        y = np.array([0.0, 1.0])
        config = SmoothingConfig(lam=1.0, epochs=1, seed=0, tolerance=1e-30)
        f = smooth_coordinate_descent(y, PATH2, config)
        assert np.allclose(f, [0.5, 0.75], atol=1e-12)

    def test_matches_closed_form_small_instance(self):
        rng = np.random.default_rng(22)
        g, y = random_instance(rng, 10, 1)
        L = make_laplacian(g, UNNORMALIZED)
        config = SmoothingConfig(lam=1.0, epochs=500, tolerance=1e-12)
        f_cd = smooth_coordinate_descent(y, L, config)
        f_cf = smooth_closed_form(y, L, 1.0)
        assert np.max(np.abs(f_cd - f_cf)) < 1e-6

    def test_early_stop_reports_epochs(self):
        rng = np.random.default_rng(23)
        g, y = random_instance(rng, 10, 1)
        L = make_laplacian(g, UNNORMALIZED)
        config = SmoothingConfig(lam=0.5, epochs=500, tolerance=1e-10)
        f, info = smooth_coordinate_descent(y, L, config, return_info=True)
        assert info["epochs_used"] < 500
        assert info["last_max_change"] < 1e-10

    def test_monotone_objective_across_epochs(self):
        rng = np.random.default_rng(24)
        g, y = random_instance(rng, 20, 2)
        L = make_laplacian(g, UNNORMALIZED)
        lam = 2.0
        values = []
        for epochs in range(1, 8):
            config = SmoothingConfig(lam=lam, epochs=epochs, seed=5, tolerance=1e-30)
            f = smooth_coordinate_descent(y, L, config)
            values.append(objective(y, L, lam, f))
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(25)
        g, y = random_instance(rng, 15, 2)
        L = make_laplacian(g, UNNORMALIZED)
        config = SmoothingConfig(lam=1.0, epochs=3, seed=9, tolerance=1e-30)
        f1 = smooth_coordinate_descent(y, L, config)
        f2 = smooth_coordinate_descent(y, L, config)
        assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("kind", [UNNORMALIZED, NORMALIZED_RW])
    @pytest.mark.parametrize("k", [1, 3])
    def test_sweeps_match_reference_loop(self, kind, k):
        rng = np.random.default_rng(26)
        g, y = random_instance(rng, 40, k, theta=2.0)
        y = y.reshape(40, k)
        S = make_laplacian(g, kind).symmetrized()
        # four full epochs, then a run that stops early at its tolerance
        for epochs, tolerance in ((4, 1e-30), (500, 1e-7)):
            ours = _cd_sweeps(y, S, 3.0, epochs, 11, tolerance)
            ref = reference_cd_sweeps(y, S, 3.0, epochs, 11, tolerance)
            assert ours[0].tobytes() == ref[0].tobytes()
            assert ours[1:] == ref[1:]
        assert ours[1] < 500


def reference_cd_sweeps(y, S, lam, epochs, seed, tolerance):
    """The Gauss-Seidel loop of ``_cd_sweeps`` with numpy scalars throughout."""
    n = y.shape[0]
    diag = S.diagonal()
    denom = 1.0 + lam * diag
    f = y.copy()
    indptr, indices, data = S.indptr, S.indices, S.data
    rng = np.random.default_rng(seed)
    last_change = np.inf
    epochs_used = 0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        max_change = 0.0
        for i in perm:
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            row = data[lo:hi] @ f[cols] - diag[i] * f[i]
            new = (y[i] - lam * row) / denom[i]
            change = np.max(np.abs(new - f[i]))
            if change > max_change:
                max_change = change
            f[i] = new
        epochs_used = epoch + 1
        last_change = max_change
        if max_change < tolerance:
            break
    return f, epochs_used, last_change


NON_FINITE = [np.nan, np.inf]


class TestLambdaMustBeFinite:
    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_config_validate(self, lam):
        with pytest.raises(InvalidParameter, match="lambda must be finite"):
            SmoothingConfig(lam=lam)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_closed_form(self, lam):
        with pytest.raises(InvalidParameter, match="lambda must be finite"):
            smooth_closed_form(np.array([0.0, 1.0]), PATH2, lam)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_inductive_update(self, lam):
        with pytest.raises(InvalidParameter, match="lambda must be finite"):
            inductive_update(np.array([1.0]), np.array([1.0]), 0.0, lam=lam)

    @pytest.mark.parametrize("lam", NON_FINITE + [-1.0])
    def test_kl_coordinate_update(self, lam):
        p = np.array([0.6, 0.3, 0.1])
        with pytest.raises(InvalidParameter, match="lambda must be finite"):
            kl_coordinate_update(p, np.array([[0.2, 0.3, 0.5]]), np.array([1.0]), lam)


class TestConfigTypes:
    @pytest.mark.parametrize(
        "fields",
        [
            {"lam": "1.0"},
            {"lam": True},
            {"epochs": "3"},
            {"epochs": 3.0},
            {"seed": 1.5},
            {"seed": False},
            {"tolerance": None},
            {"dense_limit": "x"},
            {"mode": 1},
            {"nrw_lambda_scaling": 0},
        ],
    )
    def test_wrong_type_rejected(self, fields):
        name = next(iter(fields))
        with pytest.raises(InvalidParameter, match=f"^{name} must be of type"):
            SmoothingConfig(**fields)

    def test_numpy_scalars_accepted(self):
        config = SmoothingConfig(
            lam=np.float64(0.5), epochs=np.int64(3), tolerance=np.float32(1e-6), seed=np.int32(1)
        )
        assert (config.lam, config.epochs, config.seed) == (0.5, 3, 1)

    def test_integer_lambda_accepted(self):
        assert SmoothingConfig(lam=2).lam == 2

    def test_negative_dense_limit_rejected(self):
        with pytest.raises(InvalidParameter, match="dense_limit"):
            SmoothingConfig(dense_limit=-5)

    def test_zero_dense_limit_accepted(self):
        assert SmoothingConfig(dense_limit=0).dense_limit == 0


# one bad value per check of SmoothingConfig, with the message it raises
BAD_CONFIG_VALUES = [
    ({"lam": -1.0}, "lambda must be finite"),
    ({"lam": np.nan}, "lambda must be finite"),
    ({"laplacian_kind": "symmetric"}, "unknown laplacian kind"),
    ({"mode": "exact"}, "unknown mode"),
    ({"epochs": 0}, "epochs must be >= 1"),
    ({"discrepancy": "hinge"}, "unknown discrepancy"),
    ({"discrepancy": "kl", "laplacian_kind": NORMALIZED_RW}, "kl discrepancy requires"),
    ({"tolerance": 0.0}, "tolerance must be positive"),
    ({"tolerance": np.nan}, "tolerance must be positive"),
    ({"dense_limit": -1}, "dense_limit must be >= 0"),
    ({"epochs": 2.0}, "epochs must be of type int"),
]


@pytest.mark.parametrize("fields,message", BAD_CONFIG_VALUES)
def test_config_checked_when_built_and_replaced(fields, message):
    with pytest.raises(InvalidParameter, match=message):
        SmoothingConfig(**fields)
    with pytest.raises(InvalidParameter, match=message):
        replace(SmoothingConfig(lam=0.5, epochs=3), **fields)


class TestInductive:
    def test_isolated_new_point(self):
        out = inductive_update(np.array([1.0, 2.0]), np.zeros(2), 3.0, lam=1.0)
        assert out == pytest.approx(3.0)

    def test_single_neighbor_hand_example(self):
        out = inductive_update(np.array([1.0]), np.array([1.0]), 0.0, lam=1.0)
        assert out == pytest.approx(0.5)

    def test_lambda_zero(self):
        out = inductive_update(np.array([1.0, 2.0]), np.array([0.5, 0.5]), -4.0, lam=0.0)
        assert out == pytest.approx(-4.0)

    def test_vector_outputs(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([1.0, 1.0])
        out = inductive_update(f, w, np.array([0.0, 0.0]), lam=1.0)
        # (0 + 1*(1, 1)) / (1 + 2) = (1/3, 1/3)
        assert np.allclose(out, [1.0 / 3.0, 1.0 / 3.0])


    def test_sparse_rows_match_dense(self):
        rng = np.random.default_rng(31)
        f = rng.normal(size=(40, 2))
        w = np.where(rng.uniform(size=40) < 0.3, rng.uniform(size=40), 0.0)
        dense = inductive_update(f, w, np.array([0.2, -0.1]), lam=0.7)
        for fmt in (sparse.csr_matrix, sparse.csc_matrix):
            row = fmt(w[None, :])
            assert row.shape == (1, 40)
            got = inductive_update(f, row, np.array([0.2, -0.1]), lam=0.7)
            assert np.array_equal(got, dense)
        scalar = inductive_update(f[:, 0], sparse.csr_matrix(w[None, :]), 0.2, lam=0.7)
        assert scalar == inductive_update(f[:, 0], w, 0.2, lam=0.7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["weight", "fitted", "yhat_new"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_non_finite_input_rejected(self, bad, where, lam):
        # the bad entry sits where a zero weight would hide it from a sum
        f, w, y_new = np.ones((3, 2)), np.array([1.0, 0.0, 1.0]), np.zeros(2)
        {"weight": w, "fitted": f[1], "yhat_new": y_new}[where][1] = bad
        with pytest.raises(InvalidParameter, match="not finite"):
            inductive_update(f, w, y_new, lam=lam)


    def test_opposite_infinite_weights_rejected(self):
        # their sum is NaN, which NumPy warned about before the result check
        with pytest.raises(InvalidParameter, match="not finite"):
            inductive_update(np.ones((3, 2)), np.array([np.inf, -np.inf, 1.0]), np.zeros(2), lam=1.0)

    def test_fitted_outputs_neither_vector_nor_table(self):
        with pytest.raises(DimensionMismatch, match=r"shape \(3, 2, 1\)"):
            inductive_update(np.ones((3, 2, 1)), np.ones(3), np.zeros(2), lam=1.0)


class TestNaturalParams:
    def test_uniform_maps_to_zero(self):
        assert np.allclose(to_natural_params(np.full(4, 0.25)), 0.0)

    def test_hand_example(self):
        eta = to_natural_params(np.array([0.5, 0.25, 0.25]))
        assert np.allclose(eta, [np.log(2.0), 0.0], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(27)
        p = rng.dirichlet(np.ones(5), size=20)
        back = from_natural_params(to_natural_params(p))
        assert np.max(np.abs(back - p)) < 1e-10

    def test_zero_eta_is_uniform(self):
        assert np.allclose(from_natural_params(np.zeros(2)), 1.0 / 3.0)

    def test_inverse_hand_example(self):
        p = from_natural_params(np.array([np.log(2.0), 0.0]))
        assert np.allclose(p, [0.5, 0.25, 0.25], atol=1e-12)

    def test_large_logit_no_overflow(self):
        p = from_natural_params(np.array([700.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_row_sum_names_row(self):
        bad = np.array([[0.5, 0.5, 0.0], [0.9, 0.9, 0.9]])
        with pytest.raises(InvalidSimplexRow, match="row 1"):
            to_natural_params(bad)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidSimplexRow):
            to_natural_params(np.array([1.2, -0.2]))

    def test_non_finite_entry_rejected(self):
        # a NaN row passed the sum check (NaN > tol is False) and was smoothed
        with pytest.raises(InvalidSimplexRow, match="row 1"):
            to_natural_params(np.array([[0.5, 0.5], [np.nan, 0.5]]))


class TestKLSmoothing:
    def test_lambda_zero_round_trip(self):
        rng = np.random.default_rng(28)
        p = rng.dirichlet(np.ones(3), size=4)
        g = graph_from_annotations([(0, 1), (2, 3)], n=4)
        out = smooth_kl(p, unnormalized_laplacian(g), 0.0)
        assert np.max(np.abs(out - p)) < 1e-9

    def test_consensus_is_eta_barycenter(self):
        # lambda -> inf on one edge: both rows go to the probability
        # vector whose natural parameters average the endpoints' --
        # which differs from the arithmetic probability mean
        p = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]])
        out = smooth_kl(p, PATH2, 1e9)
        eta_bar = to_natural_params(p).mean(axis=0)
        expected = from_natural_params(eta_bar)
        assert np.max(np.abs(out - expected)) < 1e-6
        assert np.max(np.abs(out[0] - out[1])) < 1e-6
        assert np.max(np.abs(expected - p.mean(axis=0))) > 1e-3

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(29)
        p = rng.dirichlet(np.ones(4), size=6)
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        L = unnormalized_laplacian(graph_from_annotations(pairs, n=6))
        out = smooth_kl(p, L, 2.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_one_row_input_returns_one_row(self):
        L = unnormalized_laplacian(graph_from_annotations([], n=1))
        out = smooth_kl(np.array([0.2, 0.8]), L, 1.0)
        assert out.shape == (1, 2)
        assert np.allclose(out, [[0.2, 0.8]], atol=1e-12)

    def test_requires_unnormalized(self):
        g = graph_from_annotations([(0, 1)], n=2)
        L = make_laplacian(g, NORMALIZED_RW)
        p = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(InvalidParameter):
            smooth_kl(p, L, 1.0)


def kl_div(p, q):
    return float(np.sum(p * (np.log(p) - np.log(q))))


def kl_objective(y, p_target, neighbors, weights, lam):
    val = kl_div(y, p_target)
    for w, pj in zip(weights, neighbors):
        val += 0.5 * lam * w * kl_div(y, pj)
    return val


def grid_refine_minimizer(fun, k=3, coarse=41, rounds=60):
    """Simplex minimizer: coarse grid then Nelder-Mead style refinement
    in the first k-1 coordinates."""
    from scipy.optimize import minimize

    best, best_val = None, np.inf
    grid = np.linspace(0.01, 0.98, coarse)
    for a in grid:
        for b in grid:
            c = 1.0 - a - b
            if c < 0.01:
                continue
            y = np.array([a, b, c])
            v = fun(y)
            if v < best_val:
                best, best_val = y, v

    def wrapped(ab):
        a, b = ab
        c = 1.0 - a - b
        if a <= 1e-9 or b <= 1e-9 or c <= 1e-9:
            return 1e9
        return fun(np.array([a, b, c]))

    res = minimize(wrapped, best[:2], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    a, b = res.x
    return np.array([a, b, 1.0 - a - b])


class TestKLCoordinateUpdate:
    def test_matches_numeric_simplex_minimizer(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            p_target = rng.dirichlet(np.ones(3))
            neighbors = rng.dirichlet(np.ones(3), size=2)
            weights = rng.uniform(0.2, 1.0, size=2)
            lam = float(rng.uniform(0.5, 3.0))
            ours = kl_coordinate_update(p_target, neighbors, weights, lam)
            oracle = grid_refine_minimizer(
                lambda y: kl_objective(y, p_target, neighbors, weights, lam)
            )
            assert np.max(np.abs(ours - oracle)) < 1e-4

    def test_zero_lambda_returns_target(self):
        p = np.array([0.6, 0.3, 0.1])
        out = kl_coordinate_update(p, np.array([[0.2, 0.3, 0.5]]), np.array([1.0]), 0.0)
        assert np.max(np.abs(out - p)) < 1e-9


def bregman_gd_minimizer(points, weights, steps=20000, lr=0.05):
    """Gradient descent on u = log y for sum_j w_j D_F(z_j, y),
    F = sum x log x (so each term is the generalized KL of z_j from y)."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    u = np.log(np.mean(points, axis=0))
    for _ in range(steps):
        y = np.exp(u)
        # d/dy sum_j w_j [z_j log(z_j / y) - z_j + y] = sum_j w_j (1 - z_j / y)
        grad_y = np.sum(weights) - (weights @ points) / y
        u -= lr * grad_y * y  # chain rule through y = exp(u)
    return np.exp(u)


class TestBregmanBarycenter:
    def test_weighted_barycenter_is_weighted_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            points = rng.uniform(0.1, 3.0, size=(m, k))
            weights = rng.uniform(0.2, 2.0, size=m)
            oracle = bregman_gd_minimizer(points, weights)
            expected = (weights @ points) / weights.sum()
            assert np.max(np.abs(oracle - expected)) < 1e-6


class TestRunSmoothing:
    def test_nrw_lambda_scaling_recorded(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(12, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        from fairsmooth import average_degree

        config = SmoothingConfig(lam=0.5, laplacian_kind=NORMALIZED_RW)
        f, meta = run_smoothing(rng.normal(size=12), g, config)
        assert meta["effective_lambda"] == pytest.approx(0.5 * average_degree(g))

    def test_nrw_scaling_can_be_disabled(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(10, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        config = SmoothingConfig(
            lam=0.5, laplacian_kind=NORMALIZED_RW, nrw_lambda_scaling=False
        )
        _, meta = run_smoothing(rng.normal(size=10), g, config)
        assert meta["effective_lambda"] == 0.5

    def test_closed_form_raises_on_indefinite_system(self):
        # sym(L_nrw) is indefinite on irregular graphs; at huge lambda the
        # factorization fails, and the driver raises instead of returning
        # coordinate descent's output, which is no minimizer of an
        # unbounded objective
        rng = np.random.default_rng(34)
        X = rng.normal(size=(10, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        config = SmoothingConfig(
            lam=1e9, laplacian_kind=NORMALIZED_RW, nrw_lambda_scaling=False
        )
        with pytest.raises(NotPositiveDefinite):
            run_smoothing(rng.normal(size=10), g, config)

    def test_dense_limit_forces_cd(self):
        # only the random-walk kind falls back to coordinate descent
        g = graph_from_annotations([(0, 1), (1, 2)], n=3)
        config = SmoothingConfig(lam=1.0, laplacian_kind=NORMALIZED_RW, dense_limit=2)
        _, meta = run_smoothing(np.array([0.0, 1.0, 2.0]), g, config)
        assert meta["fallback_to_cd"] is True
        assert meta["solver"] == "coordinate_descent"

    def test_dense_limit_selects_cg_for_unnormalized(self):
        g = graph_from_annotations([(0, 1), (1, 2)], n=3)
        config = SmoothingConfig(lam=1.0, dense_limit=2)
        _, meta = run_smoothing(np.array([0.0, 1.0, 2.0]), g, config)
        assert meta["fallback_to_cd"] is False
        assert meta["solver"] == "cg"
        assert meta["converged"] is True

    def test_metadata_residual_small_for_closed_form(self):
        rng = np.random.default_rng(35)
        X = rng.normal(size=(15, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        config = SmoothingConfig(lam=1.0)
        _, meta = run_smoothing(rng.normal(size=15), g, config)
        assert meta["residual"] < 1e-8

    def test_kl_matches_smooth_kl(self):
        rng = np.random.default_rng(36)
        X = rng.normal(size=(12, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        p = rng.dirichlet(np.ones(3), size=12)
        out, meta = run_smoothing(p, g, SmoothingConfig(lam=1.5, discrepancy="kl"))
        assert np.array_equal(out, smooth_kl(p, make_laplacian(g, UNNORMALIZED), 1.5))
        assert meta["residual"] < 1e-8

    def test_kl_discrepancy_config_validation(self):
        with pytest.raises(InvalidParameter):
            SmoothingConfig(discrepancy="kl", laplacian_kind=NORMALIZED_RW)


class TestRunSmoothingShapes:
    """The driver returns outputs in the shape of its squared-mode input."""

    def instance(self, n=12, seed=37):
        rng = np.random.default_rng(seed)
        g = build_similarity_graph(rng.normal(size=(n, 2)), EUCLID, theta=0.5, tau=np.inf)
        return rng, g

    def test_closed_form_one_dimensional(self):
        rng, g = self.instance()
        y = rng.normal(size=12)
        f, meta = run_smoothing(y, g, SmoothingConfig(lam=0.7))
        assert f.shape == (12,)
        assert np.array_equal(f, smooth_closed_form(y, make_laplacian(g, UNNORMALIZED), 0.7))
        assert np.array_equal(f, run_smoothing(y[:, None], g, SmoothingConfig(lam=0.7))[0][:, 0])
        assert meta["residual"] < 1e-8

    def test_coordinate_descent_fallback_one_dimensional(self):
        # only the random-walk kind falls back to coordinate descent
        rng, g = self.instance()
        y = rng.normal(size=12)
        config = SmoothingConfig(
            lam=0.7, laplacian_kind=NORMALIZED_RW, dense_limit=2, epochs=200, tolerance=1e-13
        )
        f, meta = run_smoothing(y, g, config)
        assert meta["fallback_to_cd"] is True
        assert f.shape == (12,)
        f2, meta2 = run_smoothing(y[:, None], g, config)
        assert np.array_equal(f, f2[:, 0])
        # the residual is measured before the column is squeezed away
        assert meta["residual"] == meta2["residual"] < 1e-8

    def test_conjugate_gradient_one_dimensional(self):
        rng, g = self.instance()
        y = rng.normal(size=12)
        config = SmoothingConfig(lam=0.7, dense_limit=2)
        f, meta = run_smoothing(y, g, config)
        assert (meta["solver"], meta["converged"], meta["fallback_to_cd"]) == ("cg", True, False)
        assert f.shape == (12,)
        f2, meta2 = run_smoothing(y[:, None], g, config)
        assert np.array_equal(f, f2[:, 0])
        assert meta["residual"] == meta2["residual"] <= config.tolerance * max(1.0, np.max(np.abs(y)))

    def test_two_dimensional_unchanged(self):
        rng, g = self.instance()
        y = rng.normal(size=(12, 3))
        f, _ = run_smoothing(y, g, SmoothingConfig(lam=0.7))
        assert f.shape == (12, 3)

    def test_kl_two_dimensional_unchanged(self):
        rng, g = self.instance()
        p = rng.dirichlet(np.ones(3), size=12)
        out, _ = run_smoothing(p, g, SmoothingConfig(lam=0.7, discrepancy="kl"))
        assert out.shape == (12, 3)

    @pytest.mark.parametrize("kind", [UNNORMALIZED, NORMALIZED_RW])
    @pytest.mark.parametrize("options", [{}, {"dense_limit": 0}, {"mode": "coordinate_descent"}])
    def test_no_output_columns(self, kind, options):
        _, g = self.instance()
        f, meta = run_smoothing(np.zeros((12, 0)), g, SmoothingConfig(laplacian_kind=kind, **options))
        assert f.shape == (12, 0)
        assert meta["converged"] is True

    @pytest.mark.parametrize("kind", [UNNORMALIZED, NORMALIZED_RW])
    @pytest.mark.parametrize("shape", [(0,), (0, 1), (0, 2)])
    @pytest.mark.parametrize("mode", ["closed_form", "coordinate_descent"])
    def test_empty_graph(self, kind, shape, mode):
        g = SimilarityGraph(0, np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        config = SmoothingConfig(laplacian_kind=kind, mode=mode, nrw_lambda_scaling=False)
        f, meta = run_smoothing(np.zeros(shape), g, config)
        assert f.shape == shape
        assert (meta["residual"], meta["converged"]) == (0.0, True)
        if kind == UNNORMALIZED:
            L = make_laplacian(g, UNNORMALIZED)
            f, meta = smooth_conjugate_gradient(np.zeros(shape), L, 1.0, 1e-9, return_info=True)
            assert f.shape == shape
            assert meta == {"iterations": 0, "residual": 0.0}
        else:
            # lambda scaled by the average degree, which an empty graph does not have
            with pytest.raises(InvalidParameter, match="no nodes"):
                run_smoothing(np.zeros(shape), g, replace(config, nrw_lambda_scaling=True))
