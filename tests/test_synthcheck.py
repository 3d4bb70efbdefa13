import numpy as np
import pytest
from scipy.integrate import dblquad

from fairsmooth import (
    SyntheticSpec,
    analytic_limit,
    convergence_report,
    empirical_nrw_functional,
    empirical_un_functional,
    sample_inputs,
)
from fairsmooth.errors import InvalidParameter, UnsupportedSpec
from fairsmooth.synthcheck import (
    KERNEL_BLOCK_ROWS,
    _kernel_rows,
    kernel_weights,
    target_values,
    validate_sigma_rule,
)

ONE = np.eye(1)


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec()
        assert spec.dimension == 1
        assert np.array_equal(spec.dispersion, np.eye(1))
        assert spec.sigma_at(64) == pytest.approx(64 ** (-1.0 / 6.0))

    def test_unknown_target_rejected(self):
        with pytest.raises(UnsupportedSpec):
            SyntheticSpec(target_function="sine")

    @pytest.mark.parametrize(
        "dispersion, message",
        [
            ([[np.nan]], "finite and exactly symmetric"),
            ([[np.inf]], "finite and exactly symmetric"),
            ([[1.0, 0.1], [0.1 + 1e-16, 1.0]], "finite and exactly symmetric"),
            ([[-1.0]], "positive definite"),
            ([[0.0]], "positive definite"),
            ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
        ],
    )
    def test_bad_dispersion_rejected(self, dispersion, message):
        # NaN gave a convergence_report of NaNs, [[-1]] a NaN functional
        disp = np.array(dispersion)
        d = disp.shape[0]
        with pytest.raises(InvalidParameter, match=f"^dispersion must be {message}"):
            SyntheticSpec(dimension=d, dispersion=disp)
        X = np.random.default_rng(65).uniform(size=(6, d))
        with pytest.raises(InvalidParameter, match=f"^dispersion must be {message}"):
            kernel_weights(X, 0.3, disp)
        with pytest.raises(InvalidParameter, match=f"^dispersion must be {message}"):
            empirical_un_functional(X, np.ones(6), 0.3, disp)

    def test_dispersion_of_wrong_shape_rejected(self):
        with pytest.raises(InvalidParameter, match=r"^dispersion must be 2x2, got \(1, 1\)"):
            SyntheticSpec(dimension=2, dispersion=ONE)
        with pytest.raises(InvalidParameter, match=r"^dispersion must be 1x1, got \(2, 2\)"):
            kernel_weights(np.zeros((3, 1)), 0.3, np.eye(2))


class TestSigmaRule:
    def test_default_exponent_valid_low_dim(self):
        validate_sigma_rule(1.0 / 6.0, 1)
        validate_sigma_rule(1.0 / 6.0, 2)

    def test_too_fast_decay_rejected(self):
        # e = 1/2 breaks n*sigma^2 -> inf
        with pytest.raises(InvalidParameter, match="1/2"):
            validate_sigma_rule(0.5, 1)

    def test_random_walk_rate_rejected(self):
        # d=1 requires e <= 1/5
        with pytest.raises(InvalidParameter):
            validate_sigma_rule(0.3, 1)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(InvalidParameter):
            validate_sigma_rule(0.0, 1)


class TestSampling:
    def test_support(self):
        X = sample_inputs(SyntheticSpec(), 200, seed=0)
        assert X.shape == (200, 1)
        assert np.all((X >= 0.0) & (X <= 1.0))

    def test_deterministic(self):
        spec = SyntheticSpec(dimension=2)
        assert np.array_equal(sample_inputs(spec, 50, 3), sample_inputs(spec, 50, 3))

    def test_mean_near_half(self):
        n = 4000
        X = sample_inputs(SyntheticSpec(), n, seed=1)
        assert abs(X.mean() - 0.5) < 3.0 / np.sqrt(12 * n)


class TestTargets:
    def test_cosine_product(self):
        X = np.array([[0.0, 0.5], [0.25, 0.25]])
        spec = SyntheticSpec(dimension=2, target_function="cosine_product")
        f = target_values(spec, X)
        assert f[0] == pytest.approx(0.0, abs=1e-12)
        assert f[1] == pytest.approx(0.5)

    def test_cosine_sum(self):
        X = np.array([[0.0, 0.0]])
        spec = SyntheticSpec(dimension=2, target_function="cosine_sum")
        assert target_values(spec, X)[0] == pytest.approx(2.0)

    def test_constant(self):
        spec = SyntheticSpec(target_function="constant")
        assert np.array_equal(target_values(spec, np.zeros((3, 1))), np.zeros(3))


class TestKernelWeights:
    def test_coincident_points_prefactor(self):
        sigma = 0.3
        W = kernel_weights(np.zeros((2, 1)), sigma, ONE)
        assert W[0, 1] == pytest.approx(1.0 / (np.sqrt(2 * np.pi) * sigma))

    def test_zero_diagonal_and_symmetric(self):
        rng = np.random.default_rng(60)
        X = rng.uniform(size=(20, 2))
        W = kernel_weights(X, 0.25, np.eye(2))
        assert np.all(np.diag(W) == 0.0)
        assert np.array_equal(W, W.T)

    def test_large_sigma_weights_vanish(self):
        X = np.array([[0.0], [0.5]])
        small = kernel_weights(X, 1.0, ONE)[0, 1]
        large = kernel_weights(X, 1e6, ONE)[0, 1]
        assert large < small
        assert large < 1e-5

    def test_matches_explicit_formula(self):
        rng = np.random.default_rng(61)
        X = rng.uniform(size=(6, 2))
        disp = np.diag([1.0, 2.0])
        sigma = 0.4
        W = kernel_weights(X, sigma, disp)
        pref = np.sqrt(np.linalg.det(disp)) / ((2 * np.pi) * sigma**2)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                diff = X[i] - X[j]
                expected = pref * np.exp(-diff @ disp @ diff / (2 * sigma**2))
                assert W[i, j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_match_explicit_formula(self, d):
        # three row blocks, the last one short, with exact and near copies of points
        rng = np.random.default_rng(63 + d)
        X = rng.uniform(size=(2 * KERNEL_BLOCK_ROWS + 37, d))
        X[1] = X[0]
        X[KERNEL_BLOCK_ROWS + 5] = X[3] + 1e-9
        X[-1] = X[KERNEL_BLOCK_ROWS - 1] * (1.0 + 1e-14)
        A = rng.normal(size=(d, d))
        disp = A @ A.T + d * np.eye(d)  # not diagonal from d = 2 on
        sigma = 0.3
        pref = np.sqrt(np.linalg.det(disp)) / ((2 * np.pi) ** (d / 2) * sigma**d)
        n = len(X)
        seen = 0
        for start, stop, W in _kernel_rows(X, sigma, disp):
            assert W.shape == (stop - start, n - start)
            diff = X[start:stop, None, :] - X[None, start:, :]
            expected = pref * np.exp(-np.einsum("abk,kl,abl->ab", diff, disp, diff) / (2 * sigma**2))
            upper = np.arange(start, stop)[:, None] < np.arange(start, n)[None, :]
            assert np.all(W[~upper] == 0.0)
            assert np.allclose(W[upper], expected[upper], rtol=1e-12, atol=0.0)
            seen += int(upper.sum())
        assert seen == n * (n - 1) // 2

    def test_coincident_points_give_exactly_the_prefactor_at_d1(self):
        X = np.repeat(np.random.default_rng(64).uniform(-3.0, 3.0, size=(40, 1)), 2, axis=0)
        disp, sigma = np.array([[1.7]]), 0.3
        W = kernel_weights(X, sigma, disp)
        pref = np.sqrt(np.linalg.det(disp)) / ((2.0 * np.pi) ** 0.5 * sigma)
        assert np.all(W[np.arange(0, 80, 2), np.arange(1, 80, 2)] == pref)


class TestEmpiricalFunctionals:
    def test_constant_f_is_zero(self):
        X = sample_inputs(SyntheticSpec(), 50, seed=2)
        f = np.ones(50)
        assert empirical_un_functional(X, f, 0.3, ONE) == pytest.approx(0.0, abs=1e-12)
        assert empirical_nrw_functional(X, f, 0.3, ONE) == pytest.approx(0.0, abs=1e-10)

    def test_two_point_hand_instance(self):
        # n=2: f^T L_un f = w * (f0 - f1)^2, and the normalized walk
        # functional reduces to 2 * (f0 - f1)^2 / (2 sigma^2)
        sigma, delta = 0.5, 0.7
        X = np.array([[0.0], [0.5]])
        f = np.array([0.0, delta])
        w = (1.0 / (np.sqrt(2 * np.pi) * sigma)) * np.exp(-0.25 / (2 * sigma**2))
        expected_un = 2.0 / (4 * sigma**2) * w * delta**2
        assert empirical_un_functional(X, f, sigma, ONE) == pytest.approx(expected_un)
        expected_nrw = 2.0 * delta**2 / (2 * sigma**2)
        assert empirical_nrw_functional(X, f, sigma, ONE) == pytest.approx(expected_nrw)

    def test_quadratic_scaling(self):
        X = sample_inputs(SyntheticSpec(), 40, seed=3)
        f = target_values(SyntheticSpec(), X)
        for fn in (empirical_un_functional, empirical_nrw_functional):
            assert fn(X, 2 * f, 0.3, ONE) == pytest.approx(4 * fn(X, f, 0.3, ONE))

    def test_unnormalized_nonnegative(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            X = rng.uniform(size=(30, 1))
            f = rng.normal(size=30)
            assert empirical_un_functional(X, f, 0.2, ONE) >= 0.0

    def test_un_matches_quadrature_oracle(self):
        # Independent finite-bandwidth oracle: the exact expectation of the
        # unnormalized functional is
        #   ((n-1)/n) * (1/sigma^2) * E_{x,y}[w_sigma(x - y) (f(x) - f(y))^2]
        # computed here by adaptive quadrature.
        n, sigma = 1500, 0.35
        phi = lambda t: np.exp(-t * t / (2 * sigma**2)) / (np.sqrt(2 * np.pi) * sigma)
        integrand = lambda y, x: phi(x - y) * (np.cos(np.pi * x) - np.cos(np.pi * y)) ** 2
        integral, err = dblquad(integrand, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10)
        expected = (n - 1) / n / sigma**2 * integral
        spec = SyntheticSpec()
        vals = []
        for seed in range(5):
            X = sample_inputs(spec, n, seed)
            f = target_values(spec, X)
            vals.append(empirical_un_functional(X, f, sigma, ONE))
        assert np.mean(vals) == pytest.approx(expected, rel=0.05)


def dense_functionals(X, f, sigma, dispersion):
    # reference: both functionals from the whole kernel matrix
    W = kernel_weights(X, sigma, dispersion)
    n = W.shape[0]
    deg = W.sum(axis=1)
    un = 2.0 / (n**2 * sigma**2) * float(deg @ (f * f) - f @ (W @ f))
    Wt = W / np.sqrt(np.outer(deg, deg))
    Lf = f - (Wt @ f) / Wt.sum(axis=1)
    return un, 2.0 * float(f @ Lf) / (n * sigma**2)


class TestStreamedFunctionals:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_match_dense_kernel(self, d):
        n = 2 * KERNEL_BLOCK_ROWS + 37  # three row blocks, the last one short
        spec = SyntheticSpec(
            dimension=d,
            target_function="cosine_product",
            sigma_exponent=1.0 / (d + 4),
            dispersion=np.diag([2.0, 0.5, 1.5][:d]),
        )
        X = sample_inputs(spec, n, seed=70 + d)
        f = target_values(spec, X)
        sigma = spec.sigma_at(n)
        un, nrw = dense_functionals(X, f, sigma, spec.dispersion)
        assert empirical_un_functional(X, f, sigma, spec.dispersion) == pytest.approx(un, rel=1e-12)
        assert empirical_nrw_functional(X, f, sigma, spec.dispersion) == pytest.approx(nrw, rel=1e-12)


class TestAnalyticLimits:
    def test_one_dim_cosine(self):
        lim_un, lim_nrw = analytic_limit(SyntheticSpec())
        assert lim_un == pytest.approx(np.pi**2 / 2, abs=1e-10)
        assert lim_nrw == lim_un

    def test_constant_target(self):
        assert analytic_limit(SyntheticSpec(target_function="constant")) == (0.0, 0.0)

    def test_two_dim_cosine_sum(self):
        spec = SyntheticSpec(dimension=2, target_function="cosine_sum")
        lim_un, _ = analytic_limit(spec)
        assert lim_un == pytest.approx(np.pi**2, abs=1e-10)

    def test_two_dim_cosine_product(self):
        spec = SyntheticSpec(dimension=2, target_function="cosine_product")
        lim_un, _ = analytic_limit(spec)
        assert lim_un == pytest.approx(np.pi**2 / 2, abs=1e-10)

    def test_diagonal_dispersion_scales_limit(self):
        spec = SyntheticSpec(dispersion=np.array([[4.0]]))
        lim_un, _ = analytic_limit(spec)
        assert lim_un == pytest.approx(np.pi**2 / 8, abs=1e-10)

    def test_non_diagonal_dispersion_unsupported(self):
        spec = SyntheticSpec(dimension=2, dispersion=np.array([[1.0, 0.1], [0.1, 1.0]]))
        with pytest.raises(UnsupportedSpec):
            analytic_limit(spec)


class TestConvergenceReport:
    def test_structure_and_determinism(self):
        spec = SyntheticSpec()
        rows1 = convergence_report(spec, [50, 100], seeds=[0, 1, 2])
        rows2 = convergence_report(spec, [50, 100], seeds=[0, 1, 2])
        assert rows1 == rows2
        assert len(rows1) == 4  # two kinds x two sizes
        kinds = {r["kind"] for r in rows1}
        assert kinds == {"unnormalized", "normalized_random_walk"}
        for r in rows1:
            assert r["sigma"] == pytest.approx(r["n"] ** (-1.0 / 6.0))
            assert r["analytic"] == pytest.approx(np.pi**2 / 2)

    def test_means_equal_public_functionals(self):
        spec = SyntheticSpec(dimension=2, target_function="cosine_sum", sigma_exponent=0.15)
        seeds = [3, 4, 5]
        rows = convergence_report(spec, [60, 90], seeds=seeds)
        for r in rows:
            fn = empirical_un_functional if r["kind"] == "unnormalized" else empirical_nrw_functional
            vals = []
            for seed in seeds:
                X = sample_inputs(spec, r["n"], seed)
                vals.append(fn(X, target_values(spec, X), r["sigma"], spec.dispersion))
            assert r["empirical_mean"] == float(np.mean(vals))
            assert r["empirical_std"] == float(np.std(vals, ddof=1))

    def test_single_seed_spread_is_nan(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = convergence_report(SyntheticSpec(), [40, 80], seeds=[0])
        assert len(rows) == 4
        assert all(np.isnan(r["empirical_std"]) for r in rows)
        assert all(np.isfinite(r["empirical_mean"]) for r in rows)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(InvalidParameter):
            convergence_report(SyntheticSpec(), [100, 100], seeds=[0, 1, 2])

    def test_empty_seed_list_rejected(self):
        # the means of no seeds were NaN, with NumPy warnings
        with pytest.raises(InvalidParameter, match="seeds is empty"):
            convergence_report(SyntheticSpec(), [40, 80], seeds=[])

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameter, match="n_grid is empty"):
            convergence_report(SyntheticSpec(), [], seeds=[0, 1])

    @pytest.mark.parametrize("n_grid", [[0], [1, 40], [-5, 40], [2.5, 3], [True, 40]])
    def test_grid_below_two_rejected(self, n_grid):
        # n = 0 failed with a bare ZeroDivisionError in sigma_at, 2.5 with a
        # TypeError in rng.uniform
        rule = ">= 2" if type(n_grid[0]) is int else "of type int"
        with pytest.raises(InvalidParameter, match=f"^every n must be {rule}, got {n_grid[0]}$"):
            convergence_report(SyntheticSpec(), n_grid, seeds=[0])

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
    def test_seed_not_a_non_negative_integer_rejected(self, seed):
        # a negative seed failed with a bare ValueError in np.random.default_rng;
        # True ran as seed 1
        rule = "a non-negative integer" if type(seed) is int else "of type int"
        with pytest.raises(InvalidParameter, match=f"^every seed must be {rule}, got {seed!r}$"):
            convergence_report(SyntheticSpec(), [40, 80], seeds=[0, seed])
