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
    kernel_graph,
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

    def test_unknown_density_rejected(self):
        with pytest.raises(UnsupportedSpec):
            SyntheticSpec(density="gaussian")


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

    def test_kernel_graph_matches_weights(self):
        rng = np.random.default_rng(62)
        X = rng.uniform(size=(8, 1))
        W = kernel_weights(X, 0.3, ONE)
        g = kernel_graph(X, 0.3, ONE)
        assert g.num_edges == 8 * 7 // 2
        for i, j, w in g.edges:
            assert w == pytest.approx(W[i, j], rel=1e-12)


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
