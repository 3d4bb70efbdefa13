"""Acceptance suite: every release criterion with one pass/fail line each.

Each test prints "criterion N: PASS|FAIL — <summary>" before asserting, so
a full run (pytest -s) documents the measured numbers either way.
"""

import time

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.optimize import minimize

from fairsmooth import (
    FairMetricSpec,
    build_similarity_graph,
    count_violations,
    from_natural_params,
    global_if_project,
    graph_from_annotations,
    kl_coordinate_update,
    smooth_closed_form,
    smooth_coordinate_descent,
    to_natural_params,
    violation_histogram,
)
from fairsmooth.laplacian import UNNORMALIZED, make_laplacian, unnormalized_laplacian
from fairsmooth.synthcheck import SyntheticSpec, convergence_report

EUCLID = FairMetricSpec("euclidean")


def report(num: int, ok: bool, summary: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {summary}")


def random_sparse_instance(rng, max_n=200, max_k=5):
    # sizes span [20, max_n], skewed small so the 100-instance oracle
    # comparison stays well inside its runtime budget
    n = 20 + int((max_n - 20) * rng.uniform() ** 2)
    k = int(rng.integers(1, max_k + 1))
    X = rng.normal(size=(n, 2))
    g = build_similarity_graph(X, EUCLID, theta=2.0, tau=0.8)
    y = rng.normal(size=(n, k)) if k > 1 else rng.normal(size=n)
    return g, y


def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(100)
    lambdas = [0.1, 1.0, 10.0]
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        g, y = random_sparse_instance(rng)
        lam = lambdas[trial % 3]
        L = make_laplacian(g, UNNORMALIZED)
        f_cf = smooth_closed_form(y, L, lam)
        f_cd = smooth_coordinate_descent(y, L, lam, epochs=5000, seed=trial, tolerance=1e-9)
        worst = max(worst, float(np.max(np.abs(f_cf - f_cd))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(1, ok, f"max |CD - closed form| = {worst:.2e} over 100 instances, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_2_stationarity_residual():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(30):
        g, y = random_sparse_instance(rng)
        lam = [0.1, 1.0, 10.0][trial % 3]
        L = make_laplacian(g, UNNORMALIZED)
        f = smooth_closed_form(y, L, lam)
        if f.ndim == 1:
            f = f[:, None]
            yv = np.asarray(y)[:, None]
        else:
            yv = y
        residual = float(np.max(np.abs(f - yv + lam * (L.matrix @ f))))
        worst = max(worst, residual)
    ok = worst < 1e-8
    report(2, ok, f"max closed-form stationarity residual = {worst:.2e}")
    assert worst < 1e-8


def test_criterion_3_pairwise_sum_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 501))
        X = rng.normal(size=(n, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=3.0)
        if g.num_edges == 0:
            g = graph_from_annotations([(0, 1)], n=n)
        L = unnormalized_laplacian(g)
        f = rng.normal(size=n)
        qf = float(f @ (L.matrix @ f))
        pair_sum = float(np.sum(g.weights * (f[g.rows] - f[g.cols]) ** 2))
        rel = abs(qf - pair_sum) / max(abs(pair_sum), 1e-300)
        worst = max(worst, rel)
    ok = worst < 1e-9
    report(3, ok, f"max relative deviation of f'Lf from pairwise sum = {worst:.2e}")
    assert worst < 1e-9


def _kl_div(p, q):
    return float(np.sum(p * (np.log(p) - np.log(q))))


def _kl_simplex_oracle(p_target, neighbors, weights, lam):
    def fun(y):
        val = _kl_div(y, p_target)
        for w, pj in zip(weights, neighbors):
            val += 0.5 * lam * w * _kl_div(y, pj)
        return val

    best, best_val = None, np.inf
    grid = np.linspace(0.01, 0.98, 41)
    for a in grid:
        for b in grid:
            c = 1.0 - a - b
            if c < 0.01:
                continue
            v = fun(np.array([a, b, c]))
            if v < best_val:
                best, best_val = np.array([a, b]), v

    def wrapped(ab):
        a, b = ab
        c = 1.0 - a - b
        if min(a, b, c) <= 1e-9:
            return 1e9
        return fun(np.array([a, b, c]))

    res = minimize(wrapped, best, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    a, b = res.x
    return np.array([a, b, 1.0 - a - b])


def test_criterion_4_kl_coordinate_update_and_round_trip():
    rng = np.random.default_rng(103)
    worst_update = 0.0
    for _ in range(20):
        p_target = rng.dirichlet(np.ones(3))
        neighbors = rng.dirichlet(np.ones(3), size=2)
        weights = rng.uniform(0.2, 1.5, size=2)
        lam = float(rng.uniform(0.3, 3.0))
        ours = kl_coordinate_update(p_target, neighbors, weights, lam)
        oracle = _kl_simplex_oracle(p_target, neighbors, weights, lam)
        worst_update = max(worst_update, float(np.max(np.abs(ours - oracle))))
    p = rng.dirichlet(np.ones(4), size=50)
    worst_rt = float(np.max(np.abs(from_natural_params(to_natural_params(p)) - p)))
    ok = worst_update < 1e-4 and worst_rt < 1e-10
    report(4, ok, f"coordinate update vs simplex oracle {worst_update:.2e}, round trip {worst_rt:.2e}")
    assert worst_update < 1e-4
    assert worst_rt < 1e-10


def _bregman_gd(points, weights, steps=20000, lr=0.05):
    # gradient descent on u = log y for the barycenter objective
    # sum_j w_j D_F(z_j, y) with F = sum x log x
    u = np.log(np.mean(points, axis=0))
    for _ in range(steps):
        y = np.exp(u)
        grad_y = np.sum(weights) - (weights @ points) / y
        u -= lr * grad_y * y
    return np.exp(u)


def test_criterion_5_bregman_barycenter_is_weighted_mean():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        m, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        points = rng.uniform(0.1, 3.0, size=(m, k))
        weights = rng.uniform(0.2, 2.0, size=m)
        oracle = _bregman_gd(points, weights)
        expected = (weights @ points) / weights.sum()
        worst = max(worst, float(np.max(np.abs(oracle - expected))))
    ok = worst < 1e-6
    report(5, ok, f"max |numeric Bregman barycenter - weighted mean| = {worst:.2e}")
    assert worst < 1e-6


def _projection_qp_oracle(yhat, constraints):
    y = np.asarray(yhat, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n, k = y.shape
    cons = []
    for c in constraints:
        def make(ci, cj, bound):
            def g(x):
                f = x.reshape(n, k)
                return bound**2 - float(np.sum((f[ci] - f[cj]) ** 2))
            return g
        cons.append({"type": "ineq", "fun": make(*c)})
    # start from the always-feasible consensus point; SLSQP is far more
    # reliable from inside the constraint set
    x0 = np.tile(y.mean(axis=0), (n, 1)).ravel()
    res = minimize(
        lambda x: float(np.sum((x - y.ravel()) ** 2)),
        x0,
        jac=lambda x: 2.0 * (x - y.ravel()),
        method="SLSQP",
        constraints=cons,
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    # status 8 is a line-search stall, hit when an iterate is already at
    # the constrained optimum; accept it when (near-)feasible
    feasible = all(c["fun"](res.x) >= -1e-6 for c in cons)
    assert res.success or (res.status == 8 and feasible), res.message
    return res.x.reshape(n, k)


def test_criterion_6_projection_matches_qp_oracle():
    rng = np.random.default_rng(105)
    worst_gap = worst_violation = worst_move = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, 3))
        y = rng.normal(size=(n, k))
        cons = [
            (i, j, float(rng.uniform(0.1, 1.0)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.uniform() < 0.8
        ] or [(0, 1, 0.5)]
        f = global_if_project(y, cons, tol=1e-10)
        oracle = _projection_qp_oracle(y, cons)
        worst_gap = max(worst_gap, float(np.max(np.abs(f - oracle))))
        for i, j, excess in count_violations(f, cons, slack=0.0):
            worst_violation = max(worst_violation, excess)
        f2 = global_if_project(f, cons, tol=1e-10)
        worst_move = max(worst_move, float(np.max(np.abs(f2 - f))))
    ok = worst_gap < 1e-4 and worst_violation < 1e-8 and worst_move < 1e-8
    report(
        6,
        ok,
        f"vs QP oracle {worst_gap:.2e}, worst violation {worst_violation:.2e}, "
        f"re-projection move {worst_move:.2e}",
    )
    assert worst_gap < 1e-4
    assert worst_violation < 1e-8
    assert worst_move < 1e-8


def finite_bandwidth_un_value(n: int, sigma: float) -> float:
    """Exact expectation of the unnormalized estimate at finite n and sigma.

    ((n-1)/n) * E_{x,y ~ U[0,1]}[w_sigma(x - y) (cos(pi x) - cos(pi y))^2] / sigma^2,
    with w_sigma the unit-mass Gaussian; computed by adaptive quadrature,
    independently of fairsmooth.synthcheck.
    """
    phi = lambda t: np.exp(-t * t / (2 * sigma**2)) / (np.sqrt(2 * np.pi) * sigma)
    integrand = lambda y, x: phi(x - y) * (np.cos(np.pi * x) - np.cos(np.pi * y)) ** 2
    integral, _ = dblquad(integrand, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10)
    return (n - 1) / n / sigma**2 * integral


# Relative band around the finite-bandwidth value. Over seeds 0-39 the
# per-seed spread of the unnormalized estimate is about 1.1% at both n, so a
# 5-seed mean has a standard error of about 0.5% and 3% is about 6 standard
# errors; seeds 0-4 land +0.23% (n=500) and -1.06% (n=5000) off. The band is
# set from the 40-seed spread, not from the report's 5-seed empirical_std.
UN_ESTIMAND_BAND = 0.03


def test_criterion_7_asymptotic_convergence():
    start = time.perf_counter()
    spec = SyntheticSpec()  # d=1, cos(pi x), uniform, dispersion 1, sigma = n^(-1/6)
    rows = convergence_report(spec, [500, 5000], seeds=[0, 1, 2, 3, 4])
    elapsed = time.perf_counter() - start
    by = {(r["kind"], r["n"]): r for r in rows}
    rel = {key: r["relative_error"] for key, r in by.items()}
    un_small, un_big = rel[("unnormalized", 500)], rel[("unnormalized", 5000)]
    rw_small, rw_big = (
        rel[("normalized_random_walk", 500)],
        rel[("normalized_random_walk", 5000)],
    )
    # The unnormalized estimate is unbiased for its finite-bandwidth value,
    # which converges to pi^2/2 only as sigma -> 0: at sigma = n^(-1/6) it
    # still sits 0.446 (n=500) and 0.227 (n=5000) below the limit, mostly the
    # O(sigma^2) curvature term plus the boundary. A bare threshold against
    # pi^2/2 would test sigma, not the estimator, and an inflated estimate
    # would pass it; so the estimate is held to the finite-bandwidth value
    # and that value's own bias must shrink with n.
    limit = np.pi**2 / 2
    estimand = {n: finite_bandwidth_un_value(n, spec.sigma_at(n)) for n in (500, 5000)}
    deviation = {
        n: by[("unnormalized", n)]["empirical_mean"] / estimand[n] - 1.0
        for n in (500, 5000)
    }
    bias = {n: abs(limit - estimand[n]) / limit for n in (500, 5000)}
    within_band = all(abs(d) < UN_ESTIMAND_BAND for d in deviation.values())
    ok = (
        within_band
        and bias[5000] < bias[500]
        and un_big < un_small
        and rw_big < 0.20
        and rw_big < rw_small
        and elapsed < 300.0
    )
    report(
        7,
        ok,
        f"unnormalized estimand {estimand[500]:.4f}->{estimand[5000]:.4f} "
        f"(bias vs pi^2/2 {bias[500]:.3f}->{bias[5000]:.3f}), deviation "
        f"{deviation[500]:+.4f}/{deviation[5000]:+.4f} (band {UN_ESTIMAND_BAND}), "
        f"rel err unnormalized {un_small:.3f}->{un_big:.3f}, "
        f"random walk {rw_small:.3f}->{rw_big:.3f}, {elapsed:.0f}s",
    )
    assert abs(deviation[500]) < UN_ESTIMAND_BAND
    assert abs(deviation[5000]) < UN_ESTIMAND_BAND
    assert bias[5000] < bias[500]
    assert un_big < un_small
    assert rw_big < rw_small
    assert rw_big < 0.20
    assert elapsed < 300.0


def test_criterion_8_two_cluster_violation_histogram():
    rng = np.random.default_rng(106)
    spread, separation = 0.1, 10.0
    X = np.concatenate(
        [rng.normal(0.0, spread, size=20), rng.normal(separation, spread, size=20)]
    )[:, None]
    y = np.concatenate([rng.normal(0.0, 1.0, size=20), rng.normal(5.0, 1.0, size=20)])
    g = build_similarity_graph(X, EUCLID, theta=1.0, tau=1.0)
    L = unnormalized_laplacian(g)
    f = smooth_closed_form(y, L, 1e6)
    within_gap = max(
        float(np.max(f[:20]) - np.min(f[:20])), float(np.max(f[20:]) - np.min(f[20:]))
    )
    pairs = [
        (i, j, float(abs(X[i, 0] - X[j, 0])))
        for i in range(40)
        for j in range(i + 1, 40)
    ]
    hist = violation_histogram(f, pairs, lipschitz=0.1, num_bins=10)
    dmax = max(d for _, _, d in pairs)
    within_scale = max(
        d for _, _, d in pairs if d < separation / 2
    )  # largest intra-cluster distance
    within_violations = sum(v for lo, hi, _, v in hist if hi <= within_scale * 1.01)
    cross_violations = sum(v for lo, hi, _, v in hist if lo >= separation / 2)
    ok = within_gap < 1e-3 and within_violations == 0 and cross_violations >= 1
    report(
        8,
        ok,
        f"within-cluster agreement {within_gap:.1e}; violations within/cross = "
        f"{within_violations}/{cross_violations} (max distance {dmax:.2f})",
    )
    assert within_gap < 1e-3
    assert within_violations == 0
    assert cross_violations >= 1


def test_criterion_9_lambda_extremes():
    rng = np.random.default_rng(107)
    X = rng.normal(size=(15, 2))
    g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)  # connected
    L = unnormalized_laplacian(g)
    y = rng.normal(size=15)
    exact = bool(np.array_equal(smooth_closed_form(y, L, 0.0), y))
    f = smooth_closed_form(y, L, 1e9)
    spread = float(np.max(f) - np.min(f))
    mean_gap = float(np.max(np.abs(f - y.mean())))
    ok = exact and spread < 1e-4 and mean_gap < 1e-4
    report(
        9,
        ok,
        f"lambda=0 exact: {exact}; lambda=1e9 consensus spread {spread:.1e}, "
        f"distance to mean {mean_gap:.1e}",
    )
    assert exact
    assert spread < 1e-4
    assert mean_gap < 1e-4


def min_seconds(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_criterion_10_scaling_growth_ratios():
    rng = np.random.default_rng(108)
    sizes = [500, 1000, 2000]
    t_cf, t_cd = {}, {}
    for n in sizes:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = graph_from_annotations(pairs, n=n)
        L = unnormalized_laplacian(g)
        y = rng.normal(size=n)
        # the minimum of three repeats, so one stall cannot invert a ratio
        t_cf[n] = min_seconds(lambda: smooth_closed_form(y, L, 1.0))
        t_cd[n] = min_seconds(
            lambda: smooth_coordinate_descent(y, L, 1.0, epochs=10, seed=0, tolerance=1e-300)
        )
    ratio_cf = t_cf[2000] / t_cf[500]
    ratio_cd = t_cd[2000] / t_cd[500]
    ok = ratio_cf > ratio_cd
    report(
        10,
        ok,
        f"closed-form growth x{ratio_cf:.1f} vs coordinate-descent x{ratio_cd:.1f} "
        f"(500 -> 2000 nodes)",
    )
    assert ratio_cf > ratio_cd
