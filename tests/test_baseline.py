import numpy as np
import pytest
from scipy.optimize import minimize

from fairsmooth import (
    constraints_from_distances,
    count_violations,
    global_if_project,
    project_pair,
)
from fairsmooth.errors import IndexOutOfRange, InvalidParameter, NotConverged


def qp_oracle(yhat, constraints):
    """Independent projection oracle: SLSQP on the flattened variables."""
    y = np.asarray(yhat, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n, k = y.shape

    def obj(x):
        return float(np.sum((x - y.ravel()) ** 2))

    def jac(x):
        return 2.0 * (x - y.ravel())

    cons = []
    for c in constraints:
        def make(ci, cj, bound):
            def g(x):
                f = x.reshape(n, k)
                return bound**2 - float(np.sum((f[ci] - f[cj]) ** 2))
            return g
        cons.append({"type": "ineq", "fun": make(*c)})
    res = minimize(
        obj, y.ravel(), jac=jac, method="SLSQP", constraints=cons,
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    # status 8 is a line-search stall, which SLSQP hits when it starts a
    # step already at the constrained optimum; accept it when feasible
    feasible = all(c["fun"](res.x) >= -1e-8 for c in cons)
    assert res.success or (res.status == 8 and feasible), res.message
    return res.x.reshape(n, k)


class TestProjectPair:
    def test_feasible_unchanged(self):
        fi, fj = project_pair(np.array([0.0]), np.array([0.3]), 0.5)
        assert fi[0] == 0.0 and fj[0] == 0.3

    def test_scalar_hand_example(self):
        fi, fj = project_pair(np.array([0.0]), np.array([1.0]), 0.5)
        assert fi[0] == pytest.approx(0.25)
        assert fj[0] == pytest.approx(0.75)

    def test_zero_bound_collapses_to_midpoint(self):
        fi, fj = project_pair(np.array([0.0, 2.0]), np.array([2.0, 0.0]), 0.0)
        assert np.allclose(fi, [1.0, 1.0])
        assert np.allclose(fj, [1.0, 1.0])

    def test_equal_shifts(self):
        rng = np.random.default_rng(40)
        a, b = rng.normal(size=3), rng.normal(size=3)
        fi, fj = project_pair(a, b, 0.1)
        assert np.allclose(a - fi, fj - b, atol=1e-12)
        assert np.linalg.norm(fi - fj) == pytest.approx(0.1, abs=1e-12)


class TestConstraints:
    def test_from_distances_orders_indices(self):
        # the table keeps the row as given; the pair is read as (min, max)
        cons = constraints_from_distances([(3, 1, 2.0)], lipschitz=0.5)
        assert np.array_equal(cons, [[3.0, 1.0, 1.0]])
        assert count_violations(np.array([0.0, 0.0, 0.0, 5.0]), cons) == [(1, 3, 4.0)]

    def test_invalid_lipschitz(self):
        with pytest.raises(InvalidParameter):
            constraints_from_distances([(0, 1, 1.0)], lipschitz=0.0)

    def test_array_and_triples_agree(self):
        triples = [(3, 1, 2.0), (0, 2, 0.5)]
        from_array = constraints_from_distances(np.array(triples), 0.5)
        assert np.array_equal(from_array, constraints_from_distances(triples, 0.5))

    @pytest.mark.parametrize("lipschitz", [np.inf, np.nan, -1.0])
    def test_non_finite_lipschitz(self, lipschitz):
        # L = inf made the bound of a d = 0 pair NaN, and the projection all-NaN
        with pytest.raises(InvalidParameter):
            constraints_from_distances([(0, 1, 0.0)], lipschitz=lipschitz)

    @pytest.mark.parametrize("pair", [(0, 1, np.nan), (0, 1, -1.0), (0, 1.5, 1.0), (2, 2, 1.0)])
    def test_invalid_pair(self, pair):
        with pytest.raises(InvalidParameter):
            constraints_from_distances([(0, 1, 1.0), pair], lipschitz=1.0)

    def test_constraint_validation(self):
        # a table row is checked like a fair-distance pair
        for bad in [(0, 1, -1.0), (0, 1, np.nan), (1, 1, 1.0), (0, 0.5, 1.0)]:
            with pytest.raises(InvalidParameter):
                global_if_project(np.zeros(2), [(0, 1, 1.0), bad])
            with pytest.raises(InvalidParameter):
                count_violations(np.zeros(2), [(0, 1, 1.0), bad])


class TestGlobalProjection:
    def test_feasible_input_unchanged(self):
        y = np.array([0.0, 0.1, 0.2])
        cons = [(i, j, 1.0) for i in range(3) for j in range(i + 1, 3)]
        f = global_if_project(y, cons)
        assert np.allclose(f, y, atol=1e-10)

    def test_single_constraint_matches_project_pair(self):
        y = np.array([0.0, 1.0])
        f = global_if_project(y, [(0, 1, 0.5)])
        assert np.allclose(f, [0.25, 0.75], atol=1e-8)

    def test_three_point_chain_matches_qp_oracle(self):
        y = np.array([0.0, 1.0, 2.0])
        cons = [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)]
        f = global_if_project(y, cons, tol=1e-10)
        oracle = qp_oracle(y, cons)[:, 0]
        assert np.max(np.abs(f - oracle)) < 1e-4

    def test_random_instances_match_qp_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, 3))
            y = rng.normal(size=(n, k))
            cons = [
                (i, j, float(rng.uniform(0.1, 1.0)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.uniform() < 0.8
            ]
            if not cons:
                cons = [(0, 1, 0.5)]
            f = global_if_project(y, cons, tol=1e-10)
            oracle = qp_oracle(y, cons)
            assert np.max(np.abs(f - oracle)) < 1e-4
            assert not count_violations(f, cons, slack=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        y = rng.normal(size=4)
        cons = [
            (i, j, 0.3)
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        f = global_if_project(y, cons, tol=1e-10)
        f2 = global_if_project(f, cons, tol=1e-10)
        assert np.max(np.abs(f2 - f)) < 1e-8

    def test_non_expansive_vs_midpoint_collapse(self):
        # the all-equal consensus point is always feasible; the projection
        # must be at least as close to the input
        rng = np.random.default_rng(43)
        y = rng.normal(size=5)
        cons = [
            (i, j, 0.2)
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        f = global_if_project(y, cons, tol=1e-10)
        collapse = np.full(5, y.mean())
        assert np.linalg.norm(f - y) <= np.linalg.norm(collapse - y) + 1e-10

    def test_out_of_range_constraint(self):
        with pytest.raises(IndexOutOfRange):
            global_if_project(np.zeros(2), [(0, 5, 1.0)])

    @pytest.mark.parametrize(
        "options", [{"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"max_iter": 0}]
    )
    def test_loop_parameters_rejected(self, options):
        with pytest.raises(InvalidParameter):
            global_if_project(np.array([0.0, 10.0]), [(0, 1, 0.1)], **options)

    def test_not_converged_reports_violation(self):
        y = np.array([0.0, 10.0])
        with pytest.raises(NotConverged, match="violation"):
            global_if_project(y, [(0, 1, 0.1)], max_iter=1)


class TestCountViolations:
    def test_projected_output_clean(self):
        y = np.array([0.0, 1.0, 2.0])
        cons = [(0, 1, 0.5), (1, 2, 0.5)]
        f = global_if_project(y, cons)
        assert count_violations(f, cons, slack=1e-6) == []

    def test_single_violation_excess(self):
        out = count_violations(np.array([0.0, 1.0]), [(0, 1, 0.5)])
        assert len(out) == 1
        i, j, excess = out[0]
        assert (i, j) == (0, 1)
        assert excess == pytest.approx(0.5)

    def test_infinite_slack(self):
        out = count_violations(
            np.array([0.0, 100.0]), [(0, 1, 0.5)], slack=np.inf
        )
        assert out == []

    def test_matches_per_constraint_loop_in_input_order(self):
        rng = np.random.default_rng(44)
        f = rng.normal(size=(8, 3))
        cons = [
            (i, j, float(rng.uniform(0.0, 2.0)))
            for i in range(8)
            for j in range(i + 1, 8)
        ]
        rng.shuffle(cons)
        expected = []
        for i, j, bound in cons:
            excess = float(np.linalg.norm(f[i] - f[j])) - bound
            if excess > 0.1:
                expected.append((i, j, excess))
        out = count_violations(f, cons, slack=0.1)
        assert [(i, j) for i, j, _ in out] == [(i, j) for i, j, _ in expected]
        assert np.allclose([e for _, _, e in out], [e for _, _, e in expected], rtol=1e-15, atol=0)
        assert all(type(i) is int and type(j) is int and type(e) is float for i, j, e in out)

    def test_out_of_range_constraint(self):
        with pytest.raises(IndexOutOfRange):
            count_violations(np.zeros(2), [(0, 5, 1.0)])
