import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from fairsmooth import (
    constraints_from_distances,
    count_violations,
    global_if_project,
    project_pair,
)
from fairsmooth import evalmetrics
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


def reference_pair(f_i, f_j, bound):
    """The pair projection as the sweep once computed it, through np.linalg.norm."""
    f_i = np.atleast_1d(np.asarray(f_i, dtype=float))
    f_j = np.atleast_1d(np.asarray(f_j, dtype=float))
    diff = f_i - f_j
    dist = float(np.linalg.norm(diff))
    if dist <= bound:
        return f_i.copy(), f_j.copy()
    if dist == 0.0:
        return f_i.copy(), f_j.copy()
    shift = 0.5 * (dist - bound) / dist
    return f_i - shift * diff, f_j + shift * diff


def reference_dykstra(yhat, constraints, tol=1e-8, max_iter=10_000):
    """Dykstra's sweep written one step at a time, with a copy per step: the
    bit-for-bit reference for global_if_project on valid input."""
    f = np.asarray(yhat, dtype=float)
    f = (f[:, None] if f.ndim == 1 else f).copy()
    K = f.shape[1]
    table = np.asarray(constraints, dtype=float).reshape(-1, 3)
    ii = np.minimum(table[:, 0], table[:, 1]).astype(np.int64)
    jj = np.maximum(table[:, 0], table[:, 1]).astype(np.int64)
    bounds = table[:, 2]
    order = np.lexsort((jj, ii))
    ii, jj, bounds = ii[order], jj[order], bounds[order]
    cons = list(zip(ii.tolist(), jj.tolist(), bounds.tolist()))
    corrections = np.zeros((len(cons), 2, K))
    for _ in range(max_iter):
        moved = 0.0
        for idx, (i, j, bound) in enumerate(cons):
            zi = f[i] + corrections[idx, 0]
            zj = f[j] + corrections[idx, 1]
            pi, pj = reference_pair(zi, zj, bound)
            corrections[idx, 0] = zi - pi
            corrections[idx, 1] = zj - pj
            moved = max(
                moved,
                float(np.max(np.abs(pi - f[i]))),
                float(np.max(np.abs(pj - f[j]))),
            )
            f[i] = pi
            f[j] = pj
        worst = (np.linalg.norm(f[ii] - f[jj], axis=1) - bounds).max(initial=0.0)
        if worst <= tol and moved < tol:
            return f[:, 0] if np.ndim(yhat) == 1 else f
    raise NotConverged(f"Dykstra did not converge in {max_iter} sweeps; worst violation {worst:.3e}")


def outcome(project, y, cons, **options):
    """The projection's bytes, or the NotConverged message."""
    try:
        return project(y, cons, **options).tobytes()
    except NotConverged as exc:
        return str(exc)


def random_instance(rng, k, zero_bounds=False):
    n = int(rng.integers(3, 8))
    y = rng.normal(size=(n, k))
    cons = [
        (i, j, 0.0 if zero_bounds else float(rng.uniform(0.0, 1.0)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < 0.7
    ]
    return y, cons or [(0, 1, 0.5)]


class TestMatchesReferenceSweep:
    """global_if_project against reference_dykstra, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_instances(self, k):
        rng = np.random.default_rng(50 + k)
        for _ in range(15):
            y, cons = random_instance(rng, k)
            expected = outcome(reference_dykstra, y, cons, max_iter=3000)
            assert outcome(global_if_project, y, cons, max_iter=3000) == expected

    def test_vector_input(self):
        rng = np.random.default_rng(54)
        y, cons = random_instance(rng, 1)
        got = global_if_project(y[:, 0], cons)
        assert got.shape == (y.shape[0],)
        assert got.tobytes() == reference_dykstra(y[:, 0], cons).tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_bounds(self, k):
        rng = np.random.default_rng(55 + k)
        for _ in range(5):
            y, cons = random_instance(rng, k, zero_bounds=True)
            assert outcome(global_if_project, y, cons) == outcome(reference_dykstra, y, cons)

    def test_repeated_and_reversed_rows(self):
        rng = np.random.default_rng(57)
        for k in (1, 2):
            y, cons = random_instance(rng, k)
            i, j, b = cons[0]
            table = cons + [(j, i, b), (i, j, 0.5 * b)] + [(j, i, bound) for i, j, bound in cons[1:]]
            assert outcome(global_if_project, y, table) == outcome(reference_dykstra, y, table)

    def test_negative_zero_output(self):
        # row 3 is in no constraint, so it keeps its -0.0; rows the sweep
        # touches pick up the +0.0 of a zero correction, in both sweeps
        y = np.array([[0.0, 1.0], [2.0, -0.0], [-0.0, -0.0], [-0.0, 0.0]])
        cons = [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 3.0)]
        got = global_if_project(y, cons)
        assert np.signbit(got[3, 0])
        assert got.tobytes() == reference_dykstra(y, cons).tobytes()

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_not_converged_message(self, max_iter):
        rng = np.random.default_rng(58)
        y, cons = random_instance(rng, 2)
        expected = outcome(reference_dykstra, y, cons, max_iter=max_iter)
        assert expected.startswith("Dykstra did not converge")
        assert outcome(global_if_project, y, cons, max_iter=max_iter) == expected

    @pytest.mark.parametrize("bound", [0.0, 0.3, 2.0, np.inf])
    def test_project_pair_matches_reference_pair(self, bound):
        rng = np.random.default_rng(59)
        for k in (1, 2, 5):
            a, b = rng.normal(size=k), rng.normal(size=k)
            got, expected = project_pair(a, b, bound), reference_pair(a, b, bound)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]


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

    def test_copies_when_nothing_moves(self):
        a, b = np.array([0.0, 1.0]), np.array([0.1, 1.0])
        fi, fj = project_pair(a, b, 1.0)
        assert fi is not a and fj is not b
        assert np.array_equal(fi, a) and np.array_equal(fj, b)

    def test_scalars_accepted(self):
        fi, fj = project_pair(0.0, 1.0, 0.5)
        assert fi.shape == fj.shape == (1,)
        assert (fi[0], fj[0]) == (0.25, 0.75)

    @pytest.mark.parametrize("bound", [-1.0, -1e-300, np.nan])
    def test_bad_bound_rejected(self, bound):
        # a negative bound swapped the two points, a NaN one returned NaNs
        with pytest.raises(InvalidParameter, match="bound"):
            project_pair([0.0], [1.0], bound)

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
    def test_no_constraints_returns_a_copy(self):
        y = np.array([0.0, 0.1, 0.2])
        f = global_if_project(y, np.empty((0, 3)))
        assert f.shape == y.shape and np.array_equal(f, y) and not np.shares_memory(f, y)

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
        "options", [{"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"max_iter": 0}, {"tol": True}, {"tol": "1e-8"}]
    )
    def test_loop_parameters_rejected(self, options):
        with pytest.raises(InvalidParameter):
            global_if_project(np.array([0.0, 10.0]), [(0, 1, 0.1)], **options)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3", None])
    def test_max_iter_not_an_integer_rejected(self, max_iter):
        # 2.5 ended in a TypeError from range, True ran one sweep
        with pytest.raises(InvalidParameter, match="max_iter"):
            global_if_project(np.array([0.0, 10.0]), [(0, 1, 0.1)], max_iter=max_iter)

    def test_numpy_integer_max_iter(self):
        f = global_if_project(np.array([0.0, 1.0]), [(0, 1, 0.5)], max_iter=np.int64(5))
        assert np.allclose(f, [0.25, 0.75])

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

    @pytest.mark.parametrize("slack", [-1.0, np.nan])
    def test_bad_slack_rejected(self, slack):
        # a slack of -1 listed satisfied pairs, a NaN one listed none
        with pytest.raises(InvalidParameter, match="slack"):
            count_violations(np.array([0.0, 0.1]), [(0, 1, 1.0)], slack=slack)

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


class TestPairGapsAtExtremes:
    """At K = 1 a pair's gap is |f_i - f_j|, exact where its square is not."""

    def test_underflow_gap_counts(self):
        # the norm squared 1e-170 to 0 and saw no violation
        f = np.array([0.0, 1e-170])
        assert count_violations(f, [(0, 1, 5e-171)]) == [(0, 1, 1e-170 - 5e-171)]
        hist = evalmetrics.violation_histogram(f, [(0, 1, 5e-171)], lipschitz=1.0, num_bins=1)
        assert hist[0][2:] == (1, 1)

    def test_overflow_gap_is_finite_and_quiet(self):
        # the norm squared 2e200 to inf, warned, and saw a violation
        f = np.array([-1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert count_violations(f, [(0, 1, 3e200)]) == []
            hist = evalmetrics.violation_histogram(f, [(0, 1, 3e200)], lipschitz=1.0, num_bins=1)
        assert hist[0][2:] == (1, 0)
