"""The outputs table: every library function that takes model outputs reads
them through ``check_outputs``, so all of them agree on what a table is."""

import numpy as np
import pytest

from fairsmooth import (
    GroupedPredictions,
    SmoothingConfig,
    accuracy,
    balanced_accuracy,
    constraints_from_distances,
    count_violations,
    global_if_project,
    graph_from_annotations,
    prediction_consistency,
    run_smoothing,
    smooth_closed_form,
    smooth_conjugate_gradient,
    smooth_coordinate_descent,
    violation_histogram,
)
from fairsmooth.errors import DimensionMismatch, InvalidParameter
from fairsmooth.evalmetrics import predicted_classes
from fairsmooth.laplacian import UNNORMALIZED, make_laplacian
from fairsmooth.metric import check_outputs, restore_shape

N = 5
GRAPH = graph_from_annotations([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], n=N)
L = make_laplacian(GRAPH, UNNORMALIZED)
PAIRS = [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 2.0), (0, 3, 0.1), (2, 4, 0.3)]
CONSTRAINTS = constraints_from_distances(PAIRS, 0.5)
GROUP_OF = np.array([0, 0, 1, 1, 1])
IS_ORIGINAL = np.array([True, False, True, False, False])
LABELS = [0, 1, 0, 1, 1]

# name -> (call on an outputs table, whether the result is a table itself)
CASES = {
    "smooth_closed_form": (lambda y: smooth_closed_form(y, L, 0.5), True),
    "smooth_conjugate_gradient": (lambda y: smooth_conjugate_gradient(y, L, 0.5, 1e-10), True),
    "smooth_coordinate_descent": (
        lambda y: smooth_coordinate_descent(y, L, 0.5, epochs=10, seed=0, tolerance=1e-9), True
    ),
    "run_smoothing": (lambda y: run_smoothing(y, GRAPH, SmoothingConfig(lam=0.5))[0], True),
    "global_if_project": (lambda y: global_if_project(y, CONSTRAINTS), True),
    "count_violations": (lambda y: count_violations(y, CONSTRAINTS), False),
    "GroupedPredictions": (
        lambda y: prediction_consistency(GroupedPredictions(y, GROUP_OF, IS_ORIGINAL)), False
    ),
    "predicted_classes": (lambda y: predicted_classes(y).tolist(), False),
    "accuracy": (lambda y: accuracy(y, LABELS), False),
    "balanced_accuracy": (lambda y: balanced_accuracy(y, LABELS), False),
    "violation_histogram": (lambda y: violation_histogram(y, PAIRS, 0.5, num_bins=3), False),
}


def table(k=2):
    return np.random.default_rng(7).uniform(size=(N, k))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", CASES)
def test_non_finite_row_named(name, bad):
    call, _ = CASES[name]
    for row in range(N):
        # the last row is bad too: the first bad row is the one named
        y = table()
        y[row, 1] = bad
        y[N - 1, 0] = bad
        with pytest.raises(InvalidParameter, match=f"^outputs row {row} has a non-finite entry$"):
            call(y)


@pytest.mark.parametrize("name", CASES)
def test_three_dimensional_rejected(name):
    call, _ = CASES[name]
    with pytest.raises(DimensionMismatch, match=r"outputs have shape \(5, 2, 1\)"):
        call(table()[:, :, None])


@pytest.mark.parametrize("name", CASES)
def test_vector_is_one_column(name):
    call, returns_table = CASES[name]
    vector = table(k=1)[:, 0]
    one_d, two_d = call(vector), call(vector[:, None])
    if returns_table:
        assert one_d.shape == (N,) and two_d.shape == (N, 1)
        assert np.array_equal(one_d, two_d[:, 0])
    else:
        assert one_d == two_d


class TestCheckOutputs:
    def test_vector_becomes_one_column(self):
        y = check_outputs([1, 2, 3])
        assert y.dtype == float and y.shape == (3, 1)
        assert np.array_equal(y[:, 0], [1.0, 2.0, 3.0])

    def test_table_kept(self):
        y = table()
        assert check_outputs(y, N) is y

    @pytest.mark.parametrize("outputs", [np.float64(1.0), np.zeros((2, 2, 2))])
    def test_neither_vector_nor_table(self, outputs):
        with pytest.raises(DimensionMismatch):
            check_outputs(outputs)

    def test_row_count_checked(self):
        with pytest.raises(DimensionMismatch, match=r"shape \(5, 2\).* with 4 rows"):
            check_outputs(table(), 4)

    def test_restore_shape(self):
        f = np.arange(6.0).reshape(3, 2)
        assert restore_shape(f, np.zeros((3, 2))) is f
        assert np.array_equal(restore_shape(f[:, :1], np.zeros(3)), [0.0, 2.0, 4.0])
