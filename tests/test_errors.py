"""Every error class is raised by some input, and every input check runs.

``LEAF_CASES`` states, for each leaf class of ``fairsmooth.errors``, one
input that raises it; a class added without a row, or kept after nothing
raises it, fails ``test_every_leaf_class_has_a_case``.  ``CHECKS`` holds the
shape and type checks that no other test reaches.
"""

import numpy as np
import pytest

from fairsmooth import errors, evalmetrics, synthcheck
from fairsmooth.cli import _build_parser
from fairsmooth.graph import SimilarityGraph, graph_from_annotations, read_edge_list
from fairsmooth.laplacian import apply_symmetrized, normalized_rw_laplacian, unnormalized_laplacian
from fairsmooth.metric import FairMetricSpec, check_points, fair_distance, metric_spec_from_json
from fairsmooth.smoother import (
    from_natural_params,
    smooth_closed_form,
    smooth_conjugate_gradient,
    to_natural_params,
)

PATH = graph_from_annotations([(0, 1), (1, 2)], n=3)
PATH_LAPLACIAN = unnormalized_laplacian(PATH)
EUCLID_2D = FairMetricSpec("mahalanobis", sigma=np.eye(2))


def cli(argv):
    """Run one subcommand without main's error mapping, so its exception propagates."""
    args = _build_parser().parse_args(argv)
    args.func(args)


def smooth_row_count_mismatch(tmp_path):
    graph, outputs = tmp_path / "graph.tsv", tmp_path / "outputs.csv"
    graph.write_text("# n=3\n0\t1\t1\n")
    outputs.write_text("c0\n0.5\n")
    cli(["smooth", "--graph", str(graph), "--outputs", str(outputs), "--out", str(tmp_path / "f.csv")])


def reversed_edge(tmp_path):
    graph = tmp_path / "graph.tsv"
    graph.write_text("# n=2\n1\t0\t1\n")
    read_edge_list(graph)


LEAF_CASES = {
    errors.DimensionMismatch: lambda tmp_path: apply_symmetrized(PATH_LAPLACIAN, np.zeros(2)),
    # finite weights whose degree overflows
    errors.InvalidParameter: lambda tmp_path: unnormalized_laplacian(SimilarityGraph(3, [0, 0], [1, 2], [1e308] * 2)),
    errors.NonSymmetric: lambda tmp_path: FairMetricSpec("mahalanobis", sigma=[[1.0, 1.0], [0.0, 1.0]]),
    errors.NotPSD: lambda tmp_path: FairMetricSpec("mahalanobis", sigma=[[1.0, 0.0], [0.0, -1.0]]),
    errors.NonOrthonormalBasis: lambda tmp_path: FairMetricSpec("projection_complement", basis=[[1.0, 1.0]]),
    errors.SelfLoop: lambda tmp_path: SimilarityGraph(2, [0], [0], [1.0]),
    errors.IndexOutOfRange: lambda tmp_path: SimilarityGraph(2, [0], [2], [1.0]),
    errors.InvalidSimplexRow: lambda tmp_path: to_natural_params([0.5, 0.6]),
    errors.EmptyGroup: lambda tmp_path: evalmetrics.GroupedPredictions([0.1, 0.2], [0, 0], [False, False]),
    errors.NoLabels: lambda tmp_path: evalmetrics.accuracy([0.1], []),
    errors.EmptyPairs: lambda tmp_path: evalmetrics.violation_histogram([0.1, 0.2], np.empty((0, 3)), 1.0),
    errors.ParseError: reversed_edge,
    errors.RowCountMismatch: smooth_row_count_mismatch,
    errors.UnsupportedSpec: lambda tmp_path: synthcheck.SyntheticSpec(target_function="sine"),
    # sym(L_rw) of a path has eigenvalue -0.06, so I + 100 sym(L_rw) is indefinite
    errors.NotPositiveDefinite: lambda tmp_path: smooth_closed_form(np.ones(3), normalized_rw_laplacian(PATH), 100.0),
    # 1 + 2 lambda max L_ii overflows the iteration bound
    errors.NotConverged: lambda tmp_path: smooth_conjugate_gradient([1.0, 2.0, 3.0], PATH_LAPLACIAN, 1e308, 1e-9),
}


def leaf_classes():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.FairSmoothError)]
    return {c for c in classes if not any(issubclass(other, c) and other is not c for other in classes)}


def test_every_leaf_class_has_a_case():
    assert set(LEAF_CASES) == leaf_classes()


@pytest.mark.parametrize("error", list(LEAF_CASES), ids=lambda c: c.__name__)
def test_leaf_class_is_raised(tmp_path, error):
    with pytest.raises(error) as info:
        LEAF_CASES[error](tmp_path)
    assert type(info.value) is error


CHECKS = [
    ("metric_spec_not_an_object", lambda: metric_spec_from_json(["euclidean"]),
     errors.InvalidParameter, "metric spec must be a JSON object"),
    ("fair_distance_of_a_matrix", lambda: fair_distance(EUCLID_2D, np.ones((1, 2)), np.ones(2)),
     errors.DimensionMismatch, "expected a vector"),
    ("fair_distance_shapes_differ", lambda: fair_distance(FairMetricSpec("euclidean"), np.ones(3), np.ones(2)),
     errors.DimensionMismatch, "point shapes differ"),
    ("points_not_2d", lambda: check_points(EUCLID_2D, np.ones(2)),
     errors.DimensionMismatch, "X must be 2-d"),
    ("points_wrong_dimension", lambda: check_points(EUCLID_2D, np.ones((4, 3))),
     errors.DimensionMismatch, "X has 3 columns"),
    ("annotations_without_nodes", lambda: graph_from_annotations([], n=0),
     errors.InvalidParameter, "n must be >= 1"),
    ("grouped_lengths_differ", lambda: evalmetrics.GroupedPredictions([0.1, 0.2], [0], [True]),
     errors.InvalidParameter, "must have equal length"),
    ("labels_and_outputs_lengths_differ", lambda: evalmetrics.accuracy([0.1, 0.9], [0]),
     errors.InvalidParameter, "different lengths"),
    ("probability_rows_with_one_class", lambda: to_natural_params(np.ones((2, 1))),
     errors.DimensionMismatch, "K >= 2"),
    ("natural_params_3d", lambda: from_natural_params(np.zeros((1, 1, 1))),
     errors.DimensionMismatch, "expected natural-parameter rows"),
    ("natural_params_not_finite", lambda: from_natural_params([np.nan]),
     errors.InvalidParameter, "non-finite"),
    ("synthetic_dimension_0", lambda: synthcheck.SyntheticSpec(dimension=0),
     errors.InvalidParameter, "dimension must be >= 1"),
    ("sample_of_one_point", lambda: synthcheck.sample_inputs(synthcheck.SyntheticSpec(), 1, 0),
     errors.InvalidParameter, "n must be >= 2"),
    ("kernel_bandwidth_0", lambda: next(synthcheck._kernel_rows(np.zeros((2, 1)), 0.0, np.eye(1))),
     errors.InvalidParameter, "sigma must be positive"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_input_check(call, error, message):
    with pytest.raises(error, match=message):
        call()
