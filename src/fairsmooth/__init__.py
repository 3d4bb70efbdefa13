"""Post-processing of black-box model outputs for individual fairness.

The core operation is graph Laplacian smoothing: build a similarity graph
over individuals from a fair metric (or annotator feedback), then pull the
model's outputs toward agreement along the graph's edges.  The package also
ships the global Lipschitz-projection baseline, fairness evaluation
metrics, and an empirical harness verifying the asymptotic behaviour of
the two Laplacian regularizers.
"""

from .baseline import (
    constraints_from_distances,
    count_violations,
    global_if_project,
    project_pair,
)
from .errors import FairSmoothError
from .evalmetrics import (
    GroupedPredictions,
    accuracy,
    balanced_accuracy,
    prediction_consistency,
    violation_histogram,
)
from .graph import (
    SimilarityGraph,
    average_degree,
    build_similarity_graph,
    degrees,
    graph_from_annotations,
    read_edge_list,
    write_edge_list,
)
from .laplacian import (
    LaplacianOperator,
    apply_symmetrized,
    normalized_rw_laplacian,
    unnormalized_laplacian,
)
from .metric import (
    FairMetricSpec,
    fair_distance,
    metric_spec_from_json,
    pairwise_fair_distances,
)
from .smoother import (
    SmoothingConfig,
    from_natural_params,
    inductive_update,
    kl_coordinate_update,
    run_smoothing,
    smooth_closed_form,
    smooth_conjugate_gradient,
    smooth_coordinate_descent,
    smooth_kl,
    to_natural_params,
)
from .synthcheck import (
    SyntheticSpec,
    analytic_limit,
    convergence_report,
    empirical_nrw_functional,
    empirical_un_functional,
    sample_inputs,
)

__version__ = "0.1.0"
