"""The paper's claim at method level: smoothing makes outputs more
individually fair without costing accuracy.

The data are the seed-0 inputs of the benchmark's ``cli_pipeline``
workload, generated here: 500 groups of 5 variants that differ only in the
sensitive coordinate x_0, which the fair metric projects out.  The base
scores lean on x_0 by 2 x_0; the labels do not depend on it.
"""

import numpy as np
import pytest

from fairsmooth import (
    FairMetricSpec,
    GroupedPredictions,
    SmoothingConfig,
    accuracy,
    build_similarity_graph,
    prediction_consistency,
    run_smoothing,
)

GROUPS, VARIANTS, CUBE = 500, 5, 2.775


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(0)
    n = GROUPS * VARIANTS
    base = rng.uniform(0.0, CUBE, size=(GROUPS, 4))
    X = np.empty((n, 5))
    X[:, 1:] = np.repeat(base, VARIANTS, axis=0)
    X[:, 0] = rng.uniform(-1.0, 1.0, size=n)
    beta = rng.normal(0.0, 0.5, size=4)
    fair_logit = (X[:, 1:] - CUBE / 2) @ beta
    logit = 2.0 * X[:, 0] + fair_logit + rng.normal(0.0, 0.3, size=n)
    scores = 1.0 / (1.0 + np.exp(-logit))
    rng.normal(0.0, 0.5, size=n)  # the workload's 3-class logits, unused here
    labels = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-fair_logit))).astype(int)
    group_of = np.arange(n) // VARIANTS
    is_original = np.arange(n) % VARIANTS == 0
    metric = FairMetricSpec("projection_complement", basis=[[1.0, 0.0, 0.0, 0.0, 0.0]])
    g = build_similarity_graph(X, metric, theta=1.0, tau=1.0)
    assert g.num_edges == 154_750
    return g, scores, labels, group_of, is_original


def fairness_and_accuracy(outputs, labels, group_of, is_original):
    grouped = GroupedPredictions(outputs, group_of, is_original)
    return prediction_consistency(grouped), accuracy(outputs, labels)


# consistency / accuracy measured at lambda = 0.1, against 0.180 / 0.576 unsmoothed:
# unnormalized 0.726 / 0.664, random-walk 0.766 / 0.662, KL 0.750 / 0.662
@pytest.mark.parametrize(
    "fields",
    [{}, {"laplacian_kind": "normalized_random_walk"}, {"discrepancy": "kl"}],
    ids=["unnormalized", "random_walk", "kl"],
)
def test_smoothing_raises_consistency_and_keeps_accuracy(instance, fields):
    g, scores, labels, group_of, is_original = instance
    kl = fields.get("discrepancy") == "kl"
    # KL smooths the 2-class rows [1 - s, s]
    y = np.column_stack([1.0 - scores, scores]) if kl else scores
    f, meta = run_smoothing(y, g, SmoothingConfig(lam=0.1, **fields))
    assert meta["converged"]
    base = fairness_and_accuracy(y, labels, group_of, is_original)
    smoothed = fairness_and_accuracy(f, labels, group_of, is_original)
    assert smoothed[0] > base[0]
    assert smoothed[1] >= base[1]
