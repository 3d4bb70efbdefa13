"""Fairness and accuracy evaluation metrics.

Prediction consistency works over alteration groups: each group contains
one original input plus its perturbed variants, and a group counts as
consistent when every member receives the same predicted class as the
original.  The violation histogram bins constrained pairs by fair distance
and reports, per bin, how many pairs exceed their Lipschitz bound.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    EmptyGroup,
    EmptyPairs,
    EmptySubset,
    InvalidParameter,
    NoLabels,
)
from .metric import check_pairs

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True, eq=False)
class GroupedPredictions:
    """Model outputs with an alteration-group structure.

    ``group_of[i]`` names the group of row i; ``is_original[i]`` marks the
    one canonical member per group.  Compared and hashed by identity.
    """

    outputs: np.ndarray
    group_of: np.ndarray
    is_original: np.ndarray

    def __post_init__(self):
        outputs = np.asarray(self.outputs, dtype=float)
        if outputs.ndim == 1:
            outputs = outputs[:, None]
        group_of = np.asarray(self.group_of)
        is_original = np.asarray(self.is_original, dtype=bool)
        if not (len(group_of) == len(is_original) == outputs.shape[0]):
            raise InvalidParameter("outputs, group_of, is_original must have equal length")
        gids, which = np.unique(group_of, return_inverse=True)
        originals = np.bincount(which[is_original], minlength=len(gids))
        bad = np.flatnonzero(originals != 1)
        if bad.size:
            gid, count = gids[bad[0]], int(originals[bad[0]])
            raise EmptyGroup(f"group {gid!r} has {count} originals, expected 1")
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "group_of", group_of)
        object.__setattr__(self, "is_original", is_original)


def predicted_classes(outputs: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Predicted class per row: argmax for K >= 2 (ties to the lowest class
    index), threshold on the single column for K = 1."""
    arr = np.asarray(outputs, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[1] == 1:
        return (arr[:, 0] >= threshold).astype(int)
    return np.argmax(arr, axis=1)


def prediction_consistency(
    g: GroupedPredictions, threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Fraction of groups whose every member matches the original's class."""
    preds = predicted_classes(g.outputs, threshold)
    gids, which = np.unique(g.group_of, return_inverse=True)
    original_pred = np.empty(len(gids), dtype=preds.dtype)
    original_pred[which[g.is_original]] = preds[g.is_original]
    mismatched = np.bincount(which, weights=preds != original_pred[which], minlength=len(gids))
    return int(np.count_nonzero(mismatched == 0)) / len(gids)


def output_std(outputs: np.ndarray, subset: Sequence[int], column: int = 0) -> float:
    """Population standard deviation of one output column over a subset."""
    idx = np.asarray(subset, dtype=int)
    if idx.size == 0:
        raise EmptySubset("subset is empty")
    arr = np.asarray(outputs, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return float(np.std(arr[idx, column]))


def group_gap(
    outputs: np.ndarray,
    group_a: Sequence[int],
    group_b: Sequence[int],
    column: int = 0,
) -> float:
    """mean(column over A) - mean(column over B)."""
    a = np.asarray(group_a, dtype=int)
    b = np.asarray(group_b, dtype=int)
    if a.size == 0 or b.size == 0:
        raise EmptySubset("both groups must be nonempty")
    arr = np.asarray(outputs, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return float(np.mean(arr[a, column]) - np.mean(arr[b, column]))


def accuracy(
    outputs: np.ndarray, labels: Sequence[int], threshold: float = DEFAULT_THRESHOLD
) -> float:
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise NoLabels("labels are empty")
    preds = predicted_classes(outputs, threshold)
    if preds.shape[0] != labels.shape[0]:
        raise InvalidParameter("labels and outputs have different lengths")
    return float(np.mean(preds == labels))


def balanced_accuracy(
    outputs: np.ndarray, labels: Sequence[int], threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Unweighted mean of per-class recalls over classes with support."""
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise NoLabels("labels are empty")
    preds = predicted_classes(outputs, threshold)
    if preds.shape[0] != labels.shape[0]:
        raise InvalidParameter("labels and outputs have different lengths")
    recalls = []
    for cls in np.unique(labels):
        mask = labels == cls
        recalls.append(float(np.mean(preds[mask] == cls)))
    return float(np.mean(recalls))


def violation_histogram(
    f: np.ndarray,
    distances,
    lipschitz: float,
    num_bins: int = 10,
) -> List[Tuple[float, float, int, int]]:
    """Bin constrained pairs by fair distance; count violations per bin.

    ``distances`` holds (i, j, d) triples, as a sequence or an (m, 3)
    array, checked by :func:`check_pairs` against the rows of ``f``.  Bins
    are equal-width over [0, max distance], right-open except the last.  A
    pair violates when ||f_i - f_j||_2 > lipschitz * d.
    """
    if not lipschitz > 0:
        raise InvalidParameter(f"lipschitz constant must be positive, got {lipschitz}")
    if num_bins < 1:
        raise InvalidParameter(f"num_bins must be >= 1, got {num_bins}")
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    ii, jj, d = check_pairs(distances, arr.shape[0])
    if d.size == 0:
        raise EmptyPairs("no distance pairs supplied")
    gaps = np.linalg.norm(arr[ii] - arr[jj], axis=1)
    violated = gaps > lipschitz * d

    dmax = float(d.max())
    if dmax == 0.0:
        return [(0.0, 0.0, d.size, int(violated.sum()))]
    edges = np.linspace(0.0, dmax, num_bins + 1)
    which = np.minimum((d / dmax * num_bins).astype(int), num_bins - 1)
    out = []
    for b in range(num_bins):
        mask = which == b
        out.append(
            (float(edges[b]), float(edges[b + 1]), int(mask.sum()), int(violated[mask].sum()))
        )
    return out
