"""Fairness and accuracy evaluation metrics.

Prediction consistency works over alteration groups: each group contains
one original input plus its perturbed variants, and a group counts as
consistent when every member receives the same predicted class as the
original.  The violation histogram bins constrained pairs by fair distance
and reports, per bin, how many pairs exceed their Lipschitz bound.
Every function reads model outputs through :func:`check_outputs`.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    EmptyGroup,
    EmptyPairs,
    EmptySubset,
    IndexOutOfRange,
    InvalidParameter,
    NoLabels,
)
from .metric import check_outputs, check_pairs

DEFAULT_THRESHOLD = 0.5


def _integers(values, what: str, n: Optional[int] = None) -> np.ndarray:
    """``values`` as int64, or InvalidParameter naming the first that is not
    an integer; with ``n``, IndexOutOfRange for the first outside 0..n-1."""
    v = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):  # NaN and huge values cast to garbage, caught below
        ints = v.astype(np.int64)
    bad = ints != v
    if bad.any():
        raise InvalidParameter(f"{what} {v[bad][0]:g} is not an integer")
    if n is not None:
        outside = (ints < 0) | (ints >= n)
        if outside.any():
            raise IndexOutOfRange(f"{what} {ints[outside][0]} is outside 0..{n - 1}")
    return ints


@dataclass(frozen=True, eq=False)
class GroupedPredictions:
    """Model outputs with an alteration-group structure.

    ``outputs`` is stored as the table :func:`check_outputs` returns.
    ``group_of[i]`` names the group of row i; ``is_original[i]`` marks the
    one canonical member per group.  Compared and hashed by identity.
    """

    outputs: np.ndarray
    group_of: np.ndarray
    is_original: np.ndarray

    def __post_init__(self):
        outputs = check_outputs(self.outputs)
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
    index), a finite threshold on the single column for K = 1."""
    if not np.isfinite(threshold):
        raise InvalidParameter(f"threshold must be finite, got {threshold}")
    arr = check_outputs(outputs)
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
    arr = check_outputs(outputs)
    idx = _integers(subset, "subset index", arr.shape[0])
    if idx.size == 0:
        raise EmptySubset("subset is empty")
    column = _integers(column, "column", arr.shape[1])
    return float(np.std(arr[idx, column]))


def group_gap(
    outputs: np.ndarray,
    group_a: Sequence[int],
    group_b: Sequence[int],
    column: int = 0,
) -> float:
    """mean(column over A) - mean(column over B)."""
    arr = check_outputs(outputs)
    a = _integers(group_a, "group index", arr.shape[0])
    b = _integers(group_b, "group index", arr.shape[0])
    if a.size == 0 or b.size == 0:
        raise EmptySubset("both groups must be nonempty")
    column = _integers(column, "column", arr.shape[1])
    return float(np.mean(arr[a, column]) - np.mean(arr[b, column]))


def accuracy(
    outputs: np.ndarray, labels: Sequence[int], threshold: float = DEFAULT_THRESHOLD
) -> float:
    labels = _integers(labels, "label")
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
    labels = _integers(labels, "label")
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
    if not 0 < lipschitz < np.inf:
        raise InvalidParameter(f"lipschitz constant must be positive and finite, got {lipschitz}")
    num_bins = int(_integers(num_bins, "num_bins"))
    if num_bins < 1:
        raise InvalidParameter(f"num_bins must be >= 1, got {num_bins}")
    arr = check_outputs(f)
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
