"""Property tests: the column-wise pair checks and the edge sort keep their rules.

``check_pairs`` tests each index column on its own; it must accept, reject
and report exactly as the row-wise rule kept here as the reference.
``SimilarityGraph`` sorts its edge keys with numpy's default sort and takes
a stable sort only when a key repeats; its edges must equal a stable
lexicographic sort with the copies of a pair summed in input order.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairsmooth.errors import FairSmoothError, IndexOutOfRange, InvalidParameter  # noqa: E402
from fairsmooth.graph import SimilarityGraph  # noqa: E402
from fairsmooth.metric import check_pairs  # noqa: E402


def rowwise_check_pairs(pairs, n=None):
    # reference: each rule reduced along the rows of (m, 2) index arrays
    P = np.asarray(pairs, dtype=float).reshape(-1, 3)
    with np.errstate(invalid="ignore"):
        ij = P[:, :2].astype(np.int64)
    checks = (
        (np.any(ij != P[:, :2], axis=1), InvalidParameter, "has an index that is not an integer"),
        (ij[:, 0] == ij[:, 1], InvalidParameter, "joins a point to itself"),
        (~((P[:, 2] >= 0) & (P[:, 2] < np.inf)), InvalidParameter, "needs a finite distance >= 0"),
    )
    if n is not None:
        checks += ((np.any((ij < 0) | (ij >= n), axis=1), IndexOutOfRange, f"is out of range for n={n}"),)
    for bad, error, what in checks:
        if bad.any():
            i, j, d = P[np.argmax(bad)]
            raise error(f"pair ({i:g}, {j:g}, {d:g}) {what}")
    return ij[:, 0], ij[:, 1], P[:, 2]


INDICES = st.one_of(
    st.integers(min_value=-2, max_value=8).map(float),
    st.sampled_from([0.5, 2.25, -0.5, 1e19, -1e19, np.nan, np.inf, -np.inf]),
)
DISTANCES = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from([-1.0, -0.0, np.nan, np.inf, 5e-324]),
)
# mostly valid rows, so that a table often passes or fails late
ROWS = st.one_of(
    st.tuples(st.integers(0, 5).map(float), st.integers(0, 5).map(float), st.floats(0.0, 10.0)),
    st.tuples(INDICES, INDICES, DISTANCES),
)


def outcome(check, table, n):
    try:
        i, j, d = check(table, n)
    except FairSmoothError as exc:
        return type(exc), str(exc)
    return tuple((a.dtype.str, a.tobytes()) for a in (i, j, d))


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(ROWS, max_size=12), n=st.one_of(st.none(), st.integers(0, 7)))
def test_check_pairs_matches_rowwise_rule(rows, n):
    table = np.array(rows, dtype=float).reshape(-1, 3)
    assert outcome(check_pairs, table, n) == outcome(rowwise_check_pairs, table, n)


def lexsort_reference(n, rows, cols, weights):
    # a stable lexicographic sort, then the copies of a pair summed in input order
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], weights[order]
    first = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    return lo[first], hi[first], np.add.reduceat(w, first)


@st.composite
def edge_lists(draw, unique):
    n = draw(st.integers(min_value=2, max_value=12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    if unique:
        pairs = draw(st.lists(pair, min_size=1, max_size=30, unique_by=lambda p: (min(p), max(p))))
    else:
        pairs = draw(st.lists(pair, min_size=2, max_size=30))
        pairs.append(draw(st.sampled_from(pairs))[::-1])  # at least one repeat
        pairs = draw(st.permutations(pairs))
    weights = draw(st.lists(st.floats(0.0, 10.0), min_size=len(pairs), max_size=len(pairs)))
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)
    return n, rows, cols, np.array(weights)


def assert_matches_reference(edges):
    g = SimilarityGraph(*edges)
    lo, hi, w = lexsort_reference(*edges)
    assert g.rows.tobytes() == lo.tobytes() and g.cols.tobytes() == hi.tobytes()
    assert g.weights.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(edge_lists(unique=True))
def test_unique_edges_match_lexsort_reference(edges):
    assert_matches_reference(edges)


@settings(max_examples=300, deadline=None)
@given(edge_lists(unique=False))
def test_repeated_edges_match_lexsort_reference(edges):
    assert_matches_reference(edges)
