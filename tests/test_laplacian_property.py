"""Property test: a Laplacian built from extreme finite weights is finite or refused.

Edge weights drawn from 5e-324 to 1.7e308 can overflow a degree, or the
inverse of a random-walk normalized degree.  Either build then raises
InvalidParameter, with no NumPy warning (tier-1 turns RuntimeWarning into an
error); otherwise every stored entry is finite.  A node with positive degree
never gets a zero normalized degree: in a random-walk operator that is
returned its diagonal entry is 1, and its matrix is the symmetrization of
the reference I - Dt^{-1} Wt, whose row of Dt^{-1} Wt sums to 1.  The
random-walk build is refused exactly when a degree or 1 / normalized degree
overflows, and the unnormalized one exactly when a degree does.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairsmooth.errors import InvalidParameter  # noqa: E402
from fairsmooth.graph import SimilarityGraph  # noqa: E402
from fairsmooth.laplacian import normalized_rw_laplacian, unnormalized_laplacian  # noqa: E402
from test_laplacian import assert_symmetrization_of, reference_rw_laplacian  # noqa: E402

TINIEST, HUGE = 5e-324, 1.7e308
weights = st.one_of(
    st.sampled_from([TINIEST, 1e-300, 1e-10, 1.0, 1e300, 1e308, HUGE]),
    st.floats(min_value=TINIEST, max_value=HUGE),
)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    i, j = np.triu_indices(n, 1)
    keep = np.array(draw(st.lists(st.booleans(), min_size=i.size, max_size=i.size)), dtype=bool)
    w = draw(st.lists(weights, min_size=int(keep.sum()), max_size=int(keep.sum())))
    return SimilarityGraph(n, i[keep], j[keep], np.array(w, dtype=float))


def build(builder, g):
    try:
        return builder(g)
    except InvalidParameter as exc:
        assert "laplacian row" in str(exc) and "is not finite" in str(exc)
        return None


def degrees(g):
    """(degrees, normalized degrees), the latter summed in the builder's order
    from the entries W_ij s_i s_j with s = 1 / sqrt(degree)."""
    W = g.adjacency()
    with np.errstate(over="ignore", divide="ignore"):
        deg = np.asarray(W.sum(axis=1)).ravel()
        s = np.zeros(g.n)
        s[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
        W.data *= np.repeat(s, np.diff(W.indptr))
        W.data *= s[W.indices]
        return deg, np.asarray(W.sum(axis=1)).ravel()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs())
def test_random_walk_build_is_finite_or_refused(g):
    deg, td = degrees(g)
    pos = deg > 0
    if np.isfinite(deg).all():
        assert np.all(td[pos] > 0)  # the zero normalized degree needs an overflowed degree
    with np.errstate(divide="ignore", over="ignore"):
        overflows = not np.isfinite(deg).all() or np.any(1.0 / td[pos] == np.inf)
    L = build(normalized_rw_laplacian, g)
    assert (L is None) == overflows
    if L is not None:
        assert np.isfinite(L.matrix.data).all()
        assert np.array_equal(L.diagonal, pos.astype(float))
        R = reference_rw_laplacian(g)
        assert_symmetrization_of(L, R)
        row_sums = np.asarray(R.sum(axis=1)).ravel()
        assert np.all(np.abs(row_sums[pos]) <= 1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs())
def test_unnormalized_build_is_refused_exactly_when_a_degree_overflows(g):
    deg, _ = degrees(g)
    L = build(unnormalized_laplacian, g)
    assert (L is None) == (not np.isfinite(deg).all())
    if L is not None:
        assert np.array_equal(L.diagonal, deg)
