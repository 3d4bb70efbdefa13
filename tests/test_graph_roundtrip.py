"""Property test: an edge list written and read back is exact, byte for byte."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairsmooth import read_edge_list, write_edge_list  # noqa: E402
from fairsmooth.graph import WEIGHT_FLOOR, SimilarityGraph  # noqa: E402

# positive weights across the double range: subnormals, values either side of
# WEIGHT_FLOOR, and everything up to 1 as the Gaussian kernel produces
WEIGHTS = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300, allow_subnormal=True),
    st.floats(min_value=WEIGHT_FLOOR / 4, max_value=WEIGHT_FLOOR * 4),
    st.sampled_from([WEIGHT_FLOOR, np.nextafter(WEIGHT_FLOOR, 0.0), np.nextafter(WEIGHT_FLOOR, 1.0)]),
    st.floats(min_value=5e-324, max_value=1.0),
)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
            max_size=n * (n - 1) // 2,
        )
    )
    weights = draw(st.lists(WEIGHTS, min_size=len(pairs), max_size=len(pairs)))
    rows = [i for i, _ in sorted(pairs)]
    cols = [j for _, j in sorted(pairs)]
    return SimilarityGraph(n, rows, cols, weights)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_edge_list_round_trip_is_exact(g: SimilarityGraph):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.tsv")
        write_edge_list(g, path)
        with open(path, "rb") as fh:
            written = fh.read()
        back = read_edge_list(path)
    expected = f"# n={g.n}\n" + "".join(
        f"{i}\t{j}\t{w:.17g}\n" for i, j, w in zip(g.rows, g.cols, g.weights)
    )
    assert written == expected.encode("utf-8")
    assert back.n == g.n
    assert np.array_equal(back.rows, g.rows)
    assert np.array_equal(back.cols, g.cols)
    assert np.array_equal(back.weights, g.weights)
