"""Property test: a constraint table's row order and orientation do not matter.

A row (i, j, bound) and its reverse (j, i, bound) are one constraint, and
Dykstra sweeps the rows by their (min, max) pair.  So for distinct pairs,
flipping any subset of rows and permuting the table gives a projection
equal bit for bit (or the same NotConverged), and the same violations,
reported as (min, max) pairs in the new row order.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairsmooth import count_violations, global_if_project  # noqa: E402
from fairsmooth.errors import NotConverged  # noqa: E402


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    keep = rng.uniform(size=i.size) < draw(st.floats(min_value=0.2, max_value=1.0))
    keep[rng.integers(i.size)] = True
    table = np.column_stack((i[keep], j[keep], rng.uniform(0.0, 1.0, size=int(keep.sum()))))
    y = rng.normal(size=(n, draw(st.integers(min_value=1, max_value=2))))
    flip = rng.uniform(size=len(table)) < 0.5
    order = np.array(draw(st.permutations(range(len(table)))), dtype=int)
    other = table.copy()
    other[flip, :2] = other[flip, 1::-1]
    return y, table, other[order], order


def project(y, table):
    try:
        return global_if_project(y, table, max_iter=2000).tobytes()
    except NotConverged as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_flipped_and_permuted_table_projects_bit_for_bit(instance):
    y, table, other, order = instance
    result = project(y, table)
    assert project(y, other) == result
    # violations of the input, and of the projection when there is one
    for f in [y] + ([] if isinstance(result, str) else [np.frombuffer(result).reshape(y.shape)]):
        expected = count_violations(f, table)
        got = count_violations(f, other)
        assert set(got) == set(expected)
        rank = {(int(a), int(b)): r for r, (a, b) in enumerate(table[order, :2])}
        assert got == sorted(got, key=lambda v: rank[v[:2]])
