"""Property test: conjugate gradient's certificate holds on random sparse graphs.

For any graph and lambda in [0, 1e3], the returned f satisfies
|f - y + lambda L f|_inf <= tolerance * max(1, |y|_inf) per column, evaluated
here with the dense Laplacian (plus the rounding of that evaluation), and
lambda -> 0 returns y: |f - y|_inf <= |lambda L f|_inf + the certificate,
with |L f|_inf <= 2 max_i L_ii |f|_inf and |f|_inf <= |y|_inf.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairsmooth import smooth_conjugate_gradient  # noqa: E402
from fairsmooth.graph import SimilarityGraph  # noqa: E402
from fairsmooth.laplacian import unnormalized_laplacian  # noqa: E402

TOL = 1e-9
EPS = np.finfo(float).eps


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    i, j = np.triu_indices(n, 1)
    keep = rng.uniform(size=i.size) < density
    weights = rng.uniform(1e-3, 1.0, size=int(keep.sum()))
    k = draw(st.integers(min_value=1, max_value=3))
    y = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(n, k))
    if draw(st.booleans()):
        y[:, 0] = 0.0
    return SimilarityGraph(n, i[keep], j[keep], weights), y


@settings(max_examples=150, deadline=None)
@given(instances(), st.floats(min_value=0.0, max_value=1e3))
def test_certificate_holds(instance, lam):
    g, y = instance
    L = unnormalized_laplacian(g)
    f = smooth_conjugate_gradient(y, L, lam, TOL)
    assert np.all(np.isfinite(f))
    dense = L.matrix.toarray()
    scale = 1.0 + 2.0 * lam * float(np.max(np.diag(dense), initial=0.0))
    y_inf = np.maximum(1.0, np.max(np.abs(y), axis=0))
    residual = np.max(np.abs(f - y + lam * (dense @ f)), axis=0)
    assert np.all(residual <= TOL * y_inf + 64 * EPS * scale * y_inf)


@settings(max_examples=60, deadline=None)
@given(instances(), st.floats(min_value=0.0, max_value=1e-6))
def test_small_lambda_returns_y(instance, lam):
    g, y = instance
    L = unnormalized_laplacian(g)
    f = smooth_conjugate_gradient(y, L, lam, TOL)
    if lam == 0.0:
        assert np.array_equal(f, y)
    max_diag = float(np.max(L.matrix.diagonal(), initial=0.0))
    y_inf = np.max(np.abs(y), axis=0)
    gap = np.max(np.abs(f - y), axis=0)
    assert np.all(gap <= 2 * lam * max_diag * (y_inf + TOL * np.maximum(1.0, y_inf)) + TOL * np.maximum(1.0, y_inf))
