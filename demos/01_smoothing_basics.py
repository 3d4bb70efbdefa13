"""Laplacian smoothing walkthrough: graph, closed form, coordinate descent.

Builds a similarity graph over a small synthetic embedding cloud, smooths
noisy scalar scores with both solvers, checks they agree, and finishes
with a one-step inductive update for an unseen point.

Run: python3 demos/01_smoothing_basics.py
"""

import numpy as np

from fairsmooth import (
    FairMetricSpec,
    SmoothingConfig,
    build_similarity_graph,
    inductive_update,
    run_smoothing,
)
from fairsmooth.laplacian import unnormalized_laplacian
from fairsmooth.metric import fair_distance
from fairsmooth.smoother import smooth_closed_form, smooth_coordinate_descent

rng = np.random.default_rng(0)

# Thirty individuals in a 2-d feature space; the "fair" metric here is a
# Mahalanobis form that discounts the second coordinate (treating it as
# mostly irrelevant to similarity).
X = rng.normal(size=(30, 2))
metric = FairMetricSpec("mahalanobis", sigma=np.diag([1.0, 0.1]))

# Noisy base-model scores: a smooth function of the first coordinate plus
# noise that an individually fair post-processor should iron out.
signal = np.tanh(X[:, 0])
yhat = signal + 0.3 * rng.normal(size=30)

g = build_similarity_graph(X, metric, theta=4.0, tau=0.5)
print(f"graph: n={g.n}, edges={g.num_edges}, "
      f"weights in [{g.weights.min():.3f}, {g.weights.max():.3f}]")

# Exact solution via the shared Cholesky factorization.
L = unnormalized_laplacian(g)
f_exact = smooth_closed_form(yhat, L, lam=1.0)

# Same problem via Gauss-Seidel coordinate descent.
f_cd, info = smooth_coordinate_descent(yhat, L, 1.0, epochs=500, seed=0, tolerance=1e-10, return_info=True)
print(f"coordinate descent: {info['epochs_used']} epochs, "
      f"last max change {info['last_max_change']:.1e}")
print(f"solver agreement (max norm): {np.max(np.abs(f_exact - f_cd)):.2e}")

# Smoothing pulls outputs toward the underlying smooth signal.
print(f"distance to noise-free signal: raw {np.linalg.norm(yhat - signal):.3f} "
      f"-> smoothed {np.linalg.norm(f_exact - signal):.3f}")

# The high-level driver also handles the normalized random-walk kind and
# reports the effective lambda after average-degree scaling.
nrw_config = SmoothingConfig(lam=1.0, laplacian_kind="normalized_random_walk")
f_nrw, meta = run_smoothing(yhat, g, nrw_config)
print(f"random-walk kind: effective lambda {meta['effective_lambda']:.3f} "
      f"(user lambda {meta['lambda']}), residual {meta['residual']:.1e}")

# Inductive extension: a brand-new point gets one coordinate step against
# the already-smoothed outputs -- no refit over the full graph.
x_new = np.array([0.2, -0.5])
d = np.array([fair_distance(metric, x_new, xi) for xi in X])
w_new = np.where(d <= 0.5, np.exp(-4.0 * d**2), 0.0)
y_new = float(np.tanh(x_new[0]) + 0.3 * rng.normal())
f_new = inductive_update(f_exact, w_new, y_new, lam=1.0)
print(f"new point: raw score {y_new:.3f} -> inductive update {float(f_new):.3f} "
      f"(signal {np.tanh(x_new[0]):.3f})")
