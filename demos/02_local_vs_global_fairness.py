"""Local smoothing vs the global Lipschitz projection on two clusters.

Two tight clusters sit far apart in feature space.  Graph smoothing is a
*local* notion of individual fairness: it equalizes outputs within each
cluster but deliberately leaves the cross-cluster gap alone (there are no
edges across).  The global projection baseline instead enforces a
Lipschitz bound on *every* pair, dragging the two clusters toward each
other.  The violation histogram makes the difference visible.

Run: python3 demos/02_local_vs_global_fairness.py
"""

import numpy as np

from fairsmooth import (
    FairMetricSpec,
    build_similarity_graph,
    constraints_from_distances,
    count_violations,
    global_if_project,
    violation_histogram,
)
from fairsmooth.laplacian import unnormalized_laplacian
from fairsmooth.smoother import smooth_closed_form

rng = np.random.default_rng(1)

# 20 + 20 one-dimensional points: clusters at 0 and 10, spread 0.1.
X = np.concatenate(
    [rng.normal(0.0, 0.1, size=20), rng.normal(10.0, 0.1, size=20)]
)[:, None]
# Base scores differ across clusters and are noisy within.
yhat = np.concatenate(
    [rng.normal(0.0, 1.0, size=20), rng.normal(5.0, 1.0, size=20)]
)

metric = FairMetricSpec("euclidean")
pairs = [
    (i, j, float(abs(X[i, 0] - X[j, 0])))
    for i in range(40)
    for j in range(i + 1, 40)
]

# --- local: graph smoothing with edges only inside clusters ------------
g = build_similarity_graph(X, metric, theta=1.0, tau=1.0)
L = unnormalized_laplacian(g)
f_local = smooth_closed_form(yhat, L, lam=1e6)
within = max(np.ptp(f_local[:20]), np.ptp(f_local[20:]))
print(f"graph smoothing: within-cluster spread {within:.1e}, "
      f"cross-cluster gap {abs(f_local[:20].mean() - f_local[20:].mean()):.2f}")

lipschitz = 0.1  # calibrated to the intra-cluster scale
hist = violation_histogram(f_local, pairs, lipschitz=lipschitz, num_bins=10)
print(f"violation histogram at L={lipschitz} (bin_lo, bin_hi, total, violated):")
for lo, hi, total, violated in hist:
    if total:
        print(f"  [{lo:5.2f}, {hi:5.2f})  {violated:4d} / {total:4d}")
print("-> zero violations at small fair distance (local fairness holds); "
      "all cross-cluster pairs violate the global bound.")

# --- global: project onto the full Lipschitz constraint set ------------
cons = constraints_from_distances(pairs, lipschitz=lipschitz)
f_global = global_if_project(yhat, cons, tol=1e-8)
print(f"\nglobal projection: remaining violations "
      f"{len(count_violations(f_global, cons, slack=1e-6))}, "
      f"cross-cluster gap {abs(f_global[:20].mean() - f_global[20:].mean()):.2f}, "
      f"distortion ||f - yhat|| = {np.linalg.norm(f_global - yhat):.2f} "
      f"(local: {np.linalg.norm(f_local - yhat):.2f})")
print("-> the global method satisfies every constraint but collapses the "
      "clusters toward each other, at much larger distortion.")
