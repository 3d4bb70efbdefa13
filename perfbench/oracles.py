"""Independent correctness checks for the benchmark.

Everything here is recomputed from the benchmark's own inputs with numpy and
scipy; nothing is read from the program's metadata.  Each check returns None
when the output passes and a short reason string when it does not.
"""

import hashlib

import numpy as np
from scipy import sparse

# ||f - y + lam * sym(L) f||_inf must stay below this share of max(1, ||y||_inf)
STATIONARITY_RTOL = 1e-8
SIMPLEX_ATOL = 1e-9


def adjacency(n, rows, cols, weights):
    """Symmetric sparse weight matrix from one-entry-per-pair edge arrays."""
    i = np.concatenate([rows, cols])
    j = np.concatenate([cols, rows])
    w = np.concatenate([weights, weights])
    return sparse.csr_matrix((w, (i, j)), shape=(n, n))


def sym_laplacian(W, kind):
    """(L + L^T) / 2 for the unnormalized or the random-walk Laplacian of W."""
    deg = np.asarray(W.sum(axis=1)).ravel()
    if kind == "unnormalized":
        return (sparse.diags(deg) - W).tocsr()
    pos = deg > 0
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[pos] = deg[pos] ** -0.5
    Wt = sparse.diags(inv_sqrt) @ W @ sparse.diags(inv_sqrt)
    td = np.asarray(Wt.sum(axis=1)).ravel()
    inv_td = np.zeros_like(td)
    inv_td[pos] = 1.0 / td[pos]
    L = sparse.diags(pos.astype(float)) - sparse.diags(inv_td) @ Wt
    return (0.5 * (L + L.T)).tocsr()


def effective_lambda(W, kind, lam):
    """The random-walk kind scales lambda by the average weighted degree."""
    if kind == "unnormalized":
        return lam
    return lam * float(np.asarray(W.sum(axis=1)).mean())


def residual(S, lam, y, f):
    """||f - y + lam * S f||_inf as a share of max(1, ||y||_inf); inf if f is not finite."""
    y = np.asarray(y, dtype=float).reshape(S.shape[0], -1)
    f = np.asarray(f, dtype=float).reshape(S.shape[0], -1)
    if not np.all(np.isfinite(f)):
        return float("inf")
    return float(np.max(np.abs(f - y + lam * (S @ f)))) / max(1.0, float(np.max(np.abs(y))))


def stationarity(S, lam, y, f):
    """Reason string unless f solves (I + lam * S) f = y to the set tolerance."""
    level = residual(S, lam, y, f)
    if level > STATIONARITY_RTOL:
        return f"relative stationarity residual {level:.3g} > {STATIONARITY_RTOL:.3g}"
    return None


def natural_params(p):
    p = np.asarray(p, dtype=float)
    return np.log(p[:, :-1]) - np.log(p[:, -1:])


def off_simplex(p_in, p_out):
    """Reason string unless p_out has p_in's shape and every row on the simplex."""
    p_out = np.asarray(p_out, dtype=float)
    if p_out.shape != np.shape(p_in):
        return f"output shape {p_out.shape} != input shape {np.shape(p_in)}"
    if np.any(p_out <= 0) or np.max(np.abs(p_out.sum(axis=1) - 1.0)) > SIMPLEX_ATOL:
        return "output row off the simplex"
    return None


def kl_stationarity(S, lam, p_in, p_out):
    """The KL solve is the squared solve in natural parameters, on the simplex."""
    return off_simplex(p_in, p_out) or stationarity(S, lam, natural_params(p_in), natural_params(p_out))


def pair_gaps(f, i, j):
    f = np.asarray(f, dtype=float).reshape(len(f), -1)
    return np.linalg.norm(f[i] - f[j], axis=1)


def constraints_hold(f, i, j, bounds, tol):
    """Reason string unless ||f_i - f_j|| <= bound + tol on every constrained pair."""
    excess = float(np.max(pair_gaps(f, i, j) - bounds, initial=0.0))
    if not excess <= tol:
        return f"constraint violated by {excess:.3g} > tol {tol:.3g}"
    return None


def violation_histogram(f, i, j, d, lipschitz, num_bins):
    """Reference histogram: equal-width distance bins, last bin closed."""
    violated = pair_gaps(f, i, j) > lipschitz * d
    dmax = float(d.max())
    which = np.minimum((d / dmax * num_bins).astype(int), num_bins - 1)
    edges = np.linspace(0.0, dmax, num_bins + 1)
    return [
        (float(edges[b]), float(edges[b + 1]), int(np.sum(which == b)),
         int(np.sum(violated & (which == b))))
        for b in range(num_bins)
    ]


def prediction_consistency(scores, group_of, is_original, threshold=0.5):
    """Share of groups whose members all get the original's thresholded class."""
    pred = np.asarray(scores, dtype=float).reshape(len(group_of), -1)[:, 0] >= threshold
    n_groups = int(group_of.max()) + 1
    orig = np.empty(n_groups, dtype=bool)
    orig[group_of[is_original]] = pred[is_original]
    agree = np.ones(n_groups, dtype=bool)
    np.logical_and.at(agree, group_of, pred == orig[group_of])
    return float(np.mean(agree))


def float_tokens_ok(tokens):
    """Every token is the 17-significant-digit rendering of its own value."""
    return all(tok == "%.17g" % float(tok) for tok in tokens)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
