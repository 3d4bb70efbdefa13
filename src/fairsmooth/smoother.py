"""Laplacian smoothing of model outputs.

The post-processing objective is

    g(f) = ||f - yhat||_F^2 + lambda * trace(f^T L f),

whose exact minimizer is f = (I + lambda * (L + L^T)/2)^{-1} yhat, solved
column-by-column with one shared symmetric factorization.  A Gauss-Seidel
coordinate-descent solver covers instances too large to factorize, and a
single coordinate step extends the method to unseen points.

For probability outputs, smoothing is done in the natural-parameter space
eta_j = log(p_j / p_K): by the exponential-family equivalence, quadratic
smoothing of eta solves the KL-divergence smoothing problem on the simplex.
The per-coordinate KL problem carries an internal lambda/2 factor; because
every unordered pair appears twice in the full objective, the user-facing
lambda of :func:`smooth_kl` plays exactly the same role as in the squared
mode.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy import sparse

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidSimplexRow,
    NotPositiveDefinite,
    ZeroDenominator,
)
from .graph import SimilarityGraph, average_degree
from .laplacian import (
    NORMALIZED_RW,
    UNNORMALIZED,
    LaplacianOperator,
    apply_symmetrized,
    make_laplacian,
    quadratic_form,
)

# probabilities are clamped to this floor before taking logs; the KL
# objective is undefined at the simplex boundary
PROB_EPS = 1e-12
SIMPLEX_TOL = 1e-6

# beyond this size the dense factorization is off the table and coordinate
# descent is mandatory
DEFAULT_DENSE_LIMIT = 10_000


@dataclass(frozen=True)
class SmoothingConfig:
    """Parameters of a smoothing run; mirrors the JSON config file."""

    lam: float = 1.0
    laplacian_kind: str = UNNORMALIZED
    mode: str = "closed_form"  # or "coordinate_descent"
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0
    discrepancy: str = "squared"  # or "kl"
    nrw_lambda_scaling: bool = True
    tolerance: float = 1e-9
    dense_limit: int = DEFAULT_DENSE_LIMIT

    def validate(self) -> "SmoothingConfig":
        if self.lam < 0:
            raise InvalidParameter(f"lambda must be >= 0, got {self.lam}")
        if self.laplacian_kind not in (UNNORMALIZED, NORMALIZED_RW):
            raise InvalidParameter(f"unknown laplacian kind {self.laplacian_kind!r}")
        if self.mode not in ("closed_form", "coordinate_descent"):
            raise InvalidParameter(f"unknown mode {self.mode!r}")
        if self.epochs < 1:
            raise InvalidParameter("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidParameter("batch_size must be >= 1")
        if self.discrepancy not in ("squared", "kl"):
            raise InvalidParameter(f"unknown discrepancy {self.discrepancy!r}")
        if self.discrepancy == "kl" and self.laplacian_kind != UNNORMALIZED:
            raise InvalidParameter("kl discrepancy requires the unnormalized laplacian")
        if not self.tolerance > 0:
            raise InvalidParameter("tolerance must be positive")
        return self


def _as_outputs(yhat: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(yhat, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] != n:
        raise DimensionMismatch(f"outputs have shape {np.shape(yhat)}, expected {n} rows")
    if not np.all(np.isfinite(y)):
        raise InvalidParameter("outputs contain non-finite entries")
    return y


def objective(yhat: np.ndarray, L: LaplacianOperator, lam: float, f: np.ndarray) -> float:
    """The smoothing objective g(f) = ||f - yhat||_F^2 + lambda tr(f^T L f)."""
    y = _as_outputs(yhat, L.n)
    fv = _as_outputs(f, L.n)
    return float(np.sum((fv - y) ** 2) + lam * quadratic_form(L, fv))


def smooth_closed_form(yhat: np.ndarray, L: LaplacianOperator, lam: float) -> np.ndarray:
    """Exact minimizer (I + lambda * sym(L))^{-1} yhat.

    One Cholesky factorization is shared across all output columns.  Raises
    NotPositiveDefinite if I + lambda * sym(L) fails to factorize (possible
    for the symmetrized random-walk kind on pathological graphs).
    """
    if lam < 0:
        raise InvalidParameter(f"lambda must be >= 0, got {lam}")
    y = _as_outputs(yhat, L.n)
    squeeze = np.asarray(yhat).ndim == 1
    if lam == 0.0:
        out = y.copy()
        return out[:, 0] if squeeze else out
    A = np.eye(L.n) + lam * L.symmetrized().toarray()
    try:
        factor = sla.cho_factor(A, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(f"I + lambda*sym(L) is not positive definite: {exc}")
    out = sla.cho_solve(factor, y, check_finite=False)
    return out[:, 0] if squeeze else out


def _cd_sweeps(
    y: np.ndarray,
    S: sparse.csr_matrix,
    lam: float,
    epochs: int,
    batch_size: int,
    seed: int,
    tolerance: float,
):
    """Run Gauss-Seidel epochs; returns (f, epochs_used, last_max_change)."""
    n = y.shape[0]
    diag = S.diagonal()
    denom = 1.0 + lam * diag
    if np.any(denom <= 0):
        bad = int(np.nonzero(denom <= 0)[0][0])
        raise ZeroDenominator(f"1 + lambda*L_ii <= 0 at coordinate {bad}")
    f = y.copy()
    indptr, indices, data = S.indptr, S.indices, S.data
    rng = np.random.default_rng(seed)
    last_change = np.inf
    epochs_used = 0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        max_change = 0.0
        # batches structure the sweep; updates stay sequential within each
        for start in range(0, n, batch_size):
            for i in perm[start : start + batch_size]:
                lo, hi = indptr[i], indptr[i + 1]
                cols = indices[lo:hi]
                row = data[lo:hi] @ f[cols] - diag[i] * f[i]
                new = (y[i] - lam * row) / denom[i]
                change = np.max(np.abs(new - f[i]))
                if change > max_change:
                    max_change = change
                f[i] = new
        epochs_used = epoch + 1
        last_change = max_change
        if max_change < tolerance:
            break
    return f, epochs_used, last_change


def smooth_coordinate_descent(
    yhat: np.ndarray,
    L: LaplacianOperator,
    config: SmoothingConfig,
    return_info: bool = False,
):
    """Coordinate-descent minimizer of the smoothing objective.

    Coordinates are visited in a seed-determined random permutation per
    epoch, updated in place (Gauss-Seidel), and the sweep stops early once
    the largest coordinate change falls below the tolerance.
    """
    config = config.validate()
    y = _as_outputs(yhat, L.n)
    squeeze = np.asarray(yhat).ndim == 1
    S = L.symmetrized()
    f, epochs_used, last_change = _cd_sweeps(
        y, S, config.lam, config.epochs, config.batch_size, config.seed, config.tolerance
    )
    out = f[:, 0] if squeeze else f
    if return_info:
        return out, {"epochs_used": epochs_used, "last_max_change": float(last_change)}
    return out


def inductive_update(
    f_fixed: np.ndarray,
    new_weights: np.ndarray,
    yhat_new: np.ndarray,
    lam: float,
) -> np.ndarray:
    """One coordinate step for a new point, holding existing outputs fixed.

    ``new_weights`` are the similarity weights from the new point to the n
    existing points, as a dense vector or a 1 x n scipy sparse row; the
    induced unnormalized-Laplacian row has the weight sum on the diagonal
    and -w_j off the diagonal.
    """
    if lam < 0:
        raise InvalidParameter(f"lambda must be >= 0, got {lam}")
    if sparse.issparse(new_weights):
        w = new_weights.toarray().astype(float, copy=False).ravel()
    else:
        w = np.asarray(new_weights, dtype=float)
    f = np.asarray(f_fixed, dtype=float)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    if w.shape[0] != f.shape[0]:
        raise DimensionMismatch(
            f"{w.shape[0]} weights for {f.shape[0]} fixed outputs"
        )
    y_new = np.atleast_1d(np.asarray(yhat_new, dtype=float))
    deg = float(w.sum())
    denom = 1.0 + lam * deg
    if denom <= 0:
        raise ZeroDenominator("1 + lambda*degree <= 0 for the new point")
    out = (y_new + lam * (w @ f)) / denom
    return out[0] if squeeze and out.size == 1 else out


# -- natural parameters and KL smoothing -----------------------------------

def _as_prob_rows(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    if p.ndim != 2 or p.shape[1] < 2:
        raise DimensionMismatch(f"expected probability rows with K >= 2, got shape {p.shape}")
    if np.any(p < 0):
        bad = int(np.nonzero(np.any(p < 0, axis=1))[0][0])
        raise InvalidSimplexRow(f"row {bad} has a negative entry")
    sums = p.sum(axis=1)
    dev = np.abs(sums - 1.0)
    if np.any(dev > SIMPLEX_TOL):
        bad = int(np.argmax(dev))
        raise InvalidSimplexRow(f"row {bad} sums to {sums[bad]:.9f}, expected 1")
    return p


def to_natural_params(p: np.ndarray) -> np.ndarray:
    """Natural parameters eta_j = log(p_j / p_K), j = 1..K-1.

    Accepts a single simplex vector or a matrix of simplex rows; entries
    are clamped away from the boundary before the log.
    """
    arr = np.asarray(p, dtype=float)
    rows = _as_prob_rows(arr)
    clamped = np.clip(rows, PROB_EPS, 1.0)
    clamped /= clamped.sum(axis=1, keepdims=True)
    eta = np.log(clamped[:, :-1]) - np.log(clamped[:, -1:])
    return eta[0] if arr.ndim == 1 else eta


def from_natural_params(eta: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_natural_params`: softmax with implicit K-th logit 0."""
    arr = np.asarray(eta, dtype=float)
    e = arr[None, :] if arr.ndim == 1 else arr
    if e.ndim != 2:
        raise DimensionMismatch(f"expected natural-parameter rows, got shape {arr.shape}")
    if not np.all(np.isfinite(e)):
        raise InvalidParameter("natural parameters contain non-finite entries")
    logits = np.concatenate([e, np.zeros((e.shape[0], 1))], axis=1)
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    p = expl / expl.sum(axis=1, keepdims=True)
    return p[0] if arr.ndim == 1 else p


def smooth_kl(yhat_probs: np.ndarray, L_un: LaplacianOperator, lam: float) -> np.ndarray:
    """KL-divergence smoothing of probability rows on an unnormalized Laplacian.

    Rows are mapped to natural parameters, quadratically smoothed with the
    closed form, and mapped back; the result solves the KL smoothing
    problem on the simplex.
    """
    if L_un.kind != UNNORMALIZED:
        raise InvalidParameter("kl smoothing requires the unnormalized laplacian")
    probs = _as_prob_rows(np.asarray(yhat_probs, dtype=float))
    eta = to_natural_params(probs)
    eta_s = smooth_closed_form(eta, L_un, lam)
    return from_natural_params(eta_s)


def kl_coordinate_update(
    p_target: np.ndarray,
    neighbor_probs: np.ndarray,
    weights: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Exact minimizer of one per-coordinate KL smoothing problem.

    Minimizes KL(P_y || P_target) + (lambda/2) * sum_j w_j KL(P_y || P_j)
    over the simplex.  In natural parameters this is a weighted mean, then
    mapped back through the softmax.
    """
    eta_hat = to_natural_params(np.asarray(p_target, dtype=float))
    etas = to_natural_params(np.asarray(neighbor_probs, dtype=float))
    w = np.asarray(weights, dtype=float)
    if etas.ndim == 1:
        etas = etas[None, :]
    if w.shape[0] != etas.shape[0]:
        raise DimensionMismatch("one weight per neighbor row required")
    half = 0.5 * lam
    eta = (eta_hat + half * (w @ etas)) / (1.0 + half * w.sum())
    return from_natural_params(eta)


# -- high-level driver ------------------------------------------------------

def run_smoothing(yhat: np.ndarray, g: SimilarityGraph, config: SmoothingConfig):
    """Build the Laplacian, apply lambda conventions, and smooth.

    Returns (outputs, metadata).  For the normalized random-walk kind the
    user lambda is multiplied by the average graph degree (recorded in the
    metadata as ``effective_lambda``).  If the closed-form factorization
    fails, the solver falls back to coordinate descent and notes it.
    """
    config = config.validate()
    L = make_laplacian(g, config.laplacian_kind)
    lam = config.lam
    if config.laplacian_kind == NORMALIZED_RW and config.nrw_lambda_scaling:
        lam = lam * average_degree(g)
    meta = {
        "mode": config.mode,
        "discrepancy": config.discrepancy,
        "laplacian_kind": config.laplacian_kind,
        "lambda": config.lam,
        "effective_lambda": lam,
        "fallback_to_cd": False,
    }
    effective = SmoothingConfig(
        lam=lam,
        laplacian_kind=config.laplacian_kind,
        mode=config.mode,
        epochs=config.epochs,
        batch_size=config.batch_size,
        seed=config.seed,
        discrepancy=config.discrepancy,
        nrw_lambda_scaling=False,
        tolerance=config.tolerance,
        dense_limit=config.dense_limit,
    )

    if config.discrepancy == "kl":
        probs = _as_prob_rows(np.asarray(yhat, dtype=float))
        eta = to_natural_params(probs)
        eta_s, meta = _solve_squared(eta, L, effective, meta)
        out = from_natural_params(eta_s)
        meta["residual"] = float(
            np.max(np.abs(eta_s - eta + lam * apply_symmetrized(L, eta_s)))
        )
        return out, meta

    y = _as_outputs(yhat, L.n)
    f, meta = _solve_squared(y, L, effective, meta)
    meta["residual"] = float(np.max(np.abs(f - y + lam * apply_symmetrized(L, f))))
    return f, meta


def _solve_squared(y, L, config, meta):
    mode = config.mode
    if mode == "closed_form" and L.n > config.dense_limit:
        mode = "coordinate_descent"
        meta["fallback_to_cd"] = True
        meta["fallback_reason"] = f"n={L.n} exceeds dense limit {config.dense_limit}"
    if mode == "closed_form":
        try:
            f = smooth_closed_form(y, L, config.lam)
            meta["epochs_used"] = 0
            return f, meta
        except NotPositiveDefinite as exc:
            meta["fallback_to_cd"] = True
            meta["fallback_reason"] = str(exc)
    f, info = smooth_coordinate_descent(y, L, config, return_info=True)
    meta.update(info)
    return f, meta
