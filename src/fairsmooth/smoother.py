"""Laplacian smoothing of model outputs.

The post-processing objective is

    g(f) = ||f - yhat||_F^2 + lambda * trace(f^T L f),

whose exact minimizer is f = (I + lambda * (L + L^T)/2)^{-1} yhat, solved
column-by-column with one shared symmetric factorization or, for the
unnormalized Laplacian, by a certified preconditioned conjugate gradient on
the sparse matrix.  A Gauss-Seidel coordinate-descent solver covers
random-walk instances too large to factorize, and a single coordinate step
extends the method to unseen points.

For probability outputs, the same quadratic solve runs in the
natural-parameter space eta_j = log(p_j / p_K): by the exponential-family
equivalence, quadratic smoothing of eta solves the KL-divergence smoothing
problem on the simplex.
The per-coordinate KL problem carries an internal lambda/2 factor; because
every unordered pair appears twice in the full objective, the user-facing
lambda of :func:`smooth_kl` plays exactly the same role as in the squared
mode.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy import linalg as sla
from scipy import sparse

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidSimplexRow,
    NotConverged,
    NotPositiveDefinite,
    ZeroDenominator,
)
from .graph import SimilarityGraph, average_degree
from .laplacian import (
    KINDS,
    NORMALIZED_RW,
    UNNORMALIZED,
    LaplacianOperator,
    apply_symmetrized,
    make_laplacian,
    quadratic_form,
)
from .metric import check_outputs, restore_shape

# probabilities are clamped to this floor before taking logs; the KL
# objective is undefined at the simplex boundary
PROB_EPS = 1e-12
SIMPLEX_TOL = 1e-6

# beyond this size the dense factorization is off the table: the
# unnormalized kind is solved by conjugate gradient and the random-walk kind
# falls back to coordinate descent
DEFAULT_DENSE_LIMIT = 10_000

# conjugate gradient raises NotConverged after this many times its textbook
# iteration bound (see _cg_iteration_bound)
CG_ITERATION_CAP = 10

# the values SmoothingConfig accepts, and the CLI's choices
MODES = ("closed_form", "coordinate_descent")
DISCREPANCIES = ("squared", "kl")

# config fields declared int or float accept any integral or real number
# (numpy scalars included), never a bool
_NUMBER_TYPES = {int: numbers.Integral, float: numbers.Real}


def _check_lambda(lam) -> None:
    if not 0 <= lam < np.inf:
        raise InvalidParameter(f"lambda must be finite and >= 0, got {lam}")


@dataclass(frozen=True)
class SmoothingConfig:
    """Parameters of a smoothing run; mirrors the JSON config file.

    The JSON keys are the field names, with ``lambda`` for ``lam``.
    Construction, ``dataclasses.replace`` included, checks every field's
    type and value and raises InvalidParameter.
    ``tolerance`` bounds the certified residual, relative to
    max(1, ||y_k||_inf), of conjugate gradient and of the ``converged`` flag,
    and is the largest coordinate change at which coordinate descent stops.
    """

    lam: float = 1.0
    laplacian_kind: str = UNNORMALIZED
    mode: str = "closed_form"  # one of MODES
    epochs: int = 10
    seed: int = 0
    discrepancy: str = "squared"  # one of DISCREPANCIES
    nrw_lambda_scaling: bool = True
    tolerance: float = 1e-9
    dense_limit: int = DEFAULT_DENSE_LIMIT

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) != (f.type is bool) or not isinstance(
                value, _NUMBER_TYPES.get(f.type, f.type)
            ):
                raise InvalidParameter(
                    f"{f.name} must be of type {f.type.__name__}, got {value!r}"
                )
        _check_lambda(self.lam)
        if self.laplacian_kind not in KINDS:
            raise InvalidParameter(f"unknown laplacian kind {self.laplacian_kind!r}")
        if self.mode not in MODES:
            raise InvalidParameter(f"unknown mode {self.mode!r}")
        if self.epochs < 1:
            raise InvalidParameter("epochs must be >= 1")
        if self.discrepancy not in DISCREPANCIES:
            raise InvalidParameter(f"unknown discrepancy {self.discrepancy!r}")
        if self.discrepancy == "kl" and self.laplacian_kind != UNNORMALIZED:
            raise InvalidParameter("kl discrepancy requires the unnormalized laplacian")
        if not self.tolerance > 0:
            raise InvalidParameter("tolerance must be positive")
        if self.dense_limit < 0:
            raise InvalidParameter("dense_limit must be >= 0")


def objective(yhat: np.ndarray, L: LaplacianOperator, lam: float, f: np.ndarray) -> float:
    """The smoothing objective g(f) = ||f - yhat||_F^2 + lambda tr(f^T L f)."""
    y = check_outputs(yhat, L.n)
    fv = check_outputs(f, L.n)
    return float(np.sum((fv - y) ** 2) + lam * quadratic_form(L, fv))


def smooth_closed_form(yhat: np.ndarray, L: LaplacianOperator, lam: float) -> np.ndarray:
    """Exact minimizer (I + lambda * sym(L))^{-1} yhat.

    One Cholesky factorization is shared across all output columns.  Raises
    NotPositiveDefinite if I + lambda * sym(L) fails to factorize (possible
    for the symmetrized random-walk kind on pathological graphs).
    """
    _check_lambda(lam)
    y = check_outputs(yhat, L.n)
    if lam == 0.0:
        return restore_shape(y.copy(), yhat)
    A = np.eye(L.n) + lam * L.symmetrized().toarray()
    try:
        factor = sla.cho_factor(A, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(f"I + lambda*sym(L) is not positive definite: {exc}")
    return restore_shape(sla.cho_solve(factor, y, check_finite=False), yhat)


def _cg_iteration_bound(L: LaplacianOperator, lam: float, tolerance: float) -> int:
    """Textbook CG iteration count for I + lambda * L, L unnormalized.

    By Gershgorin the eigenvalues of I + lambda * (D - W) lie in
    [1, 1 + 2 lambda max_i L_ii], and CG cuts the energy-norm error by at
    least 2 exp(-2 it / sqrt(kappa)) (Saad, *Iterative Methods for Sparse
    Linear Systems*, sec. 6.11), below ``tolerance`` after this many steps.
    """
    kappa = 1.0 + 2.0 * lam * float(np.max(L.diagonal, initial=0.0))
    return math.ceil(0.5 * math.sqrt(kappa) * math.log(2.0 / tolerance))


def _column_bounds(y: np.ndarray, tolerance: float) -> np.ndarray:
    """Certified residual bound tolerance * max(1, ||y_k||_inf) per column k."""
    return tolerance * np.maximum(1.0, np.max(np.abs(y), axis=0, initial=0.0))


def smooth_conjugate_gradient(
    yhat: np.ndarray,
    L: LaplacianOperator,
    lam: float,
    tolerance: float,
    return_info: bool = False,
):
    """Certified minimizer (I + lambda * L)^{-1} yhat for the unnormalized kind.

    Jacobi-preconditioned conjugate gradient (preconditioner
    1 / (1 + lambda * L_ii)) runs all output columns in lockstep, one sparse
    product ``L.matrix @ p_k`` per column still iterating, without forming
    I + lambda * L.  The columns never mix: each column of a K-column
    solve is its one-column solve bit for bit (the iteration cap is shared).
    A column stops iterating once its recurrence residual meets its bound;
    the result is returned only when the recomputed residual
    r = f - yhat + lambda * L f satisfies
    ||r_k||_inf <= tolerance * max(1, ||yhat_k||_inf) in every column k.
    I + lambda * (D - W) is strictly diagonally dominant with a margin of 1
    in every row, so ||(I + lambda * L)^{-1}||_inf <= 1 (Varah, 1975) and
    that residual bounds the error ||f - f*||_inf.  Columns that fail the
    recomputed test restart from it.  NotConverged is raised after
    CG_ITERATION_CAP times the iteration bound of ``_cg_iteration_bound``,
    or at once when no failing column can take a step.
    With ``return_info`` the lockstep iteration count and the certified
    residual max |f - yhat + lambda * L f| are returned as well.
    """
    if L.kind != UNNORMALIZED:
        raise InvalidParameter("conjugate gradient requires the unnormalized laplacian")
    _check_lambda(lam)
    if not tolerance > 0:
        raise InvalidParameter("tolerance must be positive")
    y = check_outputs(yhat, L.n)
    if lam == 0.0:
        f, iterations, residual = y.copy(), 0, 0.0
    else:
        cap = CG_ITERATION_CAP * _cg_iteration_bound(L, lam, tolerance)
        f, iterations, residual = _pcg(y, L.matrix, L.diagonal, lam, _column_bounds(y, tolerance), cap)
    out = restore_shape(f, yhat)
    if return_info:
        return out, {"iterations": iterations, "residual": residual}
    return out


def _pcg(y, A, diag, lam, bound, cap):
    """Jacobi-preconditioned CG from f = y; returns (f, iterations, residual).

    ``residual`` is max |y - f - lambda * A f|, recomputed for the returned f.

    The iterates are (K, n) arrays, one contiguous row per output column,
    so every per-column reduction runs along a contiguous axis and L is
    applied one column at a time.  Columns whose residual is within
    ``bound``, or whose r.z or p.Ap is no longer a normal positive number
    (an all-zero column from the start, a residual near underflow later),
    are frozen with a zero search direction, so no 0/0 or overflow reaches
    f; L is not applied to them.
    """
    inv_diag = 1.0 / (1.0 + lam * diag)
    tiny = np.finfo(float).tiny
    y = np.ascontiguousarray(y.T)
    f = y.copy()
    iterations = 0
    while True:
        r = np.empty_like(f)
        for k in range(len(f)):
            r[k] = y[k] - f[k] - lam * (A @ f[k])
        residual = np.max(np.abs(r), axis=1, initial=0.0)
        # written so that a NaN residual never passes
        failing = ~(residual <= bound)
        if not failing.any():
            return np.ascontiguousarray(f.T), iterations, float(np.max(residual, initial=0.0))
        z = inv_diag * r
        rz = np.sum(r * z, axis=1)
        active = failing & (rz >= tiny)
        if iterations >= cap or not active.any():
            raise NotConverged(
                f"conjugate gradient residual {np.max(residual):.3g} above its bound after {iterations} iterations"
            )
        p = np.where(active[:, None], z, 0.0)
        while active.any() and iterations < cap:
            # a frozen column's p is +0, and so is its p + lambda * L p;
            # its f is left as it is, so a -0.0 entry stays -0.0
            stepping = active.copy()
            q = np.zeros_like(p)
            for k in np.flatnonzero(stepping):
                q[k] = p[k] + lam * (A @ p[k])
            pq = np.sum(p * q, axis=1)
            active &= pq >= tiny
            alpha = np.divide(rz, pq, out=np.zeros_like(rz), where=active)[:, None]
            np.add(f, alpha * p, out=f, where=stepping[:, None])
            r -= alpha * q
            iterations += 1
            np.multiply(inv_diag, r, out=z)
            rz_next = np.sum(r * z, axis=1)
            active &= (np.max(np.abs(r), axis=1) > bound) & (rz_next >= tiny)
            beta = np.divide(rz_next, rz, out=np.zeros_like(rz), where=active)[:, None]
            p = np.where(active[:, None], z + beta * p, 0.0)
            rz = rz_next


def _cd_sweeps(
    y: np.ndarray,
    S: sparse.csr_matrix,
    lam: float,
    epochs: int,
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
    # Python scalars and take() cut the per-coordinate overhead; the
    # arithmetic, and so every bit of f, is unchanged
    indptr, indices, data = S.indptr.tolist(), S.indices.astype(np.intp), S.data
    diag, denom = diag.tolist(), denom.tolist()
    rng = np.random.default_rng(seed)
    last_change = np.inf
    epochs_used = 0
    for epoch in range(epochs):
        start = f.copy()
        for i in rng.permutation(n).tolist():
            lo, hi = indptr[i], indptr[i + 1]
            row = data[lo:hi] @ f.take(indices[lo:hi], axis=0) - diag[i] * f[i]
            f[i] = (y[i] - lam * row) / denom[i]
        # every coordinate moved once, from its value at the start of the
        # epoch; fmax ignores a NaN change, so it cannot hide the others
        max_change = np.fmax.reduce(np.abs(f - start), axis=None, initial=0.0)
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
    y = check_outputs(yhat, L.n)
    S = L.symmetrized()
    f, epochs_used, last_change = _cd_sweeps(
        y, S, config.lam, config.epochs, config.seed, config.tolerance
    )
    out = restore_shape(f, yhat)
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
    _check_lambda(lam)
    if sparse.issparse(new_weights):
        w = new_weights.toarray().astype(float, copy=False).ravel()
    else:
        w = np.asarray(new_weights, dtype=float)
    f = np.asarray(f_fixed, dtype=float)
    if f.ndim not in (1, 2):
        raise DimensionMismatch(f"fitted outputs have shape {f.shape}, expected a vector or an (n, K) array")
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    if w.shape[0] != f.shape[0]:
        raise DimensionMismatch(
            f"{w.shape[0]} weights for {f.shape[0]} fixed outputs"
        )
    y_new = np.atleast_1d(np.asarray(yhat_new, dtype=float))
    # a NaN or infinite weight, fitted output or yhat_new reaches the K
    # results, so checking them costs O(K), not another pass over n; the
    # check stands in for NumPy's warnings
    with np.errstate(all="ignore"):
        denom = 1.0 + lam * float(w.sum())
        if denom <= 0:
            raise ZeroDenominator("1 + lambda*degree <= 0 for the new point")
        out = (y_new + lam * (w @ f)) / denom
    if not np.isfinite(out).all():
        raise InvalidParameter("inductive update is not finite: a weight, fitted output or yhat_new is NaN or inf")
    return out[0] if squeeze and out.size == 1 else out


# -- natural parameters and KL smoothing -----------------------------------

def _as_prob_rows(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    if p.ndim != 2 or p.shape[1] < 2:
        raise DimensionMismatch(f"expected probability rows with K >= 2, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        bad = int(np.nonzero(~np.all(np.isfinite(p), axis=1))[0][0])
        raise InvalidSimplexRow(f"row {bad} has a non-finite entry")
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

    Rows are mapped to natural parameters, quadratically smoothed by the
    solver :func:`run_smoothing` picks under ``SmoothingConfig`` defaults
    (dense Cholesky on small graphs, certified conjugate gradient on large
    or sparse ones), and mapped back; the result solves the KL smoothing
    problem on the simplex.
    """
    if L_un.kind != UNNORMALIZED:
        raise InvalidParameter("kl smoothing requires the unnormalized laplacian")
    eta = to_natural_params(np.atleast_2d(yhat_probs))
    f, _ = _solve(eta, L_un, SmoothingConfig(lam=lam), {})
    return from_natural_params(f)


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
    _check_lambda(lam)
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

    Returns (outputs, metadata); squared-mode outputs have the shape of
    ``yhat``, one-dimensional included.  For the normalized random-walk
    kind the user lambda is multiplied by the average graph degree
    (recorded in the metadata as ``effective_lambda``).  The kl discrepancy
    runs the same quadratic solve on natural parameters.

    ``mode="closed_form"`` solves exactly.  The unnormalized kind uses the
    dense Cholesky factorization only when n <= ``dense_limit`` and its
    n^3/3 + 2 n^2 K flops are at most the conjugate-gradient bound
    it * (2 nnz(L) + 10 n) * K (``it`` from ``_cg_iteration_bound``), and
    certified conjugate gradient otherwise.  The random-walk kind uses the
    Cholesky factorization up to ``dense_limit`` and falls back to
    coordinate descent above it, noted as ``fallback_to_cd``; an indefinite
    I + lambda * sym(L) raises NotPositiveDefinite.  The metadata names the
    ``solver`` that ran, its ``iterations`` (CG iterations, CD epochs, 0 for
    Cholesky), the ``residual`` max |f - y + lambda sym(L) f| and whether
    it ``converged``: |r_k| <= tolerance * max(1, |y_k|) in every column k.
    """
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
    kl = config.discrepancy == "kl"
    y = to_natural_params(np.atleast_2d(yhat)) if kl else check_outputs(yhat, L.n)
    f, meta = _solve(y, L, replace(config, lam=lam, nrw_lambda_scaling=False), meta)
    if meta["solver"] == "cg":
        # CG certified f by its recomputed residual, which is -r bit for bit
        meta["converged"] = True
    else:
        r = np.max(np.abs(f - y + lam * apply_symmetrized(L, f)), axis=0, initial=0.0)
        meta["residual"] = float(np.max(r, initial=0.0))
        meta["converged"] = bool(np.all(r <= _column_bounds(y, config.tolerance)))
    if kl:
        return from_natural_params(f), meta
    return restore_shape(f, yhat), meta


def _solver_for(y, L, config):
    """'cholesky', 'cg' or 'coordinate_descent', by the rule in run_smoothing."""
    n, k = y.shape
    if config.mode == "coordinate_descent":
        return "coordinate_descent"
    if L.kind == UNNORMALIZED:
        it = _cg_iteration_bound(L, config.lam, config.tolerance)
        cholesky_flops = n**3 / 3 + 2 * n * n * k
        cg_flops = it * (2 * L.matrix.nnz + 10 * n) * k
        return "cholesky" if n <= config.dense_limit and cholesky_flops <= cg_flops else "cg"
    return "cholesky" if n <= config.dense_limit else "coordinate_descent"


def _solve(y, L, config, meta):
    solver = _solver_for(y, L, config)
    meta.update(solver=solver, epochs_used=0, iterations=0)
    if solver == "coordinate_descent" and config.mode == "closed_form":
        meta["fallback_to_cd"] = True
        meta["fallback_reason"] = f"n={L.n} exceeds dense limit {config.dense_limit}"
    if solver == "cholesky":
        # called through the module global, where tracers wrap it
        return smooth_closed_form(y, L, config.lam), meta
    if solver == "cg":
        f, info = smooth_conjugate_gradient(y, L, config.lam, config.tolerance, return_info=True)
    else:
        f, info = smooth_coordinate_descent(y, L, config, return_info=True)
        info["iterations"] = info["epochs_used"]
    meta.update(info)
    return f, meta
