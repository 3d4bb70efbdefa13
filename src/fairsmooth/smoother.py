"""Laplacian smoothing of model outputs.

The post-processing objective is

    g(f) = ||f - yhat||_F^2 + lambda * trace(f^T L f),

whose exact minimizer is f = (I + lambda * S)^{-1} yhat with S = (L + L^T)/2,
the operator's ``matrix``.  It is solved column-by-column with one shared
symmetric factorization or, for the unnormalized Laplacian, by a certified
preconditioned conjugate gradient on the sparse matrix, one column per
thread on up to min(K, usable cores) threads with results that do not
depend on the thread count.  Gauss-Seidel
coordinate descent covers random-walk instances too large to factorize,
and a single coordinate step extends the method to unseen points.

For probability outputs, the same quadratic solve runs in the
natural-parameter space eta_j = log(p_j / p_K): by the exponential-family
equivalence, quadratic smoothing of eta solves the KL-divergence smoothing
problem on the simplex.
The per-coordinate KL problem carries an internal lambda/2 factor; because
every unordered pair appears twice in the full objective, the user-facing
lambda of :func:`smooth_kl` plays exactly the same role as in the squared
mode.
"""

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
from scipy import linalg as sla
from scipy import sparse

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidSimplexRow,
    NotConverged,
    NotPositiveDefinite,
)
from .graph import SimilarityGraph, average_degree
from .laplacian import (
    KINDS,
    NORMALIZED_RW,
    UNNORMALIZED,
    LaplacianOperator,
    apply_symmetrized,
    make_laplacian,
)
from .metric import check_outputs, check_type, restore_shape

# probabilities are clamped to this floor before taking logs; the KL
# objective is undefined at the simplex boundary
PROB_EPS = 1e-12
SIMPLEX_TOL = 1e-6

# beyond this size the dense factorization is off the table: the
# unnormalized kind is solved by conjugate gradient and the random-walk kind
# falls back to coordinate descent; _solve reads it at call time
DENSE_LIMIT = 10_000

# conjugate gradient raises NotConverged after this many times its textbook
# iteration bound (see _cg_iteration_bound)
CG_ITERATION_CAP = 10

# the values SmoothingConfig accepts, and the CLI's choices
MODES = ("closed_form", "coordinate_descent")
DISCREPANCIES = ("squared", "kl")


def _check_lambda(lam) -> None:
    if not 0 <= check_type(lam, "lambda", float) < np.inf:
        raise InvalidParameter(f"lambda must be finite and >= 0, got {lam}")


def _check_epochs(epochs) -> None:
    if not check_type(epochs, "epochs", int) >= 1:
        raise InvalidParameter("epochs must be >= 1")


def _check_seed(seed) -> None:
    if not check_type(seed, "seed", int) >= 0:
        raise InvalidParameter(f"seed must be an integer >= 0, got {seed!r}")


def _check_tolerance(tolerance) -> None:
    if not check_type(tolerance, "tolerance", float) > 0:
        raise InvalidParameter("tolerance must be positive")


@dataclass(frozen=True)
class SmoothingConfig:
    """Parameters of a smoothing run; mirrors the JSON config file.

    The JSON keys are the field names, with ``lambda`` for ``lam``.
    Construction, ``dataclasses.replace`` included, checks every field's
    type and value and raises InvalidParameter.
    ``tolerance`` bounds the certified residual max |f - y + lambda S f|,
    S = ``L.matrix``, of every output column k, relative to
    max(1, ||y_k||_inf), for every solver: conjugate gradient and coordinate
    descent stop once it holds, and ``converged`` reports whether it does.
    """

    lam: float = 1.0
    laplacian_kind: str = UNNORMALIZED
    mode: str = "closed_form"  # one of MODES
    epochs: int = 10
    seed: int = 0
    discrepancy: str = "squared"  # one of DISCREPANCIES
    nrw_lambda_scaling: bool = True
    tolerance: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            check_type(getattr(self, f.name), f.name, f.type)
        _check_lambda(self.lam)
        if self.laplacian_kind not in KINDS:
            raise InvalidParameter(f"unknown laplacian kind {self.laplacian_kind!r}")
        if self.mode not in MODES:
            raise InvalidParameter(f"unknown mode {self.mode!r}")
        _check_epochs(self.epochs)
        _check_seed(self.seed)
        if self.discrepancy not in DISCREPANCIES:
            raise InvalidParameter(f"unknown discrepancy {self.discrepancy!r}")
        if self.discrepancy == "kl" and self.laplacian_kind != UNNORMALIZED:
            raise InvalidParameter("kl discrepancy requires the unnormalized laplacian")
        _check_tolerance(self.tolerance)


def smooth_closed_form(yhat: np.ndarray, L: LaplacianOperator, lam: float) -> np.ndarray:
    """Exact minimizer (I + lambda * S)^{-1} yhat, S = ``L.matrix``.

    One Cholesky factorization, in place in the one n x n array that holds
    I + lambda * S, is shared across all output columns.  Raises
    NotPositiveDefinite if I + lambda * S fails to factorize (possible for
    the symmetrized random-walk kind on pathological graphs).
    """
    _check_lambda(lam)
    y = check_outputs(yhat, L.n)
    if lam == 0.0:
        return restore_shape(y.copy(), yhat)
    # np.eye(n) + lam * S.toarray() bit for bit: + 0.0 turns an underflowed
    # -0.0 into the 0.0 of the identity.  S is symmetric bit for bit, so A.T
    # is A in Fortran order, which cho_factor overwrites without a copy
    A = L.matrix.toarray()
    A *= lam
    A += 0.0
    A[np.diag_indices(L.n)] += 1.0
    try:
        factor = sla.cho_factor(A.T, lower=True, overwrite_a=True, check_finite=False)
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
    kappa = _diagonal_bound(L, lam, "conjugate-gradient bound", scale=2.0)
    return math.ceil(0.5 * math.sqrt(kappa) * math.log(2.0 / tolerance))


def _diagonal_bound(L: LaplacianOperator, lam: float, what: str, scale: float = 1.0) -> float:
    """1 + scale * lambda * max_i L_ii; NotConverged, naming ``what``, if it overflows."""
    top = float(np.max(L.diagonal, initial=0.0))
    bound = 1.0 + scale * float(lam) * top
    if bound == math.inf:
        raise NotConverged(f"lambda {lam:g} times max L_ii {top:g} overflows the {what}")
    return bound


def _column_bounds(y: np.ndarray, tolerance: float) -> np.ndarray:
    """Certified residual bound tolerance * max(1, ||y_k||_inf) per column k."""
    return tolerance * np.maximum(1.0, np.max(np.abs(y), axis=0, initial=0.0))


def _column_residuals(y: np.ndarray, L: LaplacianOperator, lam: float, f: np.ndarray) -> np.ndarray:
    """max |f - y + lambda S f| per column of (n, K) tables, S = ``L.matrix``."""
    return np.max(np.abs(f - y + lam * apply_symmetrized(L, f)), axis=0, initial=0.0)


def smooth_conjugate_gradient(
    yhat: np.ndarray,
    L: LaplacianOperator,
    lam: float,
    tolerance: float,
    return_info: bool = False,
):
    """Certified minimizer (I + lambda * L)^{-1} yhat for the unnormalized kind.

    Jacobi-preconditioned conjugate gradient (preconditioner
    1 / (1 + lambda * L_ii)) solves each output column on its own in
    O(nnz(L)) + O(nK) memory, without forming I + lambda * L.  The columns
    run concurrently on up to min(K, usable cores) threads; each is its
    one-column solve bit for bit, whatever the thread count.  A column
    stops iterating once its recurrence residual meets its bound, and
    restarts if the recomputed residual r = f - yhat + lambda * L f does
    not satisfy ||r_k||_inf <= tolerance * max(1, ||yhat_k||_inf).
    I + lambda * (D - W) is strictly diagonally dominant with a margin of 1
    in every row, so ||(I + lambda * L)^{-1}||_inf <= 1 (Varah, 1975) and
    that residual bounds the error ||f - f*||_inf.  A column fails after
    CG_ITERATION_CAP times the iteration bound of ``_cg_iteration_bound``,
    a cap per column, or at once when it cannot take a step; once every
    column has finished, the lowest-index failure raises NotConverged.
    ``return_info`` adds the largest per-column iteration count and the
    certified residual max |f - yhat + lambda * L f|.
    """
    if L.kind != UNNORMALIZED:
        raise InvalidParameter("conjugate gradient requires the unnormalized laplacian")
    _check_lambda(lam)
    _check_tolerance(tolerance)
    y = check_outputs(yhat, L.n)
    if lam == 0.0 or y.size == 0:
        f, iterations, residual = y.copy(), 0, 0.0
    else:
        cap = CG_ITERATION_CAP * _cg_iteration_bound(L, lam, tolerance)
        inv_diag, bound = 1.0 / (1.0 + lam * L.diagonal), _column_bounds(y, tolerance)
        columns, counts, residuals = zip(*_each_column(
            lambda k: _pcg(k, np.ascontiguousarray(y[:, k]), L.matrix, inv_diag, lam, bound[k], cap), y.shape[1]
        ))
        f, iterations, residual = np.column_stack(columns), max(counts), max(residuals)
    out = restore_shape(f, yhat)
    if return_info:
        return out, {"iterations": iterations, "residual": residual}
    return out


def _each_column(solve, K):
    """[solve(0), ..., solve(K - 1)], column 0 on the calling thread and the
    others on min(K, usable cores) - 1 workers, each in a copy of the caller's
    context (NumPy's error state); all finish before any exception propagates."""
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(K, len(affinity(0)) if affinity else os.cpu_count() or 1) - 1
    if not workers:
        return [solve(k) for k in range(K)]
    with ThreadPoolExecutor(workers) as pool:
        rest = [pool.submit(contextvars.copy_context().run, solve, k) for k in range(1, K)]
        return [solve(0)] + [column.result() for column in rest]


def _pcg(k, y, A, inv_diag, lam, bound, cap):
    """Jacobi-preconditioned CG on column k from f = y; returns (f, iterations,
    max |y - f - lambda * A f|).  A column whose r.z is not a normal positive
    number (an all-zero column, a residual near underflow) takes no step, so
    no 0/0 or overflow reaches f; a step whose p.Ap is not one adds 0 * p,
    which turns a -0.0 entry of f into +0.0, and ends the inner loop."""
    tiny = np.finfo(float).tiny
    f, iterations = y.copy(), 0
    while True:
        r = y - f - lam * (A @ f)
        residual = float(np.max(np.abs(r), initial=0.0))
        # written so that a NaN residual never passes
        if residual <= bound:
            return f, iterations, residual
        z = inv_diag * r
        rz = np.sum(r * z)
        if iterations >= cap or not rz >= tiny:
            raise NotConverged(f"conjugate gradient column {k}: residual {residual:.3g} above its bound "
                               f"{bound:.3g} after {iterations} iterations")
        p = z
        while iterations < cap:
            q = p + lam * (A @ p)
            pq = np.sum(p * q)
            alpha = rz / pq if pq >= tiny else 0.0
            f += alpha * p
            r -= alpha * q
            iterations += 1
            z = inv_diag * r
            rz_next = np.sum(r * z)
            if not (pq >= tiny and np.max(np.abs(r)) > bound and rz_next >= tiny):
                break
            p = z + (rz_next / rz) * p
            rz = rz_next


def _cd_sweeps(
    y: np.ndarray,
    L: LaplacianOperator,
    lam: float,
    epochs: int,
    seed: int,
    tolerance: float,
):
    """Run Gauss-Seidel epochs on S = ``L.matrix`` until f meets the
    certificate of ``_solve``; returns (f, epochs_used, last_max_change).
    NotConverged, before the first sweep, if 1 + lambda max_i L_ii overflows."""
    _diagonal_bound(L, lam, "coordinate-descent update")
    n, S, diag = y.shape[0], L.matrix, L.diagonal
    denom = 1.0 + lam * diag  # >= 1: the diagonal is a degree, or 0 or 1
    f = y.copy()
    # Python scalars and take() cut the per-coordinate overhead; the
    # arithmetic, and so every bit of f, is unchanged
    indptr, indices, data = S.indptr.tolist(), S.indices.astype(np.intp), S.data
    diag, denom = diag.tolist(), denom.tolist()
    rng = np.random.default_rng(seed)
    bound = _column_bounds(y, tolerance)
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
        last_change = np.fmax.reduce(np.abs(f - start), axis=None, initial=0.0)
        epochs_used = epoch + 1
        # written so that a NaN residual never passes
        if np.all(_column_residuals(y, L, lam, f) <= bound):
            break
    return f, epochs_used, last_change


def smooth_coordinate_descent(
    yhat: np.ndarray, L: LaplacianOperator, lam: float, *, epochs: int, seed: int, tolerance: float,
    return_info: bool = False,
):
    """Coordinate-descent minimizer of the smoothing objective at ``lam``.

    Gauss-Seidel epochs on S = ``L.matrix``, each in a ``seed``-determined random
    order, run until the residual max |f - yhat + lambda S f| of every column k
    is at most ``tolerance`` * max(1, ||yhat_k||_inf), or ``epochs`` have run;
    ``return_info`` adds ``epochs_used`` and ``last_max_change``, the largest
    coordinate change of the last epoch.
    """
    _check_lambda(lam)
    _check_epochs(epochs)
    _check_seed(seed)
    _check_tolerance(tolerance)
    y = check_outputs(yhat, L.n)
    f, epochs_used, last_change = _cd_sweeps(y, L, lam, epochs, seed, tolerance)
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
    and -w_j off the diagonal.  Weights must be >= 0, as in a similarity
    graph: a negative one raises InvalidParameter, at the cost of one pass
    over the stored weights.
    ``yhat_new`` has one entry per column of an (n, K) ``f_fixed``, and one
    entry for a vector, for which the result is a scalar.
    """
    _check_lambda(lam)
    if sparse.issparse(new_weights):
        row = new_weights.tocsr()
        stored = row.data
        w = row.toarray().astype(float, copy=False).ravel()
    else:
        w = stored = np.asarray(new_weights, dtype=float)
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
    if y_new.shape != f.shape[1:]:
        raise DimensionMismatch(f"yhat_new has shape {y_new.shape}, expected {f.shape[1]} entries")
    # -inf, like NaN and +inf, is left to the result check below
    low = stored.min(initial=0.0)
    if -np.inf < low < 0:
        raise InvalidParameter(f"weights must be >= 0, got {low}")
    # a NaN or infinite weight, fitted output or yhat_new reaches the K
    # results, so checking them costs O(K), not another pass over n; the
    # check stands in for NumPy's warnings.  With lambda and the weights
    # >= 0 the denominator is at least 1.
    with np.errstate(all="ignore"):
        out = (y_new + lam * (w @ f)) / (1.0 + lam * float(w.sum()))
    if not np.isfinite(out).all():
        raise InvalidParameter("inductive update is not finite: a weight, fitted output or yhat_new is NaN or inf")
    return out[0] if squeeze else out


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
    problem on the simplex.  An uncertified solve raises NotConverged.
    """
    if L_un.kind != UNNORMALIZED:
        raise InvalidParameter("kl smoothing requires the unnormalized laplacian")
    eta = to_natural_params(np.atleast_2d(yhat_probs))
    f, info = _solve(eta, L_un, lam, SmoothingConfig(lam=lam))
    if not info["converged"]:
        raise NotConverged(f"{info['solver']} left residual {info['residual']:.3g} above its bound {SmoothingConfig.tolerance:.3g}")
    return from_natural_params(f)


def kl_coordinate_update(
    p_target: np.ndarray,
    neighbor_probs: np.ndarray,
    weights: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Exact minimizer of one per-coordinate KL smoothing problem.

    Minimizes KL(P_y || P_target) + (lambda/2) * sum_j w_j KL(P_y || P_j)
    over the simplex.  In natural parameters this is the inductive update
    at lambda/2 with the neighbours held fixed, mapped back through the
    softmax.
    """
    _check_lambda(lam)
    eta_hat = to_natural_params(np.asarray(p_target, dtype=float))
    etas = to_natural_params(np.atleast_2d(neighbor_probs))
    return from_natural_params(inductive_update(etas, weights, eta_hat, lam / 2))


# -- high-level driver ------------------------------------------------------

def run_smoothing(yhat: np.ndarray, g: SimilarityGraph, config: SmoothingConfig):
    """Build the Laplacian, apply lambda conventions, and smooth.

    Returns (outputs, metadata); squared-mode outputs have the shape of
    ``yhat``, one-dimensional included.  For the normalized random-walk
    kind the user lambda is multiplied by the average graph degree
    (recorded in the metadata as ``effective_lambda``).  The kl discrepancy
    runs the same quadratic solve on natural parameters.

    ``mode="closed_form"`` solves exactly.  The unnormalized kind uses the
    dense Cholesky factorization only when n <= ``DENSE_LIMIT`` and its
    n^3/3 + 2 n^2 K flops are at most the conjugate-gradient bound
    it * (2 nnz(L) + 10 n) * K (``it`` from ``_cg_iteration_bound``), and
    certified conjugate gradient otherwise.  The random-walk kind uses the
    Cholesky factorization up to ``DENSE_LIMIT`` and falls back to
    coordinate descent above it, noted as ``fallback_to_cd``; an indefinite
    I + lambda * S, S = ``L.matrix``, raises NotPositiveDefinite.  The
    metadata names the ``solver`` that ran, its ``iterations`` (the largest
    per-column CG iteration count, CD epochs, 0 for Cholesky), the
    ``residual`` max |f - y + lambda S f| and whether it ``converged``:
    |r_k| <= tolerance * max(1, |y_k|) in every column k.
    A result that did not converge is returned, flagged; conjugate gradient
    raises NotConverged instead.
    """
    L = make_laplacian(g, config.laplacian_kind)
    lam = config.lam
    if config.laplacian_kind == NORMALIZED_RW and config.nrw_lambda_scaling:
        # lambda 0 asks for f = yhat, even where the average degree overflows;
        # lam * 0.0 has the type and sign that lam * avg has
        with np.errstate(over="ignore"):
            avg = average_degree(g)
            lam = lam * (avg if lam else 0.0)
        if not math.isfinite(lam):
            raise NotConverged(f"lambda {config.lam:g} times the average degree overflows")
    kl = config.discrepancy == "kl"
    y = to_natural_params(np.atleast_2d(yhat)) if kl else check_outputs(yhat, L.n)
    f, info = _solve(y, L, lam, config)
    meta = {
        "mode": config.mode,
        "discrepancy": config.discrepancy,
        "laplacian_kind": config.laplacian_kind,
        "lambda": config.lam,
        "effective_lambda": lam,
        **info,
    }
    return (from_natural_params(f) if kl else restore_shape(f, yhat)), meta


def _solve(y, L, lam, config):
    """Pick, run and certify the solver of (I + lam S) f = y by the rule
    in run_smoothing; solvers are called through the module globals, where
    tracers wrap them.  Returns (f, info) for an (n, K) table y."""
    n, k = y.shape
    if config.mode == "coordinate_descent":
        solver = "coordinate_descent"
    elif L.kind == UNNORMALIZED:
        it = _cg_iteration_bound(L, lam, config.tolerance)
        cholesky_flops = n**3 / 3 + 2 * n * n * k
        cg_flops = it * (2 * L.matrix.nnz + 10 * n) * k
        solver = "cholesky" if n <= DENSE_LIMIT and cholesky_flops <= cg_flops else "cg"
    else:
        solver = "cholesky" if n <= DENSE_LIMIT else "coordinate_descent"
    fallback = solver == "coordinate_descent" and config.mode == "closed_form"
    info = {"solver": solver, "fallback_to_cd": fallback, "iterations": 0}
    if fallback:
        info["fallback_reason"] = f"n={n} exceeds dense limit {DENSE_LIMIT}"
    if solver == "cg":
        f, cg = smooth_conjugate_gradient(y, L, lam, config.tolerance, return_info=True)
        # CG certified f by its recomputed residual, which is -r bit for bit
        return f, {**info, **cg, "converged": True}
    if solver == "cholesky":
        f = smooth_closed_form(y, L, lam)
    else:
        f, cd = smooth_coordinate_descent(
            y, L, lam, epochs=config.epochs, seed=config.seed, tolerance=config.tolerance, return_info=True
        )
        info["iterations"] = cd["epochs_used"]
    r = _column_residuals(y, L, lam, f)
    info["residual"] = float(np.max(r, initial=0.0))
    info["converged"] = bool(np.all(r <= _column_bounds(y, config.tolerance)))
    return f, info
