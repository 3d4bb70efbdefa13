"""Empirical verification of the asymptotic Laplacian limits.

Samples inputs uniformly from the unit cube, builds the all-pairs Gaussian
kernel graph with bandwidth sigma (normalization constant folded into the
weights), evaluates both scaled Laplacian quadratic forms

    (2 / (n^2 sigma^2)) f^T L_un f      and     (2 / (n sigma^2)) f^T L_nrw f,

and compares them against their analytic limits

    E[grad f(x)^T Sigma^{-1} grad f(x) p(x)]   and
    E[grad f(x)^T Sigma^{-1} grad f(x)],

which coincide for the uniform density.  Restricted to uniform-cube +
cosine target families where the integrals are exact.

The kernel is never held whole: it is formed 128 rows at a time, each
block of squared distances by one matrix product, and two passes over the
blocks give both functionals in O(n * 128) memory.
"""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import InvalidParameter, UnsupportedSpec
from .metric import check_type

TARGETS = ("cosine_product", "cosine_sum", "constant")
DEFAULT_SIGMA_EXPONENT = 1.0 / 6.0


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Synthetic data family for the convergence check; compared and
    hashed by identity."""

    dimension: int = 1
    target_function: str = "cosine_product"
    sigma_exponent: float = DEFAULT_SIGMA_EXPONENT
    dispersion: np.ndarray = None  # defaults to identity

    def __post_init__(self):
        if check_type(self.dimension, "dimension", int) < 1:
            raise InvalidParameter(f"dimension must be >= 1, got {self.dimension}")
        if self.target_function not in TARGETS:
            raise UnsupportedSpec(f"unsupported target function {self.target_function!r}")
        disp = np.eye(self.dimension) if self.dispersion is None else self.dispersion
        object.__setattr__(self, "dispersion", _check_dispersion(disp, self.dimension))
        validate_sigma_rule(self.sigma_exponent, self.dimension)

    def sigma_at(self, n: int) -> float:
        return float(n) ** (-self.sigma_exponent)


def _check_dispersion(dispersion, dimension: int) -> np.ndarray:
    """``dispersion`` as a float array, or InvalidParameter unless it is a
    finite, exactly symmetric, positive definite d x d matrix.  The kernel
    takes its cross term as 2 x_i^T Sigma x_j, which needs Sigma = Sigma^T."""
    disp = np.asarray(dispersion, dtype=float)
    if disp.shape != (dimension, dimension):
        raise InvalidParameter(f"dispersion must be {dimension}x{dimension}, got {disp.shape}")
    if not (np.all(np.isfinite(disp)) and np.array_equal(disp, disp.T)):
        raise InvalidParameter("dispersion must be finite and exactly symmetric")
    try:
        np.linalg.cholesky(disp)
    except np.linalg.LinAlgError:
        raise InvalidParameter("dispersion must be positive definite") from None
    return disp


def validate_sigma_rule(exponent: float, dimension: int) -> None:
    """Check the bandwidth rule sigma = n^{-e} against both rate hypotheses.

    The unnormalized limit needs n*sigma^2 -> inf (e < 1/2); the
    random-walk limit needs n*sigma^{d+4} / log(1/sigma) -> inf, which we
    accept up to the borderline rate e <= 1/(d+4).
    """
    if not check_type(exponent, "sigma_exponent", float) > 0:
        raise InvalidParameter(f"sigma exponent must be positive, got {exponent}")
    if not exponent < 0.5:
        raise InvalidParameter(
            f"sigma exponent {exponent} violates n*sigma^2 -> inf (needs e < 1/2)"
        )
    limit = 1.0 / (dimension + 4)
    if exponent > limit + 1e-12:
        raise InvalidParameter(
            f"sigma exponent {exponent} violates n*sigma^(d+4)/log(1/sigma) -> inf "
            f"(needs e <= {limit:.6g} at d={dimension})"
        )


def sample_inputs(spec: SyntheticSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform draws from the unit cube; deterministic given seed."""
    if check_type(n, "n", int) < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    if check_type(seed, "seed", int) < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, spec.dimension))


def target_values(spec: SyntheticSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if spec.target_function == "cosine_product":
        return np.prod(np.cos(np.pi * X), axis=1)
    if spec.target_function == "cosine_sum":
        return np.sum(np.cos(np.pi * X), axis=1)
    return np.zeros(X.shape[0])


# rows of the kernel held at once by the streamed functionals
KERNEL_BLOCK_ROWS = 128


def _kernel_rows(X: np.ndarray, sigma: float, dispersion: np.ndarray):
    """Yield (start, stop, W[start:stop, start:]) over row blocks of the kernel.

    W_ij = |Sigma|^{1/2} / ((2 pi)^{d/2} sigma^d)
           * exp(-(x_i - x_j)^T Sigma (x_i - x_j) / (2 sigma^2))
    for i < j; entries on and below the diagonal are zero, so each
    unordered pair is computed once and W + W^T is the symmetric kernel
    with a zero diagonal.

    Each block of squared distances is one matrix product,
    [x_i, q_i, 1] . [-2 Sigma x_j, 1, q_j] = q_i + q_j - 2 x_i^T Sigma x_j
    with q_i = x_i^T Sigma x_i, so BLAS never takes its slow inner
    dimension 1 path.  As a (d + 2)-term dot product it errs by at most
    gamma_{d+2} (q_i + q_j + 2 |x_i|^T |Sigma x_j|), gamma_k = k u / (1 - k u)
    for the unit roundoff u, on top of the rounding of Sigma x_j and q; the
    exponent then errs by that over 2 sigma^2, and max(., 0) keeps a
    cancelled distance from going negative.  At d = 1 OpenBLAS sums the
    three terms in order, so the squared distance is rounded exactly as
    x_i (-2 Sigma x_j) + q_i + q_j and coincident points give exactly the
    prefactor.
    """
    if not check_type(sigma, "sigma", float) > 0:
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    disp = _check_dispersion(dispersion, d)
    SX = X @ disp
    q = np.einsum("ij,ij->i", X, SX)
    ones = np.ones(n)
    left = np.column_stack([X, q, ones])
    right = np.column_stack([-2.0 * SX, ones, q])
    scale = np.sqrt(np.linalg.det(disp)) / ((2.0 * np.pi) ** (d / 2.0) * sigma**d)
    lower = np.tri(KERNEL_BLOCK_ROWS, dtype=bool)
    for start in range(0, n, KERNEL_BLOCK_ROWS):
        stop = min(start + KERNEL_BLOCK_ROWS, n)
        W = left[start:stop] @ right[start:].T
        np.maximum(W, 0.0, out=W)
        W *= -1.0 / (2.0 * sigma**2)
        np.exp(W, out=W)
        W *= scale
        rows = stop - start
        W[:, :rows][lower[:rows, :rows]] = 0.0
        yield start, stop, W


def kernel_weights(X: np.ndarray, sigma: float, dispersion: np.ndarray) -> np.ndarray:
    """Dense all-pairs kernel matrix, exactly symmetric, with zero diagonal.

    The weights are those of :func:`_kernel_rows`.
    """
    X = np.asarray(X, dtype=float)
    W = np.zeros((X.shape[0], X.shape[0]))
    for start, stop, block in _kernel_rows(X, sigma, dispersion):
        W[start:stop, start:] = block
    W += W.T
    return W


def _kernel_times(X, sigma, dispersion, V: np.ndarray) -> np.ndarray:
    """W V for the symmetric kernel W, one row block of its upper triangle at a time."""
    out = np.zeros((X.shape[0], V.shape[1]))
    for start, stop, W in _kernel_rows(X, sigma, dispersion):
        out[start:stop] += W @ V[start:]
        out[start:] += W.T @ V[start:stop]
    return out


def _functionals(X, f_values, sigma, dispersion, random_walk=True):
    """(unnormalized, random-walk) functionals without an n x n array.

    One pass over the kernel's row blocks times [1, f] gives the degrees d
    and Wf; with r = d^{-1/2}, a second pass times [r, r f] gives the
    degrees r (W r) and the product r (W (r f)) of the normalized kernel
    D^{-1/2} W D^{-1/2}.  The random-walk value is None without
    ``random_walk``, which skips the second pass.
    """
    X = np.asarray(X, dtype=float)
    f = np.asarray(f_values, dtype=float)
    n = X.shape[0]
    deg, Wf = _kernel_times(X, sigma, dispersion, np.column_stack([np.ones(n), f])).T
    # f^T (D - W) f == (1/2) sum_{i != j} W_ij (f_i - f_j)^2
    un = 2.0 / (n**2 * sigma**2) * float(deg @ (f * f) - f @ Wf)
    if not random_walk:
        return un, None
    r = 1.0 / np.sqrt(deg)
    Wr, Wrf = _kernel_times(X, sigma, dispersion, np.column_stack([r, r * f])).T
    # the outer r of r (W r) and r (W (r f)) cancels in their ratio
    Lf = f - Wrf / Wr
    return un, 2.0 * float(f @ Lf) / (n * sigma**2)


def empirical_un_functional(
    X: np.ndarray, f_values: np.ndarray, sigma: float, dispersion: np.ndarray
) -> float:
    """(2 / (n^2 sigma^2)) f^T L_un f with kernel-graph weights."""
    return _functionals(X, f_values, sigma, dispersion, random_walk=False)[0]


def empirical_nrw_functional(
    X: np.ndarray, f_values: np.ndarray, sigma: float, dispersion: np.ndarray
) -> float:
    """(2 / (n sigma^2)) f^T L_nrw f with kernel-graph weights.

    The factor 2 is required for the estimate to share the analytic limit
    E[grad f^T Sigma^{-1} grad f] with the unnormalized functional: the
    small-bandwidth expansion of the random-walk smoothing residual
    f(x) - (Wf)(x)/d(x) carries a 1/2 from the Gaussian second moment,
    verified here against an independent quadrature oracle.
    """
    return _functionals(X, f_values, sigma, dispersion)[1]


def analytic_limit(spec: SyntheticSpec):
    """Closed-form limits (unnormalized, random-walk) for the declared family.

    For the uniform-cube density p == 1, so both limits coincide.  Requires
    a diagonal dispersion matrix so the integrals factorize.
    """
    disp = spec.dispersion
    if np.max(np.abs(disp - np.diag(np.diag(disp)))) > 0:
        raise UnsupportedSpec("analytic limits require a diagonal dispersion matrix")
    inv_diag = 1.0 / np.diag(disp)
    d = spec.dimension
    if spec.target_function == "constant":
        value = 0.0
    elif spec.target_function == "cosine_sum":
        # E[sin^2(pi x_k)] = 1/2 per coordinate
        value = float(np.pi**2 * 0.5 * inv_diag.sum())
    else:  # cosine_product
        # E[sin^2] = 1/2 on the active coordinate, E[cos^2] = 1/2 elsewhere
        value = float(np.pi**2 * (0.5**d) * inv_diag.sum())
    return value, value


def convergence_report(
    spec: SyntheticSpec, n_grid: Sequence[int], seeds: Sequence[int]
) -> List[dict]:
    """Empirical functionals vs analytic limits over a grid of sample sizes.

    Returns one row per (kind, n) with the mean over seeds, their sample
    standard deviation (ddof=1; ``nan`` for a single seed, where the spread
    is undefined), and the relative error against the analytic limit.
    """
    n_grid, seeds = list(n_grid), list(seeds)
    if not n_grid or not seeds:
        raise InvalidParameter("n_grid is empty" if not n_grid else "seeds is empty")
    bad = [n for n in n_grid if not check_type(n, "every n", int) >= 2]
    if bad:
        raise InvalidParameter(f"every n must be >= 2, got {bad[0]}")
    bad = [s for s in seeds if not check_type(s, "every seed", int) >= 0]
    if bad:
        raise InvalidParameter(f"every seed must be a non-negative integer, got {bad[0]!r}")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InvalidParameter("n_grid must be strictly increasing")
    limit_un, limit_nrw = analytic_limit(spec)
    rows = []
    for n in n_grid:
        sigma = spec.sigma_at(n)
        un_vals, nrw_vals = [], []
        for seed in seeds:
            X = sample_inputs(spec, n, seed)
            f = target_values(spec, X)
            un, nrw = _functionals(X, f, sigma, spec.dispersion)
            un_vals.append(un)
            nrw_vals.append(nrw)
        for kind, vals, limit in (
            ("unnormalized", un_vals, limit_un),
            ("normalized_random_walk", nrw_vals, limit_nrw),
        ):
            mean = float(np.mean(vals))
            std = float(np.std(vals, ddof=1)) if len(vals) > 1 else float("nan")
            rel = abs(mean - limit) / abs(limit) if limit != 0 else abs(mean)
            rows.append(
                {
                    "kind": kind,
                    "n": n,
                    "sigma": sigma,
                    "empirical_mean": mean,
                    "empirical_std": std,
                    "analytic": limit,
                    "relative_error": rel,
                }
            )
    return rows
