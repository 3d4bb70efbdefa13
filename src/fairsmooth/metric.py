"""Fair metrics on the input space.

A fair metric says which individuals should be treated similarly.  Three
forms are supported: plain Euclidean distance, a Mahalanobis quadratic form
d(x, x')^2 = (x - x')^T Sigma (x - x') with a PSD dispersion matrix Sigma,
and the projection-complement metric that ignores variation inside a
sensitive subspace (Euclidean distance after projecting that subspace out).
The projection-complement form is canonicalized to the Mahalanobis form
with Sigma = I - B^T B, so rank-deficient Sigma must be supported: distances
are evaluated through the quadratic form directly, never via a Cholesky
factor of Sigma.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonOrthonormalBasis,
    NonSymmetric,
    NotPSD,
)

SYMMETRY_TOL = 1e-9
PSD_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8

VALID_KINDS = ("euclidean", "mahalanobis", "projection_complement")


@dataclass(frozen=True)
class FairMetricSpec:
    """Declarative description of a fair metric.

    ``sigma`` is set for the mahalanobis kind (and filled in during
    validation for projection_complement); ``basis`` holds orthonormal rows
    spanning the sensitive subspace for projection_complement.
    """

    kind: str
    sigma: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None

    @property
    def dimension(self) -> Optional[int]:
        """Input dimension, or None for the dimension-free euclidean kind."""
        if self.sigma is not None:
            return self.sigma.shape[0]
        if self.basis is not None:
            return self.basis.shape[1]
        return None


def validate_metric(spec: FairMetricSpec) -> FairMetricSpec:
    """Check a raw spec and return it in canonical form.

    Symmetry and positive semi-definiteness are verified for mahalanobis;
    orthonormality of the basis rows for projection_complement, which is
    then rewritten as an equivalent mahalanobis-form Sigma = I - B^T B.
    Tiny negative eigenvalues (within tolerance) are clamped to zero.
    """
    if spec.kind not in VALID_KINDS:
        raise InvalidParameter(f"unknown metric kind {spec.kind!r}")

    if spec.kind == "euclidean":
        if spec.sigma is not None or spec.basis is not None:
            raise InvalidParameter("euclidean metric takes no sigma/basis")
        return spec

    if spec.kind == "mahalanobis":
        if spec.sigma is None:
            raise InvalidParameter("mahalanobis metric requires sigma")
        if spec.basis is not None:
            raise InvalidParameter("mahalanobis metric takes no basis")
        sigma = np.asarray(spec.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise InvalidParameter(f"sigma must be square, got {sigma.shape}")
        asym = np.max(np.abs(sigma - sigma.T)) if sigma.size else 0.0
        if asym > SYMMETRY_TOL:
            raise NonSymmetric(
                f"sigma is not symmetric: max |S - S^T| = {asym:.3e}"
            )
        sigma = 0.5 * (sigma + sigma.T)
        eigvals, eigvecs = np.linalg.eigh(sigma)
        if eigvals[0] < -PSD_TOL:
            raise NotPSD(f"sigma has negative eigenvalue {eigvals[0]:.6e}")
        if eigvals[0] < 0.0:
            # clamp numerically-indefinite matrices to the PSD cone
            eigvals = np.clip(eigvals, 0.0, None)
            sigma = (eigvecs * eigvals) @ eigvecs.T
            sigma = 0.5 * (sigma + sigma.T)
        return replace(spec, sigma=sigma)

    # projection_complement
    if spec.basis is None:
        raise InvalidParameter("projection_complement metric requires basis")
    basis = np.asarray(spec.basis, dtype=float)
    if basis.ndim != 2:
        raise InvalidParameter(f"basis must be 2-d, got shape {basis.shape}")
    gram = basis @ basis.T
    dev = np.max(np.abs(gram - np.eye(basis.shape[0])))
    if dev > ORTHONORMAL_TOL:
        worst = int(np.unravel_index(np.argmax(np.abs(gram - np.eye(basis.shape[0]))), gram.shape)[0])
        raise NonOrthonormalBasis(
            f"basis rows are not orthonormal (max deviation {dev:.3e}, row {worst})"
        )
    d = basis.shape[1]
    sigma = np.eye(d) - basis.T @ basis
    sigma = 0.5 * (sigma + sigma.T)
    return replace(spec, sigma=sigma)


def _check_vector(spec: FairMetricSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    d = spec.dimension
    if d is not None and x.shape[0] != d:
        raise DimensionMismatch(f"vector has length {x.shape[0]}, metric dimension is {d}")
    return x


def fair_distance(spec: FairMetricSpec, x: np.ndarray, xp: np.ndarray) -> float:
    """Fair distance sqrt((x - x')^T Sigma (x - x')) between two points."""
    x = _check_vector(spec, x)
    xp = _check_vector(spec, xp)
    if x.shape != xp.shape:
        raise DimensionMismatch(f"point shapes differ: {x.shape} vs {xp.shape}")
    delta = x - xp
    if spec.sigma is None:
        sq = float(delta @ delta)
    else:
        sq = float(delta @ spec.sigma @ delta)
    return float(np.sqrt(max(sq, 0.0)))


def pairwise_fair_distances(
    spec: FairMetricSpec, X: np.ndarray, block_size: int = 1024
) -> np.ndarray:
    """All pairwise fair distances between the rows of X.

    Computed in row blocks of ``block_size`` into the n x n result, so
    peak memory stays at O(block * n) beyond it.  The result has a zero
    diagonal and is exactly symmetric.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
    n, d = X.shape
    dim = spec.dimension
    if dim is not None and d != dim:
        raise DimensionMismatch(f"X has {d} columns, metric dimension is {dim}")
    if block_size < 1:
        raise InvalidParameter("block_size must be >= 1")

    if spec.sigma is None:
        SX = X
    else:
        SX = X @ spec.sigma
    # d^2(i, j) = q_i + q_j - 2 x_i^T Sigma x_j
    q = np.einsum("ij,ij->i", X, SX)
    dist = np.empty((n, n), dtype=float)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        cross = X[start:stop] @ SX.T
        cross *= 2.0
        block = dist[start:stop]
        np.add(q[start:stop, None], q[None, :], out=block)
        block -= cross
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    # 0.5 (d + d^T), a row block and its mirrored column block at a time;
    # neither has been overwritten by an earlier block
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        mean = dist[start:stop, start:] + dist[start:, start:stop].T
        mean *= 0.5
        dist[start:stop, start:] = mean
        dist[start:, start:stop] = mean.T
    np.fill_diagonal(dist, 0.0)
    return dist


def metric_spec_from_json(obj: dict) -> FairMetricSpec:
    """Build and validate a metric from its JSON representation.

    The object must contain ``kind`` plus exactly the fields that kind
    requires; extra fields are rejected.
    """
    if not isinstance(obj, dict):
        raise InvalidParameter("metric spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in VALID_KINDS:
        raise InvalidParameter(f"unknown metric kind {kind!r}")
    required = {
        "euclidean": set(),
        "mahalanobis": {"sigma"},
        "projection_complement": {"basis"},
    }[kind]
    fields = set(obj) - {"kind"}
    if fields != required:
        raise InvalidParameter(
            f"metric kind {kind!r} requires fields {sorted(required)}, got {sorted(fields)}"
        )
    sigma = np.asarray(obj["sigma"], dtype=float) if "sigma" in obj else None
    basis = np.asarray(obj["basis"], dtype=float) if "basis" in obj else None
    return validate_metric(FairMetricSpec(kind=kind, sigma=sigma, basis=basis))
