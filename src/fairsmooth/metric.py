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

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NonOrthonormalBasis,
    NonSymmetric,
    NotPSD,
)

SYMMETRY_TOL = 1e-9
PSD_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8

VALID_KINDS = ("euclidean", "mahalanobis", "projection_complement")


@dataclass(frozen=True, eq=False)
class FairMetricSpec:
    """Declarative description of a fair metric, checked when built.

    ``sigma`` is set for the mahalanobis kind; ``basis`` holds orthonormal
    rows spanning the sensitive subspace for projection_complement, whose
    ``sigma`` is derived as the equivalent mahalanobis-form I - B^T B and
    may not be passed.  Construction checks the kind and the fields it
    takes, that sigma is finite, symmetric and PSD (tiny negative
    eigenvalues, within tolerance, are clamped to zero) and that the basis
    rows are orthonormal.  The stored arrays are read-only float arrays.
    Specs compare and hash by identity.
    """

    kind: str
    sigma: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InvalidParameter(f"unknown metric kind {self.kind!r}")

        if self.kind == "euclidean":
            if self.sigma is not None or self.basis is not None:
                raise InvalidParameter("euclidean metric takes no sigma/basis")
            return

        if self.kind == "mahalanobis":
            if self.sigma is None:
                raise InvalidParameter("mahalanobis metric requires sigma")
            if self.basis is not None:
                raise InvalidParameter("mahalanobis metric takes no basis")
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
                raise InvalidParameter(f"sigma must be square, got {sigma.shape}")
            if not np.all(np.isfinite(sigma)):
                raise InvalidParameter("sigma has non-finite entries")
            asym = np.max(np.abs(sigma - sigma.T)) if sigma.size else 0.0
            if asym > SYMMETRY_TOL:
                raise NonSymmetric(
                    f"sigma is not symmetric: max |S - S^T| = {asym:.3e}"
                )
            sigma = 0.5 * (sigma + sigma.T)
            eigvals, eigvecs = np.linalg.eigh(sigma)
            lowest = eigvals.min(initial=0.0)  # a 0 x 0 sigma, like euclidean in d = 0
            if lowest < -PSD_TOL:
                raise NotPSD(f"sigma has negative eigenvalue {lowest:.6e}")
            if lowest < 0.0:
                # clamp numerically-indefinite matrices to the PSD cone
                eigvals = np.clip(eigvals, 0.0, None)
                sigma = (eigvecs * eigvals) @ eigvecs.T
                sigma = 0.5 * (sigma + sigma.T)
            arrays = {"sigma": sigma}
        else:  # projection_complement
            if self.basis is None:
                raise InvalidParameter("projection_complement metric requires basis")
            if self.sigma is not None:
                raise InvalidParameter("projection_complement metric takes no sigma; it is I - B^T B")
            basis = np.asarray(self.basis, dtype=float)
            if basis.ndim != 2:
                raise InvalidParameter(f"basis must be 2-d, got shape {basis.shape}")
            if not np.all(np.isfinite(basis)):
                raise InvalidParameter("basis has non-finite entries")
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
            arrays = {"sigma": sigma, "basis": basis}
        for name, a in arrays.items():
            a = a.view()  # the caller's basis array stays writable
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dimension(self) -> Optional[int]:
        """Input dimension, or None for the dimension-free euclidean kind."""
        return None if self.sigma is None else self.sigma.shape[0]


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
    return float(_fair_distances(spec.sigma, delta[:, None], np.empty(1))[0])


# rows per block of pairwise_fair_distances and pairs per chunk of
# pair_fair_distances: small enough for the kernel's temporaries to stay in
# cache (at n = 3000, 64-row blocks took 2.4 times as long as 8-row ones)
BLOCK_SIZE = 8
PAIR_CHUNK = 16384


def check_type(value, what: str, kind: type):
    """``value`` unchanged if it has type ``kind``, else InvalidParameter:
    ``int`` takes an integral and ``float`` a real number, numpy scalars
    included and a bool never; any other kind is an isinstance test."""
    abstract = numbers.Integral if kind is int else numbers.Real if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, abstract):
        raise InvalidParameter(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def check_points(spec: FairMetricSpec, X: np.ndarray) -> np.ndarray:
    """X as a float array with one row per point in the metric's dimension."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
    dim = spec.dimension
    if dim is not None and X.shape[1] != dim:
        raise DimensionMismatch(f"X has {X.shape[1]} columns, metric dimension is {dim}")
    return X


def check_outputs(outputs, n: Optional[int] = None) -> np.ndarray:
    """Model outputs as the (n, K) float table every stage reads.

    Row i holds the K outputs of point i; a 1-D array is one column, and
    :func:`restore_shape` turns a result back into a vector.  An array
    that is neither 1-D nor 2-D, or that does not have ``n`` rows when
    ``n`` is given, raises DimensionMismatch.  A NaN or infinite entry
    raises InvalidParameter naming the first row that holds one.
    """
    y = np.asarray(outputs, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or (n is not None and y.shape[0] != n):
        rows = "" if n is None else f" with {n} rows"
        raise DimensionMismatch(f"outputs have shape {np.shape(outputs)}, expected a vector or an (n, K) array{rows}")
    if not np.isfinite(y).all():
        bad = np.flatnonzero(~np.isfinite(y).all(axis=1))[0]
        raise InvalidParameter(f"outputs row {bad} has a non-finite entry")
    return y


def restore_shape(result: np.ndarray, outputs) -> np.ndarray:
    """An (n, K) ``result`` as a vector when ``outputs`` was one."""
    return result[:, 0] if np.ndim(outputs) == 1 else result


def check_pairs(pairs, n: Optional[int] = None):
    """Fair-distance pairs as int64 ``i``, ``j`` and float ``d`` arrays.

    ``pairs`` holds (i, j, d) triples, as a sequence or an (m, 3) array.
    Indices must be integers with i != j, and d finite and >= 0; anything
    else raises InvalidParameter.  With ``n``, an index outside 0..n-1
    raises IndexOutOfRange.
    """
    P = np.asarray(pairs, dtype=float).reshape(-1, 3)
    with np.errstate(invalid="ignore"):  # NaN and huge indices cast to garbage, caught below
        ij = P[:, :2].astype(np.int64)
    # column by column: reductions along the rows of an (m, 2) array are slow
    i, j, d = ij[:, 0], ij[:, 1], P[:, 2]
    checks = (
        ((i != P[:, 0]) | (j != P[:, 1]), InvalidParameter, "has an index that is not an integer"),
        (i == j, InvalidParameter, "joins a point to itself"),
        (~((d >= 0) & (d < np.inf)), InvalidParameter, "needs a finite distance >= 0"),
    )
    if n is not None:
        checks += (((i < 0) | (i >= n) | (j < 0) | (j >= n), IndexOutOfRange, f"is out of range for n={n}"),)
    for bad, error, what in checks:
        if bad.any():
            a, b, c = P[np.argmax(bad)]
            raise error(f"pair ({a:g}, {b:g}, {c:g}) {what}")
    return i, j, d


def pair_gaps(outputs: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """||f_i - f_j||_2 per pair of rows of an (n, K) outputs table.

    At K = 1 this is |f_i - f_j| of the one column, exact even where the
    square would underflow or overflow; otherwise np.linalg.norm per row.
    """
    if outputs.shape[1] == 1:
        col = outputs[:, 0]
        return np.abs(col[i] - col[j])
    return np.linalg.norm(outputs[i] - outputs[j], axis=1)


def _fair_distances(sigma, deltas, out: np.ndarray) -> np.ndarray:
    """Write sqrt(max(delta^T Sigma delta, 0)) into ``out``, one entry per pair.

    ``deltas`` holds one array per coordinate, shaped like ``out``, of the
    differences x_i - x_j; ``sigma`` None stands for the identity.  Only
    elementwise ufuncs run, in an order fixed by the coordinates, so an
    entry does not depend on the other pairs evaluated with it.  Negating
    delta negates every partial sum exactly, so d(x_i, x_j) and d(x_j, x_i)
    agree bit for bit.  No large terms cancel: with u the unit roundoff, the
    error of d^2 is at most about (2 d + 2) u |delta|^T |Sigma| |delta|, and
    it is zero when the differences and the products stay integers.
    """
    out[...] = 0.0
    term = np.empty_like(out)
    if sigma is None:
        for delta in deltas:
            np.multiply(delta, delta, out=term)
            out += term
    else:
        row = np.empty_like(out)  # (Sigma delta)_k
        for k, delta in enumerate(deltas):
            row[...] = 0.0
            for l, other in enumerate(deltas):
                np.multiply(other, sigma[k, l], out=term)
                row += term
            row *= delta
            out += row
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def pairwise_fair_distances(spec: FairMetricSpec, X: np.ndarray) -> np.ndarray:
    """All pairwise fair distances between the rows of X.

    Computed in row blocks of ``BLOCK_SIZE`` into the n x n result, so
    peak memory stays at O(block * n * d) beyond it.  Each entry is the one
    :func:`pair_fair_distances` gives for its pair, so for finite X the
    diagonal is zero and the result is exactly symmetric.
    """
    XT = check_points(spec, X).T.copy()  # one contiguous row per coordinate
    n = XT.shape[1]
    dist = np.empty((n, n))
    for start in range(0, n, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, n)
        deltas = [x[start:stop, None] - x for x in XT]
        _fair_distances(spec.sigma, deltas, dist[start:stop])
    return dist


def pair_fair_distances(
    spec: FairMetricSpec, X: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Fair distances of the pairs (rows[k], cols[k]), without an n x n array.

    Equal bit for bit to ``pairwise_fair_distances(spec, X)[rows, cols]``,
    whatever the order of the pairs.  Memory is O(chunk * d + pairs).
    """
    XT = check_points(spec, X).T.copy()
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    dist = np.empty(rows.shape)
    for start in range(0, rows.size, PAIR_CHUNK):
        i, j = rows[start : start + PAIR_CHUNK], cols[start : start + PAIR_CHUNK]
        _fair_distances(spec.sigma, [x[i] - x[j] for x in XT], dist[start : start + len(i)])
    return dist


def metric_spec_from_json(obj: dict) -> FairMetricSpec:
    """Build a metric from its JSON representation.

    The object holds ``kind`` and the numeric arrays ``sigma`` and
    ``basis``; :class:`FairMetricSpec` checks which of them the kind takes.
    """
    if not isinstance(obj, dict):
        raise InvalidParameter("metric spec must be a JSON object")
    unknown = sorted(set(obj) - {"kind", "sigma", "basis"})
    if unknown:
        raise InvalidParameter(f"unknown metric spec keys {unknown}")
    arrays = {}
    for name in ("sigma", "basis"):
        if name in obj:
            try:
                arrays[name] = np.asarray(obj[name], dtype=float)
            except (TypeError, ValueError):
                raise InvalidParameter(f"metric field {name!r} must be a numeric array")
    return FairMetricSpec(kind=obj.get("kind"), **arrays)
