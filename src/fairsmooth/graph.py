"""Similarity graphs over individuals.

The graph weight between individuals i and j is exp(-theta * d^2) when
their fair distance d is at most the threshold tau, and the edge is absent
otherwise.  Annotator feedback yields a binary graph instead.  Edges are
stored once per unordered pair, sorted by (i, j), so serialization is
deterministic.
"""

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    ParseError,
    SelfLoop,
)
from .io import line_of_row, read_table, write_rows
from .metric import FairMetricSpec, check_points, check_type, pair_fair_distances

# weights this small cannot influence solutions beyond machine precision
WEIGHT_FLOOR = 1e-15

DEFAULT_THETA = 1e-4

EPS = np.finfo(float).eps

# the largest n whose sort key rows * n + cols fits in int64
MAX_NODES = 3_037_000_499


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Sparse symmetric nonnegative weight matrix over n individuals.

    ``rows``/``cols``/``weights`` are parallel read-only arrays, int64
    rows < cols and float64 weights, strictly sorted by (row, col), one
    entry per unordered pair.  Construction puts any edge arrays in that
    form: a reversed pair (j, i) is stored as (i, j), the edges are sorted,
    and the weights of a pair given more than once are summed in input
    order.  A self-loop raises SelfLoop, an index outside 0..n-1
    IndexOutOfRange, and a negative n, an n above MAX_NODES, or a weight
    that is not finite and >= 0 InvalidParameter.  Contiguous int64/float64
    arrays already in that form are kept as they are, without a copy; such
    arrays must not be changed afterward, because the Laplacians built for
    the graph and kept with it will not follow them.  Graphs compare and
    hash by identity.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # Laplacians by kind, filled by laplacian.make_laplacian; not a field
        object.__setattr__(self, "_laplacians", {})
        if check_type(self.n, "n", int) < 0:
            raise InvalidParameter(f"n must be >= 0, got {self.n}")
        if self.n > MAX_NODES:
            raise InvalidParameter(f"n must be <= {MAX_NODES}, got {self.n}")
        rows, cols = (np.asarray(a) for a in (self.rows, self.cols))
        if rows.size and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise InvalidParameter(f"edge indices must be integers, got {rows.dtype} and {cols.dtype}")
        rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
        weights = np.asarray(self.weights, dtype=float)
        if not (rows.ndim == 1 and rows.shape == cols.shape == weights.shape):
            raise DimensionMismatch("rows, cols and weights must be 1-D arrays of one length")
        # comparisons only, so no temporary is larger than a boolean mask
        bad = (rows == cols) | (rows < 0) | (cols < 0) | (rows >= self.n) | (cols >= self.n)
        if bad.any():
            i, j = int(rows[bad.argmax()]), int(cols[bad.argmax()])
            if i == j:
                raise SelfLoop(f"pair ({i}, {j}) is a self-loop")
            raise IndexOutOfRange(f"pair ({i}, {j}) out of range for n={self.n}")
        # min and max propagate a NaN, and allocate nothing
        if not (weights.min(initial=0.0) >= 0 and weights.max(initial=0.0) < np.inf):
            k = np.argmin((weights >= 0) & (weights < np.inf))
            raise InvalidParameter(f"pair ({rows[k]}, {cols[k]}) has weight {weights[k]}; weights must be finite and >= 0")
        if np.any(rows > cols):
            rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        if not np.all((rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))):
            # unique keys have one sorting permutation, so numpy's default
            # sort finds it; with a repeat, a stable sort keeps the copies
            # of a pair in input order
            keys = rows * self.n + cols
            order = np.argsort(keys)
            keys = keys[order]
            repeat = keys[1:] == keys[:-1]
            del keys  # freed before the gathers, so the peak stays that of one sort
            repeated = repeat.any()
            if repeated:
                order = np.argsort(rows * self.n + cols, kind="stable")
            rows, cols, weights = rows[order], cols[order], weights[order]
            if repeated:
                first = np.flatnonzero(np.r_[True, ~repeat])
                rows, cols, weights = rows[first], cols[first], np.add.reduceat(weights, first)
        for name, a in (("rows", rows), ("cols", cols), ("weights", weights)):
            a = np.ascontiguousarray(a).view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def num_edges(self) -> int:
        return len(self.weights)

    @property
    def edges(self) -> List[Tuple[int, int, float]]:
        return [
            (int(i), int(j), float(w))
            for i, j, w in zip(self.rows, self.cols, self.weights)
        ]

    def adjacency(self) -> sparse.csr_matrix:
        """Full symmetric weight matrix W as sparse CSR with sorted indices.

        The edges are the upper triangle of W in CSR form as they stand, and
        W is that triangle plus its transpose, which stores no zero weight.
        """
        n = self.n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rows, minlength=n), out=indptr[1:])
        upper = sparse.csr_matrix((self.weights, self.cols, indptr), shape=(n, n))
        return upper + upper.T


def build_similarity_graph(
    X: np.ndarray,
    metric: FairMetricSpec,
    theta: float = DEFAULT_THETA,
    tau: float = np.inf,
) -> SimilarityGraph:
    """Gaussian-of-distance similarity graph over the rows of X.

    w_ij = exp(-theta * d(x_i, x_j)^2) whenever d <= tau (ties included);
    no self-edges.  tau = inf yields a complete graph.  Candidate pairs come
    from a k-d tree, and each candidate's distance is evaluated in
    difference form by :func:`~fairsmooth.metric.pair_fair_distances`, in
    O(d^2) per pair.  That is the entry
    :func:`~fairsmooth.metric.pairwise_fair_distances` computes for the
    pair, so the graph is the all-pairs selection without an n x n array.
    """
    if not check_type(theta, "theta", float) > 0:
        raise InvalidParameter(f"theta must be positive, got {theta}")
    if not check_type(tau, "tau", float) > 0:
        raise InvalidParameter(f"tau must be positive, got {tau}")
    X = check_points(metric, X)
    rows, cols = _candidate_pairs(X, metric, tau)
    d = pair_fair_distances(metric, X, rows, cols)
    keep = d <= tau
    rows, cols, d = rows[keep], cols[keep], d[keep]
    w = np.exp(-theta * d * d)
    keep = w >= WEIGHT_FLOOR
    return SimilarityGraph(X.shape[0], rows[keep], cols[keep], w[keep])


def _candidate_pairs(X: np.ndarray, metric: FairMetricSpec, tau: float):
    """Pairs i < j whose fair distance may be <= tau, as two index arrays.

    A k-d tree (Bentley 1975) over whitened coordinates z = x V sqrt(L),
    from Sigma = V L V^T with its near-zero eigen-directions dropped, finds
    every pair with ||z_i - z_j|| <= r, so ||z_i - z_j||^2 equals the
    squared fair distance up to rounding.  r exceeds tau by a bound on that
    rounding and on the rounding of the difference form
    :func:`~fairsmooth.metric.pair_fair_distances` evaluates, so every pair
    the all-pairs computation keeps is a candidate.  Every pair is a
    candidate when tau, r or X is not finite or Sigma is zero.
    """
    n, dim = X.shape
    if n > 1 and dim > 0 and np.isfinite(tau) and np.all(np.isfinite(X)):
        sigma = np.eye(dim) if metric.sigma is None else metric.sigma
        eigvals, eigvecs = np.linalg.eigh(sigma)
        kept = eigvals > (dim + 1) * EPS * max(float(eigvals[-1]), 0.0)
        reach = float(np.max(np.einsum("ij,ij->i", X, X)))  # max ||x_i||^2
        # With u = EPS / 2, s = ||Sigma||_F and ||x_i - x_j||^2 <= 4 reach,
        # the distance the graph keeps and the tree's differ from the exact
        # d^2 = delta^T Sigma delta by at most
        #   (2 dim + 2) u |delta|^T |Sigma| |delta| <= 4 (dim + 1) EPS s reach
        #     from the rounding of x_i - x_j and of the difference form;
        #   4 (dim + 1) EPS s reach from the dropped eigenvalues;
        #   4 p(dim) u s reach from the eigendecomposition's backward error
        #     ||Sigma - V L V^T|| <= p(dim) u s, p of low degree;
        #   4 dim^(5/4) EPS s reach from rounding z = x V sqrt(L).
        # The last two scale with ||x_i||, not with ||x_i - x_j||, so they
        # pad r even for close points; 64 (dim + 1)^2 EPS s reach covers the
        # sum for p(dim) up to 20 (dim + 1)^2.  A negative eigenvalue
        # (Sigma is PSD only to rounding) is left out of z and can put d^2
        # below ||z_i - z_j||^2 by up to -lambda ||x_i - x_j||^2 <= -4 lambda
        # reach; the relative term covers the square roots and the tree.
        slack = 64.0 * (dim + 1) ** 2 * EPS
        negative = max(-float(eigvals[0]), 0.0)
        pad = reach * (slack * float(np.linalg.norm(sigma)) + 4.0 * negative)
        r = np.sqrt(tau * tau * (1.0 + slack) + pad)
        if np.any(kept) and np.isfinite(r):
            Z = X @ (eigvecs[:, kept] * np.sqrt(eigvals[kept]))
            return cKDTree(Z).query_pairs(r, output_type="ndarray").T
    return np.triu_indices(n, k=1)


def graph_from_annotations(pairs: Iterable[Tuple[int, int]], n: int) -> SimilarityGraph:
    """Binary similarity graph from integer annotator pairs; unordered, deduplicated."""
    if check_type(n, "n", int) < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    try:
        p = np.array(list(pairs) or np.empty((0, 2)))
    except ValueError:  # NumPy refuses pairs of different lengths
        p = np.empty(0)
    if p.ndim != 2 or p.shape[1] != 2:
        raise InvalidParameter("annotator pairs must be (i, j) index pairs")
    # construction sums a repeated pair, so the weights are reset to 1 after it
    g = SimilarityGraph(n, p[:, 0], p[:, 1], np.ones(len(p)))
    return SimilarityGraph(n, g.rows, g.cols, np.ones(g.num_edges))


def degrees(g: SimilarityGraph) -> np.ndarray:
    """Weighted degree of each node; isolated nodes have degree 0."""
    deg = np.zeros(g.n)
    np.add.at(deg, g.rows, g.weights)
    np.add.at(deg, g.cols, g.weights)
    return deg


def average_degree(g: SimilarityGraph) -> float:
    if g.n < 1:
        raise InvalidParameter("graph has no nodes")
    return float(np.mean(degrees(g)))


def write_edge_list(g: SimilarityGraph, path) -> None:
    """Write the graph as TSV: header '# n=<n>' then 'i<TAB>j<TAB>w' lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n")
        write_rows(fh, "\t", g.rows, g.cols, g.weights)


def read_edge_list(path) -> SimilarityGraph:
    """Read a graph written by :func:`write_edge_list`.

    Every '#' line is a header '# n=<n>'; the last one sets n.
    """
    (rows, cols, weights), headers = read_table(
        path, (np.int64, np.int64, float), delimiter="\t", comments=True
    )
    bad = np.flatnonzero((rows >= cols) | ~((weights > 0) & (weights < np.inf)))
    if bad.size:
        row = int(bad[0])
        lineno = line_of_row(path, row, comments=True)
        if rows[row] >= cols[row]:
            raise ParseError(f"{path}:{lineno}: edges must have i < j")
        raise ParseError(f"{path}:{lineno}: weight must be positive and finite")
    n = None
    for lineno, line in headers:
        try:
            n = int(line.lstrip("#").strip().split("=", 1)[1])
        except (IndexError, ValueError):
            raise ParseError(f"{path}:{lineno}: malformed header {line!r}")
    if n is None:
        raise ParseError(f"{path}: missing '# n=<n>' header")
    return SimilarityGraph(n, rows, cols, weights)
