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

from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    ParseError,
    SelfLoop,
)
from .io import line_of_row, read_table, write_rows
from .metric import FairMetricSpec, pairwise_fair_distances

# weights this small cannot influence solutions beyond machine precision
WEIGHT_FLOOR = 1e-15

DEFAULT_THETA = 1e-4


@dataclass(frozen=True)
class SimilarityGraph:
    """Sparse symmetric nonnegative weight matrix over n individuals.

    ``rows``/``cols``/``weights`` are parallel arrays with rows < cols,
    sorted lexicographically by (row, col), one entry per unordered pair.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

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
        """Full symmetric weight matrix W as sparse CSR."""
        i = np.concatenate([self.rows, self.cols])
        j = np.concatenate([self.cols, self.rows])
        w = np.concatenate([self.weights, self.weights])
        return sparse.csr_matrix((w, (i, j)), shape=(self.n, self.n))


def _make_graph(n: int, rows, cols, weights) -> SimilarityGraph:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    order = np.lexsort((cols, rows))
    return SimilarityGraph(n=n, rows=rows[order], cols=cols[order], weights=weights[order])


def build_similarity_graph(
    X: np.ndarray,
    metric: FairMetricSpec,
    theta: float = DEFAULT_THETA,
    tau: float = np.inf,
) -> SimilarityGraph:
    """Gaussian-of-distance similarity graph over the rows of X.

    w_ij = exp(-theta * d(x_i, x_j)^2) whenever d <= tau (ties included);
    no self-edges.  tau = inf yields a complete graph.
    """
    if not theta > 0:
        raise InvalidParameter(f"theta must be positive, got {theta}")
    if not tau > 0:
        raise InvalidParameter(f"tau must be positive, got {tau}")
    X = np.asarray(X, dtype=float)
    dist = pairwise_fair_distances(metric, X)
    n = X.shape[0]
    # row-major nonzero order is the (i, j) order of the edge list
    iu, ju = np.nonzero(np.triu(dist <= tau, 1))
    d = dist[iu, ju]
    w = np.exp(-theta * d * d)
    keep = w >= WEIGHT_FLOOR
    return _make_graph(n, iu[keep], ju[keep], w[keep])


def graph_from_annotations(pairs: Iterable[Tuple[int, int]], n: int) -> SimilarityGraph:
    """Binary similarity graph from annotator pairs; unordered, deduplicated."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    seen = set()
    for i, j in pairs:
        i, j = int(i), int(j)
        if i == j:
            raise SelfLoop(f"pair ({i}, {j}) is a self-loop")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"pair ({i}, {j}) out of range for n={n}")
        seen.add((min(i, j), max(i, j)))
    if not seen:
        return _make_graph(n, [], [], [])
    rows, cols = zip(*sorted(seen))
    return _make_graph(n, rows, cols, np.ones(len(seen)))


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
        write_rows(fh, "%d\t%d\t%.17g\n", g.rows, g.cols, g.weights)


def read_edge_list(path) -> SimilarityGraph:
    """Read a graph written by :func:`write_edge_list`.

    Every '#' line is a header '# n=<n>'; the last one sets n.
    """
    (rows, cols, weights), headers = read_table(
        path, (np.int64, np.int64, float), delimiter="\t", comments=True
    )
    bad = np.flatnonzero((rows >= cols) | (weights <= 0))
    if bad.size:
        row = int(bad[0])
        lineno = line_of_row(path, row, comments=True)
        if rows[row] >= cols[row]:
            raise ParseError(f"{path}:{lineno}: edges must have i < j")
        raise ParseError(f"{path}:{lineno}: weight must be positive")
    n = None
    for lineno, line in headers:
        try:
            n = int(line.lstrip("#").strip().split("=", 1)[1])
        except (IndexError, ValueError):
            raise ParseError(f"{path}:{lineno}: malformed header {line!r}")
    if n is None:
        raise ParseError(f"{path}: missing '# n=<n>' header")
    if cols.size and (cols.max() >= n or rows.min() < 0):
        raise IndexOutOfRange(f"{path}: edge index outside 0..{n - 1}")
    return _make_graph(n, rows, cols, weights)
