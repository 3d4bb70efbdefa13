"""Graph Laplacian operators.

Two kinds are supported: the unnormalized Laplacian L = D - W and the
normalized random-walk Laplacian L = I - Dt^{-1} Wt, where
Wt = D^{-1/2} W D^{-1/2} is the normalized adjacency and Dt its degree
matrix.  For the unnormalized kind the quadratic form f^T L f equals the
pairwise sum (1/2) sum_{i != j} W_ij (f_i - f_j)^2.

An operator keeps one matrix, the symmetric (L + L^T) / 2 that the quadratic
form reads: L itself for the unnormalized kind; the random-walk L is never formed.

Isolated nodes under the random-walk normalization have no well-defined
degree inverse; their rows and diagonal entries are set to zero, so
smoothing leaves them untouched.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch, InvalidParameter
from .graph import SimilarityGraph

UNNORMALIZED = "unnormalized"
NORMALIZED_RW = "normalized_random_walk"
KINDS = (UNNORMALIZED, NORMALIZED_RW)


@dataclass(frozen=True, eq=False)
class LaplacianOperator:
    """One CSR ``matrix``: (L + L^T) / 2, which is L for the unnormalized kind.

    Its indices are sorted.  :func:`make_laplacian` shares one operator among
    all its callers on a graph, so the arrays of ``matrix`` and ``diagonal``
    are read-only: a write in place raises ValueError.  Operators compare and
    hash by identity.  A non-finite entry raises InvalidParameter.
    """

    kind: str
    n: int
    matrix: sparse.csr_matrix

    def __post_init__(self):
        M = self.matrix
        if not np.isfinite(M.data).all():
            row = np.searchsorted(M.indptr, np.argmin(np.isfinite(M.data)), side="right") - 1
            raise InvalidParameter(f"{self.kind} laplacian row {row} is not finite: a degree or 1/degree overflows")
        for a in (M.data, M.indices, M.indptr):
            a.flags.writeable = False

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The diagonal of ``matrix``, read once per operator; read-only."""
        d = self.matrix.diagonal()
        d.flags.writeable = False
        return d

    def symmetrized(self) -> sparse.csr_matrix:
        """``matrix``, (L + L^T) / 2 for either kind; kept for callers that name it."""
        return self.matrix


@np.errstate(all="ignore")  # LaplacianOperator refuses an overflowed degree, without warnings
def unnormalized_laplacian(g: SimilarityGraph) -> LaplacianOperator:
    """L = D - W with D the degree matrix of W."""
    W = g.adjacency()
    L = (sparse.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()
    return LaplacianOperator(kind=UNNORMALIZED, n=g.n, matrix=L)


@np.errstate(all="ignore")  # as in unnormalized_laplacian
def normalized_rw_laplacian(g: SimilarityGraph) -> LaplacianOperator:
    """(L + L^T) / 2 for L = I - Dt^{-1} Wt, Wt = D^{-1/2} W D^{-1/2}.

    Rows and diagonal entries of isolated nodes are zero.  W's CSR data is
    scaled in place, row factor first; W's pattern is symmetric, so the entry
    of L^T at (i, j) is -Wt_ji / dt_j.  The result is scipy's 0.5 * (L + L.T)
    of that L bit for bit.
    """
    M = g.adjacency()
    deg = np.asarray(M.sum(axis=1)).ravel()
    pos = deg > 0
    inv_sqrt = np.zeros(g.n)
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    counts, cols = np.diff(M.indptr), M.indices
    s_row, s_col = np.repeat(inv_sqrt, counts), inv_sqrt[cols]
    wt_ji = M.data * s_col  # Wt_ji = (W_ij s_j) s_i, at the position of (i, j)
    wt_ji *= s_row
    M.data *= s_row
    M.data *= s_col  # M = Wt
    del s_row, s_col  # a random-walk run peaks in this build, so it holds few arrays
    td = np.asarray(M.sum(axis=1)).ravel()
    inv_td = np.zeros(g.n)
    inv_td[pos] = 1.0 / td[pos]
    M.data *= np.repeat(inv_td, counts)  # M = Dt^{-1} Wt
    wt_ji *= inv_td[cols]
    M.data += wt_ji
    del wt_ji
    M.data *= 0.5  # M = (Dt^{-1} Wt + (Dt^{-1} Wt)^T) / 2
    return LaplacianOperator(kind=NORMALIZED_RW, n=g.n, matrix=(sparse.diags(pos.astype(float)) - M).tocsr())


def make_laplacian(g: SimilarityGraph, kind: str) -> LaplacianOperator:
    """The ``kind`` Laplacian of ``g``, built on first use and kept with ``g``.

    Every later call on the same graph returns the same operator, so
    repeated solves on one graph build each kind once; the operator is
    shared and read-only, and it is freed with the graph.
    """
    built = g._laplacians
    L = built.get(kind)
    if L is None:
        if kind == UNNORMALIZED:
            L = unnormalized_laplacian(g)
        elif kind == NORMALIZED_RW:
            L = normalized_rw_laplacian(g)
        else:
            raise InvalidParameter(f"unknown laplacian kind {kind!r}")
        # two threads building at once both return the one kept
        L = built.setdefault(kind, L)
    return L


def apply_symmetrized(L: LaplacianOperator, f: np.ndarray) -> np.ndarray:
    """((L + L^T) / 2) @ f, the operator's ``matrix`` times f."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != L.n:
        raise DimensionMismatch(f"f has {f.shape[0]} rows, Laplacian has n={L.n}")
    return L.matrix @ f
