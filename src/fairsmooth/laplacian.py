"""Graph Laplacian operators.

Two kinds are supported: the unnormalized Laplacian L = D - W and the
normalized random-walk Laplacian L = I - Dt^{-1} Wt, where
Wt = D^{-1/2} W D^{-1/2} is the normalized adjacency and Dt its degree
matrix.  For the unnormalized kind the quadratic form f^T L f equals the
pairwise sum (1/2) sum_{i != j} W_ij (f_i - f_j)^2.

Isolated nodes under the random-walk normalization have no well-defined
degree inverse; their rows and diagonal entries are set to zero, so
smoothing leaves them untouched.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import DegenerateDegree, DimensionMismatch, InvalidParameter
from .graph import SimilarityGraph

UNNORMALIZED = "unnormalized"
NORMALIZED_RW = "normalized_random_walk"
KINDS = (UNNORMALIZED, NORMALIZED_RW)


@dataclass(frozen=True)
class LaplacianOperator:
    kind: str
    n: int
    matrix: sparse.csr_matrix

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The diagonal of ``matrix``, read once per operator."""
        return self.matrix.diagonal()

    def symmetrized(self) -> sparse.csr_matrix:
        """(L + L^T) / 2 as CSR; equals ``matrix`` for the unnormalized kind."""
        if self.kind == UNNORMALIZED:
            return self.matrix
        return (0.5 * (self.matrix + self.matrix.T)).tocsr()


def unnormalized_laplacian(g: SimilarityGraph) -> LaplacianOperator:
    """L = D - W with D the degree matrix of W."""
    W = g.adjacency()
    deg = np.asarray(W.sum(axis=1)).ravel()
    L = sparse.diags(deg) - W
    return LaplacianOperator(kind=UNNORMALIZED, n=g.n, matrix=L.tocsr())


def normalized_rw_laplacian(g: SimilarityGraph) -> LaplacianOperator:
    """L = I - Dt^{-1} Wt with Wt = D^{-1/2} W D^{-1/2}.

    Rows and diagonal entries of isolated nodes are zero.
    """
    W = g.adjacency()
    deg = np.asarray(W.sum(axis=1)).ravel()
    pos = deg > 0
    inv_sqrt = np.zeros(g.n)
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    Wt = sparse.diags(inv_sqrt) @ W @ sparse.diags(inv_sqrt)
    td = np.asarray(Wt.sum(axis=1)).ravel()
    if np.any(pos & (td <= 0)):
        bad = int(np.nonzero(pos & (td <= 0))[0][0])
        raise DegenerateDegree(
            f"node {bad} has positive degree but zero normalized degree"
        )
    inv_td = np.zeros(g.n)
    inv_td[pos] = 1.0 / td[pos]
    eye_pos = sparse.diags(pos.astype(float))
    L = eye_pos - sparse.diags(inv_td) @ Wt
    return LaplacianOperator(kind=NORMALIZED_RW, n=g.n, matrix=L.tocsr())


def make_laplacian(g: SimilarityGraph, kind: str) -> LaplacianOperator:
    if kind == UNNORMALIZED:
        return unnormalized_laplacian(g)
    if kind == NORMALIZED_RW:
        return normalized_rw_laplacian(g)
    raise InvalidParameter(f"unknown laplacian kind {kind!r}")


def _check_rows(L: LaplacianOperator, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[0] != L.n:
        raise DimensionMismatch(f"f has {f.shape[0]} rows, Laplacian has n={L.n}")
    return f


def quadratic_form(L: LaplacianOperator, f: np.ndarray) -> float:
    """trace(f^T L f); f may be a vector or an n x K matrix."""
    f = _check_rows(L, f)
    return float(np.sum(f * (L.matrix @ f)))


def apply_symmetrized(L: LaplacianOperator, f: np.ndarray) -> np.ndarray:
    """((L + L^T) / 2) @ f."""
    f = _check_rows(L, f)
    if L.kind == UNNORMALIZED:
        return L.matrix @ f
    return 0.5 * (L.matrix @ f + L.matrix.T @ f)
