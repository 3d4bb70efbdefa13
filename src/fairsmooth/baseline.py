"""Global Lipschitz-constraint post-processing baseline.

Projects outputs onto the set { f : ||f_i - f_j||_2 <= L * d(x_i, x_j) for
all constrained pairs } in the Euclidean sense, via Dykstra's alternating
projections.  Plain cyclic projection would only find a feasible point;
Dykstra's correction terms make the limit the actual projection, matching
the argmin formulation.  This method is the scalability baseline: it is
quadratic in the number of pairs and is not meant for large n.

A constraint is one row (i, j, bound) of a table, given as a sequence of
triples or an (m, 3) array, and checked by :func:`check_pairs` like a
fair-distance pair: integer indices inside 0..n-1 with i != j, and a
finite bound >= 0.  Rows are unordered pairs: (j, i, b) is the constraint
(i, j, b), and :func:`count_violations` reports each pair as (min, max).
"""

from typing import List, Tuple

import numpy as np

from .errors import InvalidParameter, NotConverged
from .metric import check_pairs

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000


def constraints_from_distances(pairs, lipschitz: float) -> np.ndarray:
    """The (m, 3) constraint table [i, j, L*d] of (i, j, fair distance)
    triples, given as a sequence or an (m, 3) array."""
    if not 0 < lipschitz < np.inf:
        raise InvalidParameter(f"lipschitz constant must be positive and finite, got {lipschitz}")
    i, j, d = check_pairs(pairs)
    return np.column_stack((i, j, lipschitz * d))


def _constraint_table(constraints, n: int):
    """(i, j, bound) arrays of a constraint table, in row order, checked
    against n, with every row stored as (min(i, j), max(i, j))."""
    i, j, bounds = check_pairs(constraints, n)
    return np.minimum(i, j), np.maximum(i, j), bounds


def project_pair(f_i: np.ndarray, f_j: np.ndarray, bound: float):
    """Euclidean projection of (f_i, f_j) onto ||f_i - f_j|| <= bound.

    If violated, both points move toward each other along their difference
    by equal amounts until the distance equals the bound.
    """
    f_i = np.atleast_1d(np.asarray(f_i, dtype=float))
    f_j = np.atleast_1d(np.asarray(f_j, dtype=float))
    diff = f_i - f_j
    dist = float(np.linalg.norm(diff))
    if dist <= bound:
        return f_i.copy(), f_j.copy()
    if dist == 0.0:
        return f_i.copy(), f_j.copy()
    shift = 0.5 * (dist - bound) / dist
    return f_i - shift * diff, f_j + shift * diff


def global_if_project(
    yhat: np.ndarray,
    constraints,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Dykstra's projection of yhat onto the intersection of all constraints.

    ``constraints`` is a table of (i, j, bound) rows, as in the module
    docstring.  Sweeps the rows in lexicographic order of their
    (min(i, j), max(i, j)) pair, the rows of one pair in row order,
    carrying one correction per row.  Terminates when every constraint holds
    within tol and the iterate moved less than tol over a full sweep.
    """
    if not 0 < tol < np.inf:
        raise InvalidParameter(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise InvalidParameter(f"max_iter must be >= 1, got {max_iter}")
    y = np.asarray(yhat, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidParameter("yhat has non-finite entries")
    squeeze = y.ndim == 1
    f = y[:, None].copy() if squeeze else y.copy()
    n, K = f.shape
    ii, jj, bounds = _constraint_table(constraints, n)
    order = np.lexsort((jj, ii))
    ii, jj, bounds = ii[order], jj[order], bounds[order]
    if not ii.size:
        return f[:, 0] if squeeze else f

    cons = list(zip(ii.tolist(), jj.tolist(), bounds.tolist()))
    corrections = np.zeros((len(cons), 2, K))
    for _ in range(max_iter):
        moved = 0.0
        for idx, (i, j, bound) in enumerate(cons):
            zi = f[i] + corrections[idx, 0]
            zj = f[j] + corrections[idx, 1]
            pi, pj = project_pair(zi, zj, bound)
            corrections[idx, 0] = zi - pi
            corrections[idx, 1] = zj - pj
            moved = max(
                moved,
                float(np.max(np.abs(pi - f[i]))),
                float(np.max(np.abs(pj - f[j]))),
            )
            f[i] = pi
            f[j] = pj
        worst = _excess(f, ii, jj, bounds).max(initial=0.0)
        if worst <= tol and moved < tol:
            return f[:, 0] if squeeze else f
    raise NotConverged(f"Dykstra did not converge in {max_iter} sweeps; worst violation {worst:.3e}")


def _excess(f: np.ndarray, ii: np.ndarray, jj: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """||f_i - f_j|| - bound per constraint."""
    return np.linalg.norm(f[ii] - f[jj], axis=1) - bounds


def count_violations(
    f: np.ndarray,
    constraints,
    slack: float = 0.0,
) -> List[Tuple[int, int, float]]:
    """(min(i, j), max(i, j), excess) of the rows of ``constraints`` whose
    pair violates its bound by more than ``slack``, in row order."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    ii, jj, bounds = _constraint_table(constraints, arr.shape[0])
    excess = _excess(arr, ii, jj, bounds)
    hit = excess > slack
    return list(zip(ii[hit].tolist(), jj[hit].tolist(), excess[hit].tolist()))
