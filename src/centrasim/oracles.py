"""Least-squares form of PageRank plus the centralized verification oracles.

The regression row of node i is H_i = e_i - (1-m) * (row i of W): a one on
the diagonal and -(1-m)/outdeg(j) at every in-neighbor j. Solving the
stacked system H x = (m/n) 1 gives the PageRank exactly, and the solution
sums to one without any explicit normalization.

W never has a diagonal entry: graphs reject self-loops, a uniform column
skips its own row, and persistent averages only union these patterns. So
every diagonal of H is exactly 1, and the row builders compute only the
off-diagonal coefficients, from a matrix ((1-m)*W_ij) or from out-degrees
((1-m)/outdeg(j)); the two differ in the last bit for some degrees, so
each keeps its own. One vectorized assembly then lays every row out as
the unit diagonal followed by the sorted in-neighbor columns; the stacked
Csr for diagnostics and solves is built on first use.

Brandes betweenness and all-pairs BFS run as compiled per-source FIFO
queue loops (``_native``) when the system C compiler can build them, and
otherwise as the same loops in Python, which are also the reference the
compiled loops are tested against. Outputs are pinned byte for byte, so
both perform the same float operations in the same order and agree bit
for bit:

- sigma[w] adds sigma[v] over the shortest-path edges v -> w, with v in
  queue order and w along v's sorted out_adj row;
- delta[v] adds (sigma[v]/sigma[w]) * (1 + delta[w]) with w in reverse
  queue order and w's predecessors in queue order;
- each source's own delta is dropped, and bc adds the sources' delta
  vectors for s = 0..n-1 in order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .levelsets import CentralityVector
from .matrix import Csr, apply_google_matrix, frozen, in_links


@dataclass(frozen=True)
class RegressionRows:
    """Condensed sparse rows H_i in one flat layout.

    Row i is indices[indptr[i]:indptr[i+1]] with the coefficients at the
    same positions of data: i itself (the diagonal, 1.0), then its sorted
    in-neighbor columns; indptr and indices are frozen (matrix.frozen),
    data is writable. The compiled engine steps read the flat arrays; idx
    and coef are their per-row views, built on first read. y is the
    common target m/n, or None when the network size is withheld. No
    engine step reads y (known size takes m/n from m and n, unknown size
    its own running estimate); only the residual diagnostic, ls_objective,
    and the reference solve, direct_ls_solve, do.
    """

    n: int
    m: float
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    y: float | None

    def __post_init__(self):
        object.__setattr__(self, "indptr", frozen(self.indptr))
        object.__setattr__(self, "indices", frozen(self.indices))

    @cached_property
    def idx(self):
        return tuple(np.split(self.indices, self.indptr[1:-1]))

    @cached_property
    def coef(self):
        return tuple(np.split(self.data, self.indptr[1:-1]))

    @cached_property
    def csr(self):
        """Stacked rows as a Csr with sorted columns, built on first use;
        the temporal engine rebuilds rows per snapshot and never asks."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        order = np.lexsort((self.indices, rows))
        return Csr(self.indptr, self.indices[order], self.data[order],
                   (self.n, self.n))


@dataclass(frozen=True)
class LsSolution:
    """A PageRank vector and the iterations that produced it (0 for the
    direct solve); ls_objective(x, rows) gives its residual."""

    x: np.ndarray
    iterations: int = 0


def _off_diagonal(indptr):
    """Places of the off-diagonal entries in a rows layout: all but the
    first of each row, which holds the diagonal."""
    off = np.ones(indptr[-1], dtype=bool)
    off[indptr[:-1]] = False
    return off


def _layout(n, rows, cols):
    """indptr and indices of stacked rows, each row's diagonal first, from
    the off-diagonal (row, col) pairs, sorted by row, then by column."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n) + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[indptr[:-1]] = np.arange(n)
    indices[_off_diagonal(indptr)] = cols
    return indptr, indices


def _fill(n, m, indptr, indices, vals, n_known):
    """Rows on a layout: 1.0 on each row's diagonal, vals in the
    off-diagonal places in order."""
    data = np.ones(indptr[-1])
    data[_off_diagonal(indptr)] = vals
    return RegressionRows(n=n, m=m, indptr=indptr, indices=indices, data=data,
                          y=m / n if n_known else None)


def build_regression_rows(w, m, n_known=True, like=None):
    """Rows of I - (1-m)W from a column-stochastic Csr W, read row by row.

    Every row's diagonal is 1, so a diagonal entry of W raises ValueError.
    like, rows built here from an earlier W with w's very indptr and
    indices arrays, lends the new rows its frozen layout, and only the data
    is new.
    """
    if not 0.0 < m < 1.0:
        raise ValueError(f"damping factor m={m} outside (0,1)")
    n = w.shape[0]
    if like is not None:
        indptr, indices = like.indptr, like.indices
    else:
        rows = np.repeat(np.arange(n), np.diff(w.indptr))
        loops = rows[rows == w.indices]
        if loops.size:
            raise ValueError(f"W has a diagonal entry in row {loops[0]}")
        indptr, indices = _layout(n, rows, w.indices)
    return _fill(n, m, indptr, indices, -(1.0 - m) * w.data, n_known)


def rows_from_graph(g, m, n_known=True):
    """Build rows straight from adjacency, never touching a matrix.

    Equivalent to build_regression_rows(build_hyperlink_matrix(g), m) up to
    the last bit; used by the engines so that each node's row depends only
    on its in-neighbor list and their out-degrees.
    """
    if not 0.0 < m < 1.0:
        raise ValueError(f"damping factor m={m} outside (0,1)")
    rows, cols, outdeg = in_links(g)
    return _fill(g.n, m, *_layout(g.n, rows, cols), -(1.0 - m) / outdeg[cols],
                 n_known)


def ls_objective(x, rows):
    """Sum of squared residuals of the stacked regression against the rows'
    target y; zero at PageRank. Rows built without the network size carry
    no target and have no residual."""
    x = np.asarray(x, dtype=float)
    if x.shape != (rows.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({rows.n},)")
    if rows.y is None:
        raise ValueError("rows carry no target: the network size is withheld")
    r = rows.y - rows.csr @ x
    # summed left to right, as engine.project sums: `r @ r` is BLAS ddot,
    # whose order, and so whose last bits, depend on the host's CPU
    return float((r * r).cumsum()[-1])


def direct_ls_solve(rows):
    """Exact PageRank from one LU solve of the square system H x = (m/n) 1.

    H = I - (1-m)W is nonsingular for every column-stochastic W and m in
    (0, 1): its columns are strictly diagonally dominant. The dense H and
    LAPACK's copy of it are the two n x n float64 arrays alive at once. The
    CLI takes its oracle from the power method; this solve is the tests'
    reference.
    """
    if rows.y is None:
        raise ValueError("rows carry no target: the network size is withheld")
    return LsSolution(x=np.linalg.solve(rows.csr.toarray(),
                                        np.full(rows.n, rows.y)))


def power_method(w, m, tol=1e-12, max_iter=10_000):
    """Iterate the Google matrix from the uniform vector until the L1 step
    falls below tol; the damping m lies in (0, 1)."""
    n = w.shape[0]
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 < m < 1.0:
        raise ValueError(f"damping factor m={m} outside (0,1)")
    x = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        x_new = apply_google_matrix(w, m, x)
        if np.abs(x_new - x).sum() < tol:
            return LsSolution(x=x_new, iterations=it)
        x = x_new
    raise RuntimeError(f"power method did not converge in {max_iter} iterations")


def brandes_betweenness(g):
    """Exact betweenness over ordered pairs, unit edge lengths."""
    from . import _native  # here: importing the package leaves it out

    lib = _native.load()
    bc = _loop_betweenness(g) if lib is None else _native.brandes(lib, g)
    return CentralityVector(values=bc, kind="betweenness")


def bfs_all_pairs(g):
    """Hop distances d[i, j]; inf where j is unreachable from i."""
    from . import _native

    lib = _native.load()
    return _loop_all_pairs(g) if lib is None else _native.bfs_all_pairs(lib, g)


def _loop_betweenness(g):
    """Raw betweenness vector by the per-source queue loop in Python."""
    n = g.n
    bc, sigma, delta = [0.0] * n, [0.0] * n, [0.0] * n
    dist, preds = [-1] * n, [[] for _ in range(n)]
    for s in range(n):
        dist[s], sigma[s] = 0, 1.0
        queue = [s]
        for v in queue:  # the list grows as it is read: a FIFO queue
            dw = dist[v] + 1
            for w in g.out_adj[v]:
                if dist[w] < 0:
                    dist[w], sigma[w] = dw, 0.0
                    queue.append(w)
                if dist[w] == dw:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        # queue[0] is s, which has no predecessors and no share
        for w in reversed(queue[1:]):
            share = 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * share
            bc[w] += delta[w]
        for v in queue:
            dist[v], delta[v] = -1, 0.0
            preds[v].clear()
    return np.array(bc)


def _loop_all_pairs(g):
    """Hop distance matrix by the per-source queue loop in Python."""
    n, inf = g.n, np.inf  # a local name: read once per edge
    d = np.empty((n, n))
    for s in range(n):
        row = [inf] * n
        row[s] = 0.0
        queue = [s]
        for v in queue:
            dw = row[v] + 1.0
            for w in g.out_adj[v]:
                if row[w] == inf:
                    row[w] = dw
                    queue.append(w)
        d[s] = row
    return d
