"""Hyperlink matrices, Google-matrix products and persistent averaging.

Column-stochastic matrices are held as scipy CSR, the layout the regression
rows read: row i lists the in-links of node i in sorted column order, and
column j carries the out-links of node j with weight 1/outdeg(j).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import adjacency_csr

COLUMN_SUM_TOL = 1e-12


def in_links(g):
    """(rows, cols, outdeg): W[rows, cols] = 1/outdeg[cols], sorted by row,
    then column; a uniform column counts n-1 out-links."""
    n = g.n
    indptr, cols = adjacency_csr(g.in_adj)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    uniform = np.array(sorted(g.uniform_columns), dtype=np.int64)
    ui = np.repeat(np.arange(n), uniform.size)
    uj = np.tile(uniform, n)
    keys = np.unique(np.concatenate((rows * n + cols, (ui * n + uj)[ui != uj])))
    outdeg = np.array([len(a) for a in g.out_adj], dtype=np.int64)
    outdeg[uniform] = n - 1
    return keys // n, keys % n, outdeg


def build_hyperlink_matrix(g):
    """Column-stochastic CSR matrix with w[dst, src] = 1/outdeg(src).

    Columns flagged uniform (uniform-column dangling repair) get 1/(n-1)
    on every off-diagonal row.
    """
    rows, cols, outdeg = in_links(g)
    dead = np.flatnonzero(outdeg == 0)
    if dead.size:
        raise ValueError(
            f"node {g.labels[dead[0]]!r} has out-degree zero; repair dangling nodes first"
        )
    indptr = np.searchsorted(rows, np.arange(g.n + 1))
    m = sp.csr_matrix((1.0 / outdeg[cols], cols, indptr), shape=(g.n, g.n))
    assert_column_stochastic(m)
    return m


def assert_column_stochastic(w, tol=COLUMN_SUM_TOL):
    """Every column of the CSR matrix w sums to 1 within tol."""
    sums = np.bincount(w.indices, weights=w.data, minlength=w.shape[1])
    bad = np.abs(sums - 1.0) > tol
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(f"column {j} sums to {sums[j]!r}, not 1")


def apply_google_matrix(w, m, x):
    """(1-m)*W@x + (m/n)*sum(x), without forming the dense Google matrix."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"damping factor m={m} outside (0,1)")
    x = np.asarray(x, dtype=float)
    n = w.shape[0]
    if x.shape != (n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({n},)")
    return (1.0 - m) * (w @ x) + (m / n) * x.sum()


@dataclass
class PersistentAverage:
    """Forgetting-factor weighted running average of snapshot matrices.

    After k updates, wbar equals
        sum_{t=1..k} rho^(k-t) W(t) / Z_k,   Z_k = sum_{j=0..k-1} rho^j,
    maintained incrementally as Z_k = rho*Z_{k-1} + 1 and
    wbar += (W(k) - wbar) / Z_k.
    """

    rho: float
    wbar: sp.csr_matrix = None
    z: float = 0.0
    k: int = 0

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"forgetting factor rho={self.rho} outside (0,1]")

    def update(self, w_k):
        if self.wbar is not None and w_k.shape != self.wbar.shape:
            raise ValueError(
                f"snapshot shape {w_k.shape} != running shape {self.wbar.shape}"
            )
        self.z = self.rho * self.z + 1.0
        self.k += 1
        if self.wbar is None:
            self.wbar = sp.csr_matrix(w_k, copy=True)
        else:
            self.wbar = self.wbar + (w_k - self.wbar) * (1.0 / self.z)
        return self

    def wbar_rows(self):
        """The current average, row-sliceable CSR."""
        return self.wbar
