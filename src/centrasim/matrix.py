"""Hyperlink matrices, Google-matrix products and persistent averaging.

Column-stochastic matrices are held as scipy CSC; column j carries the
out-links of node j with weight 1/outdeg(j).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

COLUMN_SUM_TOL = 1e-12


def build_hyperlink_matrix(g):
    """Column-stochastic matrix with w[dst, src] = 1/outdeg(src).

    Columns flagged uniform (uniform-column dangling repair) get 1/(n-1)
    on every off-diagonal row.
    """
    n = g.n
    rows, cols, vals = [], [], []
    for j in range(n):
        if j in g.uniform_columns:
            w = 1.0 / (n - 1)
            for i in range(n):
                if i != j:
                    rows.append(i)
                    cols.append(j)
                    vals.append(w)
            continue
        outs = g.out_adj[j]
        if not outs:
            raise ValueError(
                f"node {g.labels[j]!r} has out-degree zero; repair dangling nodes first"
            )
        w = 1.0 / len(outs)
        for i in outs:
            rows.append(i)
            cols.append(j)
            vals.append(w)
    m = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    assert_column_stochastic(m)
    return m


def assert_column_stochastic(w, tol=COLUMN_SUM_TOL):
    sums = np.asarray(w.sum(axis=0)).ravel()
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
    wbar: sp.csc_matrix = None
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
            self.wbar = w_k.copy().tocsc()
        else:
            self.wbar = (self.wbar + (w_k - self.wbar) * (1.0 / self.z)).tocsc()
        return self

    def wbar_rows(self):
        """Row-sliceable view of the current average."""
        return self.wbar.tocsr()
