"""Hyperlink matrices, Google-matrix products and persistent averaging.

Column-stochastic matrices are held as Csr, three numpy arrays in the layout
the regression rows read: row i lists the in-links of node i in sorted
column order, and column j carries the out-links of node j with weight
1/outdeg(j).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Csr:
    """Compressed sparse rows: row i holds the columns
    indices[indptr[i]:indptr[i+1]], sorted and without repeats, with the
    values data[indptr[i]:indptr[i+1]].

    The product adds each row's terms in storage order starting from 0.0,
    as scipy's CSR product does, so the two agree bit for bit.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @cached_property
    def _row_ids(self):
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x):
        return np.bincount(self._row_ids, weights=self.data * x[self.indices],
                           minlength=self.shape[0])

    def toarray(self):
        a = np.zeros(self.shape)
        a[self._row_ids, self.indices] = self.data
        return a


def _sorted_unique(keys):
    """np.unique(keys), without the numpy.ma import (about 15 ms) that
    np.unique makes on its first call."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def frozen(a):
    """a, or a copy of it, in a bytes object, which nothing can write."""
    return a if isinstance(a.base, bytes) else np.frombuffer(a.tobytes(), a.dtype)


def in_links(g):
    """(rows, cols, outdeg): W[rows, cols] = 1/outdeg[cols], sorted by row,
    then column; a uniform column counts n-1 out-links."""
    n, cols = g.n, g.in_idx
    rows = np.repeat(np.arange(n), np.diff(g.in_ptr))
    uniform = np.array(sorted(g.uniform_columns), dtype=np.int64)
    ui = np.repeat(np.arange(n), uniform.size)
    uj = np.tile(uniform, n)
    keys = _sorted_unique(np.concatenate((rows * n + cols, (ui * n + uj)[ui != uj])))
    outdeg = g.out_degrees()
    outdeg[uniform] = n - 1
    return keys // n, keys % n, outdeg


def build_hyperlink_matrix(g):
    """Column-stochastic Csr matrix with w[dst, src] = 1/outdeg(src).

    Columns flagged uniform (uniform-column dangling repair) get 1/(n-1)
    on every off-diagonal row.
    """
    rows, cols, outdeg = in_links(g)
    dead = np.flatnonzero(outdeg == 0)
    if dead.size:
        raise ValueError(
            f"node {g.labels[dead[0]]!r} has out-degree zero; repair dangling nodes first"
        )
    m = Csr(np.searchsorted(rows, np.arange(g.n + 1)), cols, 1.0 / outdeg[cols],
            (g.n, g.n))
    assert_column_stochastic(m)
    return m


def column_sums(w):
    """Column sums of the Csr matrix w, each added in storage order as
    scipy's w.sum(axis=0) adds it."""
    return np.bincount(w.indices, weights=w.data, minlength=w.shape[1])


def assert_column_stochastic(w):
    """Every column of the Csr matrix w sums to 1 within COLUMN_SUM_TOL."""
    sums = column_sums(w)
    bad = np.abs(sums - 1.0) > COLUMN_SUM_TOL
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
    wbar + (W(k) - wbar) / Z_k over the union of both patterns: the float
    operations of scipy's a + (b - a) * s, and like it dropping the entries
    that come out exactly zero (where b - a is zero scipy computes a + 0
    and this a + 0 * s; both give a).

    The average keeps its sorted keys (row * n + column), tied to the
    wbar they describe: an update finds the snapshot's keys among them
    with one searchsorted and inserts only the missing ones. When none is
    missing and none drops, the new wbar shares the old indptr and indices.
    No update writes into wbar or a snapshot's arrays; the first wbar is
    the first snapshot itself.
    """

    rho: float
    wbar: Csr = None
    z: float = 0.0
    _keyed: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"forgetting factor rho={self.rho} outside (0,1]")

    def update(self, w_k):
        a = self.wbar
        if a is not None and w_k.shape != a.shape:
            raise ValueError(
                f"snapshot shape {w_k.shape} != running shape {a.shape}"
            )
        self.z = self.rho * self.z + 1.0
        n = w_k.shape[1]
        kb = w_k._row_ids * n + w_k.indices
        if a is None:
            self.wbar, self._keyed = w_k, (w_k, kb)
            return self
        owner, held = self._keyed
        if owner is not a:  # a wbar given from outside: key it here
            held = a._row_ids * n + a.indices
        keys, va = held, a.data
        pos = np.searchsorted(keys, kb)
        miss = keys.take(pos, mode="clip") != kb
        if miss.any():
            keys = np.insert(keys, pos[miss], kb[miss])
            va = np.insert(va, pos[miss], 0.0)
            # each key lands past the missing keys inserted before it
            pos = pos + np.cumsum(miss) - miss
        vb = np.zeros(keys.size)
        vb[pos] = w_k.data
        vals = va + (vb - va) * (1.0 / self.z)
        keep = vals != 0
        if not keep.all():
            keys, vals = keys[keep], vals[keep]
        if keys is held:
            self.wbar = Csr(a.indptr, a.indices, vals, a.shape)
        else:
            self.wbar = Csr(np.searchsorted(keys, np.arange(a.shape[0] + 1) * n),
                            keys % n, vals, a.shape)
        self._keyed = (self.wbar, keys)
        return self

    def wbar_rows(self):
        """The current average, row-sliceable Csr."""
        return self.wbar
