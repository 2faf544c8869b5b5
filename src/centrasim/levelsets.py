"""Synchronous-round level-set recursion and the centralities built on it.

Round t+1 computes, for every node i simultaneously,

    R_i^{t+1} = (union of R_j^t over out-neighbors j) minus everything
                already placed (and i itself),

and the mirrored recursion for the backward sets L_i^t over in-neighbors.
Each direction is one hop-distance matrix, dist[i, v] = the round in which
v joined node i's sets (0 on the diagonal, -1 if never). Each node's
round-t set is one bit-packed row, and a round is one OR-reduction for all
nodes: row i ORs only the round-t rows of i's neighbors, which is what
makes the scheme message-local, then drops what it already holds. The
optional audit logs every read so tests can verify that claim. L runs its
own rounds over the in-adjacency rather than reading the transpose of R,
because each node builds its L sets from its in-neighbors' messages.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotOrientedTreeError
from .graph import is_oriented_tree


@dataclass(frozen=True, eq=False)
class LevelSets:
    """Forward and backward hop distances: fwd[i, v] is the round in which
    v joined node i's forward sets, bwd[i, v] its backward sets."""

    fwd: np.ndarray
    bwd: np.ndarray

    @cached_property
    def r(self):
        """r[i][t-1]: frozenset of the nodes at forward distance exactly t."""
        return _partitions(self.fwd)

    @cached_property
    def l(self):
        """l[i][t-1]: frozenset of the nodes at backward distance exactly t."""
        return _partitions(self.bwd)

    @property
    def t_max(self):
        """Largest finite distance in the graph."""
        return int(self.fwd.max(initial=0))


def _partitions(dist):
    return tuple(tuple(frozenset(np.flatnonzero(row == t).tolist())
                       for t in range(1, row.max(initial=0) + 1))
                 for row in dist)


@dataclass
class MessageAudit:
    """Record of who read whose round-t set during run_levelset."""

    reads: list = field(default_factory=list)  # (reader, sender, round, kind)
    per_round_totals: list = field(default_factory=list)  # both directions

    def record_round(self, indptr, indices, t, kind):
        """Reader i reads sender j's set for every j in
        indices[indptr[i]:indptr[i+1]]."""
        readers = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        self.reads += [(i, j, t, kind) for i, j in
                       zip(readers.tolist(), indices.tolist())]
        if len(self.per_round_totals) < t:
            self.per_round_totals.append(0)
        self.per_round_totals[t - 1] += indices.size


def _distances(indptr, indices, audit, kind):
    """Hop distances by synchronous rounds over one adjacency direction,
    given as CSR arrays."""
    n = indptr.size - 1
    # reduceat ORs the segments between consecutive starts, so rows with no
    # neighbors are left out and stay empty
    readers = np.flatnonzero(np.diff(indptr))
    # row i's set as bits packed into 64-bit words
    eye = np.eye(n, -(-n // 64) * 64, dtype=bool)
    cur = np.packbits(eye, axis=1).view(np.uint64)
    seen = cur.copy()
    # dist[i, v] counts the rounds that ended with v outside node i's sets:
    # the round v joined, or every round if it never did
    dist = np.zeros((n, n), dtype=np.int32)
    t = 0
    while cur.any():
        dist += np.unpackbits((~seen).view(np.uint8), axis=1, count=n)
        # every node knows its own adjacency, so only rounds past the
        # first read a neighbor's set
        if audit is not None and t:
            audit.record_round(indptr, indices, t, kind)
        heard = np.zeros_like(cur)
        if readers.size:
            heard[readers] = np.bitwise_or.reduceat(cur[indices],
                                                    indptr[readers], axis=0)
        cur = heard & ~seen
        seen |= cur
        t += 1
    dist[dist == t] = -1
    return dist


def run_levelset(g, audit=None):
    """Run the synchronous partition rounds until no node learns anything new."""
    return LevelSets(fwd=_distances(g.out_ptr, g.out_idx, audit, "R"),
                     bwd=_distances(g.in_ptr, g.in_idx, audit, "L"))


@dataclass(frozen=True)
class CentralityVector:
    values: np.ndarray
    kind: str
    normalized: bool = False


def normalize(v):
    """Divide by the total mass; refuses all-zero vectors."""
    vals = np.asarray(v.values, dtype=float)
    if (vals < 0).any():
        raise ValueError("cannot normalize a vector with negative entries")
    total = vals.sum()
    if total == 0:
        raise ValueError(f"cannot normalize all-zero {v.kind} vector")
    return CentralityVector(values=vals / total, kind=v.kind, normalized=True)


def degree_centrality(g):
    vals = g.out_degrees().astype(float)
    return CentralityVector(values=vals, kind="degree")


def closeness_centrality(ls, g):
    """Closeness 1/sum(distances) when every node reaches all others.

    Falls back to harmonic closeness (sum of reciprocal distances) when the
    graph is not strongly connected, flagged through the kind field.
    """
    n = g.n
    if n > 1 and ((ls.fwd > 0).sum(axis=1) == n - 1).all():
        return CentralityVector(values=1.0 / ls.fwd.sum(axis=1),
                                kind="closeness")
    # sum count_t / t in increasing t, the order of the per-node sum
    vals = np.zeros(n)
    for t in range(1, ls.t_max + 1):
        vals += (ls.fwd == t).sum(axis=1) / t
    return CentralityVector(values=vals, kind="harmonic-closeness")


def tree_betweenness(ls, g):
    """Distributed betweenness of an oriented tree; NotOrientedTreeError
    otherwise.

    For an out-neighbor j, the branch size |R_{i->j}| is 1 + sum_t |R_j^t|
    (the 1 counts j itself); symmetrically for in-branches. Every ordered
    (source, target) pair through i is counted once because branches of an
    oriented tree are disjoint. Node i sums its branch sizes over its CSR
    rows; the sizes are whole numbers, so every sum and product is exact.
    """
    if not is_oriented_tree(g):
        raise NotOrientedTreeError("not an oriented tree")
    n = g.n
    succ = 1.0 + (ls.fwd > 0).sum(axis=1)
    pred = 1.0 + (ls.bwd > 0).sum(axis=1)
    r_total = np.bincount(np.repeat(np.arange(n), np.diff(g.out_ptr)),
                          weights=succ[g.out_idx], minlength=n)
    l_total = np.bincount(np.repeat(np.arange(n), np.diff(g.in_ptr)),
                          weights=pred[g.in_idx], minlength=n)
    return CentralityVector(values=r_total * l_total, kind="betweenness")
