"""Synchronous-round level-set recursion and the centralities built on it.

Round t+1 computes, for every node i simultaneously,

    R_i^{t+1} = (union of R_j^t over out-neighbors j) minus everything
                already placed (and i itself),

and the mirrored recursion for the backward sets L_i^t over in-neighbors.
A node only ever reads the round-t set of its one-hop neighbors, which is
what makes the scheme message-local; the optional audit log records every
(reader, sender, round) triple so tests can verify that claim.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotOrientedTreeError
from .graph import validate_oriented_tree


@dataclass(frozen=True)
class LevelSets:
    """Per-node forward (r) and backward (l) hop-distance partitions.

    r[i][t-1] is the frozenset of nodes at forward distance exactly t from
    node i; rounds stop at t_max, the largest finite distance in the graph.
    """

    n: int
    r: tuple[tuple[frozenset, ...], ...]
    l: tuple[tuple[frozenset, ...], ...]
    t_max: int


@dataclass
class MessageAudit:
    """Record of who read whose round-t set during run_levelset."""

    reads: list = field(default_factory=list)  # (reader, sender, round, kind)
    per_round_totals: list = field(default_factory=list)

    def record(self, reader, sender, t, kind):
        self.reads.append((reader, sender, t, kind))


def run_levelset(g, audit=None):
    """Run the synchronous partition rounds until no node learns anything new."""
    n = g.n
    r_levels = [[] for _ in range(n)]
    l_levels = [[] for _ in range(n)]
    r_seen = [set(g.out_adj[i]) | {i} for i in range(n)]
    l_seen = [set(g.in_adj[i]) | {i} for i in range(n)]
    r_cur = [frozenset(g.out_adj[i]) for i in range(n)]
    l_cur = [frozenset(g.in_adj[i]) for i in range(n)]
    for i in range(n):
        if r_cur[i]:
            r_levels[i].append(r_cur[i])
        if l_cur[i]:
            l_levels[i].append(l_cur[i])

    t = 1
    while any(r_cur) or any(l_cur):
        r_new = []
        l_new = []
        for i in range(n):
            acc = set()
            for j in g.out_adj[i]:
                if audit is not None:
                    audit.record(i, j, t, "R")
                acc |= r_cur[j]
            r_new.append(frozenset(acc - r_seen[i]))
            acc = set()
            for j in g.in_adj[i]:
                if audit is not None:
                    audit.record(i, j, t, "L")
                acc |= l_cur[j]
            l_new.append(frozenset(acc - l_seen[i]))
        if audit is not None:
            audit.per_round_totals.append(
                sum(len(g.out_adj[i]) + len(g.in_adj[i]) for i in range(n))
            )
        if not any(r_new) and not any(l_new):
            break
        for i in range(n):
            if r_new[i]:
                r_levels[i].append(r_new[i])
                r_seen[i] |= r_new[i]
            if l_new[i]:
                l_levels[i].append(l_new[i])
                l_seen[i] |= l_new[i]
        r_cur, l_cur = r_new, l_new
        t += 1

    t_max = max((len(lv) for lv in r_levels), default=0)
    return LevelSets(
        n=n,
        r=tuple(tuple(lv) for lv in r_levels),
        l=tuple(tuple(lv) for lv in l_levels),
        t_max=t_max,
    )


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
    vals = np.array([len(g.out_adj[i]) for i in range(g.n)], dtype=float)
    return CentralityVector(values=vals, kind="degree")


def closeness_centrality(ls, g):
    """Closeness 1/sum(distances) when every node reaches all others.

    Falls back to harmonic closeness (sum of reciprocal distances) when the
    graph is not strongly connected, flagged through the kind field.
    """
    n = g.n
    strongly = all(
        sum(len(s) for s in ls.r[i]) == n - 1 for i in range(n)
    ) if n > 1 else True
    vals = np.zeros(n)
    if strongly and n > 1:
        for i in range(n):
            dist_sum = sum(t * len(s) for t, s in enumerate(ls.r[i], start=1))
            vals[i] = 1.0 / dist_sum
        return CentralityVector(values=vals, kind="closeness")
    for i in range(n):
        vals[i] = sum(len(s) / t for t, s in enumerate(ls.r[i], start=1))
    return CentralityVector(values=vals, kind="harmonic-closeness")


def tree_betweenness(ls, g):
    """Distributed betweenness of an oriented tree.

    For an out-neighbor j, the branch size |R_{i->j}| is 1 + sum_t |R_j^t|
    (the 1 counts j itself); symmetrically for in-branches. Every ordered
    (source, target) pair through i is counted once because branches of an
    oriented tree are disjoint.
    """
    ok, cycle = validate_oriented_tree(g)
    if not ok:
        raise NotOrientedTreeError(f"not an oriented tree; undirected cycle {cycle}")
    n = g.n
    vals = np.zeros(n)
    succ = np.array(
        [1 + sum(len(s) for s in ls.r[j]) for j in range(n)], dtype=float
    )
    pred = np.array(
        [1 + sum(len(s) for s in ls.l[j]) for j in range(n)], dtype=float
    )
    for i in range(n):
        # In an oriented tree an out-neighbor can never also be an
        # in-neighbor (that pair would be a 2-cycle).
        assert not set(g.out_adj[i]) & set(g.in_adj[i])
        r_total = sum(succ[j] for j in g.out_adj[i])
        l_total = sum(pred[k] for k in g.in_adj[i])
        vals[i] = r_total * l_total
    return CentralityVector(values=vals, kind="betweenness")
