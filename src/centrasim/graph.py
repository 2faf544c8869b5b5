"""Directed graphs, edge-list parsing, dangling repair and structure checks."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphFormatError, NotOrientedTreeError, RepairError


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph with dense node indices 0..n-1.

    ``labels`` maps an index back to the original string identifier.
    ``uniform_columns`` marks nodes whose hyperlink-matrix column is to be
    filled uniformly off-diagonal (the uniform-column dangling repair).
    """

    n: int
    edges: frozenset[tuple[int, int]]
    out_adj: tuple[tuple[int, ...], ...]
    in_adj: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    uniform_columns: frozenset[int] = field(default_factory=frozenset)

    @staticmethod
    def from_edges(n, edges, labels=None, uniform_columns=()):
        edges = set(edges)
        for (u, v) in edges:
            if u == v:
                raise GraphFormatError(f"self-loop on node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
        out_adj = [[] for _ in range(n)]
        in_adj = [[] for _ in range(n)]
        for (u, v) in edges:
            out_adj[u].append(v)
            in_adj[v].append(u)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        return DirectedGraph(
            n=n,
            edges=frozenset(edges),
            out_adj=tuple(tuple(sorted(a)) for a in out_adj),
            in_adj=tuple(tuple(sorted(a)) for a in in_adj),
            labels=tuple(labels),
            uniform_columns=frozenset(uniform_columns),
        )

    def dangling_nodes(self):
        return [i for i in range(self.n)
                if not self.out_adj[i] and i not in self.uniform_columns]


@dataclass(frozen=True)
class TemporalGraphSequence:
    """Snapshots of a graph over a fixed node set, at increasing time indices."""

    n: int
    snapshots: tuple[tuple[int, DirectedGraph], ...]

    def graphs(self):
        return [g for (_, g) in self.snapshots]


def adjacency_csr(adj):
    """Flat CSR (indptr, indices) of adjacency lists, int64, rows in order."""
    indptr = np.cumsum([0, *map(len, adj)], dtype=np.int64)
    indices = np.fromiter((w for a in adj for w in a), dtype=np.int64,
                          count=indptr[-1])
    return indptr, indices


def _tokenize(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def parse_edge_list(text):
    """Parse `src dst` label pairs into a DirectedGraph.

    Duplicate edges collapse silently; a self-loop or an input without
    edges is an error.
    """
    index = {}
    labels = []
    edges = set()

    def node(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, parts in _tokenize(text):
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'src dst', got {parts!r}")
        src, dst = parts
        if src == dst:
            raise GraphFormatError(f"line {lineno}: self-loop on node {src!r}")
        edges.add((node(src), node(dst)))
    if not edges:
        raise GraphFormatError("no edges in edge list")
    return DirectedGraph.from_edges(len(labels), edges, labels=labels)


def parse_temporal_edge_list(text):
    """Parse `time src dst` lines into a TemporalGraphSequence.

    Time values must be nondecreasing; the node set is the union over the
    whole file and is shared by every snapshot.
    """
    index = {}
    labels = []
    raw_snaps = []  # list of (time, [(u, v), ...])
    last_time = None

    def node(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, parts in _tokenize(text):
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'time src dst', got {parts!r}")
        t_str, src, dst = parts
        try:
            t = int(t_str)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad time value {t_str!r}") from None
        if t < 0:
            raise GraphFormatError(f"line {lineno}: negative time {t}")
        if last_time is not None and t < last_time:
            raise GraphFormatError(f"line {lineno}: time {t} decreases below {last_time}")
        if src == dst:
            raise GraphFormatError(f"line {lineno}: self-loop on node {src!r}")
        if last_time is None or t > last_time:
            raw_snaps.append((t, set()))
            last_time = t
        raw_snaps[-1][1].add((node(src), node(dst)))

    if not raw_snaps:
        raise GraphFormatError("no snapshots in temporal edge list")
    n = len(labels)
    snapshots = tuple(
        (t, DirectedGraph.from_edges(n, es, labels=labels)) for (t, es) in raw_snaps
    )
    return TemporalGraphSequence(n=n, snapshots=snapshots)


def serialize_edge_list(g):
    """Inverse of parse_edge_list (up to edge ordering)."""
    lines = [f"{g.labels[u]} {g.labels[v]}" for (u, v) in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def serialize_temporal_edge_list(seq):
    lines = []
    for (t, g) in seq.snapshots:
        for (u, v) in sorted(g.edges):
            lines.append(f"{t} {g.labels[u]} {g.labels[v]}")
    return "\n".join(lines) + "\n"


def repair_dangling(g, policy="backlink"):
    """Guarantee out-degree >= 1 everywhere.

    `backlink` adds a reverse edge from each dangling node to each of its
    in-neighbors; `uniform-column` marks the node so that its hyperlink
    column is spread uniformly over all other nodes.
    """
    dangling = g.dangling_nodes()
    if not dangling:
        return g
    if policy == "backlink":
        new_edges = set(g.edges)
        for d in dangling:
            if not g.in_adj[d]:
                raise RepairError(
                    f"node {g.labels[d]!r} is dangling with no in-neighbors; "
                    "backlink repair impossible"
                )
            for u in g.in_adj[d]:
                new_edges.add((d, u))
        return DirectedGraph.from_edges(
            g.n, new_edges, labels=g.labels, uniform_columns=g.uniform_columns
        )
    if policy == "uniform-column":
        if g.n < 2:
            raise RepairError("uniform-column repair needs at least two nodes")
        return DirectedGraph.from_edges(
            g.n, g.edges, labels=g.labels,
            uniform_columns=g.uniform_columns | set(dangling),
        )
    raise ValueError(f"unknown dangling policy {policy!r}")


def symmetrize(g):
    """Close the edge set under reversal (communication graph of the surfer)."""
    new_edges = set(g.edges) | {(v, u) for (u, v) in g.edges}
    if new_edges == set(g.edges):
        return g
    return DirectedGraph.from_edges(g.n, new_edges, labels=g.labels)


def is_strongly_connected(g):
    if g.n <= 1:
        return True
    return (len(_reachable(g.out_adj, 0)) == g.n
            and len(_reachable(g.in_adj, 0)) == g.n)


def _reachable(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def validate_oriented_tree(g):
    """Check that the underlying undirected graph is acyclic.

    Returns (True, None) or (False, cycle) where cycle is a list of node
    labels forming an undirected cycle.
    """
    # An antiparallel pair is two distinct undirected walks between the
    # same endpoints, hence a cycle.
    for (u, v) in g.edges:
        if u < v and (v, u) in g.edges:
            return False, [g.labels[u], g.labels[v]]

    und = [set() for _ in range(g.n)]
    for (u, v) in g.edges:
        und[u].add(v)
        und[v].add(u)

    visited = [False] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if visited[root]:
            continue
        visited[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v in sorted(und[u]):
                if not visited[v]:
                    visited[v] = True
                    parent[v] = u
                    stack.append(v)
                elif v != parent[u] and parent[v] != u:
                    return False, _cycle_labels(g, parent, u, v)
    return True, None


def _cycle_labels(g, parent, u, v):
    # Walk both nodes up to the root, splice at the lowest common ancestor.
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    anc = set(path_u)
    path_v = [v]
    while path_v[-1] not in anc:
        path_v.append(parent[path_v[-1]])
    meet = path_v[-1]
    cycle = path_u[: path_u.index(meet) + 1] + path_v[-2::-1]
    return [g.labels[i] for i in cycle]
