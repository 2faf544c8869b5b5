"""Directed graphs, edge-list parsing, dangling repair and structure checks.

A graph is its edge keys ``src*n + dst``, sorted and without repeats. The
out- and in-adjacency are CSR arrays read off the keys on first use, and
symmetrize, repair and the structure checks work on key arrays too.
Building a graph runs no Python loop over its edges: the compiled library
parses a plain edge list (``_native.parse``), and only other text, or a
host without a C compiler, goes through the per-line tokenizer, which
also names every fault with its line.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GraphFormatError, RepairError
from .matrix import _sorted_unique


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Simple directed graph with dense node indices 0..n-1.

    ``keys`` holds each edge (u, v) as u*n + v, sorted and without repeats.
    ``labels`` maps an index back to the original string identifier.
    ``uniform_columns`` marks nodes whose hyperlink-matrix column is to be
    filled uniformly off-diagonal (the uniform-column dangling repair).
    Graphs compare and hash by identity; parse_temporal_edge_list shares
    one object among equal snapshots.

    ``out_ptr``/``out_idx`` list row u's out-neighbors as
    out_idx[out_ptr[u]:out_ptr[u+1]], sorted; ``in_ptr``/``in_idx`` the
    in-neighbors likewise (int64 arrays, built on first read). ``out_adj``,
    ``in_adj`` and ``edges`` are the same as tuples and a frozenset, for the
    Python loops that read them.
    """

    n: int
    keys: np.ndarray
    labels: tuple[str, ...]
    uniform_columns: frozenset[int] = field(default_factory=frozenset)

    @staticmethod
    def from_edges(n, edges, labels=None, uniform_columns=()):
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        loops = pairs[pairs[:, 0] == pairs[:, 1]]
        if loops.size:
            raise GraphFormatError(f"self-loop on node {loops[0, 0]}")
        outside = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)]
        if outside.size:
            u, v = outside[0].tolist()
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        return DirectedGraph(n=n, keys=_sorted_unique(pairs[:, 0] * n + pairs[:, 1]),
                             labels=tuple(labels),
                             uniform_columns=frozenset(uniform_columns))

    @cached_property
    def _out(self):
        return _csr(self.n, self.keys)

    @cached_property
    def _in(self):
        return _csr(self.n, np.sort(_reversed(self.keys, self.n)))

    out_ptr = property(lambda self: self._out[0])
    out_idx = property(lambda self: self._out[1])
    in_ptr = property(lambda self: self._in[0])
    in_idx = property(lambda self: self._in[1])

    @cached_property
    def out_adj(self):
        return _rows(*self._out)

    @cached_property
    def in_adj(self):
        return _rows(*self._in)

    @cached_property
    def edges(self):
        return frozenset(_pairs(self))

    def out_degrees(self):
        return np.diff(self.out_ptr)

    def dangling_nodes(self):
        return [i for i in np.flatnonzero(self.out_degrees() == 0).tolist()
                if i not in self.uniform_columns]


def _reversed(keys, n):
    """Keys of the reversed edges, unsorted."""
    src, dst = np.divmod(keys, n)
    return dst * n + src


def _csr(n, keys):
    """(indptr, indices) of sorted unique keys u*n + v: row u lists its v."""
    rows, cols = np.divmod(keys, n)
    return np.searchsorted(rows, np.arange(n + 1)), cols


def _rows(indptr, indices):
    """The CSR's rows as tuples of Python ints."""
    idx = indices.tolist()
    ptr = indptr.tolist()
    return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))


@dataclass(frozen=True)
class TemporalGraphSequence:
    """Snapshots of a graph over a fixed node set, at increasing time
    indices; equal snapshots are one graph object."""

    n: int
    snapshots: tuple[tuple[int, DirectedGraph], ...]

    def graphs(self):
        return [g for (_, g) in self.snapshots]


def map_distinct(fn, items):
    """[fn(x) for x in items], calling fn once per distinct item (graphs
    are distinct by identity): repeats share one result object."""
    memo = {}
    for x in items:
        if x not in memo:
            memo[x] = fn(x)
    return [memo[x] for x in items]


def _tokenize(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "," in line:  # every table is label,value lines
            raise GraphFormatError(f"line {lineno}: a label may not contain ',': {line!r}")
        yield lineno, line.split()


def _compiled(text, width):
    """The library's parse of plain text (``_native.parse``), or None."""
    from . import _native  # here: _native imports the surfer, which imports us

    lib = _native.load()
    return None if lib is None else _native.parse(lib, text, width)


def _pair_ids(ids):
    """The (src, dst) ids collected in ids as an (edges, 2) int64 array."""
    return np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)


def _lines(text, width):
    """(labels, ids, times) of `src dst` lines (width 2) or `time src dst`
    lines (width 3), read line by line, as ``_native.parse`` returns them:
    the labels in order of first appearance, each line's (src, dst) ids as
    an (edges, 2) int64 array and each line's time (none for width 2), as
    int64 or, once a time passes int64, as Python ints in an object array.
    The twin of the library's parse, and the reader of any text it leaves,
    which names each fault with its line."""
    form = "'src dst'" if width == 2 else "'time src dst'"
    index = {}
    ids = array("q")
    times = []
    for lineno, parts in _tokenize(text):
        if len(parts) != width:
            raise GraphFormatError(f"line {lineno}: expected {form}, got {parts!r}")
        src, dst = parts[-2:]
        if width == 3:
            try:
                t = int(parts[0])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad time value {parts[0]!r}") from None
            if t < 0:
                raise GraphFormatError(f"line {lineno}: negative time {t}")
            if times and t < times[-1]:
                raise GraphFormatError(f"line {lineno}: time {t} decreases below {times[-1]}")
            times.append(t)
        if src == dst:
            raise GraphFormatError(f"line {lineno}: self-loop on node {src!r}")
        ids.append(index.setdefault(src, len(index)))
        ids.append(index.setdefault(dst, len(index)))
    if not ids:
        raise GraphFormatError("no edges in edge list" if width == 2 else
                               "no snapshots in temporal edge list")
    # the last time is the largest; numpy would round a mix to float64
    wide = times and times[-1] >= 1 << 63
    return (tuple(index), _pair_ids(ids),
            np.array(times, dtype=object if wide else np.int64))


def parse_edge_list(text):
    """Parse `src dst` label pairs into a DirectedGraph.

    Duplicate edges collapse silently; a self-loop or an input without
    edges is an error. Nodes are numbered in order of first appearance.
    """
    labels, ids, _ = _compiled(text, 2) or _lines(text, 2)
    n = len(labels)
    return DirectedGraph(n=n, keys=_sorted_unique(ids[:, 0] * n + ids[:, 1]),
                         labels=labels)


def parse_temporal_edge_list(text):
    """Parse `time src dst` lines into a TemporalGraphSequence.

    Time values must be nondecreasing; the node set is the union over the
    whole file and is shared by every snapshot, and snapshots with the same
    edges share one DirectedGraph.
    """
    labels, ids, line_times = _compiled(text, 3) or _lines(text, 3)
    starts = [0, *(np.flatnonzero(np.diff(line_times)) + 1).tolist()]
    times = line_times[starts].tolist()
    n = len(labels)
    line_keys = ids[:, 0] * n + ids[:, 1]
    bounds = [*starts, len(ids)]
    shared = {}
    snapshots = []
    for t, a, b in zip(times, bounds, bounds[1:]):
        keys = _sorted_unique(line_keys[a:b])
        g = shared.setdefault(keys.tobytes(),
                              DirectedGraph(n=n, keys=keys, labels=labels))
        snapshots.append((t, g))
    return TemporalGraphSequence(n=n, snapshots=tuple(snapshots))


def _pairs(g):
    """The edges of g as (src, dst) pairs of Python ints, in key order."""
    return zip(*(a.tolist() for a in np.divmod(g.keys, g.n)))


def repair_dangling(g, policy="backlink"):
    """Guarantee out-degree >= 1 everywhere.

    `backlink` adds a reverse edge from each dangling node to each of its
    in-neighbors; `uniform-column` marks the node so that its hyperlink
    column is spread uniformly over all other nodes. A graph without
    dangling nodes comes back as it is.
    """
    dangling = g.dangling_nodes()
    if not dangling:
        return g
    if policy == "backlink":
        in_deg = np.diff(g.in_ptr)
        for d in dangling:
            if not in_deg[d]:
                raise RepairError(
                    f"node {g.labels[d]!r} is dangling with no in-neighbors; "
                    "backlink repair impossible"
                )
        is_dangling = np.zeros(g.n, dtype=bool)
        is_dangling[dangling] = True
        into = g.keys[is_dangling[g.keys % g.n]]
        keys = _sorted_unique(np.concatenate((g.keys, _reversed(into, g.n))))
        return DirectedGraph(n=g.n, keys=keys, labels=g.labels,
                             uniform_columns=g.uniform_columns)
    if policy == "uniform-column":
        if g.n < 2:
            raise RepairError("uniform-column repair needs at least two nodes")
        return DirectedGraph(n=g.n, keys=g.keys, labels=g.labels,
                             uniform_columns=g.uniform_columns | set(dangling))
    raise ValueError(f"unknown dangling policy {policy!r}")


def symmetric_keys(keys, n):
    """Sorted unique keys of the edges and their reversals."""
    return _sorted_unique(np.concatenate((keys, _reversed(keys, n))))


def symmetrize(g):
    """Close the edge set under reversal (communication graph of the surfer).

    A graph that is already closed comes back as it is; otherwise the
    result carries no uniform columns.
    """
    keys = symmetric_keys(g.keys, g.n)
    if keys.size == g.keys.size:
        return g
    return DirectedGraph(n=g.n, keys=keys, labels=g.labels)


def is_strongly_connected(g):
    if g.n <= 1:
        return True
    return (_reach_all(g.out_ptr, g.out_idx)
            and _reach_all(g.in_ptr, g.in_idx))


def _reach_all(indptr, indices):
    """True if node 0 reaches every row of the CSR."""
    ptr, idx = indptr.tolist(), indices.tolist()
    seen = [False] * (len(ptr) - 1)
    seen[0] = True
    stack, found = [0], 1
    while stack:
        u = stack.pop()
        for v in idx[ptr[u]:ptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                found += 1
                stack.append(v)
    return found == len(seen)


def validate_oriented_tree(g):
    """Check that the underlying undirected graph is acyclic.

    Returns (True, None) or (False, cycle) where cycle is a list of node
    labels forming an undirected cycle.
    """
    # An antiparallel pair is two distinct undirected walks between the
    # same endpoints, hence a cycle; report the one of smallest key.
    n, keys = g.n, g.keys
    rev = _reversed(keys, n)
    pos = np.minimum(np.searchsorted(keys, rev), keys.size - 1)
    anti = keys[(keys < rev) & (keys[pos] == rev)]
    if anti.size:
        u, v = divmod(int(anti[0]), n)
        return False, [g.labels[u], g.labels[v]]

    und_ptr, und_idx = _csr(n, symmetric_keys(keys, n))
    ptr, idx = und_ptr.tolist(), und_idx.tolist()
    visited = [False] * n
    parent = [-1] * n
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v in idx[ptr[u]:ptr[u + 1]]:
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
