"""Seeded input generators; the program under test only ever sees the files.

The generators repeat the acceptance gate's graphs in plain numpy, so a
change to the package cannot change the benchmark's inputs:

- ``weblike_edges`` is ``weblike_graph`` of tests/test_acceptance.py (seed 101
  with n = 4000 is criterion 10's graph), including its backlink repair;
- ``dense_edges`` is the ``dense50`` fixture (seed 2);
- ``spam_snapshots`` with seed None is criterion 9's 12-node spam sequence;
  other seeds move its chords, spam target and spam sources.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def weblike_edges(seed, n, out_links=6, zipf=0.5):
    """Heavy-tailed in-degrees from a shuffled Zipf profile, ~6 out-links."""
    rng = np.random.default_rng(seed)
    attract = np.arange(1, n + 1, dtype=float) ** -zipf
    rng.shuffle(attract)
    p = attract / attract.sum()
    draws = rng.choice(n, size=(n, out_links), p=p)
    edges = {(v, int(u)) for v in range(n) for u in draws[v] if u != v}
    # backlink repair: a node whose draws all hit itself links back to
    # every node that links to it
    has_out = {u for (u, _) in edges}
    for d in set(range(n)) - has_out:
        edges |= {(d, u) for (u, v) in list(edges) if v == d}
    return edges


def dense_edges(seed, n=50, p=0.5):
    """Undirected Erdos-Renyi graph as a symmetric digraph."""
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
                edges.add((j, i))
    return edges


def spam_snapshots(seed, n=12, spam_len=10, total=500):
    """Bidirectional ring with four chords; spam links into one target live
    only in the first ``spam_len`` snapshots. The ring keeps every snapshot
    connected, so omega = 0 runs never hit the connectivity check."""
    if seed is None:
        chords = [(0, 5), (2, 8), (4, 10), (1, 7)]
        target = 9
        sources = (0, 2, 4, 6, 8, 11)
    else:
        rng = np.random.default_rng(seed)
        ring = {(i, (i + 1) % n) for i in range(n)}
        pairs = [(i, j) for i in range(n) for j in range(i + 2, n)
                 if (i, j) not in ring and (j, i) not in ring]
        chords = [pairs[k] for k in rng.choice(len(pairs), 4, replace=False)]
        target = int(rng.integers(n))
        others = [i for i in range(n) if i != target]
        sources = sorted(int(others[k]) for k in rng.choice(n - 1, 6, replace=False))
    base = set()
    for i in range(n):
        base |= {(i, (i + 1) % n), ((i + 1) % n, i)}
    for (u, v) in chords:
        base |= {(u, v), (v, u)}
    spam = base | {(j, target) for j in sources if j != target}
    return [spam] * spam_len + [base] * (total - spam_len)


def write_edge_list(path, edges):
    Path(path).write_text("".join(f"{u} {v}\n" for (u, v) in sorted(edges)))
    return describe(path, n=len({x for e in edges for x in e}), edges=len(edges))


def write_temporal(path, snapshots):
    lines = [f"{t} {u} {v}\n" for t, es in enumerate(snapshots) for (u, v) in sorted(es)]
    Path(path).write_text("".join(lines))
    nodes = {x for es in snapshots for e in es for x in e}
    return describe(path, n=len(nodes), edges=sum(len(es) for es in snapshots),
                    snapshots=len(snapshots))


def describe(path, **facts):
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {"file": Path(path).name, "sha256": digest, **facts}
