from dataclasses import dataclass, field

import numpy as np
import pytest

from centrasim.errors import NotOrientedTreeError
from centrasim.graph import DirectedGraph, parse_edge_list, validate_oriented_tree
from centrasim.levelsets import (CentralityVector, MessageAudit,
                                 closeness_centrality, degree_centrality,
                                 normalize, run_levelset, tree_betweenness)
from centrasim.oracles import bfs_all_pairs, brandes_betweenness

from conftest import dense50_graph, random_digraph, random_oriented_tree
from test_acceptance import weblike_graph


class TestRunLevelset:
    def test_directed_path(self):
        g = parse_edge_list("1 2\n2 3")
        ls = run_levelset(g)
        assert [set(s) for s in ls.r[0]] == [{1}, {2}]
        assert [set(s) for s in ls.l[2]] == [{1}, {0}]
        assert ls.t_max == 2

    def test_fig1_node5(self, fig1):
        ls = run_levelset(fig1)
        assert [set(s) for s in ls.r[4]] == [{3}, {2, 5}, {1}, {0}]
        assert ls.t_max == 4

    def test_sink_node_has_no_levels(self):
        ls = run_levelset(parse_edge_list("a b"))
        assert ls.r[1] == ()
        assert ls.l[0] == ()

    def test_partition_and_reachability(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 100))
            g = random_digraph(rng, n, p=2.0 / n, repaired=False)
            ls = run_levelset(g)
            d = bfs_all_pairs(g)
            for i in range(n):
                seen = set()
                for t, s in enumerate(ls.r[i], start=1):
                    assert not (s & seen)
                    seen |= s
                    for j in s:
                        assert d[i, j] == t
                assert seen == {j for j in range(n)
                                if j != i and np.isfinite(d[i, j])}

    def test_round_count_is_max_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            g = random_digraph(rng, n, p=2.0 / n, repaired=False)
            ls = run_levelset(g)
            d = bfs_all_pairs(g)
            finite = d[np.isfinite(d)]
            assert ls.t_max == int(finite.max())

    def test_levelsets_match_backward_bfs(self):
        rng = np.random.default_rng(29)
        g = random_digraph(rng, 40, p=0.08, repaired=False)
        ls = run_levelset(g)
        d = bfs_all_pairs(g)
        for i in range(g.n):
            for t, s in enumerate(ls.l[i], start=1):
                for j in s:
                    assert d[j, i] == t

    def test_256_shortest_paths_into_one_node(self):
        # 256 two-hop paths s -> a_k -> c: an 8-bit count of the messages
        # carrying c (forward) or s (backward) would wrap to zero
        mids = range(1, 257)
        g = DirectedGraph.from_edges(
            258, {(0, k) for k in mids} | {(k, 257) for k in mids})
        ls = run_levelset(g)
        assert ls.fwd[0, 257] == 2 and ls.bwd[257, 0] == 2
        assert np.array_equal(np.where(ls.fwd < 0, np.inf, ls.fwd),
                              bfs_all_pairs(g))

    def test_message_locality_and_complexity(self, fig1):
        audit = MessageAudit()
        run_levelset(fig1, audit=audit)
        for (reader, sender, t, kind) in audit.reads:
            if kind == "R":
                assert sender in fig1.out_adj[reader]
            else:
                assert sender in fig1.in_adj[reader]
        bound = sum(len(fig1.out_adj[i]) + len(fig1.in_adj[i])
                    for i in range(fig1.n))
        assert all(total <= bound for total in audit.per_round_totals)


class TestDegree:
    def test_fig1_table(self, fig1):
        v = normalize(degree_centrality(fig1))
        assert np.abs(v.values - [.1667, .1667, .2500, .1667, .0833, .1667]).max() < 5e-4

    def test_empty_graph_refuses_normalization(self):
        from centrasim.graph import DirectedGraph
        g = DirectedGraph.from_edges(3, set())
        v = degree_centrality(g)
        assert (v.values == 0).all()
        with pytest.raises(ValueError, match="all-zero"):
            normalize(v)

    def test_complete_digraph(self):
        from centrasim.graph import DirectedGraph
        edges = {(i, j) for i in range(4) for j in range(4) if i != j}
        g = DirectedGraph.from_edges(4, edges)
        v = degree_centrality(g)
        assert (v.values == 3).all()
        assert np.allclose(normalize(v).values, 0.25)


class TestCloseness:
    def test_fig1_table(self, fig1):
        ls = run_levelset(fig1)
        v = closeness_centrality(ls, fig1)
        assert v.kind == "closeness"
        nv = normalize(v)
        assert np.abs(nv.values - [.1708, .1708, .2196, .1708, .1281, .1398]).max() < 5e-4

    def test_three_cycle(self):
        g = parse_edge_list("a b\nb c\nc a")
        ls = run_levelset(g)
        v = closeness_centrality(ls, g)
        assert np.allclose(v.values, 1 / 3)
        assert np.allclose(normalize(v).values, 1 / 3)

    def test_harmonic_fallback(self):
        g = parse_edge_list("1 2\n2 3")
        ls = run_levelset(g)
        v = closeness_centrality(ls, g)
        assert v.kind == "harmonic-closeness"
        assert np.allclose(v.values, [1.5, 1.0, 0.0])


class TestTreeBetweenness:
    def test_three_path(self):
        g = parse_edge_list("a b\nb c")
        ls = run_levelset(g)
        v = tree_betweenness(ls, g)
        assert list(v.values) == [0, 1, 0]

    def test_four_path(self):
        g = parse_edge_list("a b\nb c\nc d")
        ls = run_levelset(g)
        v = tree_betweenness(ls, g)
        assert list(v.values) == [0, 2, 2, 0]

    def test_out_star(self):
        g = parse_edge_list("r a\nr b\nr c")
        ls = run_levelset(g)
        assert (tree_betweenness(ls, g).values == 0).all()

    def test_rejects_non_tree(self, fig1):
        ls = run_levelset(fig1)
        with pytest.raises(NotOrientedTreeError):
            tree_betweenness(ls, fig1)

    def test_equals_brandes_on_random_trees(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            g = random_oriented_tree(rng, n)
            ls = run_levelset(g)
            mine = tree_betweenness(ls, g).values
            oracle = brandes_betweenness(g).values
            assert np.array_equal(mine, oracle)


class TestNormalize:
    def test_simple(self):
        v = normalize(CentralityVector(values=np.array([1.0, 1, 2]), kind="degree"))
        assert np.allclose(v.values, [.25, .25, .5])
        assert v.normalized

    def test_fig1_betweenness_proportions(self, fig1):
        raw = brandes_betweenness(fig1).values
        v = normalize(CentralityVector(values=raw, kind="betweenness"))
        # exact fractions of the directed shortest-path count
        assert np.allclose(v.values * raw.sum(), raw)
        assert v.values[4] == 0

    def test_idempotent(self):
        v = CentralityVector(values=np.array([.25, .25, .5]), kind="x")
        again = normalize(normalize(v))
        assert np.abs(again.values - v.values).max() < 1e-12


# The frozenset implementation that run_levelset, closeness_centrality and
# tree_betweenness replaced, kept verbatim (names prefixed Old/old_) as the
# reference the distance matrices must reproduce bit for bit.

@dataclass(frozen=True)
class OldLevelSets:
    """Per-node forward (r) and backward (l) hop-distance partitions.

    r[i][t-1] is the frozenset of nodes at forward distance exactly t from
    node i; rounds stop at t_max, the largest finite distance in the graph.
    """

    n: int
    r: tuple[tuple[frozenset, ...], ...]
    l: tuple[tuple[frozenset, ...], ...]
    t_max: int


@dataclass
class OldMessageAudit:
    """Record of who read whose round-t set during run_levelset."""

    reads: list = field(default_factory=list)  # (reader, sender, round, kind)
    per_round_totals: list = field(default_factory=list)

    def record(self, reader, sender, t, kind):
        self.reads.append((reader, sender, t, kind))


def old_run_levelset(g, audit=None):
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
    return OldLevelSets(
        n=n,
        r=tuple(tuple(lv) for lv in r_levels),
        l=tuple(tuple(lv) for lv in l_levels),
        t_max=t_max,
    )


def old_closeness_centrality(ls, g):
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


def old_tree_betweenness(ls, g):
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


def _assert_matches_reference(g):
    """Same level sets, round count, audit and closeness bytes as the
    frozenset code; returns the closeness kind."""
    audit, old_audit = MessageAudit(), OldMessageAudit()
    ls, old = run_levelset(g, audit=audit), old_run_levelset(g, audit=old_audit)
    assert ls.r == old.r and ls.l == old.l and ls.t_max == old.t_max
    assert sorted(audit.reads) == sorted(old_audit.reads)
    assert audit.per_round_totals == old_audit.per_round_totals
    assert np.array_equal(ls.bwd, ls.fwd.T)
    mine = closeness_centrality(ls, g)
    ref = old_closeness_centrality(old, g)
    assert mine.kind == ref.kind
    assert np.array_equal(mine.values, ref.values)
    return mine.kind


class TestMatchesFrozensetReference:
    def test_fixtures(self, fig1):
        assert _assert_matches_reference(fig1) == "closeness"
        assert _assert_matches_reference(dense50_graph()) == "closeness"
        g = weblike_graph(np.random.default_rng(101), 400)
        _assert_matches_reference(g)

    def test_random_digraphs(self):
        rng = np.random.default_rng(41)
        kinds = set()
        for _ in range(120):
            n = int(rng.integers(2, 80))
            g = random_digraph(rng, n, p=float(rng.uniform(0.5, 6.0)) / n,
                               repaired=bool(rng.integers(2)))
            kinds.add(_assert_matches_reference(g))
        assert kinds == {"closeness", "harmonic-closeness"}

    def test_oriented_trees(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            g = random_oriented_tree(rng, int(rng.integers(2, 150)))
            _assert_matches_reference(g)
            mine = tree_betweenness(run_levelset(g), g).values
            ref = old_tree_betweenness(old_run_levelset(g), g).values
            assert np.array_equal(mine, ref)
