import numpy as np
import pytest

from centrasim.errors import GraphFormatError, RepairError
from centrasim.graph import (DirectedGraph, parse_edge_list,
                             parse_temporal_edge_list, repair_dangling,
                             symmetrize, validate_oriented_tree)

from conftest import (random_digraph, serialize_edge_list,
                      serialize_temporal_edge_list)


class TestParseEdgeList:
    def test_two_node_cycle(self):
        g = parse_edge_list("a b\nb a")
        assert g.n == 2
        assert g.edges == {(0, 1), (1, 0)}

    def test_fig1_fixture(self, fig1):
        assert fig1.n == 6
        out_deg = [len(fig1.out_adj[i]) for i in range(6)]
        assert out_deg == [2, 2, 3, 2, 1, 2]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="'x'"):
            parse_edge_list("x x")

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("a b\na b c")

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("a b\na b\na b")
        assert len(g.edges) == 1

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# header\n\na b  # trailing\n")
        assert g.n == 2

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError, match="no edges"):
            parse_edge_list("# header only\n\n")

    def test_from_edges_rejects_loops_and_foreign_nodes(self):
        with pytest.raises(GraphFormatError, match="self-loop on node 2"):
            DirectedGraph.from_edges(3, {(0, 1), (2, 2)})
        for bad in ((0, 3), (-1, 0)):
            with pytest.raises(GraphFormatError, match="out of range"):
                DirectedGraph.from_edges(3, {(0, 1), bad})

    def test_round_trip(self, fig1):
        again = parse_edge_list(serialize_edge_list(fig1))
        def labeled(g):
            return {(g.labels[u], g.labels[v]) for (u, v) in g.edges}
        assert labeled(again) == labeled(fig1)
        assert set(again.labels) == set(fig1.labels)


class TestParseTemporal:
    def test_two_snapshots(self):
        seq = parse_temporal_edge_list("0 a b\n1 b a")
        assert len(seq.snapshots) == 2
        assert seq.n == 2

    def test_gaps_allowed(self):
        seq = parse_temporal_edge_list("0 a b\n0 b c\n5 a c")
        assert [t for t, _ in seq.snapshots] == [0, 5]
        assert seq.n == 3
        # node set constant across snapshots
        assert all(g.n == 3 for _, g in seq.snapshots)

    def test_empty_file_rejected(self):
        with pytest.raises(GraphFormatError, match="no snapshots"):
            parse_temporal_edge_list("")

    def test_decreasing_time_rejected(self):
        with pytest.raises(GraphFormatError, match="decreases"):
            parse_temporal_edge_list("3 a b\n1 b a")

    @pytest.mark.parametrize("stamp", ["9/", "9:", "+5", "1_0", "-0"])
    def test_time_of_digits_only_or_python_int(self, stamp):
        # the bytes beside '0' and '9' are no digits; what int() reads
        # (a sign, an underscore) is read as the per-line parser reads it
        text = f"0 a b\n{stamp} b c\n"
        try:
            times = [int(stamp)]
        except ValueError:
            with pytest.raises(GraphFormatError, match="bad time value"):
                parse_temporal_edge_list(text)
        else:
            seq = parse_temporal_edge_list(text)
            assert [t for t, _ in seq.snapshots][-1:] == times

    def test_time_past_int64(self):
        seq = parse_temporal_edge_list("0 a b\n99999999999999999999 b c\n")
        assert [t for t, _ in seq.snapshots] == [0, 10**20 - 1]
        # past int64 but within uint64: still exact, still distinct
        times = [0, 2**63, 2**63 + 1]
        seq = parse_temporal_edge_list("".join(f"{t} a b\n" for t in times))
        assert [t for t, _ in seq.snapshots] == times

    def test_round_trip(self):
        seq = parse_temporal_edge_list("0 a b\n0 b c\n5 a c")
        again = parse_temporal_edge_list(serialize_temporal_edge_list(seq))
        assert [(t, g.edges) for t, g in again.snapshots] == \
            [(t, g.edges) for t, g in seq.snapshots]


class TestRepairDangling:
    def test_backlink_adds_reverse_edges(self):
        g = parse_edge_list("a b")
        r = repair_dangling(g, "backlink")
        assert r.edges == {(0, 1), (1, 0)}

    def test_no_dangling_is_identity(self, fig1):
        assert repair_dangling(fig1, "backlink") is fig1

    def test_isolated_node_unrepairable(self):
        g = DirectedGraph.from_edges(3, {(0, 1), (1, 0)})
        with pytest.raises(RepairError):
            repair_dangling(g, "backlink")

    def test_uniform_column_marks_node(self):
        g = parse_edge_list("a b")
        r = repair_dangling(g, "uniform-column")
        assert r.uniform_columns == {1}
        assert r.edges == g.edges


class TestSymmetrize:
    def test_single_edge(self):
        g = parse_edge_list("a b")
        assert symmetrize(g).edges == {(0, 1), (1, 0)}

    def test_symmetric_unchanged(self):
        g = parse_edge_list("a b\nb a")
        assert symmetrize(g) is g

    def test_fig1_adds_four_reversals(self, fig1):
        sym = symmetrize(fig1)
        assert len(sym.edges) == 16
        # reversals of 1->4, 5->4, 3->6, 6->5
        assert sym.edges - fig1.edges == {(3, 0), (3, 4), (5, 2), (4, 5)}

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_digraph(rng, 12, repaired=False)
            s1 = symmetrize(g)
            assert symmetrize(s1).edges == s1.edges


class TestOrientedTree:
    def test_directed_path(self):
        g = parse_edge_list("a b\nb c")
        ok, diag = validate_oriented_tree(g)
        assert ok and diag is None

    def test_undirected_triangle(self):
        g = parse_edge_list("a b\nb c\na c")
        ok, cycle = validate_oriented_tree(g)
        assert not ok
        assert set(cycle) == {"a", "b", "c"}

    def test_mixed_orientation_star(self):
        g = parse_edge_list("hub a\nb hub\nhub c")
        ok, _ = validate_oriented_tree(g)
        assert ok

    def test_antiparallel_pair_is_cycle(self):
        g = parse_edge_list("a b\nb a")
        ok, cycle = validate_oriented_tree(g)
        assert not ok
        assert set(cycle) == {"a", "b"}

    def test_agrees_with_union_find(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            g = random_digraph(rng, n, p=0.12, repaired=False)
            ok, _ = validate_oriented_tree(g)
            assert ok == _union_find_acyclic(g)


def _union_find_acyclic(g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    und = set()
    for (u, v) in g.edges:
        if (v, u) in g.edges and (min(u, v), max(u, v)) in und:
            return False
        und.add((min(u, v), max(u, v)))
    for (u, v) in und:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
