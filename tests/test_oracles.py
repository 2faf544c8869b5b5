import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from centrasim import _native
from centrasim.graph import parse_edge_list, repair_dangling
from centrasim.matrix import Csr, PersistentAverage, build_hyperlink_matrix
from centrasim.oracles import (_fill, _layout, _loop_all_pairs, _loop_betweenness,
                               build_regression_rows, bfs_all_pairs,
                               brandes_betweenness, direct_ls_solve,
                               ls_objective, power_method,
                               rows_from_graph)

from conftest import FIG1_TEXT, as_scipy, dense50_graph, needs_cc, random_digraph
from test_acceptance import weblike_graph

TABLE1_PAGERANK = np.array([.0727, .1122, .1986, .2963, .1131, .2072])


def _loop_graph_rows(g, m):
    """Per-row reference for rows_from_graph."""
    idx, coef = [], []
    for i in range(g.n):
        nbrs = sorted(set(g.in_adj[i]) | (g.uniform_columns - {i}))
        idx.append([i] + nbrs)
        coef.append([1.0] + [-(1.0 - m) / (g.n - 1 if j in g.uniform_columns
                                           else len(g.out_adj[j]))
                             for j in nbrs])
    return idx, coef


def _loop_matrix_rows(w, m):
    """Per-row reference for build_regression_rows (W has no diagonal)."""
    wr = as_scipy(w)
    idx, coef = [], []
    for i in range(w.shape[0]):
        cols = wr.indices[wr.indptr[i]:wr.indptr[i + 1]]
        vals = wr.data[wr.indptr[i]:wr.indptr[i + 1]]
        order = np.argsort(cols)
        idx.append([i] + cols[order].tolist())
        coef.append([1.0] + (-(1.0 - m) * vals[order]).tolist())
    return idx, coef


def _reference_matrix_rows(w, m, n_known=True):
    """build_regression_rows as it was before it read W's CSR arrays: it
    went through COO and lexsorted the entries back into row order. W has
    no diagonal entry, so every row's diagonal is 1."""
    assert not w.diagonal().any()
    coo = w.tocoo()
    order = np.lexsort((coo.col, coo.row))
    n = w.shape[0]
    return _fill(n, m, *_layout(n, coo.row[order], coo.col[order]),
                 -(1.0 - m) * coo.data[order], n_known)


def _row_build_cases():
    rng = np.random.default_rng(67)
    graphs = [parse_edge_list(FIG1_TEXT), dense50_graph(),
              weblike_graph(np.random.default_rng(101), 400)]
    for trial in range(40):
        n = int(rng.integers(2, 60))
        policy = ("backlink", "uniform-column")[trial % 2]
        graphs.append(repair_dangling(random_digraph(
            rng, n, p=2.0 / n, repaired=policy == "backlink"), policy))
    for g in graphs:
        yield build_hyperlink_matrix(g)
    # persistent averages: entries no longer 1/outdeg, still no diagonal
    pa = PersistentAverage(rho=0.9)
    for _ in range(30):
        g = random_digraph(rng, 12, p=0.25)
        pa.update(build_hyperlink_matrix(g))
        yield pa.wbar_rows()


def _reference_ls_solve(rows):
    """PageRank from scipy's Cholesky of the normal equations H^T H x =
    H^T y, an independent factorization of the same system."""
    h = rows.csr.toarray()
    return la.cho_solve(la.cho_factor(h.T @ h), h.T @ np.full(rows.n, rows.y))


class TestRegressionRows:
    def test_row_layout(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        for i in range(6):
            assert rows.idx[i][0] == i
            assert list(rows.idx[i][1:]) == sorted(fig1.in_adj[i])
            assert rows.coef[i][0] == 1.0

    def test_graph_and_matrix_builds_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            g = repair_dangling(random_digraph(rng, n, p=3.0 / n), "backlink")
            a = rows_from_graph(g, m=0.15)
            b = build_regression_rows(build_hyperlink_matrix(g), m=0.15)
            for i in range(n):
                assert np.array_equal(a.idx[i], b.idx[i])
                assert np.abs(a.coef[i] - b.coef[i]).max() < 1e-15
            assert a.y == b.y == 0.15 / n

    def test_uniform_column_rows(self):
        g = repair_dangling(parse_edge_list("a b\nb c\nc d"), "uniform-column")
        a = rows_from_graph(g, m=0.15)
        b = build_regression_rows(build_hyperlink_matrix(g), m=0.15)
        for i in range(g.n):
            assert np.array_equal(a.idx[i], b.idx[i])
            assert np.abs(a.coef[i] - b.coef[i]).max() < 1e-15

    def test_assembly_matches_per_row_loops(self):
        # the vectorized assembly must reproduce the per-row loops bit for
        # bit: outputs are pinned byte for byte
        rng = np.random.default_rng(43)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            policy = ("backlink", "uniform-column")[trial % 2]
            g = repair_dangling(random_digraph(
                rng, n, p=2.0 / n, repaired=policy == "backlink"), policy)
            w = build_hyperlink_matrix(g)
            for rows, (idx, coef) in (
                    (rows_from_graph(g, m=0.15), _loop_graph_rows(g, 0.15)),
                    (build_regression_rows(w, m=0.15), _loop_matrix_rows(w, 0.15))):
                for i in range(n):
                    assert rows.idx[i].tolist() == idx[i]
                    assert rows.coef[i].tobytes() == np.array(coef[i]).tobytes()
                ref = sp.csr_matrix(
                    (np.concatenate(coef),
                     (np.repeat(np.arange(n), [len(r) for r in idx]),
                      np.concatenate(idx))), shape=(n, n))
                h = rows.csr
                assert h is rows.csr
                assert np.array_equal(h.indptr, ref.indptr)
                assert np.array_equal(h.indices, ref.indices)
                assert h.data.tobytes() == ref.data.tobytes()

    def test_matrix_rows_equal_coo_lexsort_build(self):
        # outputs are pinned byte for byte: reading W's CSR arrays must give
        # the rows the COO/lexsort build gave
        for w in _row_build_cases():
            for n_known in (True, False):
                ref = _reference_matrix_rows(as_scipy(w), 0.15, n_known)
                got = build_regression_rows(w, 0.15, n_known)
                assert got.n == ref.n and got.y == ref.y
                for a, b in zip(got.idx, ref.idx):
                    assert np.array_equal(a, b)
                for a, b in zip(got.coef, ref.coef):
                    assert a.tobytes() == b.tobytes()

    def test_diagonal_entry_rejected(self):
        # H's diagonal is 1: a W with a self-loop is refused, not folded in
        w = Csr(np.array([0, 2, 3]), np.array([0, 1, 0]),
                np.array([0.5, 1.0, 0.5]), (2, 2))
        with pytest.raises(ValueError, match="diagonal entry in row 0"):
            build_regression_rows(w, 0.15)

    def test_unknown_size_withholds_target(self, fig1):
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        assert rows.y is None
        with pytest.raises(ValueError, match="target"):
            direct_ls_solve(rows)

    def test_bad_damping(self, fig1):
        with pytest.raises(ValueError):
            rows_from_graph(fig1, m=0.0)
        with pytest.raises(ValueError):
            rows_from_graph(fig1, m=1.0)


class TestDirectLsSolve:
    def test_fig1_table(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        sol = direct_ls_solve(rows)
        assert np.abs(sol.x - TABLE1_PAGERANK).max() < 5e-4
        assert ls_objective(sol.x, rows) < 1e-24

    def test_solution_sums_to_one_unnormalized(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            g = repair_dangling(random_digraph(rng, n, p=3.0 / n), "backlink")
            sol = direct_ls_solve(rows_from_graph(g, m=0.15))
            assert abs(sol.x.sum() - 1) < 1e-10
            assert (sol.x > 0).all()

    def test_objective_zero_at_solution(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        sol = direct_ls_solve(rows)
        assert ls_objective(sol.x, rows) < 1e-24
        assert ls_objective(sol.x + 0.01, rows) > 1e-8

    def test_two_node_closed_form(self):
        g = parse_edge_list("a b\nb a")
        sol = direct_ls_solve(rows_from_graph(g, m=0.15))
        assert np.allclose(sol.x, [0.5, 0.5], atol=1e-14)

    def test_matches_normal_equations_reference(self, fig1):
        # the LU of H and the Cholesky of H^T H differ only in rounding
        rng = np.random.default_rng(53)
        graphs = [fig1, dense50_graph(),
                  weblike_graph(np.random.default_rng(101), 400)]
        for trial in range(40):
            n = int(rng.integers(2, 80))
            policy = ("backlink", "uniform-column")[trial % 2]
            graphs.append(repair_dangling(random_digraph(
                rng, n, p=3.0 / n, repaired=policy == "backlink"), policy))
        for g in graphs:
            for rows in (rows_from_graph(g, m=0.15),
                         build_regression_rows(build_hyperlink_matrix(g), m=0.15)):
                sol = direct_ls_solve(rows)
                assert np.abs(sol.x - _reference_ls_solve(rows)).max() < 1e-13
                assert ls_objective(sol.x, rows) < 1e-24

    def test_peak_memory_two_dense_arrays(self):
        # the dense H and LAPACK's copy of it are 2 * 8n^2 bytes; a third
        # n x n array (a Gram matrix, say) would be 3 * 8n^2
        n = 600
        rows = build_regression_rows(build_hyperlink_matrix(
            weblike_graph(np.random.default_rng(101), n)), m=0.15)
        tracemalloc.start()
        try:
            direct_ls_solve(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * n * n


class TestPowerMethod:
    def test_fig1_table(self, fig1):
        w = build_hyperlink_matrix(fig1)
        sol = power_method(w, m=0.15, tol=1e-13)
        assert np.abs(sol.x - TABLE1_PAGERANK).max() < 5e-4
        assert sol.iterations < 200

    def test_agrees_with_direct_solve(self, fig1):
        # the CLI's oracle (tol 1e-15) against the dense reference solve
        rng = np.random.default_rng(47)
        graphs = [fig1, dense50_graph(),
                  weblike_graph(np.random.default_rng(101), 400)]
        for _ in range(25):
            n = int(rng.integers(2, 60))
            graphs.append(repair_dangling(random_digraph(rng, n, p=3.0 / n),
                                          "backlink"))
        for g in graphs:
            w = build_hyperlink_matrix(g)
            pm = power_method(w, m=0.15, tol=1e-15)
            ls = direct_ls_solve(build_regression_rows(w, m=0.15))
            assert np.abs(pm.x - ls.x).max() < 1e-14

    def test_nonconvergence_raises(self):
        # a period-2 chain settles only slowly under tiny damping
        w = build_hyperlink_matrix(parse_edge_list("a b\nb a\nc a\na c"))
        with pytest.raises(RuntimeError, match="converge"):
            power_method(w, m=1e-6, tol=1e-15, max_iter=5)

    def test_zero_damping_rejected(self, fig1):
        w = build_hyperlink_matrix(fig1)
        with pytest.raises(ValueError, match="damping"):
            power_method(w, m=0.0)

    def test_bad_tol(self, fig1):
        w = build_hyperlink_matrix(fig1)
        with pytest.raises(ValueError):
            power_method(w, m=0.15, tol=0.0)


class TestBrandes:
    def test_directed_path(self):
        g = parse_edge_list("a b\nb c")
        assert list(brandes_betweenness(g).values) == [0, 1, 0]

    def test_fig1_values(self, fig1):
        # raw ordered-pair counts for the six-node reference graph
        got = brandes_betweenness(fig1).values
        assert np.allclose(got, [0.5, 4.5, 8.5, 9.5, 0.0, 4.0], atol=1e-12)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            g = random_digraph(rng, n, p=0.3, repaired=False)
            fast = brandes_betweenness(g).values
            slow = _naive_betweenness(g)
            assert np.abs(fast - slow).max() < 1e-9

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(59)
        for trial in range(10):
            n = int(rng.integers(2, 120))
            g = random_digraph(rng, n, p=float(rng.uniform(0.01, 0.1)),
                               repaired=trial % 2 == 0)
            ng = nx.DiGraph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(g.edges)
            ref = nx.betweenness_centrality(ng, normalized=False)
            got = brandes_betweenness(g).values
            assert np.abs(got - [ref[i] for i in range(n)]).max() < 1e-9

    def test_complete_digraph_zero(self):
        from centrasim.graph import DirectedGraph
        edges = {(i, j) for i in range(5) for j in range(5) if i != j}
        g = DirectedGraph.from_edges(5, edges)
        assert (brandes_betweenness(g).values == 0).all()


class TestBfsAllPairs:
    def test_path_distances(self):
        g = parse_edge_list("a b\nb c")
        d = bfs_all_pairs(g)
        assert d[0, 2] == 2
        assert np.isinf(d[2, 0])
        assert d[1, 1] == 0

    def test_symmetric_under_symmetrize(self, fig1):
        from centrasim.graph import symmetrize
        d = bfs_all_pairs(symmetrize(fig1))
        assert np.array_equal(d, d.T)


@needs_cc
def test_sweep_matches_per_source_loops(fig1, monkeypatch):
    # outputs are pinned byte for byte, so the compiled loops must repeat
    # the Python queue loops' floating-point operations in their order
    rng = np.random.default_rng(61)
    graphs = [fig1, dense50_graph(),
              weblike_graph(np.random.default_rng(101), 400)]
    for trial in range(20):
        n = int(rng.integers(2, 150))
        graphs.append(random_digraph(rng, n, p=float(rng.uniform(0.005, 0.08)),
                                     repaired=trial % 2 == 0))
    # some random graphs leave nodes unreachable
    assert any(np.isinf(_loop_all_pairs(g)).any() for g in graphs[3:])
    assert _native.load() is not None
    for g in graphs:
        bc, d = _loop_betweenness(g), _loop_all_pairs(g)
        assert np.array_equal(brandes_betweenness(g).values, bc)
        assert np.array_equal(bfs_all_pairs(g), d)
        # without the library the oracles run those very loops
        with monkeypatch.context() as mp:
            mp.setattr(_native, "load", lambda: None)
            assert np.array_equal(brandes_betweenness(g).values, bc)
            assert np.array_equal(bfs_all_pairs(g), d)


def _naive_betweenness(g):
    """Dependency counting by explicit shortest-path enumeration."""
    d = bfs_all_pairs(g)
    n = g.n
    npaths = np.zeros((n, n))
    for s in range(n):
        npaths[s, s] = 1
        for dist in range(1, n):
            for v in range(n):
                if d[s, v] == dist:
                    npaths[s, v] = sum(npaths[s, u] for u in g.in_adj[v]
                                       if d[s, u] == dist - 1)
    bc = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t or not np.isfinite(d[s, t]):
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if d[s, v] + d[v, t] == d[s, t]:
                    bc[v] += npaths[s, v] * npaths[v, t] / npaths[s, t]
    return bc
