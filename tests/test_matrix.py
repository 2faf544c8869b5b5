import numpy as np
import pytest
import scipy.sparse as sp

from centrasim.graph import parse_edge_list, repair_dangling
from centrasim.matrix import (PersistentAverage, apply_google_matrix,
                              build_hyperlink_matrix)

from conftest import as_scipy, random_digraph

# Example 1 hyperlink matrix of the six-node reference graph
FIG1_W = np.array([
    [0,   1/2, 0,   0,   0, 0],
    [1/2, 0,   1/3, 0,   0, 0],
    [0,   1/2, 0,   1/2, 0, 0],
    [1/2, 0,   1/3, 0,   1, 1/2],
    [0,   0,   0,   0,   0, 1/2],
    [0,   0,   1/3, 1/2, 0, 0],
])


class TestHyperlinkMatrix:
    def test_fig1_matches_reference(self, fig1):
        w = build_hyperlink_matrix(fig1).toarray()
        assert np.allclose(w, FIG1_W, atol=1e-15)

    def test_two_node_cycle(self):
        g = parse_edge_list("a b\nb a")
        w = build_hyperlink_matrix(g).toarray()
        assert np.allclose(w, [[0, 1], [1, 0]])

    def test_three_cycle_is_permutation(self):
        g = parse_edge_list("a b\nb c\nc a")
        w = build_hyperlink_matrix(g).toarray()
        assert np.array_equal(w, np.roll(np.eye(3), 1, axis=0))

    def test_zero_outdegree_rejected(self):
        g = parse_edge_list("a b")
        with pytest.raises(ValueError, match="'b'"):
            build_hyperlink_matrix(g)

    def test_uniform_column(self):
        g = repair_dangling(parse_edge_list("a b"), "uniform-column")
        w = build_hyperlink_matrix(g).toarray()
        assert w[0, 1] == 1.0  # n=2: single off-diagonal entry
        assert w[1, 1] == 0.0

    def test_columns_sum_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            g = repair_dangling(random_digraph(rng, n, p=3.0 / n), "backlink")
            w = as_scipy(build_hyperlink_matrix(g))
            sums = np.asarray(w.sum(axis=0)).ravel()
            assert np.abs(sums - 1).max() <= 1e-12


def _reference_hyperlink_matrix(g):
    """The per-node loop build_hyperlink_matrix used before it read the
    vectorized in-link structure (it built CSC)."""
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
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))


class TestHyperlinkMatrixMatchesLoop:
    @pytest.mark.parametrize("policy", ["backlink", "uniform-column"])
    def test_equal_to_per_node_loop(self, policy):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(2, 80))
            g = random_digraph(rng, n, p=2.0 / n, repaired=policy == "backlink")
            g = repair_dangling(g, policy)
            w = as_scipy(build_hyperlink_matrix(g))
            assert w.format == "csr" and w.has_canonical_format
            assert np.array_equal(w.toarray(),
                                  _reference_hyperlink_matrix(g).toarray())

    def test_same_zero_outdegree_error(self):
        rng = np.random.default_rng(53)
        seen = 0
        for _ in range(60):
            n = int(rng.integers(2, 40))
            g = random_digraph(rng, n, p=1.5 / n, repaired=False)
            if not g.dangling_nodes():
                continue
            seen += 1
            with pytest.raises(ValueError) as ref:
                _reference_hyperlink_matrix(g)
            with pytest.raises(ValueError) as new:
                build_hyperlink_matrix(g)
            assert str(new.value) == str(ref.value)
        assert seen >= 20


class TestGoogleMatrix:
    def test_preserves_mass(self, fig1):
        w = build_hyperlink_matrix(fig1)
        x = np.full(6, 1 / 6)
        y = apply_google_matrix(w, 0.15, x)
        assert abs(y.sum() - 1) < 1e-14

    def test_pagerank_is_fixed_point(self, fig1):
        table1_pagerank = np.array([.0727, .1122, .1986, .2963, .1131, .2072])
        w = build_hyperlink_matrix(fig1)
        y = apply_google_matrix(w, 0.15, table1_pagerank)
        assert np.abs(y - table1_pagerank).max() < 5e-4

    def test_three_cycle_basis_vector(self):
        g = parse_edge_list("a b\nb c\nc a")
        w = build_hyperlink_matrix(g)
        y = apply_google_matrix(w, 0.15, np.array([1.0, 0, 0]))
        # 0.85 * W e_1 + 0.05 * ones
        assert np.allclose(y, [0.05, 0.9, 0.05])

    def test_dimension_mismatch(self, fig1):
        w = build_hyperlink_matrix(fig1)
        with pytest.raises(ValueError):
            apply_google_matrix(w, 0.15, np.zeros(5))

    def test_bad_damping(self, fig1):
        w = build_hyperlink_matrix(fig1)
        with pytest.raises(ValueError):
            apply_google_matrix(w, 1.0, np.zeros(6))


class TestPersistentAverage:
    def test_first_snapshot_identity(self, fig1):
        w = build_hyperlink_matrix(fig1)
        pa = PersistentAverage(rho=0.5).update(w)
        assert pa.z == 1.0
        assert np.allclose(pa.wbar.toarray(), w.toarray(), atol=0)

    def test_alternating_average(self):
        wa = build_hyperlink_matrix(parse_edge_list("a b\nb a\nc a"))
        wb = build_hyperlink_matrix(parse_edge_list("a c\nc a\nb c"))
        pa = PersistentAverage(rho=1.0)
        for _ in range(10):
            pa.update(wa)
            pa.update(wb)
        assert np.allclose(pa.wbar.toarray(),
                           (wa.toarray() + wb.toarray()) / 2, atol=1e-12)

    def test_transient_link_forgotten(self):
        wa = build_hyperlink_matrix(parse_edge_list("a b\nb a\nc a"))
        wb = build_hyperlink_matrix(parse_edge_list("a b\nb a\nc b"))
        # edge c->a lives only in the first 10 of 200 snapshots
        pa = PersistentAverage(rho=0.9)
        for k in range(200):
            pa.update(wa if k < 10 else wb)
        assert pa.wbar.toarray()[0, 2] < 1e-4

    def test_normalizer_closed_form(self):
        w = build_hyperlink_matrix(parse_edge_list("a b\nb a"))
        rho = 0.7
        pa = PersistentAverage(rho=rho)
        for k in range(1, 30):
            pa.update(w)
            assert pa.z == pytest.approx(sum(rho ** j for j in range(k)), abs=1e-12)

    def test_identical_snapshots_exact(self, fig1):
        w = build_hyperlink_matrix(fig1)
        pa = PersistentAverage(rho=1.0)
        for _ in range(25):
            pa.update(w)
        assert np.abs(pa.wbar.toarray() - w.toarray()).max() < 1e-15

    def test_matches_bruteforce_weighted_sum(self):
        rng = np.random.default_rng(5)
        rho = 0.8
        graphs = [repair_dangling(random_digraph(rng, 8, p=0.3), "backlink")
                  for _ in range(50)]
        mats = [build_hyperlink_matrix(g) for g in graphs]
        pa = PersistentAverage(rho=rho)
        for k, w in enumerate(mats, start=1):
            pa.update(w)
            z = sum(rho ** j for j in range(k))
            direct = sum(rho ** (k - t) * mats[t - 1].toarray()
                         for t in range(1, k + 1)) / z
            assert np.abs(pa.wbar.toarray() - direct).max() < 1e-12

    def test_column_stochasticity_preserved(self, fig1):
        w = build_hyperlink_matrix(fig1)
        pa = PersistentAverage(rho=0.6)
        for _ in range(40):
            pa.update(w)
            sums = np.asarray(as_scipy(pa.wbar).sum(axis=0)).ravel()
            assert np.abs(sums - 1).max() < 1e-12

    def test_average_given_or_set_keys_afresh(self):
        # the kept keys belong to the average they were made for: one
        # given at construction or assigned between updates is keyed anew
        wa = build_hyperlink_matrix(parse_edge_list("a b\nb a\nc a"))
        wb = build_hyperlink_matrix(parse_edge_list("a c\nc a\nb c"))
        ref = PersistentAverage(rho=0.5)
        for w in (wa, wb, wa):
            ref.update(w)
        given = PersistentAverage(rho=0.5, wbar=wa, z=1.0)
        reset = PersistentAverage(rho=0.5).update(wb)
        reset.wbar = wa
        for pa in (given, reset):
            pa.update(wb).update(wa)
            for name in ("indptr", "indices", "data"):
                assert (getattr(pa.wbar, name).tobytes()
                        == getattr(ref.wbar, name).tobytes())
        with pytest.raises(TypeError):
            PersistentAverage(rho=0.5, _keyed=(wa, None))

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            PersistentAverage(rho=0.0)
        with pytest.raises(ValueError):
            PersistentAverage(rho=1.5)

    def test_dimension_mismatch(self, fig1):
        w6 = build_hyperlink_matrix(fig1)
        w2 = build_hyperlink_matrix(parse_edge_list("a b\nb a"))
        pa = PersistentAverage(rho=1.0).update(w6)
        with pytest.raises(ValueError):
            pa.update(w2)
