from bisect import bisect_right

import numpy as np
import pytest

from centrasim.errors import AssumptionError
from centrasim.graph import DirectedGraph, parse_edge_list, symmetrize
from centrasim.surfer import (BLOCK_STEPS, SurferChain, _metropolis_hastings,
                              build_transition_matrix,
                              build_transition_matrix_temporal,
                              check_joint_connectivity, empirical_stationary)

from conftest import FIG1_TEXT, dense50_graph, digraphs, \
    random_connected_digraph
from test_acceptance import weblike_graph


class _TupleRowKernel:
    """The kernel as tuples of per-row tuples, with cumulative_rows, as it
    was before the flat layout; the reference the flat kernel must equal."""

    def __init__(self, n, nbr, prob, self_prob):
        self.n, self.nbr, self.prob, self.self_prob = n, nbr, prob, self_prob

    def cumulative_rows(self):
        """Per-row (targets, cumulative weights) with the self-loop last."""
        rows = []
        for i in range(self.n):
            targets = list(self.nbr[i]) + [i]
            cum = []
            acc = 0.0
            for p in list(self.prob[i]) + [self.self_prob[i]]:
                acc += p
                cum.append(acc)
            cum[-1] = 1.0
            rows.append((targets, cum))
        return rows


def _reference_metropolis_hastings(sym):
    deg = [len(sym.out_adj[i]) for i in range(sym.n)]
    nbr, prob, self_prob = [], [], []
    for i in range(sym.n):
        ps = [min(1.0 / (deg[i] + 1), 1.0 / (deg[j] + 1)) for j in sym.out_adj[i]]
        nbr.append(tuple(sym.out_adj[i]))
        prob.append(tuple(ps))
        # added left to right, as sum() adds floats up to Python 3.11 (3.12
        # compensates), so that the reference bits do not depend on Python
        total = 0.0
        for p in ps:
            total += p
        self_prob.append(1.0 - total)
    return _TupleRowKernel(n=sym.n, nbr=tuple(nbr), prob=tuple(prob),
                           self_prob=tuple(self_prob))


def assert_kernel_equals_reference(tm, sym):
    """The kernel's four arrays hold the very bits of the per-row reference
    on the symmetric graph sym, laid out flat."""
    ref = _reference_metropolis_hastings(sym)
    indptr, targets, prob, cum = [0], [], [], []
    for i, (row_targets, row_cum) in enumerate(ref.cumulative_rows()):
        targets += row_targets
        prob += ref.prob[i] + (ref.self_prob[i],)
        cum += row_cum
        indptr.append(len(targets))
    assert tm.n == ref.n
    for got, want, dtype in ((tm.indptr, indptr, np.int64),
                             (tm.targets, targets, np.int64),
                             (tm.prob, prob, np.float64),
                             (tm.cum, cum, np.float64)):
        assert got.dtype == dtype
        assert got.tobytes() == np.array(want, dtype=dtype).tobytes()


def _reference_stream(kernel, omega, seed, steps):
    """SurferChain.sample_next as it was, over cumulative_rows."""
    rng = np.random.default_rng(seed)
    rows = kernel.cumulative_rows()
    current, out = 0, []
    for _ in range(steps):
        u = rng.random()
        if omega > 0.0 and u < omega:
            nxt = int(rng.random() * kernel.n)
            if nxt == kernel.n:
                nxt = kernel.n - 1
        else:
            targets, cum = rows[current]
            nxt = targets[bisect_right(cum, rng.random())]
        current = nxt
        out.append(nxt)
    return out


def _one_draw_stream(kernels, omega, seed, steps):
    """sample_next as it was, drawing one uniform at a time, over flat
    kernels; kernels maps a step index to the kernel swapped in before it."""
    rng = np.random.default_rng(seed)
    tm, current, out = kernels[0], 0, []
    for t in range(steps):
        tm = kernels.get(t, tm)
        u = rng.random()
        if omega > 0.0 and u < omega:
            nxt = int(rng.random() * tm.n)
            if nxt == tm.n:
                nxt = tm.n - 1
        else:
            lo, hi = tm.indptr[current], tm.indptr[current + 1]
            nxt = tm.targets[bisect_right(tm.cum, rng.random(), lo, hi)]
        current = nxt
        out.append(nxt)
    return out


def _row(tm, i):
    """Row i's targets, probabilities and running sums as tuples of Python
    ints and floats (the very values of the kernel's arrays)."""
    lo, hi = tm.indptr[i], tm.indptr[i + 1]
    return tuple(tm.targets[lo:hi].tolist()), tuple(tm.prob[lo:hi].tolist()), \
        tuple(tm.cum[lo:hi].tolist())


def _kernel_cases():
    rng = np.random.default_rng(61)
    yield "fig1", parse_edge_list(FIG1_TEXT)
    yield "dense50", dense50_graph()
    yield "web400", weblike_graph(np.random.default_rng(101), 400)
    # one hub of degree 199 among 199 rows of degree 1
    yield "star", DirectedGraph.from_edges(200, [(i, 0) for i in range(1, 200)])
    for t in range(40):
        yield f"random{t}", random_connected_digraph(rng, int(rng.integers(2, 60)))


class TestTransitionMatrix:
    def test_doubly_stochastic(self, fig1):
        p = build_transition_matrix(fig1, omega=0.0).dense()
        assert np.abs(p.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(p.sum(axis=1) - 1).max() < 1e-12
        assert (p >= 0).all()

    def test_hop_weights_min_rule(self, fig1):
        sym = symmetrize(fig1)
        deg = [len(sym.out_adj[i]) for i in range(sym.n)]
        p = build_transition_matrix(fig1, omega=0.0).dense()
        for i in range(sym.n):
            for j in sym.out_adj[i]:
                assert p[i, j] == min(1 / (deg[i] + 1), 1 / (deg[j] + 1))
            assert p[i, i] == pytest.approx(1 - sum(p[i, j]
                                                    for j in sym.out_adj[i]))

    def test_symmetric_kernel(self, fig1):
        p = build_transition_matrix(fig1, omega=0.0).dense()
        assert np.array_equal(p, p.T)

    def test_random_graphs_doubly_stochastic(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            g = random_connected_digraph(rng, int(rng.integers(2, 60)))
            p = build_transition_matrix(g, omega=0.0).dense()
            assert np.abs(p.sum(axis=0) - 1).max() < 1e-12
            assert np.abs(p.sum(axis=1) - 1).max() < 1e-12

    def test_disconnected_needs_omega(self):
        g = parse_edge_list("a b\nb a\nc d\nd c")
        with pytest.raises(AssumptionError, match="connect"):
            build_transition_matrix(g, omega=0.0)
        build_transition_matrix(g, omega=0.15)  # teleport rescues reachability

    def test_bad_omega(self, fig1):
        with pytest.raises(ValueError):
            build_transition_matrix(fig1, omega=-0.1)
        with pytest.raises(ValueError):
            build_transition_matrix(fig1, omega=1.1)

    def test_cum_rows_end_at_one(self, fig1):
        tm = build_transition_matrix(fig1, omega=0.0)
        assert len(tm.targets) == len(tm.prob) == len(tm.cum) == tm.indptr[-1]
        for i in range(tm.n):
            targets, _, cum = _row(tm, i)
            assert cum[-1] == 1.0
            assert all(b >= a for a, b in zip(cum, cum[1:]))
            assert targets[-1] == i  # self-loop slot last

    def test_web4000_kernel_equals_reference(self):
        g = weblike_graph(np.random.default_rng(101), 4000)
        sym = symmetrize(g)
        assert_kernel_equals_reference(_metropolis_hastings(sym), sym)

    def test_kernel_equals_reference_on_random_digraphs(self):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings

        @settings(derandomize=True, deadline=None)
        @example(DirectedGraph.from_edges(1, ()))
        @example(DirectedGraph.from_edges(7, ()))
        @given(digraphs())
        def kernel_equals_reference(g):
            sym = symmetrize(g)
            assert_kernel_equals_reference(_metropolis_hastings(sym), sym)

        kernel_equals_reference()

    def test_flat_layout_equals_tuple_rows(self):
        # outputs are pinned byte for byte: the flat kernel must hold the
        # very floats of the per-row tuples and their cumulative rows, and
        # the chain must draw the very same samples
        for name, g in _kernel_cases():
            tm = build_transition_matrix(g, omega=0.0)
            ref = _reference_metropolis_hastings(symmetrize(g))
            assert tm.n == ref.n
            assert len(tm.indptr) == tm.n + 1
            for i, (targets, cum) in enumerate(ref.cumulative_rows()):
                flat_targets, prob, flat_cum = _row(tm, i)
                assert flat_targets == tuple(targets), name
                assert prob[:-1] == ref.prob[i], name
                assert prob[-1] == ref.self_prob[i], name
                assert flat_cum == tuple(cum), name
            for omega in (0.0, 0.15, 1.0):
                chain = SurferChain(matrix=tm, omega=omega, seed=7)
                got = [chain.sample_next() for _ in range(10_000)]
                assert got == _reference_stream(ref, omega, 7, 10_000), \
                    (name, omega)


def _snapshots(text):
    from centrasim.graph import parse_temporal_edge_list
    return [g for _, g in parse_temporal_edge_list(text).snapshots]


class TestTemporalKernels:
    def test_per_snapshot_kernels(self):
        ga, gb = _snapshots("0 a b\n0 b a\n0 b c\n0 c b\n"
                            "1 a c\n1 c a\n1 b c\n1 c b")
        mats = build_transition_matrix_temporal([ga, gb], omega=0.0,
                                                joint_window=1)
        assert len(mats) == 2
        assert mats[0].dense()[0, 1] > 0
        assert mats[1].dense()[0, 1] == 0

    def test_joint_window_allows_partial_snapshots(self):
        # neither snapshot is connected alone, the union of both is
        ga, gb = _snapshots("0 a b\n0 b a\n0 c d\n0 d c\n"
                            "1 b c\n1 c b\n1 d a\n1 a d")
        with pytest.raises(AssumptionError):
            check_joint_connectivity([ga, gb], q=1)
        check_joint_connectivity([ga, gb], q=2)
        mats = build_transition_matrix_temporal([ga, gb], omega=0.0,
                                                joint_window=2)
        assert len(mats) == 2

    def test_omega_zero_requires_window(self):
        g = parse_edge_list("a b\nb a")
        with pytest.raises(ValueError, match="window"):
            build_transition_matrix_temporal([g], omega=0.0)


class TestSurferChain:
    def test_deterministic_replay(self, fig1):
        tm = build_transition_matrix(fig1, omega=0.15)
        a = SurferChain(matrix=tm, omega=0.15, seed=9)
        b = SurferChain(matrix=tm, omega=0.15, seed=9)
        assert [a.sample_next() for _ in range(500)] == \
            [b.sample_next() for _ in range(500)]

    def test_seed_changes_path(self, fig1):
        tm = build_transition_matrix(fig1, omega=0.15)
        a = SurferChain(matrix=tm, omega=0.15, seed=1)
        b = SurferChain(matrix=tm, omega=0.15, seed=2)
        assert [a.sample_next() for _ in range(200)] != \
            [b.sample_next() for _ in range(200)]

    def test_starts_at_node_zero(self, fig1):
        tm = build_transition_matrix(fig1, omega=0.0)
        chain = SurferChain(matrix=tm, omega=0.0, seed=0)
        assert chain.current == 0

    def test_moves_only_along_kernel(self, fig1):
        tm = build_transition_matrix(fig1, omega=0.0)
        chain = SurferChain(matrix=tm, omega=0.0, seed=3)
        allowed = {i: set(_row(tm, i)[0]) for i in range(tm.n)}
        cur = chain.current
        for _ in range(2000):
            nxt = chain.sample_next()
            assert nxt in allowed[cur]
            cur = nxt

    def test_empirical_stationary_uniform(self, fig1):
        tm = build_transition_matrix(fig1, omega=0.0)
        chain = SurferChain(matrix=tm, omega=0.0, seed=0)
        freq = empirical_stationary(chain, 200_000)
        assert np.abs(freq - 1 / 6).max() < 0.01

    def test_teleport_mixes_disconnected(self):
        g = parse_edge_list("a b\nb a\nc d\nd c")
        tm = build_transition_matrix(g, omega=0.2)
        chain = SurferChain(matrix=tm, omega=0.2, seed=0)
        freq = empirical_stationary(chain, 200_000)
        assert freq.min() > 0.1  # every component gets visited

    @pytest.mark.parametrize("omega", [0.0, 0.15, 1.0])
    def test_block_draws_equal_one_draw_stream(self, omega):
        # ten block boundaries crossed; kernel swaps off the boundaries
        rng = np.random.default_rng(71)
        ga = dense50_graph()
        gb = random_connected_digraph(rng, 50)
        ma, mb = (build_transition_matrix(g, omega) for g in (ga, gb))
        steps = 10 * BLOCK_STEPS + 123
        swaps = {0: ma, BLOCK_STEPS // 2: mb, BLOCK_STEPS + 1: ma,
                 2 * BLOCK_STEPS - 1: mb, 7 * BLOCK_STEPS + 7: ma}
        chain = SurferChain(matrix=ma, omega=omega, seed=13)
        got = []
        for t in range(steps):
            if t in swaps:
                chain.set_matrix(swaps[t])
            got.append(chain.sample_next())
        assert got == _one_draw_stream(swaps, omega, 13, steps)
        # the chain read 2*steps uniforms: eleven blocks drawn, 123 pairs
        # read from the last
        ref = np.random.default_rng(13)
        for _ in range(11):
            ref.random(2 * BLOCK_STEPS)
        assert chain._rng.bit_generator.state == ref.bit_generator.state
        assert chain._pos == 2 * 123

    def test_no_draw_before_first_sample(self, fig1):
        chain = SurferChain(matrix=build_transition_matrix(fig1, 0.15),
                            omega=0.15, seed=3)
        fresh = np.random.default_rng(3).bit_generator.state
        assert chain._rng.bit_generator.state == fresh

    def test_kernel_swap_carries_state(self):
        ga, gb = _snapshots("0 a b\n0 b a\n0 b c\n0 c b\n"
                            "1 a c\n1 c a\n1 b c\n1 c b")
        ma, mb = build_transition_matrix_temporal([ga, gb], omega=0.0,
                                                  joint_window=1)
        chain = SurferChain(matrix=ma, omega=0.0, seed=4)
        for _ in range(10):
            chain.sample_next()
        here = chain.current
        chain.set_matrix(mb)
        assert chain.current == here
        nxt = chain.sample_next()
        assert nxt in set(_row(mb, here)[0])
