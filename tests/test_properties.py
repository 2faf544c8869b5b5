"""Invariants checked as properties over generated inputs."""
import functools
import operator
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from centrasim import _native, engine  # noqa: E402
from centrasim.cli import KEYS, main  # noqa: E402
from centrasim.engine import KaczmarzState, project, run, \
    run_temporal  # noqa: E402
from centrasim.errors import GraphFormatError, RepairError  # noqa: E402
from centrasim.graph import (DirectedGraph, TemporalGraphSequence,  # noqa: E402
                             map_distinct, parse_edge_list, parse_temporal_edge_list,
                             repair_dangling, symmetrize)
from centrasim.levelsets import run_levelset  # noqa: E402
from centrasim.matrix import (PersistentAverage, build_hyperlink_matrix,  # noqa: E402
                              column_sums)
from centrasim.oracles import (_loop_all_pairs, _loop_betweenness,  # noqa: E402
                               bfs_all_pairs, build_regression_rows,
                               direct_ls_solve, rows_from_graph)
from centrasim.simulator import (Actors, LocalityAudit, activate,  # noqa: E402
                                 assemble_vector, run_simulation)
from centrasim.surfer import SurferChain, _metropolis_hastings  # noqa: E402

from conftest import DANGLING_TEXT, as_scipy, dense50_graph, needs_cc, \
    random_digraph, serialize_edge_list, \
    serialize_temporal_edge_list  # noqa: E402
from test_acceptance import weblike_graph  # noqa: E402
from test_surfer import assert_kernel_equals_reference  # noqa: E402


@st.composite
def digraphs(draw, min_n=1, max_n=25):
    n = draw(st.integers(min_n, max_n))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node).filter(lambda e: e[0] != e[1])))
    return DirectedGraph.from_edges(n, edges)


@st.composite
def oracle_digraphs(draw):
    """Random digraphs up to 150 nodes: unrepaired (some nodes unreachable),
    with every out-degree at least one, or with uniform columns for their
    dangling nodes."""
    n = draw(st.integers(2, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.005, 0.02, 0.05, 0.2]))
    repair = draw(st.sampled_from(["none", "out-degree", "uniform-column"]))
    g = random_digraph(rng, n, p=p, repaired=repair == "out-degree")
    return repair_dangling(g, "uniform-column") if repair == "uniform-column" else g


@needs_cc
@settings(derandomize=True, deadline=None, max_examples=60)
@example(dense50_graph())
@example(weblike_graph(np.random.default_rng(101), 400))
@given(oracle_digraphs())
def test_native_oracles_equal_python_loops_bit_for_bit(g):
    lib = _native.load()
    assert lib is not None
    assert np.array_equal(_native.brandes(lib, g), _loop_betweenness(g))
    assert np.array_equal(_native.bfs_all_pairs(lib, g), _loop_all_pairs(g))


# edge-list labels: printable ASCII without blanks, the comment sign and
# the comma, which the parsers reject
_labels = st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                blacklist_characters="#,"), min_size=1, max_size=3)


def _labeled_edges(g):
    return {(g.labels[u], g.labels[v]) for (u, v) in g.edges}


@st.composite
def labeled_snapshots(draw, max_snapshots=1):
    """1..max_snapshots edge sets over one labeled node set, none empty."""
    n = draw(st.integers(2, 12))
    labels = draw(st.lists(_labels, min_size=n, max_size=n, unique=True))
    snaps = draw(st.lists(digraphs(min_n=n, max_n=n).filter(lambda g: g.edges),
                          min_size=1, max_size=max_snapshots))
    return [DirectedGraph.from_edges(n, g.edges, labels=labels) for g in snaps]


@settings(derandomize=True, deadline=None)
@given(labeled_snapshots())
def test_edge_list_parse_serialize_round_trip(snaps):
    g = snaps[0]
    back = parse_edge_list(serialize_edge_list(g))
    assert _labeled_edges(back) == _labeled_edges(g)
    assert set(back.labels) == {g.labels[u] for e in g.edges for u in e}


@settings(derandomize=True, deadline=None)
@given(labeled_snapshots(max_snapshots=4), st.data())
def test_temporal_parse_serialize_round_trip(snaps, data):
    gaps = data.draw(st.lists(st.integers(1, 5), min_size=len(snaps),
                              max_size=len(snaps)))
    times = np.cumsum(gaps).tolist()
    seq = TemporalGraphSequence(n=snaps[0].n, snapshots=tuple(zip(times, snaps)))
    back = parse_temporal_edge_list(serialize_temporal_edge_list(seq))
    assert [t for t, _ in back.snapshots] == times
    for (_, a), (_, b) in zip(back.snapshots, seq.snapshots):
        assert _labeled_edges(a) == _labeled_edges(b)
    assert set(back.snapshots[0][1].labels) == \
        {g.labels[u] for g in snaps for e in g.edges for u in e}


# each odd line leaves the text to the per-line parser: the compiled parse
# takes only plain text
_ODD_SPACES = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
               "\x85", "\xa0", "\u2028", "\u3000"]
_ODD_TIMES = ["+5", "1_0", "-0", "-3", "0x1", "9/", "9:", "\u0663", "9" * 19,
              "10" * 10]
_ODD_LABELS = ["\xe9", "a,b", "a\x00", "\x7f", "#", "b#"]
_ODD_LINES = ["space", "comment", "tokens", "self-loop", "label"]


@st.composite
def edge_texts(draw, width, odd):
    """(text, plain): an edge list of `width` tokens a line, plain lines
    and blank ones, and one odd line of kind `odd` unless it is None; plain
    if it has no odd line and at least one edge."""
    label = st.sampled_from(["a", "b", "c", "d", "10", "007", "x_y", "~!"])
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    kinds = draw(st.lists(st.sampled_from(["plain", "plain", "blank"]), max_size=8))
    if odd:
        kinds.insert(draw(st.integers(0, len(kinds))), odd)
    time = draw(st.sampled_from([0, 7, 10**18 - 100]))  # 18 digits at most
    lines = []
    for kind in kinds:
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        src, dst = draw(st.lists(label, min_size=2, max_size=2, unique=True))
        time += draw(st.integers(0, 2))
        stamp = str(time).zfill(draw(st.integers(1, 3)))
        if kind == "self-loop":
            dst = src
        elif kind == "time":
            stamp = draw(st.sampled_from(_ODD_TIMES))
        elif kind == "decrease":  # below a line at time
            lines.append(f"{time} {dst} {src}")
            stamp = str(time - 1 - draw(st.integers(0, 2)))
        elif kind == "label":
            src = draw(st.sampled_from(_ODD_LABELS))
        tokens = [stamp, src, dst][3 - width:]
        if kind == "tokens":
            tokens = draw(st.sampled_from([tokens[:-1], tokens + ["e"], []]))
            tokens = tokens or ["e"] * (width + 2)
        line = draw(sep).join(tokens) + draw(st.sampled_from(["", " ", "\t"]))
        if kind == "space":
            line = line.replace(" ", draw(st.sampled_from(_ODD_SPACES)), 1)
            line = line.replace("\t", draw(st.sampled_from(_ODD_SPACES)), 1)
        elif kind == "comment":
            line = draw(st.sampled_from(["# a note", line + " # a note", line + "#"]))
        lines.append(line)
    plain = not odd and "plain" in kinds
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), plain


def _parsed(parse, text):
    """Labels and keys, with the temporal times and which snapshots share
    one graph object; or the parse's error message."""
    try:
        out = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    if isinstance(out, DirectedGraph):
        return out.labels, out.keys.tolist()
    graphs = [g for _, g in out.snapshots]  # by identity: graphs have no ==
    return out.n, [(t, g.labels, g.keys.tolist(), graphs.index(g))
                   for t, g in out.snapshots]


@needs_cc
@pytest.mark.parametrize("width, odd", [
    *((2, odd) for odd in (None, *_ODD_LINES)),
    *((3, odd) for odd in (None, *_ODD_LINES, "time", "decrease"))])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.data())
def test_compiled_parse_equals_per_line_parser(width, odd, data):
    text, plain = data.draw(edge_texts(width, odd))
    parse = parse_edge_list if width == 2 else parse_temporal_edge_list
    assert (_native.parse(_native.load(), text, width) is not None) == plain
    compiled = _parsed(parse, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        assert _parsed(parse, text) == compiled


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 25))
    node = st.integers(0, n - 1)
    return n, draw(st.sets(st.tuples(node, node).filter(lambda e: e[0] != e[1])))


def _sorted_rows(n, pairs):
    """CSR (indptr, indices) lists of the sorted adjacency lists of pairs."""
    rows = [sorted(v for (u, v) in pairs if u == i) for i in range(n)]
    return np.cumsum([0] + [len(r) for r in rows]).tolist(), sum(rows, [])


@settings(derandomize=True, deadline=None)
@given(edge_sets())
def test_graph_arrays_equal_sorted_adjacency_lists(case):
    n, edges = case
    g = DirectedGraph.from_edges(n, edges)
    assert g.edges == edges
    for ptr, idx, pairs in ((g.out_ptr, g.out_idx, edges),
                            (g.in_ptr, g.in_idx, {(v, u) for (u, v) in edges})):
        assert ptr.dtype == idx.dtype == np.int64
        assert (ptr.tolist(), idx.tolist()) == _sorted_rows(n, pairs)
    closed = edges | {(v, u) for (u, v) in edges}
    sym = symmetrize(g)
    assert sym.edges == closed
    assert (sym is g) == (closed == edges)
    assert symmetrize(sym) is sym
    dangling = [i for i in range(n) if not any(u == i for (u, _) in edges)]
    if not dangling:
        assert repair_dangling(g, "backlink") is g
        assert repair_dangling(g, "uniform-column") is g
    elif all(any(v == d for (_, v) in edges) for d in dangling):
        r = repair_dangling(g, "backlink")
        assert r.edges == edges | {(d, u) for d in dangling
                                   for (u, v) in edges if v == d}
        assert repair_dangling(r, "backlink") is r


@st.composite
def spread_digraphs(draw):
    """Random digraphs up to 300 nodes whose degrees spread wide: hubs
    linked with half or most of the nodes over a sparse random rest, and
    nodes without any edge."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.005, 0.03, 0.2]))
    for h in rng.choice(n, size=draw(st.integers(0, min(n, 4))), replace=False):
        mask[h] |= rng.random(n) < draw(st.sampled_from([0.5, 0.95]))
    np.fill_diagonal(mask, False)
    return DirectedGraph.from_edges(n, zip(*np.nonzero(mask)))


@settings(derandomize=True, deadline=None)
@example(dense50_graph())
@given(spread_digraphs())
def test_kernel_equals_per_row_reference_bit_for_bit(g):
    sym = symmetrize(g)
    assert_kernel_equals_reference(_metropolis_hastings(sym), sym)


@settings(derandomize=True, deadline=None)
@given(digraphs())
def test_level_set_distances_equal_bfs(g):
    ls = run_levelset(g)
    assert np.array_equal(np.where(ls.fwd < 0, np.inf, ls.fwd), bfs_all_pairs(g))
    assert np.array_equal(ls.bwd, ls.fwd.T)


@settings(derandomize=True, deadline=None)
@given(digraphs(min_n=2), st.sampled_from(["backlink", "uniform-column"]))
def test_columns_sum_to_one_after_repair(g, policy):
    if policy == "backlink" and any(not g.in_adj[d] for d in g.dangling_nodes()):
        with pytest.raises(RepairError):
            repair_dangling(g, policy)
        return
    w = build_hyperlink_matrix(repair_dangling(g, policy))
    assert np.abs(np.asarray(as_scipy(w).sum(axis=0)).ravel() - 1.0).max() <= 1e-12


@settings(derandomize=True, deadline=None)
@given(digraphs(min_n=2))
def test_oracle_is_fixed_point_of_every_projection(g):
    g = repair_dangling(g, "uniform-column")
    w = build_hyperlink_matrix(g)
    for rows in (rows_from_graph(g, m=0.15), build_regression_rows(w, m=0.15)):
        x = direct_ls_solve(rows).x
        for i in range(g.n):
            xs = x[rows.idx[i]]
            moved = project(xs, rows.coef[i], rows.y, 1.0 / g.n)
            assert np.abs(moved - xs).max() <= 1e-12


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 59).flatmap(lambda n: st.tuples(
    *[st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)] * 2,
    st.floats(-1e6, 1e6), st.floats(0.0, 1.0))))
def test_project_equals_one_expression_bit_for_bit(case):
    """project gives the bits of the projection written out in Python
    floats: each product rounded, the products added left to right from
    the first, then one update per entry."""
    xs, coef, target, alpha = case
    dot = functools.reduce(operator.add, [float(c) * float(x)
                                          for c, x in zip(coef, xs)])
    expect = [x + alpha * c * (target - dot) for c, x in zip(coef, xs)]
    got = project(np.array(xs), np.array(coef), target, alpha)
    assert got.tobytes() == np.array(expect).tobytes()


@st.composite
def hyperlink_graphs(draw):
    """Repaired graphs for hyperlink matrices: random digraphs under either
    dangling policy, or web-like graphs with heavy-tailed in-degrees."""
    if draw(st.booleans()):
        return weblike_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             draw(st.integers(20, 400)))
    g = draw(digraphs(min_n=2))
    policy = draw(st.sampled_from(["backlink", "uniform-column"]))
    if policy == "backlink" and any(not g.in_adj[d] for d in g.dangling_nodes()):
        policy = "uniform-column"  # a dangling node with no in-link to send back to
    return repair_dangling(g, policy)


def _scipy_rows(rows):
    """RegressionRows stacked by scipy, columns sorted by sort_indices."""
    h = sp.csr_matrix((np.concatenate(rows.coef), np.concatenate(rows.idx),
                       np.cumsum([0, *map(len, rows.idx)])), shape=(rows.n, rows.n))
    h.sort_indices()
    return h


def _assert_same_csr(got, ref):
    """Same pattern and the same data bytes."""
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()


@settings(derandomize=True, deadline=None)
@given(hyperlink_graphs(), st.integers(0, 2**32 - 1))
def test_csr_products_equal_scipy_bit_for_bit(g, seed):
    w = build_hyperlink_matrix(g)
    ref = as_scipy(w)
    x = np.random.default_rng(seed).standard_normal(g.n)
    assert (w @ x).tobytes() == (ref @ x).tobytes()
    assert column_sums(w).tobytes() == np.asarray(ref.sum(axis=0)).ravel().tobytes()
    for rows in (rows_from_graph(g, m=0.15), build_regression_rows(w, m=0.15)):
        h = _scipy_rows(rows)
        _assert_same_csr(rows.csr, h)
        assert (rows.csr @ x).tobytes() == (h @ x).tobytes()


@st.composite
def snapshot_sequences(draw):
    """1..8 uniform-column repaired snapshots over one node set."""
    n = draw(st.integers(2, 12))
    snaps = draw(st.lists(digraphs(min_n=n, max_n=n), min_size=1, max_size=8))
    return [repair_dangling(g, "uniform-column") for g in snaps]


# at rho = 1e-17, z rounds to 1 and entries that leave the pattern cancel to
# exactly zero: the one case where scipy prunes an entry
@settings(derandomize=True, deadline=None)
@given(snapshot_sequences(), st.sampled_from([1e-17, 0.3, 0.9, 1.0]))
def test_persistent_average_equals_scipy_bit_for_bit(graphs, rho):
    pa, ref, z = PersistentAverage(rho=rho), None, 0.0
    for g in graphs:
        w = build_hyperlink_matrix(g)
        pa.update(w)
        z = rho * z + 1.0
        ref = as_scipy(w) if ref is None else ref + (as_scipy(w) - ref) * (1.0 / z)
        _assert_same_csr(pa.wbar, ref)
        assert column_sums(pa.wbar).tobytes() == \
            np.asarray(ref.sum(axis=0)).ravel().tobytes()


@st.composite
def snapshot_repeats(draw):
    """1..12 snapshots drawn with repeats from a pool over one node set:
    1..3 uniform-column repaired graphs and a subgraph of the first. A
    repeat or the subgraph mostly keeps the average's pattern; a new graph
    mostly adds to it."""
    n = draw(st.integers(2, 12))
    pool = draw(st.lists(digraphs(min_n=n, max_n=n), min_size=1, max_size=3))
    keep = draw(st.lists(st.booleans(), min_size=pool[0].keys.size,
                         max_size=pool[0].keys.size))
    pool.append(DirectedGraph(n=n, keys=pool[0].keys[np.array(keep, dtype=bool)],
                              labels=pool[0].labels))
    pool = [repair_dangling(g, "uniform-column") for g in pool]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return [pool[i] for i in picks]


# every entry's average against scipy's, and the rows the temporal engine
# steps on against rows built afresh from that average, whether the entry
# kept the pattern (a value update on a held layout) or changed it
@settings(derandomize=True, deadline=None)
@given(snapshot_repeats(), st.sampled_from([1e-17, 0.3, 0.9, 1.0]))
def test_pattern_reuse_equals_fresh_build_bit_for_bit(graphs, rho):
    mats = map_distinct(build_hyperlink_matrix, graphs)
    pa, ref, z = PersistentAverage(rho=rho), None, 0.0
    for w in mats:
        pa.update(w)
        z = rho * z + 1.0
        ref = as_scipy(w) if ref is None else ref + (as_scipy(w) - ref) * (1.0 / z)
        _assert_same_csr(pa.wbar, ref)

    pa, entered = PersistentAverage(rho=rho), []
    engine_steps = engine._engine_steps

    def recording_steps(state, chain, step, on_block=None):
        steps = engine_steps(state, chain, step, on_block)

        def record(rows, count):
            if not entered or rows is not entered[-1][0]:
                entered.append((rows, pa.wbar))
            return steps(rows, count)
        return record

    kernel = _metropolis_hastings(symmetrize(graphs[0]))
    chain = SurferChain(matrix=kernel, omega=0.15, seed=len(graphs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_engine_steps", recording_steps)
        run_temporal(mats, [kernel] * len(mats), chain, pa, 0.15,
                     3 * len(mats), 3, trace_stride=2)
    assert len(entered) == len(mats)
    for rows, wbar in entered:
        fresh = build_regression_rows(wbar, 0.15, n_known=False)
        for name in ("indptr", "indices", "data"):
            assert getattr(rows, name).tobytes() == getattr(fresh, name).tobytes()


def _both_paths(run_once):
    """run_once() with the compiled steps, then with the Python step loop
    (no library)."""
    assert _native.load() is not None
    compiled = run_once()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        python = run_once()
    return compiled, python


def _assert_same_run(compiled, python):
    """Bit-equal iterate, visits, step count, trace, walk and position in
    the uniform stream (RNG state and place in the current block)."""
    (a, ca), (b, cb) = compiled, python
    assert a.state.x.tobytes() == b.state.x.tobytes()
    assert a.state.visits.tobytes() == b.state.visits.tobytes()
    assert a.state.k == b.state.k
    assert a.trace_rows == b.trace_rows
    assert (ca.current, ca._pos) == (cb.current, cb._pos)
    assert ca._rng.bit_generator.state == cb._rng.bit_generator.state


_omegas = st.sampled_from([0.0, 0.15, 1.0])


@needs_cc
@settings(derandomize=True, deadline=None, max_examples=60)
@example(dense50_graph(), "unknown-n", 0.15, 7, 3000, 2)
@given(digraphs(), st.sampled_from(["known-n", "unknown-n"]), _omegas,
       st.integers(1, 700), st.integers(0, 1500), st.integers(0, 2**32 - 1))
def test_compiled_steps_equal_python_step_loop(g, mode, omega, stride, budget,
                                               seed):
    rows = rows_from_graph(g, 0.15)
    kernel = _metropolis_hastings(symmetrize(g))
    oracle = np.full(g.n, 1.0 / g.n)

    def run_once():
        chain = SurferChain(matrix=kernel, omega=omega, seed=seed)
        return run(rows, chain, mode, budget, trace_stride=stride,
                   oracle_x=oracle), chain

    compiled, python = _both_paths(run_once)
    _assert_same_run(compiled, python)


@needs_cc
@settings(derandomize=True, deadline=None, max_examples=60)
@example([dense50_graph()], "unknown-n", 0.15, 1000, 300, 1301, 2)
@given(snapshot_sequences(), st.sampled_from(["known-n", "unknown-n", "temporal"]),
       _omegas, st.integers(1, 300), st.integers(1, 700), st.integers(0, 1500),
       st.integers(0, 2**32 - 1))
def test_twin_hands_on_block_the_compiled_trail_and_the_walk(
        graphs, mode, omega, snapshot_stride, stride, budget, seed):
    """In every mode, the (k, nodes) blocks the Python twin hands to
    on_block follow on from each other, and their nodes are the compiled
    steps' trail and the twin's samples, one per step."""
    mats = [build_hyperlink_matrix(g) for g in graphs]
    engine_steps = engine._engine_steps

    def run_once():
        blocks, sampled = [], []

        def trail_steps(state, chain, step, on_block=None):
            sample = chain.sample_next

            def counted():
                sampled.append(sample())
                return sampled[-1]
            chain.sample_next = counted  # the twin samples through it
            return engine_steps(state, chain, step, on_block=lambda k, nodes:
                                blocks.append((k, nodes.tolist())))

        kernels = [_metropolis_hastings(symmetrize(g)) for g in graphs]
        chain = SurferChain(matrix=kernels[0], omega=omega, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_engine_steps", trail_steps)
            if mode == "temporal":
                run_temporal(mats, kernels, chain, PersistentAverage(rho=0.9),
                             0.15, budget, snapshot_stride, trace_stride=stride)
            else:
                run(rows_from_graph(graphs[0], 0.15), chain, mode, budget,
                    trace_stride=stride)
        return blocks, sampled

    (compiled, none), (python, sampled) = _both_paths(run_once)
    assert none == [] and len(sampled) == budget
    for blocks in (compiled, python):
        assert [k for k, _ in blocks] == \
            np.cumsum([0, *(len(nodes) for _, nodes in blocks)])[:-1].tolist()
    assert [s for _, nodes in python for s in nodes] == sampled == \
        [s for _, nodes in compiled for s in nodes]


@needs_cc
@settings(derandomize=True, deadline=None, max_examples=60)
@given(snapshot_sequences(), _omegas, st.integers(1, 300), st.integers(1, 700),
       st.integers(0, 1500), st.integers(0, 2**32 - 1))
def test_compiled_temporal_steps_equal_python_step_loop(
        graphs, omega, snapshot_stride, stride, budget, seed):
    mats = [build_hyperlink_matrix(g) for g in graphs]
    lists_built = []

    def run_once():
        kernels = [_metropolis_hastings(symmetrize(g)) for g in graphs]
        chain = SurferChain(matrix=kernels[0], omega=omega, seed=seed)
        out = run_temporal(mats, kernels, chain, PersistentAverage(rho=0.9),
                           0.15, budget, snapshot_stride, trace_stride=stride)
        lists_built.append(any("lists" in vars(k) for k in kernels))
        return out, chain

    compiled, python = _both_paths(run_once)
    _assert_same_run(compiled, python)
    # the compiled steps read the kernel arrays: no list copy was built
    assert not lists_built[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@example(dense50_graph(), 0.15, 7, 1500, 2)
@given(digraphs(), _omegas, st.integers(1, 700), st.integers(0, 1500),
       st.integers(0, 2**32 - 1))
def test_simulator_equals_unknown_n_engine(g, omega, stride, budget, seed):
    """The node-actor simulator and the unknown-size engine give the same
    trace rows, residual column included, and the same vector, bit for
    bit."""
    rows = rows_from_graph(g, 0.15)
    kernel = _metropolis_hastings(symmetrize(g))
    oracle = np.full(g.n, 1.0 / g.n)

    def chain():
        return SurferChain(matrix=kernel, omega=omega, seed=seed)

    sim = run_simulation(g, 0.15, chain(), budget, trace_stride=stride,
                         oracle_x=oracle, rows=rows)
    eng = run(rows, chain(), "unknown-n", budget, trace_stride=stride,
              oracle_x=oracle)
    assert sim.trace_rows == eng.trace_rows
    assert len(sim.trace_rows) == budget // stride
    assert all(row.split(",")[2] != "nan" for row in sim.trace_rows)
    assert assemble_vector(sim.actors).tobytes() == eng.state.x.tobytes()


@needs_cc
@settings(derandomize=True, deadline=None, max_examples=60)
# a trace row every 300 steps, so one block spans two uniform blocks, and a
# budget that is not a multiple of it
@example(dense50_graph(), 0.15, 300, 1301, 2)
# more than 256 actors: the audit's actor ids widen to two bytes
@example(weblike_graph(np.random.default_rng(101), 400), 0.15, 700, 4000, 5)
@given(digraphs(), _omegas, st.integers(1, 700), st.integers(0, 1500),
       st.integers(0, 2**32 - 1))
def test_compiled_simulator_equals_python_twin(g, omega, stride, budget, seed):
    """The node-actor run on the library's steps and on its Python block
    (no library) give the same trace, values, visits, size estimates, walk
    and audit."""
    rows = rows_from_graph(g, 0.15)
    kernel = _metropolis_hastings(symmetrize(g))
    oracle = np.full(g.n, 1.0 / g.n)

    def run_once():
        chain = SurferChain(matrix=kernel, omega=omega, seed=seed)
        return run_simulation(g, 0.15, chain, budget, trace_stride=stride,
                              oracle_x=oracle, rows=rows), chain

    (a, ca), (b, cb) = _both_paths(run_once)
    assert a.trace_rows == b.trace_rows
    assert a.actors.values.tobytes() == b.actors.values.tobytes()
    assert a.actors.visits.tobytes() == b.actors.visits.tobytes()
    assert a.k == b.k == budget
    assert a.size_estimates == b.size_estimates
    assert (ca.current, ca._pos) == (cb.current, cb._pos)
    assert ca._rng.bit_generator.state == cb._rng.bit_generator.state
    fa, fb = a.audit.events, b.audit.events
    assert (fa.typecode, fa.tobytes()) == (fb.typecode, fb.tobytes())


@settings(derandomize=True, deadline=None)
@given(digraphs(), st.data())
def test_activations_stay_in_their_windows(g, data):
    """Each activation changes values only at its actor and the actor's
    in-neighbors, and an honest run's audit is clean; on rows built from
    the graph with one more edge f -> t, violations report exactly t's
    activations."""
    node = st.integers(0, g.n - 1)
    order = data.draw(st.lists(node, max_size=80))
    nodes = np.array(order, dtype=np.int64)
    actors = Actors(g, rows_from_graph(g, 0.15, n_known=False))
    audit = LocalityAudit()
    state = KaczmarzState(x=actors.values, mode="unknown-n",
                          visits=actors.visits)
    for s in order:
        before = actors.values.copy()
        activate(state, s, actors.rows)
        changed = np.flatnonzero(actors.values != before).tolist()
        assert set(changed) <= set(g.in_adj[s]) | {s}
    audit.record_block(nodes)
    assert audit.violations(actors) == []

    t = data.draw(node)
    foreign = sorted(set(range(g.n)) - set(g.in_adj[t]) - {t})
    if not foreign:
        return
    f = data.draw(st.sampled_from(foreign))
    other = DirectedGraph.from_edges(g.n, g.edges | {(f, t)})
    actors = Actors(g, rows_from_graph(other, 0.15, n_known=False))
    assert audit.violations(actors) == \
        [(k, t, [f]) for k, s in enumerate(order) if s == t]


class ReferenceAudit:
    """Every activation kept and checked on its own against its actor's
    in-links in the graph; the reference for LocalityAudit."""

    def __init__(self):
        self.events = []

    def record_block(self, nodes):
        self.events.extend(nodes.tolist())

    def violations(self, actors):
        bad = []
        for k, s in enumerate(self.events):
            allowed = set(actors.graph.in_adj[s]) | {s}
            touched = set(actors.rows.idx[s].tolist())
            if not touched <= allowed:
                bad.append((k, s, sorted(touched - allowed)))
        return bad


@settings(derandomize=True, deadline=None, max_examples=60)
@example(repair_dangling(parse_edge_list(DANGLING_TEXT), "uniform-column"),
         1000, 3)
@given(hyperlink_graphs(), st.integers(0, 1500), st.integers(0, 2**32 - 1))
def test_audit_equals_per_event_audit_on_both_paths(g, budget, seed):
    """On the library's steps and on the Python block, the audit holds one
    event per activation and reports what checking each event against the
    graph reports: nothing under backlink repair, and under a uniform
    column every activation of an actor the column has no edge into."""
    rows = rows_from_graph(g, 0.15)
    kernel = _metropolis_hastings(symmetrize(g))
    for library in {_native.load(), None}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "load", lambda: library)
            sim = run_simulation(g, 0.15, SurferChain(matrix=kernel, omega=0.15,
                                                      seed=seed),
                                 budget, trace_stride=700, rows=rows)
        events = np.array(sim.audit.events, dtype=np.int64)
        assert events.size == budget
        assert np.array_equal(np.bincount(events, minlength=g.n),
                              sim.actors.visits)
        ref = ReferenceAudit()
        ref.record_block(events)
        bad = sim.audit.violations(sim.actors)
        assert bad == ref.violations(sim.actors)
        if not g.uniform_columns:
            assert bad == []


@st.composite
def id_blocks(draw):
    """Blocks of actor ids, most below 256, some past one, two or four
    bytes."""
    ids = (st.integers(0, 255) | st.integers(0, 65_535) | st.integers(0, 1 << 20)
           | st.integers(0, 1 << 33))
    return [np.array(draw(st.lists(ids, max_size=40)), dtype=np.int64)
            for _ in range(draw(st.integers(0, 8)))]


@settings(derandomize=True, deadline=None)
@given(id_blocks())
def test_record_block_equals_record_one_by_one(blocks):
    """Blocks recorded whole or one id at a time give the same events: the
    ids in order, in the narrowest item that holds the largest."""
    audit, ref = LocalityAudit(), LocalityAudit()
    for nodes in blocks:
        audit.record_block(nodes)
        for i in range(nodes.size):
            ref.record_block(nodes[i:i + 1])
    ids = [s for nodes in blocks for s in nodes.tolist()]
    top = max(ids, default=0)
    assert list(audit.events) == ids
    assert audit.events.typecode == \
        ("B" if top < 1 << 8 else "H" if top < 1 << 16 else
         "I" if top < 1 << 32 else "Q")
    assert (audit.events.typecode, audit.events.tobytes()) == \
        (ref.events.typecode, ref.events.tobytes())


def test_event_ids_widen_past_one_and_two_bytes():
    """More than 65 536 actors: ids outgrow one byte, then two, and take
    four; every foreign event is still reported with its k, and an id past
    four bytes takes eight. The graph is a cycle; the rows come from the
    reversed cycle, so each row's one in-neighbor is foreign."""
    n = 70_000
    ring = np.arange(n)
    g = DirectedGraph.from_edges(n, zip(ring, np.roll(ring, -1)))
    back = DirectedGraph.from_edges(n, zip(np.roll(ring, -1), ring))
    actors = Actors(g, rows_from_graph(back, 0.15, n_known=False))
    audit, ref = LocalityAudit(), ReferenceAudit()
    for nodes, typecode in ((np.arange(0, 256), "B"), (np.arange(250, 300), "H"),
                            (np.arange(65_500, 65_600), "I"), (np.arange(9), "I")):
        audit.record_block(nodes)
        ref.record_block(nodes)
        assert audit.events.typecode == typecode
    assert list(audit.events) == ref.events
    bad = audit.violations(actors)
    assert bad == ref.violations(actors)
    assert bad == [(k, s, [(s + 1) % n]) for k, s in enumerate(ref.events)]
    audit.record_block(np.array([2**32]))
    assert audit.events.typecode == "Q"
    assert list(audit.events) == [*ref.events, 2**32]


# edge lists and temporal edge lists over a few labels, edge lists split
# into the components {a, b} and {c, d}, and token soup, so that many inputs
# parse and reach the solvers
_pairs = st.sampled_from([f"{u} {v}" for u in "abcd" for v in "abcd" if u != v])
_input_bytes = st.one_of(
    st.binary(max_size=64),
    st.one_of(
        st.lists(_pairs, min_size=1, max_size=10).map("\n".join),
        st.lists(st.sampled_from(["a b", "b a", "c d", "d c"]), min_size=2,
                 max_size=6).map("\n".join),
        st.lists(st.tuples(st.integers(0, 2), _pairs), min_size=1, max_size=10)
        .map(lambda lines: "\n".join(f"{t} {e}" for t, e in sorted(lines))),
        st.lists(st.sampled_from(["0", "1", "a", "b", "-1", "#", "\n"]),
                 max_size=20).map(" ".join),
    ).map(str.encode),
)


@pytest.mark.parametrize("command", sorted(KEYS))
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=_input_bytes)
def test_cli_exits_with_a_documented_code(command, data):
    """Any input file ends in exit 0-3, never in a traceback, and only a run
    that exits 0 leaves its output directory: also at omega = 0 (pagerank*)
    or damping 1e-6 (the others), where more runs fail past the parse."""
    pagerank = command.startswith("pagerank")
    budget = ["--iterations", "50"] if pagerank else []
    for flags in ([], ["--omega", "0"] if pagerank else ["--damping", "1e-6"]):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "in.txt", Path(tmp) / "out"
            path.write_bytes(data)
            rc = main([command, str(path), *budget, *flags, "--output-dir", str(out)])
            assert rc in (0, 1, 2, 3)
            assert (rc == 0) == out.exists()
