"""Invariants checked as properties over generated inputs."""
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from centrasim import _native  # noqa: E402
from centrasim.cli import KEYS, main  # noqa: E402
from centrasim.engine import project  # noqa: E402
from centrasim.errors import RepairError  # noqa: E402
from centrasim.graph import (DirectedGraph, TemporalGraphSequence,  # noqa: E402
                             parse_edge_list, parse_temporal_edge_list,
                             repair_dangling, serialize_edge_list,
                             serialize_temporal_edge_list, symmetrize)
from centrasim.levelsets import run_levelset  # noqa: E402
from centrasim.matrix import (PersistentAverage, build_hyperlink_matrix,  # noqa: E402
                              column_sums)
from centrasim.oracles import (_loop_all_pairs, _loop_betweenness,  # noqa: E402
                               bfs_all_pairs, build_regression_rows,
                               direct_ls_solve, rows_from_graph)
from centrasim.simulator import LocalityAudit, init_nodes  # noqa: E402
from centrasim.surfer import _metropolis_hastings  # noqa: E402

from conftest import FIG1_TEXT, as_scipy, dense50_graph, needs_cc, \
    random_digraph  # noqa: E402
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


# edge-list labels: printable ASCII without blanks and the comment sign
_labels = st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                blacklist_characters="#"), min_size=1, max_size=3)


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


class ReferenceAudit:
    """LocalityAudit as it was: every event kept whole, each one checked
    against its actor's allowed set; the reference for the footprint audit."""

    def __init__(self):
        self.events = []

    def record(self, k, s, reads, writes):
        self.events.append((k, s, tuple(reads), tuple(writes)))

    def violations(self, actors):
        bad = []
        for (k, s, reads, writes) in self.events:
            allowed = set(actors[s].in_nbrs.tolist()) | {s}
            touched = set(reads) | set(writes)
            if not touched <= allowed:
                bad.append((k, s, sorted(touched - allowed)))
        return bad


AUDIT_ACTORS = {"fig1": init_nodes(parse_edge_list(FIG1_TEXT), 0.15),
                "dense50": init_nodes(dense50_graph(), 0.15)}


@st.composite
def audit_records(draw):
    """Actors and (k, s, reads, writes) records: honest footprints, repeats
    of earlier records and foreign ids, as tuples or lists, with k running
    on, repeating or jumping."""
    actors = AUDIT_ACTORS[draw(st.sampled_from(sorted(AUDIT_ACTORS)))]
    node = st.integers(0, len(actors) - 1)
    records, k = [], 0
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(["honest", "repeat", "foreign"]))
        if kind == "repeat" and records:
            _, s, reads, writes = draw(st.sampled_from(records))
        elif kind == "foreign":
            s = draw(node)
            reads = draw(st.lists(node, max_size=6))
            writes = draw(st.lists(node, max_size=6))
        else:
            s = draw(node)
            reads, writes = actors[s].reads, actors[s].writes
        if draw(st.booleans()):
            reads, writes = list(reads), list(writes)
        k = draw(st.sampled_from([k + 1, k + 1, k, 0]) | st.integers(-5, 10**12))
        records.append((k, s, reads, writes))
    return actors, records


@settings(derandomize=True, deadline=None)
@given(audit_records())
def test_footprint_audit_equals_per_event_audit(case):
    actors, records = case
    audit, ref = LocalityAudit(), ReferenceAudit()
    for rec in records:
        audit.record(*rec)
        ref.record(*rec)
    assert len(audit.events) == len(records)
    assert audit.violations(actors) == ref.violations(actors)


def test_footprint_ids_widen_past_one_and_two_bytes():
    """More than 65 536 distinct footprints: ids outgrow one byte, then two,
    and every foreign event is still reported with its k."""
    actors = AUDIT_ACTORS["dense50"]
    audit, ref = LocalityAudit(), ReferenceAudit()
    k = 0
    for s in range(50):
        for a in range(50):
            for b in range(27):
                k += 1 + (a == b)
                rec = (k, s, (a,), (s, b))
                audit.record(*rec)
                ref.record(*rec)
    assert len(audit.footprints) == 50 * 50 * 27 > 1 << 16
    assert len(audit.events) == len(ref.events)
    assert audit.violations(actors) == ref.violations(actors)


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
