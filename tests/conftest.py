import numpy as np
import pytest

from centrasim import _native
from centrasim.graph import DirectedGraph, is_connected, parse_edge_list, \
    symmetrize

# acceptance-criterion verdict lines, echoed after the run summary
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


FIG1_TEXT = """\
# six-node reference graph
1 2
2 1
2 3
3 2
3 4
1 4
4 3
5 4
3 6
4 6
6 4
6 5
"""

# fig1 with node 5 made dangling (uniform-column repair fills its column)
DANGLING_TEXT = "".join(line + "\n" for line in FIG1_TEXT.splitlines()
                        if line and line != "5 4")

# fig1, then spam links into node 5 for one snapshot, then fig1 again;
# node 6 is dangling in the last snapshot (backlink repair)
_FIG1_EDGES = [line for line in FIG1_TEXT.splitlines()
               if line and not line.startswith("#")]
TEMPORAL_TEXT = "".join(
    [f"0 {e}\n" for e in _FIG1_EDGES]
    + [f"1 {e}\n" for e in _FIG1_EDGES + ["1 5", "2 5", "3 5"]]
    + [f"2 {e}\n" for e in _FIG1_EDGES if not e.startswith("6 ")])


# the compiled loops need the system C compiler; without one the oracles
# and the engine run their Python loops, and tests of the native path skip
HAVE_CC = _native.compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """XDG_CACHE_HOME for the whole session, so the compiled oracle library
    is built once into a temporary directory, for the tests and for the CLI
    processes they start, and never into the user's own cache."""
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("xdg-cache")
        mp.setenv("XDG_CACHE_HOME", str(path))
        yield path


@pytest.fixture(scope="session")
def fig1():
    g = parse_edge_list(FIG1_TEXT)
    # label order coincides with index order in this file
    assert list(g.labels) == ["1", "2", "3", "4", "5", "6"]
    return g


def as_scipy(w):
    """The package's Csr matrix w as a scipy CSR matrix over the same arrays,
    for the reference computations only scipy provides."""
    import scipy.sparse as sp
    return sp.csr_matrix((w.data, w.indices, w.indptr), shape=w.shape)


def serialize_edge_list(g):
    """Inverse of parse_edge_list (up to edge ordering)."""
    return "".join(f"{g.labels[u]} {g.labels[v]}\n" for (u, v) in sorted(g.edges))


def serialize_temporal_edge_list(seq):
    """Inverse of parse_temporal_edge_list (up to edge ordering)."""
    return "".join(f"{t} {g.labels[u]} {g.labels[v]}\n"
                   for (t, g) in seq.snapshots for (u, v) in sorted(g.edges))


def read_table(text):
    """A result table's values, labels and header fields (key=value)."""
    header, *rows = text.splitlines()
    meta = dict(tok.partition("=")[::2] for tok in header[1:].split())
    labels, values = zip(*(row.rsplit(",", 1) for row in rows))
    return np.array(values, dtype=float), list(labels), meta


def random_digraph(rng, n, p=0.15, repaired=True):
    """Random digraph; with repaired=True every node gets out-degree >= 1."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}
    for i in range(n):
        if repaired and not any(u == i for (u, _) in edges):
            j = int(rng.integers(n - 1))
            edges.add((i, j if j < i else j + 1))
    return DirectedGraph.from_edges(n, edges)


def dense50_graph():
    """Undirected Erdos-Renyi graph, 50 nodes, connection probability 1/2."""
    rng = np.random.default_rng(2)
    edges = set()
    for i in range(50):
        for j in range(i + 1, 50):
            if rng.random() < 0.5:
                edges.add((i, j))
                edges.add((j, i))
    return DirectedGraph.from_edges(50, edges)


def random_connected_digraph(rng, n, p=0.15):
    """Repaired digraph whose symmetrized communication graph is connected."""
    for _ in range(200):
        g = random_digraph(rng, n, p)
        if is_connected(symmetrize(g)):
            return g
    raise RuntimeError("could not draw a connected graph")


def digraphs(min_n=1, max_n=25):
    """Hypothesis strategy: simple digraphs on min_n..max_n nodes with any
    edge set. hypothesis is imported here, so that only the properties
    need it."""
    from hypothesis import strategies as st

    @st.composite
    def draw_digraph(draw):
        n = draw(st.integers(min_n, max_n))
        node = st.integers(0, n - 1)
        edges = draw(st.sets(st.tuples(node, node).filter(lambda e: e[0] != e[1])))
        return DirectedGraph.from_edges(n, edges)

    return draw_digraph()


def random_oriented_tree(rng, n):
    """Uniform random tree skeleton with random edge orientations."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        if rng.random() < 0.5:
            edges.add((u, v))
        else:
            edges.add((v, u))
    return DirectedGraph.from_edges(n, edges)


def union_find_acyclic(g):
    """Reference for is_oriented_tree: no antiparallel pair, and union-find
    over the undirected edges never joins two nodes already joined."""
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
