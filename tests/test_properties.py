"""Invariants checked as properties over generated inputs."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from centrasim.graph import DirectedGraph  # noqa: E402
from centrasim.levelsets import run_levelset  # noqa: E402
from centrasim.oracles import bfs_all_pairs  # noqa: E402


@st.composite
def digraphs(draw, max_n=25):
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node).filter(lambda e: e[0] != e[1])))
    return DirectedGraph.from_edges(n, edges)


@settings(derandomize=True, deadline=None)
@given(digraphs())
def test_level_set_distances_equal_bfs(g):
    ls = run_levelset(g)
    assert np.array_equal(np.where(ls.fwd < 0, np.inf, ls.fwd), bfs_all_pairs(g))
    assert np.array_equal(ls.bwd, ls.fwd.T)
