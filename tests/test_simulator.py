import tracemalloc

import numpy as np
import pytest

from centrasim.engine import project, run
from centrasim.graph import DirectedGraph
from centrasim.oracles import direct_ls_solve, rows_from_graph
from centrasim.simulator import (Actors, LocalityAudit, activate,
                                 assemble_vector, run_simulation)
from centrasim.surfer import SurferChain, build_transition_matrix

from conftest import dense50_graph, random_connected_digraph


def _chain(g, omega, seed):
    tm = build_transition_matrix(g, omega)
    return SurferChain(matrix=tm, omega=omega, seed=seed)


def _actors(g, rows_graph=None):
    """Actors on g whose rows are built from rows_graph (g itself if not
    given)."""
    return Actors(g, rows_from_graph(rows_graph or g, 0.15, n_known=False))


def _foreign_fig1(fig1):
    """fig1 with node 4's only in-link, 5 -> 4, moved to 0 -> 4."""
    return DirectedGraph.from_edges(
        6, (fig1.edges - {(5, 4)}) | {(0, 4)}, labels=fig1.labels)


class TestActivation:
    def test_first_activation_matches_closed_form(self, fig1):
        actors = _actors(fig1)
        alpha = activate(actors, 0, 2)
        assert alpha == 1.0
        # x(1) = m * H_s^T at alpha = 1
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        expect = np.zeros(6)
        expect[rows.idx[2]] = 0.15 * rows.coef[2]
        assert np.abs(assemble_vector(actors) - expect).max() < 1e-15

    def test_only_neighborhood_changes(self, fig1):
        actors = _actors(fig1)
        before = assemble_vector(actors)
        activate(actors, 0, 3)
        after = assemble_vector(actors)
        changed = set(np.nonzero(after != before)[0].tolist())
        assert changed == set(fig1.in_adj[3]) | {3}

    def test_audit_clean_on_honest_run(self, fig1):
        sim = run_simulation(fig1, 0.15, _chain(fig1, 0.0, seed=7), budget=500)
        assert len(sim.audit.events) == 500
        assert sim.audit.violations(sim.actors) == []

    def test_audit_flags_foreign_touch(self, fig1):
        # rows from another graph, where node 4's in-neighbor is 0, not 5
        actors = _actors(fig1, _foreign_fig1(fig1))
        audit = LocalityAudit()
        audit.record_block(np.array([1, 4, 2, 4], dtype=np.int64))
        assert audit.violations(actors) == [(1, 4, [0]), (3, 4, [0])]

    @pytest.mark.parametrize("ids", ["reads", "writes"])
    def test_audit_records_what_activate_touched(self, fig1, ids):
        # node 4's only in-neighbor is 5, but its row, from another graph,
        # holds 0 in 5's place: activate pulls values through 0 (reads) and
        # pushes them back through 0 (writes); the audit names 0 either way
        actors = _actors(fig1, _foreign_fig1(fig1))
        audit = LocalityAudit()
        activate(actors, 0, 1)
        actors.values[:] = np.arange(1.0, 7.0) / 8
        before = actors.values.copy()
        activate(actors, 1, 4)
        audit.record_block(np.array([1, 4], dtype=np.int64))
        coef = actors.rows.coef[4]
        via = {j: project(before[[4, j]], coef, 0.15 * 0.5, 0.5) for j in (0, 5)}
        if ids == "reads":
            assert actors.values[4] == via[0][0] != via[5][0]
        else:
            changed = np.flatnonzero(actors.values != before).tolist()
            assert changed == [0, 4]
            assert actors.values[0] == via[0][1]
        assert audit.violations(actors) == [(1, 4, [0])]

    def test_audit_memory_bounded_per_event(self):
        # one byte per event while there are at most 256 actors, recorded
        # in trails of up to 256 nodes as the compiled steps hand them over
        actors = _actors(dense50_graph())
        order = np.random.default_rng(5).integers(0, 50, 100_000)
        audit = LocalityAudit()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(0, order.size, 256):
                audit.record_block(order[i:i + 256])
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(audit.events) == 100_000
        assert audit.events.itemsize == 1
        # the array's own spare room aside, one byte per event
        assert retained <= 100_000 * 9 // 8
        assert audit.violations(actors) == []

    def test_size_estimate_lifecycle(self, fig1):
        # absent until an actor's first activation; then (k + 1) / visits
        # as seen at its latest activation k, k counting from 0
        sim = run_simulation(fig1, 0.15, _chain(fig1, 0.0, 4), budget=3)
        events = list(sim.audit.events)
        assert len(sim.size_estimates) < 6
        for s in range(6):
            if s not in events:
                assert s not in sim.size_estimates
                continue
            last = max(k for k, e in enumerate(events) if e == s)
            assert sim.size_estimates[s] == (last + 1) / events.count(s)


class TestEngineEquivalence:
    def test_traces_bit_identical(self, fig1):
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        oracle = direct_ls_solve(rows_from_graph(fig1, m=0.15)).x
        for seed in range(10):
            eng = run(rows, _chain(fig1, 0.0, seed), "unknown-n",
                      budget=5_000, oracle_x=oracle)
            sim = run_simulation(fig1, 0.15, _chain(fig1, 0.0, seed),
                                 budget=5_000, oracle_x=oracle)
            assert eng.trace_rows == sim.trace_rows
            assert np.array_equal(eng.state.x, assemble_vector(sim.actors))

    def test_equivalence_on_random_graph(self):
        rng = np.random.default_rng(67)
        g = random_connected_digraph(rng, 30, p=0.15)
        rows = rows_from_graph(g, m=0.15, n_known=False)
        eng = run(rows, _chain(g, 0.0, 3), "unknown-n", budget=10_000)
        sim = run_simulation(g, 0.15, _chain(g, 0.0, 3), budget=10_000)
        assert eng.trace_rows == sim.trace_rows
        assert np.array_equal(eng.state.x, assemble_vector(sim.actors))

    def test_equivalence_with_teleport(self, fig1):
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        eng = run(rows, _chain(fig1, 0.15, 11), "unknown-n", budget=5_000)
        sim = run_simulation(fig1, 0.15, _chain(fig1, 0.15, 11), budget=5_000)
        assert eng.trace_rows == sim.trace_rows


class TestSimulationRun:
    def test_converges_with_size_estimates(self, fig1):
        oracle = direct_ls_solve(rows_from_graph(fig1, m=0.15)).x
        sim = run_simulation(fig1, 0.15, _chain(fig1, 0.0, 0),
                             budget=100_000, oracle_x=oracle)
        x = assemble_vector(sim.actors)
        assert np.abs(x - oracle).max() < 2e-3
        assert abs(x.sum() - 1) < 5e-3
        for i in range(6):
            assert abs(sim.size_estimates[i] - 6) < 0.5
        assert sim.audit.violations(sim.actors) == []

    def test_token_counts_activations(self, fig1):
        sim = run_simulation(fig1, 0.15, _chain(fig1, 0.0, 1), budget=777)
        assert sim.k == len(sim.audit.events) == 777
        assert sim.actors.visits.sum() == 777
        assert np.array_equal(np.bincount(sim.audit.events, minlength=6),
                              sim.actors.visits)
