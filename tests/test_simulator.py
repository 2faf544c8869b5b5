import tracemalloc

import numpy as np
import pytest

from centrasim.engine import project, run
from centrasim.oracles import direct_ls_solve, rows_from_graph
from centrasim.simulator import (ActivationToken, LocalityAudit, activate,
                                 assemble_vector, estimate_network_size,
                                 init_nodes, run_simulation)
from centrasim.surfer import SurferChain, build_transition_matrix

from conftest import dense50_graph, random_connected_digraph


def _chain(g, omega, seed):
    tm = build_transition_matrix(g, omega)
    return SurferChain(matrix=tm, omega=omega, seed=seed)


class TestActivation:
    def test_first_activation_matches_closed_form(self, fig1):
        actors = init_nodes(fig1, m=0.15)
        token = ActivationToken()
        alpha = activate(actors, token, 2)
        assert alpha == 1.0
        # x(1) = m * H_s^T at alpha = 1
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        expect = np.zeros(6)
        expect[rows.idx[2]] = 0.15 * rows.coef[2]
        assert np.abs(assemble_vector(actors) - expect).max() < 1e-15

    def test_only_neighborhood_changes(self, fig1):
        actors = init_nodes(fig1, m=0.15)
        token = ActivationToken()
        before = assemble_vector(actors)
        activate(actors, token, 4)
        after = assemble_vector(actors)
        changed = set(np.nonzero(after != before)[0].tolist())
        assert changed <= set(actors[4].in_nbrs.tolist()) | {4}

    def test_audit_clean_on_honest_run(self, fig1):
        actors = init_nodes(fig1, m=0.15)
        token = ActivationToken()
        audit = LocalityAudit()
        chain = _chain(fig1, 0.0, seed=7)
        for _ in range(500):
            activate(actors, token, chain.sample_next(), audit=audit)
        assert audit.violations(actors) == []

    def test_audit_flags_foreign_touch(self, fig1):
        actors = init_nodes(fig1, m=0.15)
        audit = LocalityAudit()
        # node 4's only in-neighbor is 5; 0 and 3 are foreign
        audit.record(0, 4, np.array([4, 5, 0, 3], dtype=np.intp))
        bad = audit.violations(actors)
        assert bad == [(0, 4, [0, 3])]

    @pytest.mark.parametrize("ids", ["reads", "writes"])
    def test_audit_records_what_activate_touched(self, fig1, ids):
        # node 4's only in-neighbor is 5: give node 4 a window with 0 in its
        # place, which activate pulls values through (reads) and pushes them
        # back through (writes); the audit names 0 either way
        actors = init_nodes(fig1, m=0.15)
        window = actors[4].window.copy()  # the rows' indices are frozen
        window[window == 5] = 0
        actors[4].window = window
        token, audit = ActivationToken(), LocalityAudit()
        activate(actors, token, 1, audit=audit)
        actors.values[:] = np.arange(1.0, 7.0) / 8
        before = actors.values.copy()
        activate(actors, token, 4, audit=audit)
        via = {j: project(before[[4, j]], actors[4].coef, 0.15 * 0.5, 0.5)
               for j in (0, 5)}
        if ids == "reads":
            assert actors.values[4] == via[0][0] != via[5][0]
        else:
            changed = np.flatnonzero(actors.values != before).tolist()
            assert changed == [0, 4]
            assert actors.values[0] == via[0][1]
        assert audit.violations(actors) == [(1, 4, [0])]

    def test_audit_memory_bounded_per_event(self):
        actors = init_nodes(dense50_graph(), m=0.15)
        order = np.random.default_rng(5).integers(0, 50, 100_000).tolist()
        audit = LocalityAudit()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k, s in enumerate(order):
                audit.record(k, s, actors[s].window)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(audit.events) == 100_000
        assert retained <= 16 * 100_000
        assert audit.violations(actors) == []

    def test_size_estimate_lifecycle(self, fig1):
        actors = init_nodes(fig1, m=0.15)
        assert estimate_network_size(actors, 0, 10) is None
        token = ActivationToken()
        for _ in range(3):
            activate(actors, token, 0)
        assert estimate_network_size(actors, 0, token.k - 1) == 1.0


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
        assert sim.token.k == 777
        assert sim.actors.visits.sum() == 777
