"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced. Only criterion 4 is expected to fail: at
k = 10^5 the unknown-size iterate's mass is still about 1 - exp(-m^2 k / N^2),
so its error and size estimates are short of the thresholds, which it
meets by k = 3 x 10^5. The readings are measured and printed rather
than papered over (see the assertion for the exact values).
"""
import numpy as np
import pytest

from centrasim.engine import run, run_temporal
from centrasim.graph import DirectedGraph, parse_edge_list, repair_dangling, symmetrize
from centrasim.levelsets import (closeness_centrality, degree_centrality,
                                 normalize, run_levelset, tree_betweenness)
from centrasim.matrix import PersistentAverage, build_hyperlink_matrix
from centrasim.oracles import (bfs_all_pairs, brandes_betweenness,
                               build_regression_rows, direct_ls_solve,
                               power_method, rows_from_graph)
from centrasim.simulator import assemble_vector, run_simulation
from centrasim.surfer import (SurferChain, build_transition_matrix,
                              build_transition_matrix_temporal,
                              empirical_stationary)

import conftest
from conftest import dense50_graph, random_digraph, random_oriented_tree

M = 0.15

# (label, final x) for every run below whose final oracle error is < 1e-3;
# criterion 11 checks the emergent mass of each entry.
CONVERGED = []


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, line


def _note_converged(label, x, oracle):
    if float(np.abs(x - oracle).max()) < 1e-3:
        CONVERGED.append((label, x))


def _chain(g, omega, seed):
    return SurferChain(matrix=build_transition_matrix(g, omega),
                       omega=omega, seed=seed)


@pytest.fixture(scope="module")
def dense50():
    """Undirected Erdos-Renyi graph, 50 nodes, connection probability 1/2."""
    g = dense50_graph()
    oracle = direct_ls_solve(rows_from_graph(g, M)).x
    return g, oracle


def weblike_graph(rng, n, out_links=6, zipf=0.5):
    """Synthetic web-like digraph: heavy-tailed in-degrees from a Zipf
    attractiveness profile, constant-ish out-degree."""
    attract = np.arange(1, n + 1, dtype=float) ** -zipf
    rng.shuffle(attract)
    p = attract / attract.sum()
    draws = rng.choice(n, size=(n, out_links), p=p)
    edges = set()
    for v in range(n):
        for u in draws[v]:
            if u != v:
                edges.add((v, int(u)))
    return repair_dangling(DirectedGraph.from_edges(n, edges), "backlink")


# Betweenness row as published for Fig. 1. It equals [1, 9, 9, 19, 0, 8] / 46:
# node 3's entry is a misprint, and the other five are the correct counts
# divided by 46 instead of 54.
PUBLISHED_BETWEENNESS = [.0217, .1957, .1957, .4130, 0.0, .1739]


def test_criterion_01_reference_table(fig1):
    # Raw ordered-pair counts are [0.5, 4.5, 8.5, 9.5, 0, 4] (sum 27).
    # Node 3 lies on every shortest path of (2,5), (2,6), (4,1), (4,2),
    # (5,1), (5,2), (6,1) and (6,2), and on one of the two shortest paths
    # of (2,4): 8.5, where the published row implies 4.5.
    expected = {
        "degree": [.1667, .1667, .2500, .1667, .0833, .1667],
        "closeness": [.1708, .1708, .2196, .1708, .1281, .1398],
        "betweenness": np.array([1, 9, 17, 19, 0, 8]) / 54,
        "pagerank": [.0727, .1122, .1986, .2963, .1131, .2072],
    }
    ls = run_levelset(fig1)
    got = {
        "degree": normalize(degree_centrality(fig1)).values,
        "closeness": normalize(closeness_centrality(ls, fig1)).values,
        "betweenness": normalize(brandes_betweenness(fig1)).values,
        "pagerank": direct_ls_solve(rows_from_graph(fig1, M)).x,
    }
    gaps = {k: float(np.abs(got[k] - expected[k]).max()) for k in expected}
    # ties the published row to the paper at every self-consistent entry
    consistent = [0, 1, 3, 4, 5]
    gaps["published betweenness"] = float(np.abs(
        got["betweenness"][consistent] * 54 / 46
        - np.array(PUBLISHED_BETWEENNESS)[consistent]).max())
    bad = sorted(k for k, gap in gaps.items() if gap >= 5e-4)
    _report(1, "six-node reference table, all four rows within 5e-4",
            not bad,
            ", ".join(f"{k} gap {gaps[k]:.2e}" for k in gaps))


def test_criterion_02_oracle_agreement():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 101))
        g = repair_dangling(random_digraph(rng, n, p=3.0 / n), "backlink")
        w = build_hyperlink_matrix(g)
        ls = direct_ls_solve(build_regression_rows(w, M))
        pm = power_method(w, M, tol=1e-13)
        worst = max(worst, float(np.abs(ls.x - pm.x).max()))
    _report(2, "direct LS vs power method < 1e-10 on 50 random digraphs",
            worst < 1e-10, f"worst gap {worst:.2e}")


def test_criterion_03_known_size_convergence(fig1, dense50):
    g50, oracle50 = dense50
    oracle6 = direct_ls_solve(rows_from_graph(fig1, M)).x
    cases = [("fixture", fig1, oracle6, 50_000, 2_500, 50_000),
             ("50-node", g50, oracle50, 500_000, 25_000, 800_000)]
    details = []
    ok = True
    for label, g, oracle, deadline, stride, budget in cases:
        rows = rows_from_graph(g, M)
        for omega in (1.0, 0.15):
            kernel = build_transition_matrix(g, omega)
            hits = 0
            slopes = []
            for seed in range(10):
                chain = SurferChain(matrix=kernel, omega=omega, seed=seed)
                out = run(rows, chain, "known-n", budget,
                          trace_stride=stride, oracle_x=oracle)
                errs = {int(r.split(",")[0]): float(r.split(",")[1])
                        for r in out.trace_rows}
                if min(e for k, e in errs.items() if k <= deadline) < 1e-3:
                    hits += 1
                ks = np.array(sorted(errs))
                ys = np.log([max(errs[k], 1e-300) for k in ks])
                slopes.append(np.polyfit(ks, ys, 1)[0])
                _note_converged(f"known-n {label} w={omega} seed={seed}",
                                out.state.x, oracle)
            ok &= hits >= 9 and max(slopes) < 0
            details.append(f"{label} w={omega}: {hits}/10 under 1e-3, "
                           f"worst slope {max(slopes):.1e}")
    _report(3, "known-size runs decay log-linearly and converge on >=9/10 seeds",
            ok, "; ".join(details))


def test_criterion_04_unknown_size_estimation(dense50):
    g, oracle = dense50
    kernel = build_transition_matrix(g, 0.0)
    errs = []
    alpha_inv = []
    for seed in range(10):
        chain = SurferChain(matrix=kernel, omega=0.0, seed=seed)
        out = run(rows_from_graph(g, M, n_known=False), chain, "unknown-n",
                  budget=100_000, oracle_x=oracle, trace_stride=100_000)
        errs.append(float(np.abs(out.state.x - oracle).max()))
        alpha_inv.append(out.state.k / out.state.visits)
        _note_converged(f"unknown-n 50-node seed={seed}", out.state.x, oracle)
    med_err = float(np.median(errs))
    med_alpha_inv = np.median(np.array(alpha_inv), axis=0)
    worst_est = float(np.abs(med_alpha_inv / 50 - 1).max())
    _report(4, "unknown-size error < 2e-3 and size estimates within 2% at k=1e5",
            med_err < 2e-3 and worst_est < 0.02,
            f"median error {med_err:.2e}, worst size estimate off by "
            f"{worst_est:.1%}")


def test_criterion_05_distributed_equals_centralized(fig1):
    rows = rows_from_graph(fig1, M, n_known=False)
    oracle = direct_ls_solve(rows_from_graph(fig1, M)).x
    identical = 0
    violations = 0
    for seed in range(10):
        eng = run(rows, _chain(fig1, 0.0, seed), "unknown-n",
                  budget=20_000, oracle_x=oracle)
        sim = run_simulation(fig1, M, _chain(fig1, 0.0, seed),
                             budget=20_000, oracle_x=oracle)
        if eng.trace_rows == sim.trace_rows and \
                np.array_equal(eng.state.x, assemble_vector(sim.actors)):
            identical += 1
        violations += len(sim.audit.violations(sim.actors))
    _report(5, "node-actor simulation bit-identical to the engine, audit clean",
            identical == 10 and violations == 0,
            f"{identical}/10 seeds identical, {violations} locality violations")


def test_criterion_06_tree_betweenness():
    rng = np.random.default_rng(73)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        g = random_oriented_tree(rng, n)
        mine = tree_betweenness(run_levelset(g), g).values
        oracle = brandes_betweenness(g).values
        if not np.array_equal(mine, oracle):
            mismatches += 1
    _report(6, "level-set tree betweenness equals the exact oracle on 100 trees",
            mismatches == 0, f"{mismatches} mismatching trees")


def test_criterion_07_level_sets():
    rng = np.random.default_rng(79)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        g = random_digraph(rng, n, p=2.0 / n, repaired=False)
        ls = run_levelset(g)
        d = bfs_all_pairs(g)
        for i in range(n):
            found = {}
            for t, members in enumerate(ls.r[i], start=1):
                for j in members:
                    found[j] = t
            want = {j: int(d[i, j]) for j in range(n)
                    if j != i and np.isfinite(d[i, j])}
            if found != want:
                bad += 1
    _report(7, "level sets reproduce BFS distances exactly on 100 digraphs",
            bad == 0, f"{bad} bad source nodes")


def test_criterion_08_surfer_chain(fig1):
    kernel = build_transition_matrix(fig1, 0.0)
    p = kernel.dense()
    row_gap = float(np.abs(p.sum(axis=1) - 1).max())
    col_gap = float(np.abs(p.sum(axis=0) - 1).max())
    chain = SurferChain(matrix=kernel, omega=0.0, seed=0)
    freq = empirical_stationary(chain, 1_000_000)
    uni_gap = float(np.abs(freq - 1 / 6).max())
    _report(8, "hop kernel doubly stochastic, empirical stationary uniform",
            row_gap < 1e-12 and col_gap < 1e-12 and uni_gap < 0.01,
            f"row gap {row_gap:.1e}, column gap {col_gap:.1e}, "
            f"uniformity gap {uni_gap:.4f} over 1e6 steps")


def _spam_graphs():
    n = 12
    base = set()
    for i in range(n):
        base.add((i, (i + 1) % n))
        base.add(((i + 1) % n, i))
    for (u, v) in [(0, 5), (5, 0), (2, 8), (8, 2),
                   (4, 10), (10, 4), (1, 7), (7, 1)]:
        base.add((u, v))
    g_base = DirectedGraph.from_edges(n, base)
    spam = set(base)
    for j in (0, 2, 4, 6, 8, 11):
        spam.add((j, 9))
    return g_base, DirectedGraph.from_edges(n, spam), 9


def _run_temporal(graphs, rho, stride, seed=0):
    mats = [build_hyperlink_matrix(g) for g in graphs]
    kernels = build_transition_matrix_temporal(graphs, 0.0, joint_window=1)
    chain = SurferChain(matrix=kernels[0], omega=0.0, seed=seed)
    pa = PersistentAverage(rho=rho)
    out = run_temporal(mats, kernels, chain, pa, M,
                       budget=len(graphs) * stride, snapshot_stride=stride,
                       trace_stride=10 ** 9)
    return out.state.x, pa


def test_criterion_09_temporal():
    # alternating pair, full-memory average
    wa = parse_edge_list("a b\nb a\nb c\nc b\nc a")
    wb = DirectedGraph.from_edges(3, {(0, 2), (2, 0), (1, 2), (2, 1), (0, 1)})
    x_alt, pa = _run_temporal([wa, wb] * 40, rho=1.0, stride=2_000)
    avg_oracle = direct_ls_solve(build_regression_rows(pa.wbar, M)).x
    alt_err = float(np.abs(x_alt - avg_oracle).max())
    _note_converged("temporal alternating", x_alt, avg_oracle)

    # spam window: boost links live only in the first 10 of 500 snapshots
    g_base, g_spam, target = _spam_graphs()
    x_spam, _ = _run_temporal([g_spam] * 10 + [g_base] * 490, rho=0.9,
                              stride=500)
    x_free, _ = _run_temporal([g_base] * 500, rho=0.9, stride=500)
    base_oracle = direct_ls_solve(rows_from_graph(g_base, M)).x
    _note_converged("temporal spam run", x_spam, base_oracle)
    _note_converged("temporal spam-free run", x_free, base_oracle)
    spam_delta = abs(float(x_spam[target]) - float(x_free[target]))
    _report(9, "temporal runs: alternating matches averaged-matrix LS, "
            "spam window leaves the target's score unchanged",
            alt_err < 1e-3 and spam_delta < 1e-3,
            f"alternating error {alt_err:.2e}, spam delta {spam_delta:.2e}")


def test_criterion_10_benchmark_scale_stand_in():
    rng = np.random.default_rng(101)
    g = weblike_graph(rng, 4_000)
    w = build_hyperlink_matrix(g)
    pm = power_method(w, M, tol=1e-10, max_iter=500)
    oracle = direct_ls_solve(build_regression_rows(w, M)).x
    chain = _chain(g, 0.15, seed=0)
    out = run(rows_from_graph(g, M), chain, "known-n", budget=2_000_000,
              trace_stride=500_000, oracle_x=oracle)
    err = float(np.abs(out.state.x - oracle).max())
    _report(10, "4000-node web-like graph: power method < 100 iterations, "
            "engine error < 1e-2",
            pm.iterations < 100 and err < 1e-2,
            f"{pm.iterations} power iterations, engine error {err:.2e} "
            f"after 2e6 steps")


def test_criterion_11_emergent_normalization():
    assert CONVERGED, "no converged runs were recorded by earlier criteria"
    devs = {label: abs(float(x.sum()) - 1.0) for label, x in CONVERGED}
    worst_label = max(devs, key=devs.get)
    _report(11, "every converged run carries unit mass without normalization",
            devs[worst_label] < 5e-3,
            f"{len(devs)} runs, worst |sum-1| = {devs[worst_label]:.2e} "
            f"({worst_label})")
