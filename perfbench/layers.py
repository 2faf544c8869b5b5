"""Per-layer metrics of a traced run, and what each one should move.

A layer is a module of the package. ``PER_LAYER`` lists every metric the
traced run reports, its unit, and the end-to-end metric and workload it
should move; on every other workload it should stay near zero. Counts
marked "computed" come from the arguments and results of the traced calls
(row nnz, level depth, lengths), so they repeat exactly from run to run.
"""
from __future__ import annotations

from statistics import median

# name, unit, what it should move (end-to-end metric on workload)
PER_LAYER = [
    ("graph.parse_s", "s", "setup_s on web-pagerank"),
    ("graph.repair_s", "s", "setup_s on web-pagerank"),
    ("graph.nodes", "count", "setup_s on web-pagerank"),
    ("graph.edges", "count", "setup_s on web-pagerank"),
    ("graph.repaired_nodes", "count", "setup_s on web-pagerank"),
    ("matrix.hyperlink_build_s", "s", "wall_s on temporal-spam only"),
    ("matrix.pa_update_us", "us", "wall_s on temporal-spam only"),
    ("matrix.wbar_rows_us", "us", "wall_s on temporal-spam only"),
    ("surfer.kernel_build_s", "s", "wall_s on dense-stream and temporal-spam"),
    ("surfer.sample_us.p50", "us", "wall_s on dense-stream and temporal-spam"),
    ("surfer.sample_us.p99", "us", "wall_s on dense-stream and temporal-spam"),
    ("surfer.samples", "count", "wall_s on dense-stream and temporal-spam"),
    ("surfer.set_matrix_us", "us", "wall_s on temporal-spam"),
    ("engine.run_s", "s", "wall_s on dense-stream and temporal-spam; about nothing on web-pagerank"),
    ("engine.self_s", "s", "wall_s on dense-stream and temporal-spam; about nothing on web-pagerank"),
    ("engine.step_known_n_us.p50", "us", "about nothing: web-pagerank runs few steps"),
    ("engine.step_known_n_us.p99", "us", "about nothing: web-pagerank runs few steps"),
    ("engine.step_unknown_n_us.p50", "us", "wall_s on dense-stream"),
    ("engine.step_unknown_n_us.p99", "us", "wall_s on dense-stream"),
    ("engine.step_temporal_us.p50", "us", "wall_s on temporal-spam"),
    ("engine.step_temporal_us.p99", "us", "wall_s on temporal-spam"),
    ("engine.steps", "count", "wall_s on dense-stream and temporal-spam"),
    ("engine.trace_rows", "count", "wall_s on web-pagerank"),
    ("engine.flops_per_step", "flop", "computed from row nnz; wall_s on dense-stream and temporal-spam"),
    ("engine.bytes_per_step", "B", "computed from row nnz; wall_s on dense-stream and temporal-spam"),
    ("simulator.run_s", "s", "wall_s and peak_rss_mib on dense-stream"),
    ("simulator.self_s", "s", "wall_s and peak_rss_mib on dense-stream"),
    ("simulator.activate_us.p50", "us", "wall_s on dense-stream"),
    ("simulator.activate_us.p99", "us", "wall_s on dense-stream"),
    ("simulator.audit_events", "count", "peak_rss_mib on dense-stream"),
    ("simulator.audit_check_s", "s", "wall_s on dense-stream"),
    ("simulator.locality_violations", "count", "a check: stays 0"),
    ("oracles.rows_build_s", "s", "setup_s on web-pagerank"),
    ("oracles.direct_ls_s", "s", "setup_s, wall_s and peak_rss_mib on web-pagerank; wall_s on web-centrality"),
    ("oracles.power_s", "s", "wall_s on web-centrality"),
    ("oracles.power_iterations", "count", "wall_s on web-centrality"),
    ("oracles.brandes_s", "s", "wall_s on web-centrality"),
    ("oracles.bfs_s", "s", "wall_s on web-centrality"),
    ("oracles.ls_objective_ms", "ms", "wall_s on web-pagerank"),
    ("oracles.ls_objective_calls", "count", "wall_s on web-pagerank"),
    ("oracles.diag_share", "ratio", "wall_s on web-pagerank"),
    ("levelsets.run_s", "s", "wall_s on web-centrality"),
    ("levelsets.rounds", "count", "computed from level depth; wall_s on web-centrality"),
    ("levelsets.messages", "count", "computed as 2|E| per round; wall_s on web-centrality"),
    ("levelsets.closeness_s", "s", "wall_s on web-centrality"),
    ("levelsets.tree_betweenness_s", "s", "wall_s on oriented trees; 0 on every workload here"),
    ("tables.serialize_s", "s", "setup_s everywhere"),
    ("tables.bytes_written", "B", "setup_s everywhere"),
    ("cli.import_s", "s", "setup_s everywhere"),
    ("trace.overhead_s", "s", "a check, not a target: traced minus untraced wall"),
]

# graph facts are per input, not per invocation: a workload that parses
# the same file twice still has one graph
PER_INPUT = ("graph.nodes", "graph.edges", "graph.repaired_nodes")


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def rep_metrics(traces, bytes_written):
    """Per-layer metrics of one repetition from its invocations' traces."""
    dur, self_s, calls, counts = {}, {}, {}, {}
    for tr in traces:
        for sp in tr["spans"]:
            dur[sp["name"]] = dur.get(sp["name"], 0.0) + sp["end"] - sp["start"]
            self_s[sp["name"]] = self_s.get(sp["name"], 0.0) + sp["self"]
        for name, samples in tr["calls"].items():
            calls.setdefault(name, []).extend(samples)
        for name, value in tr["counts"].items():
            merge = max if name in PER_INPUT else (lambda a, b: a + b)
            counts[name] = merge(counts.get(name, 0), value)

    def d(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def us(name, q=0.5):
        return _pct(calls.get(name, []), q) * 1e6

    steps = counts.get("engine.steps", 0)
    nnz = counts.get("engine.nnz", 0)
    loops = d("engine.run", "engine.run_temporal", "simulator.run_simulation")
    ls_total = sum(calls.get("oracles.ls_objective", []))
    m = {
        "graph.parse_s": d("graph.parse_edge_list", "graph.parse_temporal_edge_list"),
        "graph.repair_s": d("graph.repair_dangling"),
        "graph.nodes": counts.get("graph.nodes", 0),
        "graph.edges": counts.get("graph.edges", 0),
        "graph.repaired_nodes": counts.get("graph.repaired_nodes", 0),
        "matrix.hyperlink_build_s": d("matrix.build_hyperlink_matrix"),
        "matrix.pa_update_us": us("PersistentAverage.update"),
        "matrix.wbar_rows_us": us("PersistentAverage.wbar_rows"),
        "surfer.kernel_build_s": d("surfer.build_transition_matrix",
                                   "surfer.build_transition_matrix_temporal"),
        "surfer.sample_us.p50": us("SurferChain.sample_next"),
        "surfer.sample_us.p99": us("SurferChain.sample_next", 0.99),
        "surfer.samples": len(calls.get("SurferChain.sample_next", [])),
        "surfer.set_matrix_us": us("SurferChain.set_matrix"),
        "engine.run_s": d("engine.run", "engine.run_temporal"),
        "engine.self_s": self_s.get("engine.run", 0.0) + self_s.get("engine.run_temporal", 0.0),
        "engine.steps": steps,
        "engine.trace_rows": counts.get("engine.trace_rows", 0),
        # per projection on a row with k nonzeros: dot product 2k, residual
        # and step scale 2, axpy 2k; idx, coef, x read and x write 8 B each
        "engine.flops_per_step": (4 * nnz + 2 * steps) / steps if steps else 0.0,
        "engine.bytes_per_step": 32 * nnz / steps if steps else 0.0,
        "simulator.run_s": d("simulator.run_simulation"),
        "simulator.self_s": self_s.get("simulator.run_simulation", 0.0),
        "simulator.activate_us.p50": us("simulator.activate"),
        "simulator.activate_us.p99": us("simulator.activate", 0.99),
        "simulator.audit_events": counts.get("simulator.audit_events", 0),
        "simulator.audit_check_s": d("LocalityAudit.violations"),
        "simulator.locality_violations": counts.get("simulator.locality_violations", 0),
        "oracles.rows_build_s": d("oracles.build_regression_rows", "oracles.rows_from_graph"),
        "oracles.direct_ls_s": d("oracles.direct_ls_solve"),
        "oracles.power_s": d("oracles.power_method"),
        "oracles.power_iterations": counts.get("oracles.power_iterations", 0),
        "oracles.brandes_s": d("oracles.brandes_betweenness"),
        "oracles.bfs_s": d("oracles.bfs_all_pairs"),
        "oracles.ls_objective_ms": us("oracles.ls_objective") / 1e3,
        "oracles.ls_objective_calls": len(calls.get("oracles.ls_objective", [])),
        "oracles.diag_share": ls_total / loops if loops else 0.0,
        "levelsets.run_s": d("levelsets.run_levelset"),
        "levelsets.rounds": counts.get("levelsets.rounds", 0),
        "levelsets.messages": counts.get("levelsets.messages", 0),
        "levelsets.closeness_s": d("levelsets.closeness_centrality"),
        "levelsets.tree_betweenness_s": d("levelsets.tree_betweenness"),
        "tables.serialize_s": d("tables.serialize_centrality"),
        "tables.bytes_written": bytes_written,
        "cli.import_s": sum(tr["import_s"] for tr in traces),
    }
    for step in ("step_known_n", "step_unknown_n", "step_temporal"):
        m[f"engine.{step}_us.p50"] = us(f"engine.{step}")
        m[f"engine.{step}_us.p99"] = us(f"engine.{step}", 0.99)
    return m


def call_summary(traces):
    """Count, busy time and p50/p99 of every per-step call in one pass."""
    calls = {}
    for tr in traces:
        for name, samples in tr["calls"].items():
            calls.setdefault(name, []).extend(samples)
    return {name: {"count": len(v), "busy_s": sum(v), "p50_us": _pct(v, 0.5) * 1e6,
                   "p99_us": _pct(v, 0.99) * 1e6} for name, v in calls.items()}


def run_metrics(reps, overhead_s):
    """Median of each per-layer metric over the traced repetitions."""
    out = {name: median(r[name] for r in reps) for name, _, _ in PER_LAYER
           if name != "trace.overhead_s"}
    out["trace.overhead_s"] = overhead_s
    return out
