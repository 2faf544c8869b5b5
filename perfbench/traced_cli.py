"""Run one ``centrasim`` command with timers around the package's public calls.

    python3 traced_cli.py TRACE_OUT.json <centrasim arguments...>

Nothing in the package changes: the wrappers replace module attributes and
methods in this process only. Coarse calls (commands, run loops, oracles,
builders) become spans (name, start, end, parent). Per-step calls (surfer
samples, projections, activations, ``ls_objective``, persistent-average
updates) only record their count and durations, charged to the enclosing
span as child time. Everything stays in memory until the command returns,
then the trace is written as one JSON file and the command's exit code is
passed on.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from functools import wraps

_t0 = time.perf_counter()
import centrasim.cli as cli  # noqa: E402  (import time is a measured quantity)
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
from centrasim import engine, graph, levelsets, matrix, oracles, simulator, surfer, tables  # noqa: E402

MODULES = (cli, engine, graph, levelsets, matrix, oracles, simulator, surfer, tables)

COARSE = {
    graph: ("parse_edge_list", "parse_temporal_edge_list", "repair_dangling"),
    matrix: ("build_hyperlink_matrix",),
    surfer: ("build_transition_matrix", "build_transition_matrix_temporal"),
    oracles: ("build_regression_rows", "rows_from_graph", "direct_ls_solve",
              "power_method", "brandes_betweenness", "bfs_all_pairs"),
    engine: ("run", "run_temporal"),
    simulator: ("run_simulation",),
    levelsets: ("run_levelset", "closeness_centrality", "tree_betweenness"),
    tables: ("serialize_centrality",),
    cli: ("cmd_centrality", "cmd_pagerank", "cmd_pagerank_temporal", "cmd_oracle"),
}
FINE = {
    engine: ("step_known_n", "step_unknown_n", "step_temporal"),
    simulator: ("activate",),
    oracles: ("ls_objective",),
}
FINE_METHODS = (
    (surfer.SurferChain, "sample_next"),
    (surfer.SurferChain, "set_matrix"),
    (matrix.PersistentAverage, "update"),
    (matrix.PersistentAverage, "wbar_rows"),
)
COARSE_METHODS = ((simulator.LocalityAudit, "violations"),)


class Tracer:
    """In-memory spans, per-call durations and computed counts."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, child seconds]
        self.open = []           # indices of spans not yet ended
        self.calls = {}          # name -> array of durations in seconds
        self.counts = {}         # name -> number, computed from call arguments/results
        self.nnz_cache = {}      # id(row source) -> (row source, nnz per row)

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def coarse(self, name, fn, before=None, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.open[-1] if self.open else None, 0.0])
            self.open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.open.pop()
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def fine(self, name, fn, before=None):
        samples = self.calls.setdefault(name, array("d"))

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            if before is not None:
                before(self, args)
            t1 = time.perf_counter()
            result = fn(*args, **kwargs)
            t2 = time.perf_counter()
            samples.append(t2 - t1)
            if self.open:
                # bookkeeping is charged to the parent's child time too, so
                # that self time is the caller's own work only
                self.spans[self.open[-1]][4] += time.perf_counter() - t0
            return result
        return wrapper

    def row_nnz(self, rows):
        """Nonzeros per row of RegressionRows or of a persistent-average CSR
        (whose projection row is the diagonal plus its off-diagonal entries)."""
        # the cache keeps each row source alive, so its id stays unique
        hit = self.nnz_cache.get(id(rows))
        if hit is None:
            if hasattr(rows, "idx"):
                nnz = np.array([len(r) for r in rows.idx])
            else:
                nnz = np.diff(rows.indptr) + 1
                diag = rows.diagonal() != 0
                nnz[diag] -= 1
            hit = (rows, nnz)
            self.nnz_cache[id(rows)] = hit
        return hit[1]

    def dump(self, path):
        child = [c for (_, _, _, _, c) in self.spans]
        for (_, s, e, p, _) in self.spans:
            if p is not None:
                child[p] += e - s
        out = {
            "import_s": IMPORT_S,
            "spans": [{"name": n, "start": s, "end": e, "parent": p,
                       "self": (e - s) - child[i]}
                      for i, (n, s, e, p, _) in enumerate(self.spans)],
            "calls": {k: v.tolist() for k, v in self.calls.items()},
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(out, fh)


def _graph_facts(tr, args, g):
    snaps = g.graphs() if hasattr(g, "graphs") else [g]
    tr.count("graph.nodes", g.n)
    tr.count("graph.edges", sum(len(s.edges) for s in snaps))


def _step_nnz(tr, args):
    _, s, rows = args[:3]
    tr.count("engine.steps", 1)
    tr.count("engine.nnz", int(tr.row_nnz(rows)[s]))


def _trace_rows(tr, args, result):
    tr.count("engine.trace_rows", len(result.trace_rows))


def _audit_events(tr, args, result):
    tr.count("simulator.audit_events", len(result.audit.events))


def _power_facts(tr, args, result):
    tr.count("oracles.power_iterations", result.iterations)


def _violation_facts(tr, args, result):
    tr.count("simulator.locality_violations", len(result))


def _levelset_facts(tr, args, ls):
    g = args[0]
    # every level past the first costs one synchronous round, and one more
    # round finds nothing new; each round reads every adjacency list once
    # in each direction
    depth = max((len(lv) for lv in ls.r + ls.l), default=0)
    tr.count("levelsets.rounds", depth)
    tr.count("levelsets.messages", depth * 2 * len(g.edges))


AFTER = {
    "parse_edge_list": _graph_facts,
    "parse_temporal_edge_list": _graph_facts,
    "power_method": _power_facts,
    "run": _trace_rows,
    "run_temporal": _trace_rows,
    "run_simulation": _audit_events,
    "run_levelset": _levelset_facts,
    "violations": _violation_facts,
}
BEFORE = {
    "step_known_n": _step_nnz,
    "step_unknown_n": _step_nnz,
    "step_temporal": _step_nnz,
    "repair_dangling": lambda tr, args: tr.count(
        "graph.repaired_nodes", len(args[0].dangling_nodes())),
}


def _replace_everywhere(original, wrapper):
    """Swap a function in every module that imported it by name."""
    for mod in MODULES:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)


def _short(mod, name):
    return f"{mod.__name__.split('.')[-1]}.{name}"


def install(tr):
    for mod, names in COARSE.items():
        for name in names:
            fn = getattr(mod, name)
            _replace_everywhere(fn, tr.coarse(_short(mod, name), fn,
                                              BEFORE.get(name), AFTER.get(name)))
    for mod, names in FINE.items():
        for name in names:
            fn = getattr(mod, name)
            _replace_everywhere(fn, tr.fine(_short(mod, name), fn, BEFORE.get(name)))
    for cls, name in FINE_METHODS:
        setattr(cls, name, tr.fine(f"{cls.__name__}.{name}", getattr(cls, name)))
    for cls, name in COARSE_METHODS:
        setattr(cls, name, tr.coarse(f"{cls.__name__}.{name}", getattr(cls, name),
                                     after=AFTER.get(name)))


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    try:
        return cli.main(cli_args)
    finally:
        tr.dump(out_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
