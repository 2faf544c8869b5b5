"""Command-line harness: centrality tables, PageRank runs and oracles.

Exit codes: 0 success, 1 usage or parse failure or out of memory, 2
violated connectivity assumption, 3 internal consistency failure: a
PageRank oracle that does not converge or fails its error bound, or a
failed locality audit.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import engine, simulator, surfer, tables
from .errors import AssumptionError, ConsistencyError, GraphFormatError, RepairError
from .graph import map_distinct, parse_edge_list, parse_temporal_edge_list, \
    repair_dangling, validate_oriented_tree
from .levelsets import CentralityVector, closeness_centrality, \
    degree_centrality, normalize, run_levelset, tree_betweenness
from .matrix import PersistentAverage, build_hyperlink_matrix, column_sums
from .oracles import bfs_all_pairs, brandes_betweenness, build_regression_rows, \
    power_method, rows_from_graph

DEFAULTS = {
    "damping": 0.15,
    "omega": 0.15,
    "rho": 1.0,
    "iterations": 100_000,
    "seed": 0,
    "mode": "unknown-n",
    "dangling": "backlink",
    "snapshot_stride": 1000,
    "joint_window": 1,
    "trace_stride": 100,
    "output_dir": ".",
    "oracle_tol": 1e-8,
}
# The keys each command reads; all but oracle_tol are also its flags.
KEYS = {
    "centrality": ("damping", "dangling", "output_dir"),
    "pagerank": ("damping", "omega", "iterations", "seed", "mode", "dangling",
                 "trace_stride", "output_dir"),
    "pagerank-temporal": ("damping", "omega", "rho", "iterations", "seed",
                          "dangling", "snapshot_stride", "joint_window",
                          "trace_stride", "output_dir"),
    "oracle": ("damping", "dangling", "oracle_tol", "output_dir"),
}


def _load_config_file(path, command):
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise GraphFormatError(f"config line {lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in KEYS[command]:
            raise GraphFormatError(
                f"config line {lineno}: {command!r} reads no key {key!r}")
        kind, val = type(DEFAULTS[key]), val.strip()
        try:
            cfg[key] = kind(val)
        except ValueError:
            raise GraphFormatError(
                f"config line {lineno}: {key} = {val!r} is not "
                f"{'an' if kind is int else 'a'} {kind.__name__}") from None
    return cfg


def resolve_config(args):
    """The command's keys: flags override config-file keys override defaults."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(_load_config_file(args.config, args.command))
    for key in KEYS[args.command]:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if not 0.0 < cfg["damping"] < 1.0:
        raise GraphFormatError(f"damping {cfg['damping']} outside (0,1)")
    if not 0.0 <= cfg["omega"] <= 1.0:
        raise GraphFormatError(f"omega {cfg['omega']} outside [0,1]")
    if not 0.0 < cfg["rho"] <= 1.0:
        raise GraphFormatError(f"rho {cfg['rho']} outside (0,1]")
    for key in ("iterations", "seed"):
        if cfg[key] < 0:
            raise GraphFormatError(f"{key} must be >= 0")
    if not 0.0 < cfg["oracle_tol"] < np.inf:
        raise GraphFormatError(f"oracle_tol {cfg['oracle_tol']} outside (0,inf)")
    if cfg["mode"] not in ("known-n", "unknown-n", "dist"):
        raise GraphFormatError(f"unknown mode {cfg['mode']!r}")
    if cfg["dangling"] not in ("backlink", "uniform-column"):
        raise GraphFormatError(f"unknown dangling policy {cfg['dangling']!r}")
    for key in ("trace_stride", "snapshot_stride", "joint_window"):
        if cfg[key] < 1:
            raise GraphFormatError(f"{key} must be >= 1")
    return {key: cfg[key] for key in KEYS[args.command]}


def _pagerank_oracle(w, m):
    """PageRank of the hyperlink matrix w at damping m, by the power method
    to an L1 step below 1e-15."""
    try:
        return power_method(w, m, tol=1e-15).x
    except RuntimeError as exc:
        raise ConsistencyError(f"no PageRank oracle: {exc}") from exc


def _normalize_or_raw(cv):
    """Normalize unless the vector is identically zero (e.g. betweenness on
    a graph with no intermediaries), in which case the raw zeros stand."""
    if not np.any(cv.values):
        return cv
    return normalize(cv)


def cmd_centrality(text, cfg):
    g = parse_edge_list(text)
    ls = run_levelset(g)
    deg = normalize(degree_centrality(g))
    clo = normalize(closeness_centrality(ls, g))
    is_tree, _ = validate_oriented_tree(g)
    if is_tree:
        bet = tree_betweenness(ls, g)
        method = "distributed"
    else:
        bet = brandes_betweenness(g)
        method = "oracle"
    bet = _normalize_or_raw(bet)
    repaired = repair_dangling(g, cfg["dangling"])
    pr = _pagerank_oracle(build_hyperlink_matrix(repaired), cfg["damping"])
    prv = CentralityVector(values=pr, kind="pagerank", normalized=True)
    return {
        "degree.csv": tables.serialize_centrality(deg, g.labels),
        "closeness.csv": tables.serialize_centrality(clo, g.labels),
        "betweenness.csv": tables.serialize_centrality(
            bet, g.labels, extras={"method": method}),
        "pagerank.csv": tables.serialize_centrality(
            prv, g.labels, extras={"method": "oracle"}),
    }


def cmd_pagerank(text, cfg):
    g = repair_dangling(parse_edge_list(text), cfg["dangling"])
    m = cfg["damping"]
    oracle_x = _pagerank_oracle(build_hyperlink_matrix(g), m)

    kernel = surfer.build_transition_matrix(g, cfg["omega"])
    chain = surfer.SurferChain(matrix=kernel, omega=cfg["omega"], seed=cfg["seed"])

    mode = cfg["mode"]
    out = {}
    if mode == "dist":
        rows_diag = rows_from_graph(g, m, n_known=True)
        sim = simulator.run_simulation(
            g, m, chain, cfg["iterations"], trace_stride=cfg["trace_stride"],
            oracle_x=oracle_x, rows_diag=rows_diag)
        if sim.audit.violations(sim.actors):
            raise ConsistencyError("locality audit found non-neighbor accesses")
        x = simulator.assemble_vector(sim.actors)
        trace_rows = sim.trace_rows
        size_lines = ["# kind=size_estimate"]
        for i in range(g.n):
            est = sim.size_estimates.get(i)
            size_lines.append(
                f"{g.labels[i]},{'absent' if est is None else tables.format_value(est)}")
        out["size_estimates.csv"] = "\n".join(size_lines) + "\n"
    else:
        rows = rows_from_graph(g, m, n_known=(mode == "known-n"))
        res = engine.run(rows, chain, mode, cfg["iterations"],
                         trace_stride=cfg["trace_stride"], oracle_x=oracle_x,
                         residual_target=m / g.n)
        x = res.state.x
        trace_rows = res.trace_rows

    xv = CentralityVector(values=x, kind="pagerank", normalized=False)
    out["vector.csv"] = tables.serialize_centrality(
        xv, g.labels, extras={"mode": mode, "seed": cfg["seed"]})
    out["trace.csv"] = "\n".join([engine.TRACE_HEADER] + trace_rows) + "\n"
    err = float(np.abs(x - oracle_x).max())
    ov = CentralityVector(values=oracle_x, kind="pagerank", normalized=True)
    out["oracle.csv"] = tables.serialize_centrality(
        ov, g.labels, extras={"method": "power", "final_error": f"{err:.3e}"})
    return out


def cmd_pagerank_temporal(text, cfg):
    seq = parse_temporal_edge_list(text)
    # equal snapshots share one repaired graph, matrix and kernel
    repaired = {}
    for t, g in seq.snapshots:
        if g in repaired:
            continue
        try:
            repaired[g] = repair_dangling(g, cfg["dangling"])
        except RepairError as exc:
            raise RepairError(f"snapshot at time {t}: {exc} "
                              "(--dangling uniform-column repairs it)") from exc
    graphs = [repaired[g] for g in seq.graphs()]
    m = cfg["damping"]
    mats = map_distinct(build_hyperlink_matrix, graphs)
    kernels = surfer.build_transition_matrix_temporal(
        graphs, cfg["omega"], joint_window=cfg["joint_window"])
    chain = surfer.SurferChain(matrix=kernels[0], omega=cfg["omega"],
                               seed=cfg["seed"])
    pa = PersistentAverage(rho=cfg["rho"])
    res = engine.run_temporal(
        mats, kernels, chain, pa, m, cfg["iterations"], cfg["snapshot_stride"],
        trace_stride=cfg["trace_stride"])
    labels = graphs[0].labels
    xv = CentralityVector(values=res.state.x, kind="pagerank", normalized=False)
    lines = ["# kind=wbar_column_sums"]
    lines += [f"{labels[j]},{tables.format_value(v)}"
              for j, v in enumerate(column_sums(pa.wbar))]
    return {
        "vector.csv": tables.serialize_centrality(
            xv, labels,
            extras={"mode": "temporal", "rho": cfg["rho"], "seed": cfg["seed"]}),
        "trace.csv": "\n".join([engine.TRACE_HEADER] + res.trace_rows) + "\n",
        "wbar_colsums.csv": "\n".join(lines) + "\n",
    }


def cmd_oracle(text, cfg):
    g = repair_dangling(parse_edge_list(text), cfg["dangling"])
    m = cfg["damping"]
    w = build_hyperlink_matrix(g)
    x = _pagerank_oracle(w, m)
    rows = build_regression_rows(w, m)
    # W is column-stochastic, so ||H^-1||_1 <= 1/m: this bounds ||x - x*||_1
    bound = float(np.abs(rows.csr @ x - rows.y).sum()) / m
    if bound > cfg["oracle_tol"]:
        raise ConsistencyError(
            f"power method's error bound {bound:.3e} exceeds "
            f"{cfg['oracle_tol']:.1e}")
    prv = CentralityVector(values=x, kind="pagerank", normalized=True)
    bet = _normalize_or_raw(brandes_betweenness(g))
    d = bfs_all_pairs(g)
    reach_all = np.isfinite(d).all()
    if reach_all:
        vals = 1.0 / d.sum(axis=1)
    else:
        with np.errstate(divide="ignore"):
            np.divide(1.0, d, out=d)  # in place: d is not read again
        np.fill_diagonal(d, 0.0)
        vals = d.sum(axis=1)
    kind = "closeness" if reach_all else "harmonic-closeness"
    clo = normalize(CentralityVector(values=vals, kind=kind))
    return {
        "pagerank.csv": tables.serialize_centrality(
            prv, g.labels,
            extras={"method": "power", "error_bound": f"{bound:.3e}",
                    "tolerance": f"{cfg['oracle_tol']:.1e}"}),
        "betweenness.csv": tables.serialize_centrality(
            bet, g.labels, extras={"method": "brandes"}),
        "closeness.csv": tables.serialize_centrality(
            clo, g.labels, extras={"method": "bfs"}),
    }


def build_parser():
    parser = argparse.ArgumentParser(
        prog="centrasim",
        description="Distributed centrality and incremental PageRank simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    # read at each call, so a cmd_* swapped in after import is the one run
    for name, fn in (("centrality", cmd_centrality),
                     ("pagerank", cmd_pagerank),
                     ("pagerank-temporal", cmd_pagerank_temporal),
                     ("oracle", cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("input", help="edge-list input file")
        p.add_argument("--config", help="flat key=value config file")
        for key in KEYS[name]:
            if key != "oracle_tol":
                p.add_argument("--" + key.replace("_", "-"), type=type(DEFAULTS[key]))
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    """Run one command, which returns {file name: table text}, and write its
    tables; a failed run writes none and removes the directories it made."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1
        raise SystemExit(0 if exc.code == 0 else 1)
    try:
        cfg = resolve_config(args)
        text = Path(args.input).read_text()
        outdir, created = Path(cfg["output_dir"]), []
        try:
            # the output directory exists before the work: a bad path fails first
            for d in (*reversed(outdir.parents), outdir):
                if not d.is_dir():
                    d.mkdir()
                    created.append(d)
            outputs = args.func(text, cfg)
        except BaseException:
            for d in reversed(created):  # leaf first; nothing is written yet
                d.rmdir()
            raise
        for name, table in outputs.items():
            (outdir / name).write_text(table)
        return 0
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (GraphFormatError, RepairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
