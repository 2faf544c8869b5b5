"""Randomized incremental (Kaczmarz-style) PageRank engine.

One activation updates only the activated node and its in-neighbors. Every
mode applies the same projection to the row H_s of the activated node,

    x[idx] <- project(x[idx], H_s, y, a) = x[idx] + a * H_s^T (y - H_s x[idx])

starting from x(0) = 0, and the modes differ only in a, y and the rows:

    known size:    a = 1/n,              y = m/n
    unknown size:  a = visits[s]/(k+1),  y = m*a
    temporal:      as unknown size (or a given y), on the rows of the
                   persistent average, rebuilt whenever a snapshot enters

The unknown-size form never reads the network size anywhere; the
visit-frequency stepsize converges to 1/n on its own, and its inverse
doubles as a per-node network-size estimate. The node-actor simulator calls
the same project on the values it pulls, and the same driver, drive,
samples, steps and traces for the engine's run loops and the simulator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import build_regression_rows, ls_objective

TRACE_HEADER = "k,error,residual,alpha_inv,active_node"


def format_trace_row(k, error, residual, alpha_inv, node):
    def fmt(v):
        return "nan" if v is None or not np.isfinite(v) else f"{v:.11e}"

    return f"{k},{fmt(error)},{fmt(residual)},{fmt(alpha_inv)},{node}"


@dataclass
class KaczmarzState:
    """Mutable solver state; owned by exactly one execution stream."""

    x: np.ndarray
    mode: str
    visits: np.ndarray
    k: int = 0

    @staticmethod
    def fresh(n, mode):
        if mode not in ("known-n", "unknown-n", "temporal"):
            raise ValueError(f"unknown mode {mode!r}")
        return KaczmarzState(
            x=np.zeros(n), mode=mode, visits=np.zeros(n, dtype=np.int64)
        )


def project(xs, coef, target, alpha):
    """One Kaczmarz projection of the values xs on the row coef."""
    return xs + alpha * coef * (target - coef @ xs)


def _project_row(state, s, rows, target, alpha):
    idx = rows.idx[s]
    state.x[idx] = project(state.x[idx], rows.coef[s], target, alpha)
    state.k += 1


def step_known_n(state, s, rows):
    """One Kaczmarz projection with the exact 1/n stepsize and m/n target."""
    state.visits[s] += 1
    _project_row(state, s, rows, rows.y, 1.0 / rows.n)
    return state


def alpha_update(state, s):
    """Activate s: bump its visit counter, return visits[s]/(k+1)."""
    state.visits[s] += 1
    return state.visits[s] / (state.k + 1)


def step_unknown_n(state, s, rows):
    """Projection with the visit-frequency stepsize; reads no global size."""
    alpha = alpha_update(state, s)
    _project_row(state, s, rows, rows.m * alpha, alpha)
    return state, alpha


def step_temporal(state, s, rows, y=None):
    """Projection against row s of the persistent average.

    y=None uses the unknown-size target m*alpha; passing m/n runs the
    known-size target instead.
    """
    alpha = alpha_update(state, s)
    _project_row(state, s, rows, rows.m * alpha if y is None else y, alpha)
    return state, alpha


def drive(sample, step, vector, budget, trace_stride, oracle_x=None,
          rows_diag=None, y_diag=None, stop_error=None):
    """Sample, step and trace `budget` activations; return the trace rows.

    sample() draws the next node, step(s) activates it and returns the
    inverse stepsize, vector() returns the current iterate. A trace row is
    recorded every `trace_stride` steps: error against the oracle vector
    (when given), the stacked-residual diagnostic against rows_diag (when
    given; y_diag overrides its target), the inverse stepsize and the
    active node. With stop_error set, the run ends early at the first
    traced step whose oracle error is below it.
    """
    trace_rows = []
    for k in range(1, budget + 1):
        s = sample()
        alpha_inv = step(s)
        if k % trace_stride == 0:
            x = vector()
            err = (float(np.abs(x - oracle_x).max())
                   if oracle_x is not None else None)
            res = (ls_objective(x, rows_diag, y=y_diag)
                   if rows_diag is not None else None)
            trace_rows.append(format_trace_row(k, err, res, alpha_inv, s))
            if stop_error is not None and err is not None and err < stop_error:
                break
    return trace_rows


@dataclass
class EngineRun:
    state: KaczmarzState
    trace_rows: list
    steps_used: int


def run(rows, chain, mode, budget, trace_stride=100, oracle_x=None,
        stop_error=None, residual_target=None):
    """Drive sampling plus stepping for `budget` activations.

    The residual diagnostic uses residual_target, else the rows' own
    target, and is left out when neither is known.
    """
    state = KaczmarzState.fresh(rows.n, mode)
    if mode == "known-n":
        def step(s):
            step_known_n(state, s, rows)
            return float(rows.n)
    else:
        def step(s):
            return 1.0 / step_unknown_n(state, s, rows)[1]
    has_target = residual_target is not None or rows.y is not None
    trace_rows = drive(chain.sample_next, step, lambda: state.x, budget,
                       trace_stride, oracle_x, rows if has_target else None,
                       residual_target, stop_error)
    return EngineRun(state=state, trace_rows=trace_rows, steps_used=state.k)


def run_temporal(snapshot_mats, kernels, chain, pa, m, budget, snapshot_stride,
                 trace_stride=100, oracle_x=None, y=None):
    """Temporal loop: advance one snapshot every snapshot_stride steps.

    snapshot_mats[t] is the hyperlink matrix of snapshot t; kernels[t] the
    matching surfer kernel (chain starts on kernels[0]). The persistent
    average ingests a snapshot, and the rows are rebuilt from it, the
    moment the schedule enters it, before any step taken inside it. Past
    the last snapshot the final one stays active.
    """
    state = KaczmarzState.fresh(snapshot_mats[0].shape[0], "temporal")
    last = len(snapshot_mats) - 1

    def enter(t):
        pa.update(snapshot_mats[t])
        return build_regression_rows(pa.wbar_rows(), m, n_known=False)

    active, rows = 0, enter(0)

    def sample():
        nonlocal active, rows
        while active < min(state.k // snapshot_stride, last):
            active += 1
            rows = enter(active)
            chain.set_matrix(kernels[active])
        return chain.sample_next()

    def step(s):
        return 1.0 / step_temporal(state, s, rows, y=y)[1]

    trace_rows = drive(sample, step, lambda: state.x, budget, trace_stride,
                       oracle_x)
    return EngineRun(state=state, trace_rows=trace_rows, steps_used=state.k)
