"""Randomized incremental (Kaczmarz-style) PageRank engine.

One activation updates only the activated node and its in-neighbors. Every
mode applies the same projection to the row H_s of the activated node,

    x[idx] <- project(x[idx], H_s, y, a) = x[idx] + a * H_s^T (y - H_s x[idx])

starting from x(0) = 0, and the modes differ only in a, y and the rows:

    known size:    a = 1/n,              y = m/n
    unknown size:  a = visits[s]/(k+1),  y = m*a
    temporal:      as unknown size, on the rows of the persistent
                   average, rebuilt whenever a snapshot enters

The unknown-size form never reads the network size anywhere; the
visit-frequency stepsize converges to 1/n on its own, and its inverse
doubles as a per-node network-size estimate. The node-actor simulator calls
the same project on the values it pulls.

One driver, drive, runs the engine's loops and the simulator's: it hands
the steps up to the next trace row to a block callable, then traces. The
Python block, step_loop, samples and steps once per activation. The
engine's modes run their blocks in the compiled library instead
(``_native.Steps``) when it and numpy's BLAS ddot load, on the first
block; those steps do the same float operations in the same order, so
both give the same bits, and the Python block is the no-compiler path
and the reference. The simulator always runs the Python block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# imported with the engine, though the library loads on the first block:
# where no bytecode is cached, compiling _native's source in the middle of
# a run would raise the run's peak RSS by about 0.9 MiB
from . import _native
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


def step_temporal(state, s, rows):
    """Projection against row s of the persistent average, with the
    unknown-size stepsize and target."""
    alpha = alpha_update(state, s)
    _project_row(state, s, rows, rows.m * alpha, alpha)
    return state, alpha


def step_loop(sample, step):
    """The Python block: each of `count` activations is one sample() and
    one step(s), which returns the inverse stepsize. Returns the last
    activation's inverse stepsize and node."""
    def block(count):
        for _ in range(count):
            s = sample()
            alpha_inv = step(s)
        return alpha_inv, s
    return block


def _engine_block(state, chain, rows_of, python_block):
    """Block callable of the engine's modes. At its first call it takes the
    compiled steps, if the library and numpy's ddot load, and python_block
    otherwise; rows_of() gives the rows the next block runs on."""
    chosen = None

    def block(count):
        nonlocal chosen
        if chosen is None:
            chosen = _compiled_block(state, chain, rows_of) or python_block
        return chosen(count)
    return block


def _compiled_block(state, chain, rows_of):
    """The library's block of steps, or None without the library or ddot."""
    lib = _native.load()
    addr = _native.ddot() if lib is not None else None
    if addr is None:
        return None
    steps = _native.Steps(lib, addr, state, chain)
    known = state.mode == "known-n"

    def block(count):
        rows = rows_of()
        s = steps(rows, count)
        if known:
            return float(rows.n), s
        # the last step's alpha was visits[s] / k, k counting that step
        return 1.0 / (state.visits[s] / state.k), s
    return block


def drive(block, vector, budget, trace_stride, oracle_x=None, rows_diag=None,
          y_diag=None):
    """Run `budget` activations in blocks, one per trace row; return the
    trace rows.

    block(count) runs the next `count` activations and returns the inverse
    stepsize and the node of the last one; vector() returns the current
    iterate. A trace row is recorded every `trace_stride` steps: error
    against the oracle vector (when given), the stacked-residual diagnostic
    against rows_diag (when given; y_diag overrides its target), the
    inverse stepsize and the active node.
    """
    trace_rows = []
    k = 0
    while k < budget:
        count = min(trace_stride, budget - k)
        alpha_inv, s = block(count)
        k += count
        if k % trace_stride == 0:
            x = vector()
            err = (float(np.abs(x - oracle_x).max())
                   if oracle_x is not None else None)
            res = (ls_objective(x, rows_diag, y=y_diag)
                   if rows_diag is not None else None)
            trace_rows.append(format_trace_row(k, err, res, alpha_inv, s))
    return trace_rows


@dataclass
class EngineRun:
    state: KaczmarzState
    trace_rows: list


def run(rows, chain, mode, budget, trace_stride=100, oracle_x=None,
        residual_target=None):
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
    block = _engine_block(state, chain, lambda: rows,
                          step_loop(chain.sample_next, step))
    has_target = residual_target is not None or rows.y is not None
    trace_rows = drive(block, lambda: state.x, budget, trace_stride, oracle_x,
                       rows if has_target else None, residual_target)
    return EngineRun(state=state, trace_rows=trace_rows)


def run_temporal(snapshot_mats, kernels, chain, pa, m, budget, snapshot_stride,
                 trace_stride=100, oracle_x=None):
    """Temporal loop: advance one snapshot every snapshot_stride steps.

    snapshot_mats[t] is the hyperlink matrix of snapshot t; kernels[t] the
    matching surfer kernel (chain starts on kernels[0]). The persistent
    average ingests a snapshot, and the rows are rebuilt from it, the
    moment the schedule enters it, before any step taken inside it; so a
    snapshot entry also ends a block of steps. Past the last snapshot the
    final one stays active.
    """
    state = KaczmarzState.fresh(snapshot_mats[0].shape[0], "temporal")
    last = len(snapshot_mats) - 1

    def enter(t):
        pa.update(snapshot_mats[t])
        return build_regression_rows(pa.wbar_rows(), m, n_known=False)

    active, rows = 0, enter(0)

    def step(s):
        return 1.0 / step_temporal(state, s, rows)[1]

    steps = _engine_block(state, chain, lambda: rows,
                          step_loop(chain.sample_next, step))

    def block(count):
        nonlocal active, rows
        while count:
            while active < min(state.k // snapshot_stride, last):
                active += 1
                rows = enter(active)
                chain.set_matrix(kernels[active])
            take = count if active == last else \
                min(count, (active + 1) * snapshot_stride - state.k)
            out = steps(take)
            count -= take
        return out

    trace_rows = drive(block, lambda: state.x, budget, trace_stride, oracle_x)
    return EngineRun(state=state, trace_rows=trace_rows)
