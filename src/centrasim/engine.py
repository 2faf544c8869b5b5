"""Randomized incremental (Kaczmarz-style) PageRank engine.

One activation updates only the activated node and its in-neighbors. Every
mode applies the same projection to the row H_s of the activated node,

    x[idx] <- project(x[idx], H_s, y, a) = x[idx] + a * H_s^T (y - H_s x[idx])

starting from x(0) = 0, and the modes differ only in a, y and the rows:

    known size:    a = 1/n,              y = m/n
    unknown size:  a = visits[s]/(k+1),  y = m*a
    temporal:      as unknown size, on the rows of the persistent
                   average, renewed whenever a snapshot enters

The unknown-size form never reads the network size anywhere; the
visit-frequency stepsize converges to 1/n on its own, and its inverse
doubles as a per-node network-size estimate. No step reads the rows'
target y either: known size takes m/n from the rows' m and n. The
node-actor simulator calls the same project on the values it pulls.

One driver, drive, runs the engine's loops and the simulator's: it hands
the steps up to the next trace row to a block callable, then traces the
state, reading its inverse stepsize only there. Every run steps through
one contract, steps(rows, count) -> last node, on the path _engine_steps
chooses when the run starts: the compiled library's steps
(``_native.Steps``) when it loads, else the Python twin, which samples
and calls the run's step function once per activation. Both do the same
float operations in the same order, the projection's dot product
included: the products rounded one by one and added left to right, on no
BLAS. So they give the same bits on every host; the twin is the
no-compiler path and the reference. Both hand each block's first k and
nodes to on_block when given: so the node-actor simulator, an
unknown-size run with its own step function, feeds its locality audit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .oracles import build_regression_rows, ls_objective
from .surfer import BLOCK_STEPS

TRACE_HEADER = "k,error,residual,alpha_inv,active_node"


def format_trace_row(k, error, residual, alpha_inv, node):
    def fmt(v):
        return "nan" if v is None or not np.isfinite(v) else f"{v:.11e}"

    return f"{k},{fmt(error)},{fmt(residual)},{fmt(alpha_inv)},{node}"


@dataclass
class KaczmarzState:
    """Mutable solver state; owned by exactly one execution stream. Its
    mode, "known-n" or "unknown-n", says if the run knows the size n."""

    x: np.ndarray
    mode: str
    visits: np.ndarray
    k: int = 0

    @staticmethod
    def fresh(n, mode):
        if mode not in ("known-n", "unknown-n"):
            raise ValueError(f"unknown mode {mode!r}")
        return KaczmarzState(
            x=np.zeros(n), mode=mode, visits=np.zeros(n, dtype=np.int64)
        )

    def alpha_inv(self, s):
        """Inverse stepsize of the last step, taken at node s: n for known
        size, else 1 / (visits[s] / k), the visit frequency that step used."""
        if self.mode == "known-n":
            return float(self.x.size)
        return 1.0 / (self.visits[s] / self.k)


def project(xs, coef, target, alpha):
    """One Kaczmarz projection of the values xs on the row coef:
    xs + alpha * coef * (target - coef . xs), computed in place on one
    new array. The dot product rounds each product and adds them left to
    right from the first (cumsum is sequential, unlike `@` or sum), as
    the compiled steps do."""
    u = coef * alpha
    u *= target - (coef * xs).cumsum()[-1]
    u += xs
    return u


def _project_row(state, s, rows, target, alpha):
    idx = rows.idx[s]
    state.x[idx] = project(state.x[idx], rows.coef[s], target, alpha)
    state.k += 1


def step_known_n(state, s, rows):
    """One Kaczmarz projection with the exact 1/n stepsize and m/n target."""
    state.visits[s] += 1
    _project_row(state, s, rows, rows.m / rows.n, 1.0 / rows.n)
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


def _python_steps(state, chain, step, on_block=None):
    """The Python twin of ``_native.Steps``: steps(rows, count) samples and
    calls step(state, s, rows) `count` times and returns the last node
    activated. With on_block, each block of at most BLOCK_STEPS steps then
    hands on_block(k, nodes) its first step's k and its nodes, a trail the
    next block overwrites."""
    sample, trail = chain.sample_next, np.empty(BLOCK_STEPS, dtype=np.int64)

    def steps(rows, count):
        while count:
            k, take = state.k, min(count, BLOCK_STEPS)
            for i in range(take):
                s = trail[i] = sample()
                step(state, s, rows)
            count -= take
            if on_block is not None:
                on_block(k, trail[:take])
        return s
    return steps


def _engine_steps(state, chain, step, on_block=None):
    """steps(rows, count) for a run, chosen when it starts: the library's
    steps if it loads, else the Python twin on `step`."""
    lib = _native.load()
    if lib is None:
        return _python_steps(state, chain, step, on_block)
    return _native.Steps(lib, state, chain, on_block)


def drive(state, block, budget, trace_stride, oracle_x=None, rows=None):
    """Run `budget` activations in blocks, one per trace row; return the
    trace rows.

    block(count) runs the next `count` activations on `state` and returns
    the node of the last one. A trace row is recorded every `trace_stride`
    steps: error of state.x against the oracle vector (when given), the
    stacked-residual diagnostic against `rows` and their target y (when
    they carry it), the last step's inverse stepsize and the active node.
    """
    trace_rows = []
    k = 0
    while k < budget:
        count = min(trace_stride, budget - k)
        s = block(count)
        k += count
        if k % trace_stride == 0:
            err = (float(np.abs(state.x - oracle_x).max())
                   if oracle_x is not None else None)
            res = (ls_objective(state.x, rows)
                   if rows is not None and rows.y is not None else None)
            trace_rows.append(format_trace_row(k, err, res,
                                               state.alpha_inv(s), s))
    return trace_rows


@dataclass
class EngineRun:
    state: KaczmarzState
    trace_rows: list


def run(rows, chain, mode, budget, trace_stride=100, oracle_x=None):
    """Drive sampling plus stepping for `budget` activations.

    The residual diagnostic is traced when the rows carry their target y;
    no step reads it.
    """
    state = KaczmarzState.fresh(rows.n, mode)
    steps = _engine_steps(state, chain, step_known_n if mode == "known-n"
                          else step_unknown_n)
    trace_rows = drive(state, lambda count: steps(rows, count), budget,
                       trace_stride, oracle_x, rows)
    return EngineRun(state=state, trace_rows=trace_rows)


def run_temporal(snapshot_mats, kernels, chain, pa, m, budget, snapshot_stride,
                 trace_stride=100):
    """Temporal loop: advance one snapshot every snapshot_stride steps.

    snapshot_mats[t] is the hyperlink matrix of snapshot t; kernels[t] the
    matching surfer kernel (chain starts on kernels[0]). The persistent
    average ingests a snapshot, and the rows are rebuilt from it, the
    moment the schedule enters it, before any step taken inside it; so a
    snapshot entry also ends a block of steps. Past the last snapshot the
    final one stays active.

    While the average keeps its pattern (the same indptr and indices
    arrays), an entry's rows share the last entry's layout and only their
    data is new (build_regression_rows' like).
    """
    state = KaczmarzState.fresh(snapshot_mats[0].shape[0], "unknown-n")
    last = len(snapshot_mats) - 1
    held = (None, None)  # the average and rows of the last entry

    def enter(t):
        nonlocal held
        pa.update(snapshot_mats[t])
        wbar, (prev, like) = pa.wbar_rows(), held
        if (prev is None or wbar.indptr is not prev.indptr
                or wbar.indices is not prev.indices):
            like = None
        held = (wbar, build_regression_rows(wbar, m, n_known=False, like=like))
        return held[1]

    active, rows = 0, enter(0)
    steps = _engine_steps(state, chain, step_temporal)

    def block(count):
        nonlocal active, rows
        while count:
            while active < min(state.k // snapshot_stride, last):
                active += 1
                rows = enter(active)
                chain.set_matrix(kernels[active])
            take = count if active == last else \
                min(count, (active + 1) * snapshot_stride - state.k)
            s = steps(rows, take)
            count -= take
        return s

    trace_rows = drive(state, block, budget, trace_stride)
    return EngineRun(state=state, trace_rows=trace_rows)
