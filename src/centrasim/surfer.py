"""Random-surfer chain driving the incremental PageRank updates.

The walk lives on the symmetrized communication graph: two pages that
exchange importance values can be walked in both directions, which is also
what makes the Metropolis-Hastings weights doubly stochastic. The hop
weight to a neighbor is min{1/(deg_i+1), 1/(deg_j+1)} with the leftover
mass kept on the diagonal, and an omega-weighted uniform restart is mixed
on top.

The kernel is stored row-wise in flat numpy arrays, built by vectorized
passes over the symmetrized graph's CSR. The sampler reads them as Python
lists, converted once per kernel: a hop is one bisect within the current
row's cumulative weights, and bisect on numpy arrays is 2-3x slower.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssumptionError
from .graph import DirectedGraph, is_strongly_connected, map_distinct, \
    symmetric_keys, symmetrize

# steps per block of uniforms the chain draws at once: each step takes
# exactly two, so drawing 2*BLOCK_STEPS at a time yields the same stream;
# larger blocks sample no faster and keep more floats alive
BLOCK_STEPS = 256


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-indexed sparse transition kernel of the pure (omega=0) chain.

    Row i is indptr[i]:indptr[i+1]: i's sorted neighbors, then i itself.
    cum holds each row's running sums of prob, the last forced to 1.0.
    """

    n: int
    indptr: np.ndarray
    targets: np.ndarray
    prob: np.ndarray
    cum: np.ndarray

    @cached_property
    def lists(self):
        """(indptr, targets, cum) as Python lists, for the sampler."""
        return self.indptr.tolist(), self.targets.tolist(), self.cum.tolist()

    def dense(self):
        p = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        p[rows, self.targets] = self.prob
        return p


def _row_running_sums(indptr, vals):
    """Each row's running sums of vals, added left to right from the row's
    first value, as a Python loop or itertools.accumulate adds them.

    Rows are taken in buckets of degree (w/2, w] for w = 1, 2, 4, ...,
    zero-padded to width w: np.cumsum along a row is sequential, and the
    padding zeros come after every value the row keeps.
    """
    deg = np.diff(indptr)
    out = np.empty_like(vals)
    lo, width = 0, 1
    while lo < deg.max(initial=0):
        rows = np.flatnonzero((deg > lo) & (deg <= width))
        if rows.size:
            take = np.arange(width) < deg[rows, None]
            pos = np.where(take, indptr[rows, None] + np.arange(width), 0)
            block = np.where(take, vals[pos], 0.0)
            out[pos[take]] = np.cumsum(block, axis=1)[take]
        lo, width = width, 2 * width
    return out


def _metropolis_hastings(sym):
    """Kernel of the pure chain on the symmetric graph sym: hop i -> j with
    min{1/(deg_i+1), 1/(deg_j+1)}, the rest of row i kept on i."""
    n, ptr, nbr = sym.n, sym.out_ptr, sym.out_idx
    deg = np.diff(ptr)
    inv = 1.0 / (deg + 1)
    row = np.repeat(np.arange(n), deg)
    hop = np.minimum(inv[row], inv[nbr])
    run = _row_running_sums(ptr, hop)
    # row i gains a self slot after its ptr[i+1]-ptr[i] hops
    indptr = ptr + np.arange(n + 1)
    edge_pos = np.arange(nbr.size) + row
    self_pos = indptr[1:] - 1
    hops_total = np.zeros(n)
    has_hops = deg > 0
    hops_total[has_hops] = run[ptr[1:][has_hops] - 1]
    targets = np.empty(indptr[-1], dtype=np.int64)
    prob = np.empty(indptr[-1])
    cum = np.empty(indptr[-1])
    targets[edge_pos], targets[self_pos] = nbr, np.arange(n)
    prob[edge_pos], prob[self_pos] = hop, 1.0 - hops_total
    cum[edge_pos], cum[self_pos] = run, 1.0
    return TransitionMatrix(n=n, indptr=indptr, targets=targets, prob=prob, cum=cum)


def build_transition_matrix(g, omega):
    """Static chain kernel; omega=0 requires a connected communication graph."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega={omega} outside [0,1]")
    sym = symmetrize(g)
    if omega == 0.0 and not is_strongly_connected(sym):
        raise AssumptionError(
            "communication graph is not connected; the omega=0 walk "
            "cannot reach every page (strong connectivity assumption)"
        )
    return _metropolis_hastings(sym)


def build_transition_matrix_temporal(graphs, omega, joint_window=None):
    """Per-snapshot kernels; omega=0 additionally needs every window of
    joint_window consecutive snapshots to have a connected union. Equal
    snapshots share one kernel object."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega={omega} outside [0,1]")
    if omega == 0.0:
        if joint_window is None or joint_window < 1:
            raise ValueError("omega=0 temporal runs need a joint window Q >= 1")
        check_joint_connectivity(graphs, joint_window)
    return map_distinct(lambda g: _metropolis_hastings(symmetrize(g)), graphs)


def check_joint_connectivity(graphs, q):
    """Union of each q-long window of snapshots must be strongly connected
    once symmetrized (the surfer walks the communication edges). Windows
    holding the same set of distinct snapshots are checked once."""
    n = graphs[0].n
    passed = set()
    for start in range(0, max(1, len(graphs) - q + 1)):
        window = graphs[start:start + q]
        content = frozenset(window)
        if content in passed:
            continue
        keys = np.concatenate([g.keys for g in content])
        joint = DirectedGraph(n=n, keys=symmetric_keys(keys, n),
                              labels=graphs[0].labels)
        if not is_strongly_connected(joint):
            raise AssumptionError(
                f"joint graph of snapshots [{start}, {start + len(window)}) is "
                f"not strongly connected (joint connectivity, window {q})"
            )
        passed.add(content)


@dataclass
class SurferChain:
    """Seeded Markov sampler producing the activation sequence s(k).

    Single-owner, stateful: sample_next advances the walk, which starts at
    node 0. The kernel part is immutable and may be shared between
    replications.
    """

    matrix: TransitionMatrix
    omega: float
    seed: int
    current: int = field(init=False, default=0)
    step_count: int = field(init=False, default=0)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)
        self._pairs = iter(())  # filled on the first sample, not before
        self._indptr, self._targets, self._cum = self.matrix.lists

    @property
    def n(self):
        return self.matrix.n

    def set_matrix(self, matrix):
        """Swap kernels mid-walk (temporal snapshots); state carries over."""
        self.matrix = matrix
        self._indptr, self._targets, self._cum = matrix.lists

    def sample_next(self):
        pair = next(self._pairs, None)
        if pair is None:
            draws = iter(self._rng.random(2 * BLOCK_STEPS).tolist())
            self._pairs = zip(draws, draws)
            pair = next(self._pairs)
        u, v = pair
        if u < self.omega:  # u >= 0, so omega = 0 never restarts
            nxt = int(v * self.n)
            if nxt == self.n:  # guard the open-interval edge
                nxt = self.n - 1
        else:
            ptr, c = self._indptr, self.current
            nxt = self._targets[bisect_right(self._cum, v, ptr[c], ptr[c + 1])]
        self.current = nxt
        self.step_count += 1
        return nxt


def empirical_stationary(chain, steps):
    """Visit-frequency histogram over the next `steps` samples."""
    counts = np.zeros(chain.n)
    for _ in range(steps):
        counts[chain.sample_next()] += 1
    return counts / steps
