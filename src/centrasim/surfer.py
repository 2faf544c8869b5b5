"""Random-surfer chain driving the incremental PageRank updates.

The walk lives on the symmetrized communication graph: two pages that
exchange importance values can be walked in both directions, which is also
what makes the Metropolis-Hastings weights doubly stochastic. The hop
weight to a neighbor is min{1/(deg_i+1), 1/(deg_j+1)} with the leftover
mass kept on the diagonal, and an omega-weighted uniform restart is mixed
on top.

The kernel is stored row-wise in flat numpy arrays: row i holds i's sorted
neighbors, then a self slot for i. It is built in one pass over the
symmetrized graph's CSR, which takes the rows of each degree as one
equal-width block: np.cumsum along a block's rows adds each row left to
right from its first hop, as a Python loop adds them, and the self slot,
holding 0.0 until then, ends with the row's hop total. A hop is one
bisect within the current row's cumulative weights. The chain draws its
uniforms in blocks and keeps the current block and a position in it,
which both samplers read: sample_next, which reads the kernel as Python
lists (bisect on numpy arrays is 2-3x slower), converted the first time
it samples on a kernel; and the engine's compiled steps, which read the
arrays themselves and so never build the lists.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssumptionError
from .graph import DirectedGraph, is_connected, map_distinct, \
    symmetric_keys, symmetrize
from .matrix import Csr, frozen

# steps per block of uniforms the chain draws at once: each step takes
# exactly two, so drawing 2*BLOCK_STEPS at a time yields the same stream;
# larger blocks sample no faster and keep more floats alive
BLOCK_STEPS = 256


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-indexed sparse transition kernel of the pure (omega=0) chain.

    Row i is indptr[i]:indptr[i+1]: i's sorted neighbors, then i itself.
    cum holds each row's running sums of prob, the last forced to 1.0.
    indptr, targets and cum are frozen (matrix.frozen); prob is writable.
    """

    n: int
    indptr: np.ndarray
    targets: np.ndarray
    prob: np.ndarray
    cum: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "targets", "cum"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    @cached_property
    def lists(self):
        """(indptr, targets, cum) as Python lists, for the sampler."""
        return self.indptr.tolist(), self.targets.tolist(), self.cum.tolist()

    def dense(self):
        return Csr(self.indptr, self.targets, self.prob, (self.n, self.n)).toarray()


def _metropolis_hastings(sym):
    """Kernel of the pure chain on the symmetric graph sym: hop i -> j with
    min{1/(deg_i+1), 1/(deg_j+1)}, the rest of row i kept on i. The
    rows of degree d are summed as one (rows x (d+1)) block."""
    n, ptr, nbr = sym.n, sym.out_ptr, sym.out_idx
    deg = np.diff(ptr)
    inv = 1.0 / (deg + 1)
    indptr = ptr + np.arange(n + 1)
    self_pos = indptr[1:] - 1
    targets = np.insert(nbr, ptr[1:], np.arange(n))
    prob = np.insert(np.minimum(np.repeat(inv, deg), inv[nbr]), ptr[1:], 0.0)
    cum = np.empty_like(prob)
    order = np.argsort(deg, kind="stable")
    first = np.flatnonzero(np.diff(deg[order], prepend=-1))  # a degree's start
    for lo, hi in zip(first.tolist(), first[1:].tolist() + [n]):
        rows = order[lo:hi]
        pos = indptr[rows, None] + np.arange(deg[rows[0]] + 1)
        cum[pos] = np.cumsum(prob[pos], axis=1)
    prob[self_pos] = 1.0 - cum[self_pos]
    cum[self_pos] = 1.0
    return TransitionMatrix(n=n, indptr=indptr, targets=targets, prob=prob, cum=cum)


def build_transition_matrix(g, omega):
    """Static chain kernel; omega=0 requires a connected communication graph."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega={omega} outside [0,1]")
    sym = symmetrize(g)
    if omega == 0.0 and not is_connected(sym):
        raise AssumptionError(
            "communication graph is not connected; the omega=0 walk "
            "cannot reach every page (strong connectivity assumption)"
        )
    return _metropolis_hastings(sym)


def build_transition_matrix_temporal(graphs, omega, joint_window=None):
    """Per-snapshot kernels; omega=0 additionally needs every window of
    joint_window consecutive snapshots to have a connected union. Snapshots
    that are the same object share one kernel object."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega={omega} outside [0,1]")
    if omega == 0.0:
        if joint_window is None or joint_window < 1:
            raise ValueError("omega=0 temporal runs need a joint window Q >= 1")
        check_joint_connectivity(graphs, joint_window)
    return map_distinct(lambda g: _metropolis_hastings(symmetrize(g)), graphs)


def check_joint_connectivity(graphs, q):
    """Union of each q-long window of snapshots must be connected once
    symmetrized (the surfer walks the communication edges). Windows
    holding the same set of snapshot objects are checked once."""
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
        if not is_connected(joint):
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
    replications. Each sample reads the next two uniforms of the current
    block; the next block of 2*BLOCK_STEPS is drawn when a sample finds
    this one used up (none before the first sample).
    """

    matrix: TransitionMatrix
    omega: float
    seed: int
    current: int = field(init=False, default=0)

    def __post_init__(self):
        self._block, self._pos = array("d"), 0

    @cached_property
    def _rng(self):
        """The seeded generator, made when the first block is drawn: a run
        of no steps never imports numpy.random."""
        return np.random.default_rng(self.seed)

    @property
    def n(self):
        return self.matrix.n

    def set_matrix(self, matrix):
        """Swap kernels mid-walk (temporal snapshots); state carries over."""
        self.matrix = matrix

    def uniforms(self):
        """The current block of uniforms and the position of its next unread
        pair, drawing the next block first when this one is used up."""
        if self._pos == len(self._block):
            self._block = array("d", self._rng.random(2 * BLOCK_STEPS).tobytes())
            self._pos = 0
        return self._block, self._pos

    def advance(self, steps, node):
        """Account for `steps` samples read from the block elsewhere, the
        last of them landing on node."""
        self._pos += 2 * steps
        self.current = node

    def sample_next(self):
        block, pos = self._block, self._pos
        if pos == len(block):
            block, pos = self.uniforms()
        u, v = block[pos], block[pos + 1]
        self._pos = pos + 2
        if u < self.omega:  # u >= 0, so omega = 0 never restarts
            nxt = int(v * self.n)
            if nxt == self.n:  # guard the open-interval edge
                nxt = self.n - 1
        else:
            ptr, targets, cum = self.matrix.lists
            c = self.current
            nxt = targets[bisect_right(cum, v, ptr[c], ptr[c + 1])]
        self.current = nxt
        return nxt


def empirical_stationary(chain, steps):
    """Visit-frequency histogram over the next `steps` samples."""
    counts = np.zeros(chain.n)
    for _ in range(steps):
        counts[chain.sample_next()] += 1
    return counts / steps
