"""Random-surfer chain driving the incremental PageRank updates.

The walk lives on the symmetrized communication graph: two pages that
exchange importance values can be walked in both directions, which is also
what makes the Metropolis-Hastings weights doubly stochastic. The hop
weight to a neighbor is min{1/(deg_i+1), 1/(deg_j+1)} with the leftover
mass kept on the diagonal, and an omega-weighted uniform restart is mixed
on top.

The kernel is stored row-wise in flat tuples, as the sampler reads it: a
hop is one bisect within the current row's cumulative weights.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import AssumptionError
from .graph import DirectedGraph, is_strongly_connected, symmetrize

# steps per block of uniforms the chain draws at once: each step takes
# exactly two, so drawing 2*BLOCK_STEPS at a time yields the same stream;
# larger blocks sample no faster and keep more floats alive
BLOCK_STEPS = 256


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-indexed sparse transition kernel of the pure (omega=0) chain.

    Row i is indptr[i]:indptr[i+1]: i's sorted neighbors, then i itself.
    cum holds each row's running sums of prob, the last forced to 1.0.
    Python tuples, because bisect on numpy arrays is 2-3x slower.
    """

    n: int
    indptr: tuple[int, ...]
    targets: tuple[int, ...]
    prob: tuple[float, ...]
    cum: tuple[float, ...]

    def dense(self):
        p = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        p[rows, list(self.targets)] = self.prob
        return p


def _metropolis_hastings(sym):
    deg = [len(a) for a in sym.out_adj]
    indptr, targets, prob, cum = [0], [], [], []
    for i, nbr in enumerate(sym.out_adj):
        ps = [min(1.0 / (deg[i] + 1), 1.0 / (deg[j] + 1)) for j in nbr]
        ps.append(1.0 - sum(ps))
        targets += nbr + (i,)
        prob += ps
        cum += accumulate(ps)
        cum[-1] = 1.0
        indptr.append(len(targets))
    return TransitionMatrix(n=sym.n, indptr=tuple(indptr), targets=tuple(targets),
                            prob=tuple(prob), cum=tuple(cum))


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
    joint_window consecutive snapshots to have a connected union."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega={omega} outside [0,1]")
    if omega == 0.0:
        if joint_window is None or joint_window < 1:
            raise ValueError("omega=0 temporal runs need a joint window Q >= 1")
        check_joint_connectivity(graphs, joint_window)
    return [_metropolis_hastings(symmetrize(g)) for g in graphs]


def check_joint_connectivity(graphs, q):
    """Union of each q-long window of snapshots must be strongly connected
    once symmetrized (the surfer walks the communication edges)."""
    n = graphs[0].n
    for start in range(0, max(1, len(graphs) - q + 1)):
        window = graphs[start:start + q]
        edges = set()
        for g in window:
            edges |= set(g.edges)
        joint = symmetrize(DirectedGraph.from_edges(n, edges, labels=graphs[0].labels))
        if not is_strongly_connected(joint):
            raise AssumptionError(
                f"joint graph of snapshots [{start}, {start + len(window)}) is "
                f"not strongly connected (joint connectivity, window {q})"
            )


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

    @property
    def n(self):
        return self.matrix.n

    def set_matrix(self, matrix):
        """Swap kernels mid-walk (temporal snapshots); state carries over."""
        self.matrix = matrix

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
            k, c = self.matrix, self.current
            nxt = k.targets[bisect_right(k.cum, v, k.indptr[c], k.indptr[c + 1])]
        self.current = nxt
        self.step_count += 1
        return nxt


def empirical_stationary(chain, steps):
    """Visit-frequency histogram over the next `steps` samples."""
    counts = np.zeros(chain.n)
    for _ in range(steps):
        counts[chain.sample_next()] += 1
    return counts / steps
