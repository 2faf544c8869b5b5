"""Node-actor realization of the unknown-size PageRank iteration.

Each page is an actor with a condensed row over its in-neighbors. The
actors' values and visit counts live in two arrays that the run owns:
actor i owns slot i of each. Each actor's index window, itself then its
in-neighbors, and its coefficients are views of the flat regression rows
built once; an activation pulls the window's values in one gather, applies
the engine's own project to them, and pushes the new values back in one
scatter. The activation token carries the global counter so nobody needs a
clock. The engine's drive runs the simulator's blocks and traces them by
the engine's rules, so engine and simulator traces agree bit for bit by
construction. At the first block the run takes one of two paths, as the
engine does: the library's unknown-size steps (``_native.Steps``) on the
actors' own arrays and rows, which also write each step's node to a trail,
when the library loads; else its Python block of sample/activate steps,
the no-compiler path and the reference. The locality audit stores each
distinct footprint (actor, window) once and, per activation, only that
footprint's id, one byte while there are at most 256 footprints; the
compiled path records a whole trail at once, so the audit names the very
windows the C loop reads. Tests use it to prove that an activation of s
touches nothing outside s and its in-neighbors.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .engine import KaczmarzState, choose_path, drive, project


@dataclass
class NodeActor:
    id: int
    in_nbrs: np.ndarray  # sorted in-neighbor ids, what the audit allows
    window: np.ndarray   # (id, *in_nbrs), the slots pulled from and pushed
                         # to; both are views of the rows' frozen indices
    coef: np.ndarray     # condensed row: [self] + in-neighbor coefficients,
                         # a view of the rows' data
    m: float


class Actors(list):
    """The actors in id order; `values` and `visits`, the arrays of their
    values and visit counts (actor i owns slot i); and `rows`, the flat
    regression rows whose indices and data the actors' windows and
    coefficients are views of."""

    def __init__(self, actors, rows):
        super().__init__(actors)
        self.rows = rows
        self.values = np.zeros(rows.n)
        self.visits = np.zeros(rows.n, dtype=np.int64)


@dataclass
class ActivationToken:
    k: int = 0


# next wider unsigned item for footprint ids that outgrow the current one
_WIDER = {"B": "H", "H": "Q"}


@dataclass
class LocalityAudit:
    """Per activation, the footprint (actor, window) it touched.

    footprints maps each distinct footprint, keyed by the window's bytes,
    to its id, so an honest run stores at most one per actor. events holds
    every activation's footprint id in record order, in the narrowest
    unsigned item that fits (one byte up to 256 footprints). A token value
    k is stored only where it is not the previous event's plus one: jumps
    maps that event's index to its k.
    """

    footprints: dict = field(default_factory=dict)
    events: array = field(default_factory=lambda: array("B"))
    jumps: dict = field(default_factory=dict)
    next_k: int = 0
    # record_block's footprint id per actor, -1 until the actor is seen
    _fids: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def record(self, k, s, window):
        """Record that activation k of actor s read and wrote the ids of
        `window`, an intp array."""
        key = (s, window.tobytes())
        fid = self.footprints.setdefault(key, len(self.footprints))
        if k != self.next_k:
            self.jumps[len(self.events)] = k
        self.next_k = k + 1
        try:
            self.events.append(fid)
        except OverflowError:
            self.events = array(_WIDER[self.events.typecode], self.events)
            self.events.append(fid)

    def record_block(self, k, nodes, actors):
        """Record activations k, k+1, ... of the actors in `nodes`, an int64
        array, each on its own window: as record would, one by one. Each
        actor's footprint is looked up the first time it appears here and
        then kept: the rows' indices the windows view are frozen."""
        if not nodes.size:
            return
        if self._fids is None:
            self._fids = np.full(len(actors), -1, dtype=np.int64)
        fids = self._fids[nodes]
        if (fids < 0).any():
            # new footprints get ids in order of first appearance
            for s in nodes[fids < 0].tolist():
                if self._fids[s] < 0:
                    key = (s, actors[s].window.tobytes())
                    self._fids[s] = self.footprints.setdefault(
                        key, len(self.footprints))
            fids = self._fids[nodes]
        if k != self.next_k:
            self.jumps[len(self.events)] = k
        self.next_k = k + nodes.size
        while fids.max() > np.iinfo(self.events.typecode).max:
            self.events = array(_WIDER[self.events.typecode], self.events)
        self.events.frombytes(fids.astype(self.events.typecode).tobytes())

    def violations(self, actors):
        """(k, actor, sorted foreign ids) for every event that touched an id
        outside the actor and its in-neighbors, in record order."""
        foreign = {}
        for (s, window), fid in self.footprints.items():
            allowed = set(actors[s].in_nbrs.tolist()) | {s}
            touched = set(np.frombuffer(window, dtype=np.intp).tolist())
            if not touched <= allowed:
                foreign[fid] = (s, sorted(touched - allowed))
        if not foreign:
            return []
        bad, k = [], -1
        for i, fid in enumerate(self.events):
            k = self.jumps.get(i, k + 1)
            if fid in foreign:
                s, ids = foreign[fid]
                bad.append((k, s, list(ids)))
        return bad


def init_nodes(g, m):
    """One actor per page; each row built from its own in-neighbor list.
    Every value and visit count starts at 0."""
    from .oracles import rows_from_graph

    rows = rows_from_graph(g, m, n_known=False)
    return Actors([NodeActor(id=i, in_nbrs=rows.idx[i][1:],
                             window=rows.idx[i], coef=rows.coef[i], m=m)
                   for i in range(g.n)], rows)


def activate(actors, token, s, audit=None):
    """Run one activation of actor s; returns the new stepsize alpha."""
    actor = actors[s]
    window, values, visits = actor.window, actors.values, actors.visits
    visits[s] += 1
    alpha = visits[s] / (token.k + 1)
    # pull the window's values, project, push the new values back
    values[window] = project(values[window], actor.coef, actor.m * alpha, alpha)
    if audit is not None:
        audit.record(token.k, s, window)
    token.k += 1
    return alpha


def estimate_network_size(actors, s, token_k):
    """Inverse visit frequency of actor s as seen at its latest activation,
    token value token_k."""
    if actors.visits[s] == 0:
        return None
    return (token_k + 1) / actors.visits[s]


def assemble_vector(actors):
    """Global vector, reporting convenience only (not part of the protocol)."""
    return actors.values.copy()


@dataclass
class SimulationRun:
    actors: Actors
    token: ActivationToken
    trace_rows: list
    audit: LocalityAudit
    size_estimates: dict


def run_simulation(g, m, chain, budget, trace_stride=100, oracle_x=None,
                   rows_diag=None):
    """Token-passing loop over the surfer's activation sequence.

    Emits the same trace format as the centralized engine, its residual
    against rows_diag and their target y when given; with identical graph,
    seed and schedule the traces are bit-identical. At the first block the
    run takes the library's unknown-size steps on the actors' arrays if the
    library loads, and its Python block otherwise; both record the same
    audit.
    """
    actors = init_nodes(g, m)
    token = ActivationToken()
    audit = LocalityAudit()
    last_k = np.full(g.n, -1, dtype=np.int64)  # token value at each actor's
                                               # latest activation, or -1

    def python():
        sample = chain.sample_next

        def block(count):
            for _ in range(count):
                s = sample()
                last_k[s] = token.k
                activate(actors, token, s, audit=audit)
            return s
        return block

    def compiled(lib):
        state = KaczmarzState(x=actors.values, mode="unknown-n",
                              visits=actors.visits)

        def trail(k, nodes):
            audit.record_block(k, nodes, actors)
            # each actor's last occurrence in the trail: the largest k
            np.maximum.at(last_k, nodes, np.arange(k, k + nodes.size))

        steps = _native.Steps(lib, state, chain, on_block=trail)

        def block(count):
            s = steps(actors.rows, count)
            token.k = state.k
            return s
        return block

    # the last step's alpha was visits[s] / k, k counting that step
    trace_rows = drive(choose_path(python, compiled),
                       lambda: assemble_vector(actors),
                       lambda s: 1.0 / (actors.visits[s] / token.k),
                       budget, trace_stride, oracle_x, rows_diag)
    size_estimates = {s: estimate_network_size(actors, s, last_k[s])
                      for s in np.flatnonzero(last_k >= 0).tolist()}
    return SimulationRun(actors=actors, token=token, trace_rows=trace_rows,
                         audit=audit, size_estimates=size_estimates)
