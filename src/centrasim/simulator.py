"""Node-actor realization of the unknown-size PageRank iteration.

Each page is an actor. All actor state lives in one store, Actors: the
graph, the regression rows, and the values and visit counts, of which
actor i owns slot i. Row i, actor i itself then its in-neighbors, is the
window actor i pulls values from and pushes them back to; an activation
applies the engine's own project to the pulled values. Besides its row,
an activation needs only the global counter k, its place in the run, so
nobody needs a clock. The run is the engine's unknown-size run with
activate as its step function and a trail: the engine chooses its path
when the run starts (the library's unknown-size steps on the store's
arrays, else its Python twin, one activate per step), drive traces it by
the engine's rules, and each block's nodes go to the trail, which feeds
the locality audit and the size estimates. So engine and simulator
traces agree bit for bit by construction.

The locality audit keeps the actor id of every activation, activation k at
index k, one byte each while there are at most 256 actors, two up to
65 536, four up to 2**32. It checks the rows against the graph, not
against themselves: column j of actor s's row is allowed when j is s or
the edge j -> s exists. A column the graph does not back, such as a
uniform column's entry in every row, makes each activation of its actor
a violation.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .engine import KaczmarzState, _engine_steps, alpha_update, drive, project
from .oracles import rows_from_graph


class Actors:
    """The actors' one store: the graph they live on, the regression rows
    (row i is actor i's window and coefficients), and the arrays of their
    values and visit counts (actor i owns slot i), all starting at 0."""

    def __init__(self, graph, rows):
        self.graph, self.rows = graph, rows
        self.values = np.zeros(rows.n)
        self.visits = np.zeros(rows.n, dtype=np.int64)


# next wider unsigned item for actor ids that outgrow the current one
_WIDER = {"B": "H", "H": "I", "I": "Q"}


@dataclass
class LocalityAudit:
    """The actor id of every activation in order, so activation k sits at
    index k, in the narrowest unsigned item that fits (one byte up to 256
    actors)."""

    events: array = field(default_factory=lambda: array("B"))

    def record_block(self, nodes):
        """Record the next activations, of the actors in `nodes`, an int64
        array."""
        if not nodes.size:
            return
        while nodes.max() > np.iinfo(self.events.typecode).max:
            self.events = array(_WIDER[self.events.typecode], self.events)
        self.events.frombytes(nodes.astype(self.events.typecode).tobytes())

    def violations(self, actors):
        """(k, actor, sorted foreign ids) for every activation k of an actor
        whose row holds an id that is neither the actor nor one of its
        in-neighbors in the graph, in order; an actor's events share one
        list."""
        g, rows = actors.graph, actors.rows
        owner = np.repeat(np.arange(rows.n), np.diff(rows.indptr))
        cols = rows.indices
        foreign = (cols != owner) & ~np.isin(cols * g.n + owner, g.keys)
        ids = {}
        for s, j in zip(owner[foreign].tolist(), cols[foreign].tolist()):
            ids.setdefault(s, set()).add(j)
        if not ids:
            return []
        ids = {s: sorted(js) for s, js in ids.items()}
        bad = np.zeros(rows.n, dtype=bool)
        bad[list(ids)] = True
        events = np.frombuffer(self.events, dtype=self.events.typecode)
        ks = np.flatnonzero(bad[events])
        return [(k, s, ids[s]) for k, s in zip(ks.tolist(), events[ks].tolist())]


def activate(state, s, rows):
    """Run the next activation, of actor s: pull its window's values,
    project them, push them back; return the stepsize visits[s] / (k + 1).
    It is step_unknown_n written out as the actor's protocol, kept while
    perfbench's tracer times the simulator's activations by this name."""
    values, alpha = state.x, alpha_update(state, s)
    window = rows.idx[s]
    values[window] = project(values[window], rows.coef[s], rows.m * alpha, alpha)
    state.k += 1
    return alpha


def assemble_vector(actors):
    """Global vector, reporting convenience only (not part of the protocol)."""
    return actors.values.copy()


@dataclass
class SimulationRun:
    actors: Actors
    k: int
    trace_rows: list
    audit: LocalityAudit
    size_estimates: dict


def run_simulation(g, m, chain, budget, trace_stride=100, oracle_x=None,
                   rows=None):
    """Token-passing loop over the surfer's activation sequence.

    Steps on `rows`, the regression rows of g at damping m, built here
    without the network size when not given; no step reads their target y.
    Emits the same trace format as the centralized engine, its residual
    traced when the rows carry y; with identical graph, seed and schedule
    the traces are bit-identical. size_estimates maps each activated actor
    to its inverse visit frequency as seen at its latest activation.
    """
    if rows is None:
        rows = rows_from_graph(g, m, n_known=False)
    actors, audit = Actors(g, rows), LocalityAudit()
    state = KaczmarzState(x=actors.values, mode="unknown-n",
                          visits=actors.visits)
    last_k = np.full(g.n, -1, dtype=np.int64)  # k of each actor's latest
                                               # activation, or -1

    def trail(k, nodes):
        audit.record_block(nodes)
        # each actor's last occurrence in the trail: the largest k
        np.maximum.at(last_k, nodes, np.arange(k, k + nodes.size))

    steps = _engine_steps(state, chain, activate, on_block=trail)
    trace_rows = drive(state, lambda count: steps(rows, count), budget,
                       trace_stride, oracle_x, rows)
    seen = np.flatnonzero(last_k >= 0)
    estimates = (last_k[seen] + 1) / actors.visits[seen]
    return SimulationRun(actors=actors, k=state.k, trace_rows=trace_rows,
                         audit=audit,
                         size_estimates=dict(zip(seen.tolist(),
                                                 estimates.tolist())))
