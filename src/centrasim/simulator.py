"""Node-actor realization of the unknown-size PageRank iteration.

Each page is an actor with a condensed row over its in-neighbors. The
actors' values live in one float64 array that the run owns: actor i owns
slot i. Each actor keeps an index window, itself then its in-neighbors,
built once; an activation pulls the window's values in one gather, applies
the engine's own project to them, and pushes the new values back in one
scatter. The activation token carries the global counter so nobody needs a
clock. The engine's drive runs the simulator's own block of
sample/activate steps and traces it by the engine's rules, so engine and
simulator traces agree bit for bit by construction. The locality audit
stores each distinct footprint (actor, window) once and, per activation,
only that footprint's id, one byte while there are at most 256 footprints,
so tests can prove that an activation of s touches nothing outside s and
its in-neighbors.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .engine import drive, project


@dataclass
class NodeActor:
    id: int
    in_nbrs: np.ndarray        # sorted in-neighbor ids
    coef: np.ndarray           # condensed row: [self] + in-neighbor coefficients
    m: float
    visit_count: int = 0
    window: np.ndarray = field(init=False)  # (id, *in_nbrs) as intp: the
                                            # slots pulled from and pushed to

    def __post_init__(self):
        self.window = np.concatenate(([self.id], self.in_nbrs)).astype(np.intp)


class Actors(list):
    """The actors in id order, and `values`, the one array of their values:
    actor i owns slot i."""

    def __init__(self, actors, values):
        super().__init__(actors)
        self.values = values


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
    Every value starts at 0."""
    from .oracles import rows_from_graph

    rows = rows_from_graph(g, m, n_known=False)
    return Actors([NodeActor(id=i, in_nbrs=rows.idx[i][1:], coef=rows.coef[i],
                             m=m) for i in range(g.n)], np.zeros(g.n))


def activate(actors, token, s, audit=None):
    """Run one activation of actor s; returns the new stepsize alpha."""
    actor = actors[s]
    window, values = actor.window, actors.values
    actor.visit_count += 1
    alpha = actor.visit_count / (token.k + 1)
    # pull the window's values, project, push the new values back
    values[window] = project(values[window], actor.coef, actor.m * alpha, alpha)
    if audit is not None:
        audit.record(token.k, s, window)
    token.k += 1
    return alpha


def estimate_network_size(actor, token_k):
    """Inverse visit frequency as seen at the actor's latest activation."""
    if actor.visit_count == 0:
        return None
    return (token_k + 1) / actor.visit_count


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
    seed and schedule the traces are bit-identical.
    """
    actors = init_nodes(g, m)
    token = ActivationToken()
    audit = LocalityAudit()
    last_k = {}  # actor -> token value at its latest activation
    sample = chain.sample_next

    def block(count):
        for _ in range(count):
            s = sample()
            last_k[s] = token.k
            activate(actors, token, s, audit=audit)
        return s

    # the last step's alpha was visit_count / k, k counting that step
    trace_rows = drive(block, lambda: assemble_vector(actors),
                       lambda s: 1.0 / (actors[s].visit_count / token.k),
                       budget, trace_stride, oracle_x, rows_diag)
    size_estimates = {s: estimate_network_size(actors[s], k)
                      for s, k in last_k.items()}
    return SimulationRun(actors=actors, token=token, trace_rows=trace_rows,
                         audit=audit, size_estimates=size_estimates)
