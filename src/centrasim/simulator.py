"""Node-actor realization of the unknown-size PageRank iteration.

Each page owns its own importance value and a condensed row over its
in-neighbors. An activation pulls the neighbors' current values, applies
the engine's own project to them, and pushes the changed values back; the
activation token carries the global counter so nobody needs a clock. The
engine's drive runs the sample/activate/trace loop, so engine and simulator
traces agree bit for bit by construction. Every read and write is logged so
tests can prove that an activation of s touches nothing outside s and its
in-neighbors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import drive, project


@dataclass
class NodeActor:
    id: int
    in_nbrs: np.ndarray        # sorted in-neighbor ids
    coef: np.ndarray           # condensed row: [self] + in-neighbor coefficients
    m: float
    own_value: float = 0.0
    visit_count: int = 0


@dataclass
class ActivationToken:
    k: int = 0


@dataclass
class LocalityAudit:
    """(k, actor, touched) triples; reporting reads are logged separately."""

    events: list = field(default_factory=list)

    def record(self, k, s, reads, writes):
        self.events.append((k, s, tuple(reads), tuple(writes)))

    def violations(self, actors):
        bad = []
        for (k, s, reads, writes) in self.events:
            allowed = set(actors[s].in_nbrs.tolist()) | {s}
            touched = set(reads) | set(writes)
            if not touched <= allowed:
                bad.append((k, s, sorted(touched - allowed)))
        return bad


def init_nodes(g, m):
    """One actor per page; each row built from its own in-neighbor list."""
    from .oracles import rows_from_graph

    rows = rows_from_graph(g, m, n_known=False)
    actors = []
    for i in range(g.n):
        nbrs = rows.idx[i][1:]
        actors.append(NodeActor(id=i, in_nbrs=nbrs, coef=rows.coef[i], m=m))
    return actors


def activate(actors, token, s, audit=None):
    """Run one activation of actor s; returns the new stepsize alpha."""
    actor = actors[s]
    nbrs = actor.in_nbrs
    # pull phase: every in-neighbor sends its current value
    pulled = np.array([actor.own_value] + [actors[j].own_value for j in nbrs])
    actor.visit_count += 1
    alpha = actor.visit_count / (token.k + 1)
    updated = project(pulled, actor.coef, actor.m * alpha, alpha)
    # push phase: changed values return to their owners
    actor.own_value = updated[0]
    for pos, j in enumerate(nbrs):
        actors[j].own_value = updated[pos + 1]
    if audit is not None:
        audit.record(token.k, s, nbrs.tolist(), [s] + nbrs.tolist())
    token.k += 1
    return alpha


def estimate_network_size(actor, token_k):
    """Inverse visit frequency as seen at the actor's latest activation."""
    if actor.visit_count == 0:
        return None
    return (token_k + 1) / actor.visit_count


def assemble_vector(actors):
    """Global vector, reporting convenience only (not part of the protocol)."""
    return np.array([a.own_value for a in actors])


@dataclass
class SimulationRun:
    actors: list
    token: ActivationToken
    trace_rows: list
    audit: LocalityAudit
    size_estimates: dict


def run_simulation(g, m, chain, budget, trace_stride=100, oracle_x=None,
                   rows_diag=None):
    """Token-passing loop over the surfer's activation sequence.

    Emits the same trace format as the centralized engine; with identical
    graph, seed and schedule the traces are bit-identical.
    """
    actors = init_nodes(g, m)
    token = ActivationToken()
    audit = LocalityAudit()
    last_estimate = {}

    def step(s):
        alpha = activate(actors, token, s, audit=audit)
        last_estimate[s] = estimate_network_size(actors[s], token.k - 1)
        return 1.0 / alpha

    trace_rows = drive(chain.sample_next, step, lambda: assemble_vector(actors),
                       budget, trace_stride, oracle_x, rows_diag)
    return SimulationRun(actors=actors, token=token, trace_rows=trace_rows,
                         audit=audit, size_estimates=last_estimate)
