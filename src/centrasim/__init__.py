"""Distributed centrality measures and incremental PageRank, simulated.

Library plus CLI for level-set based degree/closeness/tree-betweenness
computation, a randomized incremental (Kaczmarz-style) PageRank solver
driven by a Markovian random surfer, its temporal (persistent-graph)
variant, and exact centralized oracles for verification.
"""

from .graph import (DirectedGraph, TemporalGraphSequence, parse_edge_list,
                    parse_temporal_edge_list, repair_dangling, symmetrize,
                    validate_oriented_tree)
from .levelsets import (CentralityVector, LevelSets, closeness_centrality,
                        degree_centrality, normalize, run_levelset,
                        tree_betweenness)
from .matrix import (PersistentAverage, apply_google_matrix,
                     build_hyperlink_matrix)
from .oracles import (LsSolution, RegressionRows, bfs_all_pairs,
                      brandes_betweenness, build_regression_rows,
                      direct_ls_solve, ls_objective, power_method,
                      rows_from_graph)
from .surfer import (SurferChain, build_transition_matrix,
                     build_transition_matrix_temporal, empirical_stationary)

__all__ = [
    "DirectedGraph", "TemporalGraphSequence", "parse_edge_list",
    "parse_temporal_edge_list", "repair_dangling", "symmetrize",
    "validate_oriented_tree", "CentralityVector", "LevelSets",
    "closeness_centrality", "degree_centrality", "normalize", "run_levelset",
    "tree_betweenness", "PersistentAverage", "apply_google_matrix",
    "build_hyperlink_matrix", "LsSolution",
    "RegressionRows", "bfs_all_pairs", "brandes_betweenness",
    "build_regression_rows", "direct_ls_solve", "ls_objective",
    "power_method", "rows_from_graph", "SurferChain",
    "build_transition_matrix", "build_transition_matrix_temporal",
    "empirical_stationary",
]

__version__ = "0.1.0"
