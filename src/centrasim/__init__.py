"""Distributed centrality measures and incremental PageRank, simulated.

Library plus CLI for level-set based degree/closeness/tree-betweenness
computation, a randomized incremental (Kaczmarz-style) PageRank solver
driven by a Markovian random surfer, its temporal (persistent-graph)
variant, and exact centralized oracles for verification.
"""

import importlib

# where each public name lives; a name is imported from its module on first
# read (PEP 562), so `import centrasim` loads no submodule and no numpy
_MODULES = {
    "graph": ("DirectedGraph", "TemporalGraphSequence", "parse_edge_list",
              "parse_temporal_edge_list", "repair_dangling", "symmetrize",
              "validate_oriented_tree"),
    "levelsets": ("CentralityVector", "LevelSets", "closeness_centrality",
                  "degree_centrality", "normalize", "run_levelset",
                  "tree_betweenness"),
    "matrix": ("PersistentAverage", "apply_google_matrix",
               "build_hyperlink_matrix"),
    "oracles": ("LsSolution", "RegressionRows", "bfs_all_pairs",
                "brandes_betweenness", "build_regression_rows",
                "direct_ls_solve", "ls_objective", "power_method",
                "rows_from_graph"),
    "surfer": ("SurferChain", "build_transition_matrix",
               "build_transition_matrix_temporal", "empirical_stationary"),
}
__all__ = [name for names in _MODULES.values() for name in names]
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
