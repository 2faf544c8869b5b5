"""Set-up cost of a workload with no solver: import, parse and repair.

    python3 setup_probe.py GRAPH --output-dir DIR

Writes ``graph.txt`` with the repaired graph's node and edge counts.
"""
import sys
from pathlib import Path

import centrasim


def main(argv):
    graph_path, _, out = argv
    g = centrasim.repair_dangling(centrasim.parse_edge_list(Path(graph_path).read_text()))
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "graph.txt").write_text(f"{g.n} {len(g.edges)}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
