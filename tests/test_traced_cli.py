"""perfbench/traced_cli.py still finds and wraps the package's calls.

The tracer replaces module attributes by name, so a rename in the package
silently drops a per-layer metric. Each case runs the tracer in its own
process, where its patching cannot leak into other tests, and checks that
the per-step calls of that command were counted and that the command and
its per-layer calls were traced. The engine's per-step calls run only on
its Python step loop, so the stepping cases run with no C compiler on
PATH; the compiled cases check the spans and counts a compiled run keeps.
The centrality case checks the level-set spans and the round count.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from centrasim.graph import parse_edge_list
from centrasim.levelsets import run_levelset

from conftest import FIG1_TEXT, HAVE_CC

REPO = Path(__file__).resolve().parents[1]
TRACED = REPO / "perfbench" / "traced_cli.py"

# case: (command arguments, per-step calls that must be counted, spans that
# must be traced besides the command's own, whether PATH holds no compiler)
CASES = {
    "known-n": (["pagerank", "fig1.txt", "--mode", "known-n"],
                ["engine.step_known_n", "oracles.ls_objective"], [], True),
    "dist": (["pagerank", "fig1.txt", "--mode", "dist"],
             ["simulator.activate", "oracles.ls_objective"], [], True),
    "temporal": (["pagerank-temporal", "seq.txt", "--snapshot-stride", "500"],
                 ["engine.step_temporal", "PersistentAverage.update",
                  "PersistentAverage.wbar_rows"], [], True),
    "centrality": (["centrality", "fig1.txt"], [],
                   ["levelsets.run_levelset",
                    "levelsets.closeness_centrality"], False),
    "oracle": (["oracle", "fig1.txt"], [],
               ["matrix.build_hyperlink_matrix", "oracles.power_method",
                "oracles.build_regression_rows", "oracles.brandes_betweenness",
                "oracles.bfs_all_pairs"], False),
    "compiled": (["pagerank", "fig1.txt", "--mode", "known-n"],
                 ["oracles.ls_objective"], ["engine.run"], False),
    "compiled-temporal": (["pagerank-temporal", "seq.txt",
                           "--snapshot-stride", "500"],
                          ["PersistentAverage.update"],
                          ["engine.run_temporal"], False),
}
STEP_CALLS = ("engine.step_known_n", "engine.step_unknown_n",
              "engine.step_temporal", "SurferChain.sample_next")


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_cli_counts_per_step_calls(case, tmp_path):
    args, names, spans, python = CASES[case]
    compiled = case.startswith("compiled")
    if compiled and not HAVE_CC:
        pytest.skip("no C compiler on PATH")
    (tmp_path / "fig1.txt").write_text(FIG1_TEXT)
    (tmp_path / "seq.txt").write_text("0 a b\n0 b a\n0 b c\n0 c b\n"
                                      "1 a c\n1 c a\n1 b c\n1 c b\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    if python:
        env["PATH"] = str(tmp_path)  # holds no compiler
    trace = tmp_path / "trace.json"
    budget = ["--iterations", "2000"] if args[0].startswith("pagerank") else []
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(trace), *args, *budget,
         "--output-dir", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(trace.read_text())
    for name in names:
        assert len(traced["calls"].get(name, [])) > 0, f"{name} not counted"
    if compiled:
        for name in STEP_CALLS:
            assert not traced["calls"].get(name), f"{name} ran in Python"
    # main looks each command up by name, so the tracer's wrapper runs
    span = "cli.cmd_" + args[0].replace("-", "_")
    traced_spans = {s["name"] for s in traced["spans"]}
    for name in (span, *spans):
        assert name in traced_spans, f"{name} not traced"
    if case == "centrality":
        # one round per level of the deepest level set
        assert traced["counts"]["levelsets.rounds"] == \
            run_levelset(parse_edge_list(FIG1_TEXT)).t_max
