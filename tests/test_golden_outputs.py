"""Output bytes pinned across refactors.

Each run below calls the CLI in-process at a fixed seed and a budget of at
most 5000 steps; the sha256 of every file it writes must equal the digest
recorded in golden_outputs.json (recorded at commit 99bc5eb; the
temporal-uniform-column entry at 4db7647, before the CSR matrices; the
nine lines that moved when the CLI's PageRank oracle became the power
method, on top of 08e1aef: the oracle headers and four trace error digits).
test_deterministic_outputs compares two runs of the same code; this test
compares against the recorded bytes, so a change that moves any output in
its last digit fails here. The centrality and oracle runs are checked once
more without the compiled Brandes and BFS loops, and the pagerank runs
once more without the compiled engine steps, against the same digests. On a
mismatch the first differing line is reported, located through the
recorded per-line digests.

After an intended output change, re-record with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from centrasim import _native
from centrasim.cli import main

from conftest import DANGLING_TEXT, FIG1_TEXT, TEMPORAL_TEXT

GOLDEN = Path(__file__).with_name("golden_outputs.json")

INPUTS = {"fig1.txt": FIG1_TEXT, "dangling.txt": DANGLING_TEXT,
          "seq.txt": TEMPORAL_TEXT}

RUNS = {
    "known-n": ["pagerank", "fig1.txt", "--mode", "known-n"],
    "unknown-n": ["pagerank", "fig1.txt", "--mode", "unknown-n"],
    "dist": ["pagerank", "fig1.txt", "--mode", "dist"],
    "uniform-column": ["pagerank", "dangling.txt", "--mode", "known-n",
                       "--dangling", "uniform-column"],
    "temporal": ["pagerank-temporal", "seq.txt", "--rho", "0.9",
                 "--snapshot-stride", "1500"],
    "temporal-uniform-column": ["pagerank-temporal", "seq.txt", "--rho", "0.9",
                                "--snapshot-stride", "1500",
                                "--dangling", "uniform-column"],
    "oracle": ["oracle", "dangling.txt", "--dangling", "uniform-column"],
    "centrality": ["centrality", "fig1.txt"],
}
# appended to the pagerank* runs only: no other command reads these keys
BUDGET = ["--iterations", "5000", "--seed", "3", "--trace-stride", "50"]


def run_outputs(name, workdir):
    """{file name: bytes} written by one run."""
    workdir = Path(workdir)
    cmd, infile, *flags = RUNS[name]
    (workdir / infile).write_text(INPUTS[infile])
    out = workdir / name
    budget = BUDGET if cmd.startswith("pagerank") else []
    rc = main([cmd, str(workdir / infile), *flags, *budget,
               "--output-dir", str(out)])
    assert rc == 0, f"{name}: exit {rc}"
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _line_digests(data):
    return [_digest(line)[:12] for line in data.splitlines()]


def _check(name, got):
    """got equals the recorded bytes; else fail at the first differing line."""
    golden = json.loads(GOLDEN.read_text())[name]
    assert sorted(got) == sorted(golden)
    for fname, data in got.items():
        want = golden[fname]
        if _digest(data) == want["sha256"]:
            continue
        lines = data.splitlines()
        for i, (a, b) in enumerate(zip(_line_digests(data), want["lines"])):
            if a != b:
                pytest.fail(f"{name}/{fname} line {i + 1} differs: "
                            f"{lines[i].decode()!r}")
        pytest.fail(f"{name}/{fname}: {len(lines)} lines, "
                    f"recorded {len(want['lines'])}")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_recorded_bytes(name, tmp_path):
    _check(name, run_outputs(name, tmp_path))


@pytest.mark.parametrize("name", ["centrality", "oracle"])
def test_python_oracle_loops_match_recorded_bytes(name, tmp_path, monkeypatch):
    """The runs that call Brandes or BFS, without the compiled library."""
    monkeypatch.setattr(_native, "load", lambda: None)
    _check(name, run_outputs(name, tmp_path))


@pytest.mark.parametrize("missing", ["load"])
@pytest.mark.parametrize("name", sorted(n for n in RUNS
                                        if RUNS[n][0].startswith("pagerank")))
def test_python_step_loop_matches_recorded_bytes(name, missing, tmp_path,
                                                 monkeypatch):
    """The pagerank runs on the Python step loop, without the library."""
    monkeypatch.setattr(_native, missing, lambda: None)
    _check(name, run_outputs(name, tmp_path))


def record(workdir):
    golden = {}
    for name in sorted(RUNS):
        golden[name] = {fname: {"sha256": _digest(data),
                                "lines": _line_digests(data)}
                        for fname, data in run_outputs(name, workdir).items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
