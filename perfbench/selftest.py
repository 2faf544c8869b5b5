"""Show that the benchmark's output checks catch corrupted outputs.

    python3 perfbench/selftest.py

Runs one clean pass of every workload, then damages a copy of its outputs
in one way at a time and runs the same checks the benchmark runs. Each
damaged copy must be reported as a failed invocation; the script exits 1 if
one is not. The damage is either generic (a changed digit, which only the
byte-identity check sees; a non-finite value; a missing row; a nonzero
exit) or aimed at one workload's own check, with a fresh reference so that
the byte-identity check cannot be the one that notices.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import WORK, check_pass, run_sequence
from workloads import WORKLOADS


def _bump(text):
    """Change the last number on a line by one part in a thousand."""
    head, _, val = text.rpartition(",")
    return f"{head},{float(val) * 1.001:.11e}"


def _bump_field(col):
    def edit(lines):
        parts = lines[-1].split(",")
        parts[col] = f"{float(parts[col]) * 1.001:.11e}"
        return lines[:-1] + [",".join(parts)]
    return edit


def _residual_above_first(lines):
    parts = lines[-1].split(",")
    parts[2] = f"{2 * float(lines[1].split(',')[2]):.11e}"
    return lines[:-1] + [",".join(parts)]


def _halve_values(lines):
    return lines[:1] + [f"{head},{float(val) / 2:.11e}"
                        for head, _, val in (ln.rpartition(",") for ln in lines[1:])]


def _first_table(outdir):
    return next(f.name for f in sorted(outdir.glob("*.csv")) if f.name != "trace.csv")


GENERIC = [
    ("a changed digit", lambda lines: lines[:1] + [_bump(lines[1])] + lines[2:]),
    ("a non-finite value",
     lambda lines: lines[:1] + [lines[1].rpartition(",")[0] + ",nan"] + lines[2:]),
    ("a missing row", lambda lines: lines[:-1]),
]
SPECIFIC = {
    "web-pagerank": [("final residual above the first", "known-n/trace.csv",
                      _residual_above_first)],
    "dense-stream": [("simulator trace differs", "dist/trace.csv", _bump_field(2)),
                     ("simulator vector differs", "dist/vector.csv",
                      lambda lines: lines[:-1] + [_bump(lines[-1])])],
    "temporal-spam": [("wbar column sum off one", "temporal/wbar_colsums.csv",
                       lambda lines: lines[:-1] + [lines[-1].rpartition(",")[0]
                                                   + ",1.00000000100e+00"]),
                      ("mass of x off one", "temporal/vector.csv", _halve_values)],
    "web-centrality": [("oracle closeness differs", "oracle/closeness.csv",
                        lambda lines: lines[:-1] + [_bump(lines[-1])])],
}


def damaged_copy(clean, dest, rel, edit):
    shutil.copytree(clean, dest)
    path = dest / rel
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def main():
    root = WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    missed = 0
    for wl in WORKLOADS.values():
        (root / wl.name).mkdir(parents=True)
        path, facts = wl.make_inputs(wl.default_seed, root / wl.name)
        invs = wl.commands(path, 0, True)
        ref = {}
        clean_dir = root / wl.name / "clean"
        clean = run_sequence(wl, invs, clean_dir, facts, ref)
        if clean["failures"]:
            print(f"{wl.name}: clean pass failed: {clean['failures']}")
            return 1
        last = invs[-1].label
        cases = [(name, f"{last}/{_first_table(clean_dir / last)}", edit, ref)
                 for name, edit in GENERIC]
        cases += [(name, rel, edit, {}) for name, rel, edit in SPECIFIC[wl.name]]
        for k, (name, rel, edit, reference) in enumerate(cases):
            dest = root / wl.name / f"damaged{k}"
            damaged_copy(clean_dir, dest, rel, edit)
            outdirs = {inv.label: dest / inv.label for inv in invs}
            failures = check_pass(wl, invs, clean["rows"], outdirs, facts,
                                  dict(reference), True)
            missed += not failures
            print(f"{wl.name:<15} {name + ' in ' + rel:<55} -> "
                  f"{failures or 'NOT REPORTED'}")
        crashed = [dict(r, rc=1) for r in clean["rows"]]
        failures = check_pass(wl, invs, crashed, {i.label: clean_dir / i.label for i in invs},
                              facts, dict(ref), True)
        missed += not failures
        print(f"{wl.name:<15} {'exit code 1':<55} -> {failures or 'NOT REPORTED'}")
    print("every damaged output was reported" if not missed
          else f"{missed} damaged outputs went unreported")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
