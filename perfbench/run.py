"""Benchmark for the centrasim CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/centrasim`` must exist). The
inputs are generated from ``--seed`` (default: each workload's acceptance
gate graph) and every command runs as its own child process, one at a time,
with BLAS pinned to one thread.

``--trace 0`` alternates passes over the workload's set-up invocations and
over its whole command sequence until ``--seconds`` have passed and each
kind has run at least three times. It reports the median set-up pass
(``setup_s``), per sequence the median wall time (``wall_s``) and median
user+system CPU time (``cpu_s``), and the largest child ``ru_maxrss``
(``peak_rss_mib``), all read through ``os.wait4``. ``--trace 1`` alternates
untraced and traced sequences the same way and reports the per-layer metrics
of ``layers.py`` instead; the traced children run ``traced_cli.py``.

Every output is checked; an invocation that exits nonzero, times out or
fails a check counts as failed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (inputs with sha256, machine, versions, every repetition, spans and
per-step call counts of the last traced sequence) goes to
``.perfbench_work/<workload>/result.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, call_summary, rep_metrics, run_metrics  # noqa: E402
from workloads import WORKLOADS, check_tables, check_trace  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3  # of each kind
TIMEOUT_S = 60
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

VERSION_PROBE = """
import json, platform, numpy, scipy, centrasim.cli
blas = lambda cfg: cfg["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numpy_blas": blas(numpy.show_config(mode="dicts")),
    "scipy_blas": blas(scipy.show_config(mode="dicts")),
}))
"""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in BLAS_PINS})
    return env


ENV = child_env()


def invoke(argv, outdir):
    """Run one child to completion; wall, CPU and peak RSS of that child only."""
    outdir.mkdir(parents=True)
    with open(outdir.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, env=ENV,
                                cwd=ROOT)
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024, "rc": proc.returncode,
            "timed_out": proc.returncode < 0 and wall >= TIMEOUT_S}


def argv_for(inv, outdir, trace_path=None):
    if inv.probe:
        return [*inv.args, "--output-dir", str(outdir)]
    head = [str(HERE / "traced_cli.py"), str(trace_path)] if trace_path else \
        ["-m", "centrasim.cli"]
    return [*head, *inv.args, "--output-dir", str(outdir)]


def digests(outdir):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(outdir.iterdir())}


def run_sequence(wl, invs, rep_dir, facts, reference, traced=False, full=True):
    """One pass over a command sequence, with every output check."""
    rep_dir.mkdir(parents=True)
    rows, traces, outdirs = [], [], {}
    for inv in invs:
        out = rep_dir / inv.label
        trace_path = rep_dir / f"{inv.label}.trace.json" if traced else None
        row = invoke(argv_for(inv, out, trace_path), out)
        row["label"] = inv.label
        rows.append(row)
        outdirs[inv.label] = out
        if traced and row["rc"] == 0:
            traces.append(json.loads(trace_path.read_text()))
    written = sum(f.stat().st_size for d in outdirs.values() for f in d.iterdir())
    return {"rows": rows, "traces": traces, "bytes_written": written,
            "failures": check_pass(wl, invs, rows, outdirs, facts, reference, full),
            "wall_s": sum(r["wall_s"] for r in rows),
            "cpu_s": sum(r["cpu_s"] for r in rows),
            "rss_mib": max(r["rss_mib"] for r in rows)}


def check_pass(wl, invs, rows, outdirs, facts, reference, full):
    """{label: [problem, ...]} for the invocations of one pass that failed.

    ``reference`` maps label -> output digests of the first pass of the same
    sequence; every later pass must reproduce them byte for byte. ``full``
    adds the workload's own checks, which compare outputs across commands.
    """
    failures = {}
    for inv, row in zip(invs, rows):
        out = outdirs[inv.label]
        bad = []
        if row["timed_out"]:
            bad.append(f"timed out after {TIMEOUT_S} s")
        elif row["rc"] != 0:
            bad.append(f"exit code {row['rc']}")
        else:
            bad += _guarded(lambda: check_tables(out, facts["n"]))
            if inv.trace_rows is not None:
                bad += _guarded(lambda: check_trace(out, inv.trace_rows))
            got = digests(out)
            if got != reference.setdefault(inv.label, got):
                bad.append("outputs differ from the first repetition")
        if bad:
            failures[inv.label] = bad
    if full and not failures:
        last = invs[-1].label
        for label, msg in _guarded(lambda: wl.check(outdirs, facts), label=last):
            failures.setdefault(label, []).append(msg)
    return failures


def _guarded(fn, label=None):
    """A check that crashes on a corrupted file is a failed check."""
    try:
        return fn()
    except (OSError, ValueError, IndexError, KeyError) as exc:
        msg = f"check could not read the outputs: {exc!r}"
        return [msg] if label is None else [(label, msg)]


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def context():
    probe = subprocess.run([sys.executable, "-c", VERSION_PROBE], env=ENV,
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=TIMEOUT_S, check=True)
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg(), "git_sha": sha,
            "blas_threads": {k: ENV[k] for k in BLAS_PINS},
            **json.loads(probe.stdout)}


def run_workload(wl, seed, seconds, trace):
    machine = context()
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    graph_seed = wl.default_seed if seed is None else seed
    cli_seed = 0 if seed is None else seed
    path, facts = wl.make_inputs(graph_seed, work)
    record = {"workload": wl.name, "why": wl.why, "seed": seed,
              "graph_seed": graph_seed, "cli_seed": cli_seed, "input": facts,
              "context": machine, "seconds": seconds, "trace": trace}

    # The two kinds of pass alternate over the whole window, so that slow
    # drift in the machine's speed reaches both medians alike.
    kinds = ("full", "traced") if trace else ("setup", "full")
    commands = {"setup": wl.commands(path, cli_seed, False),
                "full": wl.commands(path, cli_seed, True)}
    commands["traced"] = commands["full"]
    refs = {"setup": {}, "full": {}}
    refs["traced"] = refs["full"]  # tracing must not change a single byte
    by_kind = {k: [] for k in kinds}
    passes = []
    deadline = time.perf_counter() + seconds
    while (min(len(v) for v in by_kind.values()) < MIN_PASSES
           or time.perf_counter() < deadline):
        kind = kinds[len(passes) % 2]
        p = run_sequence(wl, commands[kind], work / f"{len(passes)}-{kind}", facts,
                         refs[kind], traced=kind == "traced", full=kind != "setup")
        by_kind[kind].append(p)
        passes.append(p)
    plain = by_kind["full"]

    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    summary = {
        "wall_s": spread([p["wall_s"] for p in plain]),
        "cpu_s": spread([p["cpu_s"] for p in plain]),
        "peak_rss_mib": max(p["rss_mib"] for p in plain),
    }
    if trace:
        traced = by_kind["traced"]
        overhead = median(p["wall_s"] for p in traced) - summary["wall_s"]["median"]
        layer = run_metrics([rep_metrics(p["traces"], p["bytes_written"]) for p in traced],
                            overhead)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        record["spans_last_traced_pass"] = [tr["spans"] for tr in traced[-1]["traces"]]
        record["calls_last_traced_pass"] = call_summary(traced[-1]["traces"])
        record["moves"] = {name: moves for name, _, moves in PER_LAYER}
    else:
        summary["setup_s"] = spread([p["wall_s"] for p in by_kind["setup"]])
        metrics = {
            "wall_s": {"value": summary["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
            "cpu_s": {"value": summary["cpu_s"]["median"], "unit": "s"},
            "peak_rss_mib": {"value": summary["peak_rss_mib"], "unit": "MiB"},
        }
    record.update({
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "summary": summary, "metrics": metrics,
        "failures": [f"{p_i}:{label}: {msg}" for p_i, p in enumerate(passes)
                     for label, msgs in p["failures"].items() for msg in msgs],
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "rss_mib": p["rss_mib"],
                    "invocations": p["rows"]} for p in passes],
    })
    (work / "result.json").write_text(json.dumps(record, indent=1))
    return record


def report(rec):
    print(f"== {rec['workload']}: {rec['why']}")
    inp = rec["input"]
    print(f"   input {inp['file']} n={inp['n']} edges={inp['edges']} "
          f"sha256={inp['sha256'][:16]}  graph seed {rec['graph_seed']}")
    for name, s in rec["summary"].items():
        if isinstance(s, dict):
            print(f"   {name:<14} {s['median']:.4f} s  "
                  f"(median of {s['n']}; quartiles {s['q1']:.4f} .. {s['q3']:.4f})")
        else:
            print(f"   {name:<14} {s:.1f} MiB")
    print(f"   failed_share   {rec['failed_share']:.4f}  "
          f"({rec['failed']} of {rec['attempted']} invocations)")
    for line in rec["failures"][:20]:
        print(f"   FAILED {line}")
    if rec["trace"]:
        for name, unit, moves in PER_LAYER:
            print(f"   {name:<32} {rec['metrics'][name]['value']:>14.6g} {unit:<6} "
                  f"-> {moves}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "centrasim" / "cli.py").is_file():
        print(f"error: no centrasim sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace)
               for n in names]
    for rec in records:
        report(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
