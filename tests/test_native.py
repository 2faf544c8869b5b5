"""The loader of the compiled loops: its per-user cache, its fallback to
the Python loops, its checks of every array it hands over, and a build free
of compiler warnings."""
import copy
import os
import pickle
import shutil
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import centrasim
from centrasim import _native, engine
from centrasim.engine import KaczmarzState
from centrasim.graph import DirectedGraph, parse_edge_list, \
    parse_temporal_edge_list, symmetrize
from centrasim.matrix import PersistentAverage, build_hyperlink_matrix
from centrasim.oracles import build_regression_rows, rows_from_graph
from centrasim.surfer import SurferChain, _metropolis_hastings, \
    build_transition_matrix_temporal

from conftest import FIG1_TEXT, dense50_graph, needs_cc, random_digraph, \
    serialize_edge_list
from test_acceptance import _spam_graphs, weblike_graph

SRC = Path(centrasim.__file__).resolve().parents[1]


def test_cache_dir_follows_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.cache_dir() == tmp_path / "centrasim"
    # a relative XDG_CACHE_HOME is not a valid one; ~/.cache serves instead
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert _native.cache_dir() == tmp_path / "home" / ".cache" / "centrasim"


@pytest.fixture
def compiles(monkeypatch):
    """Every compiler run the loader starts, in order."""
    calls, run = [], subprocess.run

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    return calls


@needs_cc
def test_cold_cache_compiles_once_warm_cache_never(tmp_path, monkeypatch,
                                                   compiles):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = _native.cache_dir()
    assert _native.build(cache) is not None
    assert len(compiles) == 1
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
    # the temporary file was renamed into place: one library, nothing else
    (lib,) = cache.iterdir()
    assert lib.name.startswith("libcentrasim-") and lib.suffix == ".so"
    assert _native.build(cache) is not None
    assert len(compiles) == 1


@needs_cc
def test_truncated_library_is_rebuilt(tmp_path, compiles):
    assert _native.build(tmp_path / "a") is not None
    (good,) = (tmp_path / "a").iterdir()
    # the same file name in a directory this process never loaded from
    # (the dynamic loader would hand back the library already mapped)
    (tmp_path / "b").mkdir(mode=0o700)
    bad = tmp_path / "b" / good.name
    bad.write_bytes(good.read_bytes()[:good.stat().st_size // 2])
    lib = _native.build(tmp_path / "b")
    assert len(compiles) == 2
    (rebuilt,) = (tmp_path / "b").iterdir()
    assert _native._intact(rebuilt)
    g = parse_edge_list(FIG1_TEXT)
    assert _native.brandes(lib, g).tolist() == [0.5, 4.5, 8.5, 9.5, 0.0, 4.0]


@needs_cc
def test_shared_cache_directory_is_never_loaded_from(tmp_path, compiles):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    assert _native.build(shared) is None
    assert compiles == []


def test_no_compiler_means_no_library(tmp_path, monkeypatch, compiles):
    monkeypatch.setenv("PATH", str(tmp_path))
    assert _native.compiler() is None
    assert _native.build(tmp_path / "cache") is None
    assert compiles == []


def test_failing_compiler_leaves_no_library(tmp_path, monkeypatch):
    (tmp_path / "bin").mkdir()
    cc = tmp_path / "bin" / "cc"
    cc.write_text("#!/bin/sh\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert _native.build(tmp_path / "cache") is None
    assert list((tmp_path / "cache").iterdir()) == []


# fig1 plus a node that no other node reaches: not strongly connected, so
# oracle writes harmonic closeness, and not a tree, so centrality runs Brandes
UNREACHED_TEXT = FIG1_TEXT + "7 1\n"


@needs_cc
@pytest.mark.parametrize("command", ["centrality", "oracle"])
def test_no_compiler_gives_the_same_tables(tmp_path, command):
    (tmp_path / "g.txt").write_text(UNREACHED_TEXT)
    tables = []
    for name, path in (("native", os.environ["PATH"]), ("python", str(tmp_path))):
        env = dict(os.environ, PYTHONPATH=str(SRC), PATH=path,
                   XDG_CACHE_HOME=str(tmp_path / f"cache-{name}"))
        proc = subprocess.run(
            [sys.executable, "-m", "centrasim.cli", command, "g.txt",
             "--output-dir", name], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        out = tmp_path / name
        tables.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    # the native run built its library; the run without a compiler did not
    assert list((tmp_path / "cache-native" / "centrasim").glob("*.so"))
    assert not (tmp_path / "cache-python").exists()
    assert tables[0] == tables[1]


@needs_cc
def test_source_builds_without_warnings(tmp_path):
    proc = subprocess.run(
        [_native.compiler(), "-O2", "-Wall", "-Wextra", "-Werror",
         "-ffp-contract=off", "-shared", "-fPIC", "-x", "c", "-",
         "-o", str(tmp_path / "lib.so")],
        input=_native.SOURCE, text=True, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _step_on_an_empty_row():
    steps, rows = _fig1_steps()
    indptr = rows.indptr.copy()
    indptr[1] = 0  # node 0's row is empty, its entries are node 1's
    steps(replace(rows, indptr=indptr), 10)


@pytest.mark.parametrize("bad", [
    (TypeError, lambda: _native._buf(np.zeros(4, dtype=np.int32), np.int64, 4)),
    (TypeError, lambda: _native._buf(np.zeros(8, dtype=np.int64)[::2],
                                     np.int64, 4)),
    (TypeError, lambda: _native._buf(np.zeros(5, dtype=np.int64), np.int64, 4)),
    # the steps read a row's first entry before its loop
    (ValueError, _step_on_an_empty_row)])
def test_buffers_are_checked_before_the_call(bad):
    error, call = bad
    assert _native._buf(np.zeros(4, dtype=np.int64), np.int64, 4)
    with pytest.raises(error):
        call()


def _patch_csr(monkeypatch, name, change):
    """Every graph's CSR array `name` passed through change."""
    real = getattr(DirectedGraph, name)
    monkeypatch.setattr(DirectedGraph, name,
                        property(lambda g: change(real.fget(g))))


@needs_cc
def test_wrong_csr_dtype_never_reaches_the_library(monkeypatch):
    lib = _native.load()
    g = parse_edge_list(FIG1_TEXT)
    for name in ("out_ptr", "out_idx"):
        _patch_csr(monkeypatch, name, lambda a: a.astype(np.int32))
    with pytest.raises(TypeError):
        _native.brandes(lib, g)
    with pytest.raises(TypeError):
        _native.bfs_all_pairs(lib, g)


@needs_cc
def test_column_outside_the_graph_never_reaches_the_library(monkeypatch):
    lib = _native.load()
    g = parse_edge_list(FIG1_TEXT)
    _patch_csr(monkeypatch, "out_idx", lambda a: a + g.n)
    with pytest.raises(ValueError):
        _native.brandes(lib, g)
    with pytest.raises(ValueError):
        _native.bfs_all_pairs(lib, g)


@needs_cc
def test_predecessor_slots_short_of_an_in_degree_never_reach_the_library(
        monkeypatch):
    lib = _native.load()
    g = parse_edge_list(FIG1_TEXT)
    # node 1 (index 0) has in-degree 1: its slot goes to node 2
    _patch_csr(monkeypatch, "in_ptr", lambda a: np.concatenate(([0, 0], a[2:])))
    with pytest.raises(ValueError):
        _native.brandes(lib, g)


class _Untouchable:
    """A library whose steps loop fails the test if anything calls it."""

    def centrasim_steps(self, *args):
        raise AssertionError("checked input reached the library")

    centrasim_steps.argtypes = _native._SIGNATURES["centrasim_steps"][1]


def _fig1_steps(kernel=None):
    """Steps on fig1 over an untouchable library, and fig1's rows."""
    g = parse_edge_list(FIG1_TEXT)
    rows = rows_from_graph(g, 0.15, n_known=False)
    chain = SurferChain(matrix=kernel or _metropolis_hastings(symmetrize(g)),
                        omega=0.15, seed=0)
    state = KaczmarzState.fresh(g.n, "unknown-n")
    return _native.Steps(_Untouchable(), state, chain), rows


def test_rows_column_outside_the_graph_never_reaches_the_library():
    steps, rows = _fig1_steps()
    with pytest.raises(ValueError, match="column"):
        steps(replace(rows, indices=rows.indices + rows.n), 10)


def test_kernel_target_outside_the_graph_never_reaches_the_library():
    kernel = _metropolis_hastings(symmetrize(parse_edge_list(FIG1_TEXT)))
    steps, rows = _fig1_steps(kernel=replace(kernel, targets=kernel.targets + 1))
    with pytest.raises(ValueError, match="column"):
        steps(rows, 10)


def test_rows_of_another_size_never_reach_the_library():
    steps, _ = _fig1_steps()
    with pytest.raises(ValueError, match="nodes"):
        steps(rows_from_graph(dense50_graph(), 0.15, n_known=False), 10)


def test_kernel_row_not_summing_to_one_never_reaches_the_library():
    kernel = _metropolis_hastings(symmetrize(parse_edge_list(FIG1_TEXT)))
    cum = kernel.cum.copy()
    cum[kernel.indptr[1] - 1] = 0.5  # node 0's row now ends short of 1.0
    steps, rows = _fig1_steps(kernel=replace(kernel, cum=cum))
    with pytest.raises(ValueError, match="1.0"):
        steps(rows, 10)


def _temporal_rows():
    """The rows the temporal engine enters for fig1, its reverse and fig1
    again; the stepping is stubbed out, so the library is never called."""
    g = parse_edge_list(FIG1_TEXT)
    reverse = DirectedGraph.from_edges(g.n, [(b, a) for a, b in g.edges])
    mats = [build_hyperlink_matrix(h) for h in (g, reverse, g)]
    kernel = _metropolis_hastings(symmetrize(g))
    entered = []

    def stub_steps(state, chain, step, on_block=None):
        def steps(rows, count):
            entered.append(rows)
            state.k += count
            return chain.current
        return steps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_engine_steps", stub_steps)
        engine.run_temporal(mats, [kernel] * 3,
                            SurferChain(matrix=kernel, omega=0.15, seed=0),
                            PersistentAverage(rho=0.9), 0.15, 30, 10,
                            trace_stride=31)  # no trace row: nothing stepped
    return entered


def test_reused_temporal_layout_is_frozen():
    first, second, third = _temporal_rows()
    # the reverse adds links; fig1's second entry keeps the pattern
    assert second.indices is not first.indices
    assert third.indices is second.indices and third.indptr is second.indptr
    assert third.data is not second.data
    for a in (third.indptr, third.indices):
        with pytest.raises(ValueError):
            a[0] = 0
        with pytest.raises(ValueError):
            a.flags.writeable = True


def test_new_layout_after_a_held_one_never_reaches_the_library():
    held = _temporal_rows()[-1]
    steps, _ = _fig1_steps()
    steps(held, 0)  # binds the held layout without a library call
    # a new indices array on the held indptr, frozen like the held one,
    # is checked in full
    indices = np.frombuffer((held.indices + held.n).tobytes(), np.int64)
    with pytest.raises(ValueError, match="column"):
        steps(replace(held, indices=indices), 10)
    # on the held layout, the data is still checked
    with pytest.raises(TypeError):
        steps(replace(held, data=held.data[:-1].copy()), 10)


def _fig1_rows():
    return rows_from_graph(parse_edge_list(FIG1_TEXT), 0.15)


def _fig1_kernel():
    return _metropolis_hastings(symmetrize(parse_edge_list(FIG1_TEXT)))


ROWS = ("indptr", "indices"), "data"
KERNEL = ("indptr", "targets", "cum"), "prob"


@pytest.mark.parametrize("make, fields", [
    (lambda: build_regression_rows(
        build_hyperlink_matrix(parse_edge_list(FIG1_TEXT)), 0.15), ROWS),
    (_fig1_rows, ROWS),
    (lambda: _temporal_rows()[-1], ROWS),  # on a layout lent by like
    (lambda: replace(r := _fig1_rows(), indices=r.indices.copy()), ROWS),
    (_fig1_kernel, KERNEL),
    (lambda: build_transition_matrix_temporal(
        [parse_edge_list(FIG1_TEXT)], 0.15)[0], KERNEL),
    (lambda: replace(k := _fig1_kernel(), targets=k.targets.copy()), KERNEL),
], ids=["build_regression_rows", "rows_from_graph", "temporal like",
        "replaced rows", "kernel", "temporal kernel", "replaced kernel"])
def test_index_arrays_are_frozen_by_their_type(make, fields):
    obj, (index_names, values_name) = make(), fields
    for name in index_names:
        a = getattr(obj, name)
        with pytest.raises(ValueError):
            a[0] = a[0]
        with pytest.raises(ValueError):
            a.flags.writeable = True
    values = getattr(obj, values_name)
    values[0] = values[0]  # values stay writable


def test_write_into_bound_rows_never_reaches_the_library():
    steps, rows = _fig1_steps()
    steps(rows, 0)  # binds the rows without a library call
    with pytest.raises(ValueError, match="read-only"):
        rows.indices[-1] = rows.n
        steps(rows, 10)


def test_write_into_bound_kernel_never_reaches_the_library():
    kernel = _fig1_kernel()
    steps, rows = _fig1_steps(kernel=kernel)
    steps(rows, 0)
    with pytest.raises(ValueError, match="read-only"):
        kernel.targets[0] = 10**9
        steps(rows, 10)


@pytest.mark.parametrize("copy_of", [
    copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"])
def test_copied_rows_never_reach_the_library(copy_of):
    steps, rows = _fig1_steps()
    rows = copy_of(rows)  # rebuilt without __post_init__: writable
    with pytest.raises(ValueError, match="not frozen"):
        steps(rows, 0)
        rows.indices[-1] = rows.n
        steps(rows, 10)


@pytest.mark.parametrize("copy_of", [
    copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"])
def test_copied_kernel_never_reaches_the_library(copy_of):
    kernel = copy_of(_fig1_kernel())
    steps, rows = _fig1_steps(kernel=kernel)
    with pytest.raises(ValueError, match="not frozen"):
        steps(rows, 0)
        kernel.targets[0] = 10**9
        steps(rows, 10)


def _spam_text():
    """Criterion 9's 500 spam snapshots as `time src dst` lines."""
    base, spam, _ = _spam_graphs()
    return "".join(f"{t} {u} {v}\n" for t, g in enumerate([spam] * 10 + [base] * 490)
                   for u, v in sorted(g.edges))


@needs_cc
@pytest.mark.parametrize("width, text", [
    (2, lambda: serialize_edge_list(weblike_graph(np.random.default_rng(101), 4000))),
    (3, _spam_text)], ids=["web4000", "spam"])
def test_benchmark_inputs_take_the_compiled_parse(width, text, monkeypatch):
    # a silent fall back to the per-line parser would cost no output byte
    text = text()
    labels, ids, times = _native.parse(_native.load(), text, width)
    assert ids.shape[1] == 2 and times.size == (ids.shape[0] if width == 3 else 0)
    parse = parse_edge_list if width == 2 else parse_temporal_edge_list
    compiled = parse(text)
    monkeypatch.setattr(_native, "load", lambda: None)
    twin = parse(text)
    if width == 2:
        compiled, twin = [(0, compiled)], [(0, twin)]
    else:
        compiled, twin = compiled.snapshots, twin.snapshots
    assert compiled[0][1].labels == twin[0][1].labels == labels
    assert [(t, g.keys.tolist()) for t, g in compiled] == \
        [(t, g.keys.tolist()) for t, g in twin]


# the child loads the sanitized library and checks every loop on every
# graph against the Python loops: Brandes and BFS, then engine runs in both
# modes, with and without restarts, on block lengths that end inside and
# at the edge of the chain's uniform blocks, and node-actor runs, whose
# steps write a trail of each uniform block's nodes; then the parse, on
# texts that end at a buffer's edge, hold 1 MB tokens or NUL bytes, or
# grow the label table through several rehashes, against the per-line
# parser
ASAN_CHILD = r"""
import ctypes
import pickle
import sys

import numpy as np

from centrasim import _native, engine, simulator
from centrasim.errors import GraphFormatError
from centrasim.graph import DirectedGraph, parse_edge_list, \
    parse_temporal_edge_list, repair_dangling, symmetrize
from centrasim.matrix import PersistentAverage, build_hyperlink_matrix
from centrasim.oracles import _loop_all_pairs, _loop_betweenness, rows_from_graph
from centrasim.surfer import SurferChain, _metropolis_hastings

lib = _native._open(sys.argv[1])
with open(sys.argv[2], "rb") as fh:
    graphs = pickle.load(fh)


def outcome(out, chain):
    return (out.state.x.tobytes(), out.state.visits.tobytes(), out.trace_rows,
            chain.current, chain._rng.bit_generator.state)


def run(g, mode, omega, stride, library):
    _native.load = lambda: library
    chain = SurferChain(matrix=_metropolis_hastings(symmetrize(g)),
                        omega=omega, seed=g.n)
    out = engine.run(rows_from_graph(g, 0.15, n_known=mode == "known-n"),
                     chain, mode, 700, trace_stride=stride)
    return outcome(out, chain)


def run_dist(g, library):
    # a trace row every 300 steps: blocks that fill a whole trail, and
    # blocks that end inside one
    _native.load = lambda: library
    chain = SurferChain(matrix=_metropolis_hastings(symmetrize(g)),
                        omega=0.15, seed=g.n)
    sim = simulator.run_simulation(g, 0.15, chain, 700, trace_stride=300)
    events = sim.audit.events
    return (sim.actors.values.tobytes(), sim.actors.visits.tobytes(),
            sim.trace_rows, sim.k, sim.size_estimates, events.typecode,
            events.tobytes(), chain.current, chain._rng.bit_generator.state)


def run_temporal(g, library):
    # g, its reverse, g and a subgraph of g, repaired, three times over, on
    # one kernel: only the rows change, every 50 steps, inside and at the
    # edge of the chain's blocks of 256 steps; most entries keep the
    # average's pattern, so the steps swap only the rows' data
    _native.load = lambda: library
    reverse = DirectedGraph.from_edges(g.n, [(b, a) for a, b in g.edges])
    sub = DirectedGraph(n=g.n, keys=g.keys[::2], labels=g.labels)
    snaps = [repair_dangling(h, "uniform-column")
             for h in (g, reverse, g, sub)] * 3
    kernel = _metropolis_hastings(symmetrize(g))
    chain = SurferChain(matrix=kernel, omega=0.15, seed=g.n)
    out = engine.run_temporal([build_hyperlink_matrix(h) for h in snaps],
                              [kernel] * 12, chain, PersistentAverage(rho=0.9),
                              0.15, 700, 50, trace_stride=97)
    return outcome(out, chain)


# a single node has no repair, so no temporal case
cases = [(run, "known-n", 0.0, 256), (run, "unknown-n", 0.15, 97),
         (run_dist,), (run_temporal,)]
runs = 0
for name, g in graphs:
    assert np.array_equal(_native.brandes(lib, g), _loop_betweenness(g)), name
    assert np.array_equal(_native.bfs_all_pairs(lib, g), _loop_all_pairs(g)), name
    for fn, *args in cases[:4 if g.n > 1 else 3]:
        assert fn(g, *args, lib) == fn(g, *args, None), \
            (name, fn.__name__, *args)
        runs += 1

libc = ctypes.CDLL(None)  # its malloc is the sanitizer's
libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, (ctypes.c_size_t,)
libc.free.argtypes = (ctypes.c_void_p,)


# the library, its parse handed the text in a buffer of exactly the
# text's length, so that a read past its end is reported
class Exact:
    def centrasim_parse(self, data, length, *rest):
        buf = libc.malloc(length)
        ctypes.memmove(buf, data, length)
        try:
            return lib.centrasim_parse(buf, length, *rest)
        finally:
            libc.free(buf)

    centrasim_parse.argtypes = lib.centrasim_parse.argtypes


def parsed(text, width, library):
    _native.load = lambda: library
    try:
        if width == 2:
            g = parse_edge_list(text)
            return g.labels, g.keys.tobytes()
        seq = parse_temporal_edge_list(text)
    except GraphFormatError as exc:
        return str(exc)
    graphs = [g for _, g in seq.snapshots]
    return [(t, g.labels, g.keys.tobytes(), graphs.index(g))
            for t, g in seq.snapshots]


# 3000 labels: the table starts at 1024 slots and doubles at half load
ring = [f"n{i}" for i in range(3000)]
big = "x" * 2**20
texts = [(2, "", False), (3, "", False),
         (2, "a b\nb c", True), (3, "0 a b\n1 b c", True),  # ends in a token
         (2, "a b\nb c\n", True), (2, "a b\n\n \t\n", True),
         (2, f"{big} y\ny {big}z\n{big}z {big}", True),
         (2, "a b\n\x00 c\n", False), (2, "a b\x00", False), (3, "0\x00 a b", False),
         (2, "".join(f"{a} {b}\n" for a, b in zip(ring, ring[1:])), True),
         (3, "".join(f"{i // 100} {a} {b}\n" for i, (a, b) in
                     enumerate(zip(ring, ring[::-1])) if a != b), True)]
for width, text, plain in texts:
    assert (_native.parse(Exact(), text, width) is not None) == plain, text[:20]
    assert parsed(text, width, Exact()) == parsed(text, width, None), text[:20]
print(len(graphs), runs, len(texts))
"""


def _sanitizer_graphs():
    rng = np.random.default_rng(83)
    graphs = [("fig1", parse_edge_list(FIG1_TEXT)),
              ("dense50", dense50_graph()),
              ("web400", weblike_graph(np.random.default_rng(101), 400)),
              ("one node", DirectedGraph.from_edges(1, ())),
              ("2-cycle", parse_edge_list("a b\nb a")),
              ("unreached", parse_edge_list(UNREACHED_TEXT))]
    # strongly connected ones too: only a source that reaches every node
    # fills the queue
    for k in range(50):
        n = int(rng.integers(2, 60))
        g = random_digraph(rng, n, p=[0.03, 0.1, 0.3][k % 3], repaired=k % 2 == 0)
        graphs.append((f"random{k}", g))
    return graphs


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_loops_run_clean_under_address_and_undefined_sanitizers(tmp_path):
    gcc = shutil.which("gcc")
    runtime = subprocess.run([gcc, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("gcc has no AddressSanitizer runtime")
    lib = tmp_path / "libasan-centrasim.so"
    proc = subprocess.run(
        [gcc, "-O1", "-g", "-fsanitize=address,undefined",
         "-fno-omit-frame-pointer", "-ffp-contract=off", "-shared", "-fPIC",
         "-x", "c", "-", "-o", str(lib)],
        input=_native.SOURCE, text=True, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    graphs = _sanitizer_graphs()
    (tmp_path / "graphs.pkl").write_bytes(pickle.dumps(graphs))
    env = dict(os.environ, PYTHONPATH=str(SRC), LD_PRELOAD=runtime,
               ASAN_OPTIONS="detect_leaks=0")
    proc = subprocess.run(
        [sys.executable, "-c", ASAN_CHILD, str(lib), str(tmp_path / "graphs.pkl")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Sanitizer" not in proc.stderr and "runtime error" not in proc.stderr, \
        proc.stderr
    runs = sum(4 if g.n > 1 else 3 for _, g in graphs)
    assert proc.stdout.split() == [str(len(graphs)), str(runs), "12"]
