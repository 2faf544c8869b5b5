"""The loader of the compiled oracle loops: its per-user cache, its fallback
to the Python queue loops, and a build free of compiler warnings."""
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import centrasim
from centrasim import _native
from centrasim.graph import parse_edge_list

from conftest import FIG1_TEXT, needs_cc

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


@pytest.mark.parametrize("bad", [np.zeros(4, dtype=np.int32),
                                 np.zeros(8, dtype=np.int64)[::2],
                                 np.zeros(5, dtype=np.int64)])
def test_buffers_are_checked_before_the_call(bad):
    assert _native._buf(np.zeros(4, dtype=np.int64), np.int64, 4)
    with pytest.raises(TypeError):
        _native._buf(bad, np.int64, 4)


@needs_cc
def test_wrong_csr_dtype_never_reaches_the_library(monkeypatch):
    lib = _native.load()
    g = parse_edge_list(FIG1_TEXT)

    def int32_csr(adj):
        indptr = np.cumsum([0, *map(len, adj)]).astype(np.int32)
        return indptr, np.array([w for a in adj for w in a], dtype=np.int32)

    monkeypatch.setattr(_native, "adjacency_csr", int32_csr)
    with pytest.raises(TypeError):
        _native.brandes(lib, g)
    with pytest.raises(TypeError):
        _native.bfs_all_pairs(lib, g)


@needs_cc
def test_column_outside_the_graph_never_reaches_the_library(monkeypatch):
    lib = _native.load()
    g = parse_edge_list(FIG1_TEXT)
    real = _native.adjacency_csr
    monkeypatch.setattr(_native, "adjacency_csr",
                        lambda adj: (real(adj)[0], real(adj)[1] + g.n))
    with pytest.raises(ValueError):
        _native.brandes(lib, g)
    with pytest.raises(ValueError):
        _native.bfs_all_pairs(lib, g)
