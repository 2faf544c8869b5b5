"""Compiled Brandes and BFS loops, built on first use into a per-user cache.

One C source, embedded below, holds the two oracle loops. ``load()``
compiles it once with the system C compiler (``cc``, else ``gcc``) at
``-O2 -ffp-contract=off``, so no multiply-add is fused and every float
operation is the one written. The library is cached under
``$XDG_CACHE_HOME/centrasim`` (else ``~/.cache/centrasim``), a directory
made with mode 0700. The file's name holds the sha256 of the source, the
compiler and the flags, then the library's own sha256, which is checked
before each load, so a truncated or altered file is rebuilt rather than
loaded. It is compiled to a temporary name and then renamed into place,
so concurrent processes never see half a library. A directory or library
that is not the user's own, or that others can write, is never loaded.

``load()`` returns None when there is no compiler, the cache cannot be
written or the library does not load; the oracles then run the same
per-source queue loops in Python, which give the same bits at 14 to 18
times the time (web4000: Brandes 20 s against 1.1 s, BFS 8 s against
0.5 s). ``brandes`` and ``bfs_all_pairs`` take a loaded library and the
graph.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import stat
from pathlib import Path

import numpy as np

SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Betweenness over ordered pairs, one FIFO queue loop per source s = 0..n-1.
   The forward pass adds sigma in queue order along sorted out-rows and
   lists each node's shortest-path predecessors in the node's in-row slots
   (in_ptr). The reverse pass visits the queue backwards and adds each
   node's share to its predecessors, so a predecessor sums its successors
   in descending queue position. bc adds each source's dependencies in
   turn. Returns -1 if memory runs out. */
int centrasim_brandes(int64_t n, const int64_t *out_ptr, const int64_t *out_idx,
                      const int64_t *in_ptr, double *bc)
{
    int64_t *dist = malloc((size_t)n * sizeof *dist);
    int64_t *queue = malloc((size_t)n * sizeof *queue);
    int64_t *npred = malloc((size_t)n * sizeof *npred);
    int64_t *pred = malloc((size_t)(in_ptr[n] + 1) * sizeof *pred);
    double *sigma = malloc((size_t)n * sizeof *sigma);
    double *delta = malloc((size_t)n * sizeof *delta);
    int rc = -1;
    if (!dist || !queue || !npred || !pred || !sigma || !delta)
        goto done;
    for (int64_t v = 0; v < n; v++) {
        dist[v] = -1;
        npred[v] = 0;
        delta[v] = 0.0;
    }
    for (int64_t s = 0; s < n; s++) {
        int64_t head = 0, tail = 0;
        queue[tail++] = s;
        dist[s] = 0;
        sigma[s] = 1.0;
        while (head < tail) {
            int64_t v = queue[head++];
            for (int64_t e = out_ptr[v]; e < out_ptr[v + 1]; e++) {
                int64_t w = out_idx[e];
                if (dist[w] < 0) {
                    dist[w] = dist[v] + 1;
                    sigma[w] = 0.0;
                    queue[tail++] = w;
                }
                if (dist[w] == dist[v] + 1) {
                    sigma[w] += sigma[v];
                    pred[in_ptr[w] + npred[w]++] = v;
                }
            }
        }
        /* queue[0] is s, which has no predecessors and no share */
        for (int64_t i = tail - 1; i > 0; i--) {
            int64_t w = queue[i];
            double share = 1.0 + delta[w];
            for (int64_t e = in_ptr[w]; e < in_ptr[w] + npred[w]; e++) {
                int64_t v = pred[e];
                delta[v] += (sigma[v] / sigma[w]) * share;
            }
            bc[w] += delta[w];
        }
        for (int64_t i = 0; i < tail; i++) {
            dist[queue[i]] = -1;
            npred[queue[i]] = 0;
            delta[queue[i]] = 0.0;
        }
    }
    rc = 0;
done:
    free(dist);
    free(queue);
    free(npred);
    free(pred);
    free(sigma);
    free(delta);
    return rc;
}

/* Hop distances from every source into the n x n row-major d: row s holds
   the hop count to each node, INFINITY where it is unreachable. The row
   itself marks the visited nodes. Returns -1 if memory runs out. */
int centrasim_bfs(int64_t n, const int64_t *out_ptr, const int64_t *out_idx,
                  double *d)
{
    int64_t *queue = malloc((size_t)n * sizeof *queue);
    if (!queue)
        return -1;
    for (int64_t s = 0; s < n; s++) {
        double *row = d + s * n;
        for (int64_t v = 0; v < n; v++)
            row[v] = INFINITY;
        int64_t head = 0, tail = 0;
        queue[tail++] = s;
        row[s] = 0.0;
        while (head < tail) {
            int64_t v = queue[head++];
            for (int64_t e = out_ptr[v]; e < out_ptr[v + 1]; e++) {
                int64_t w = out_idx[e];
                if (isinf(row[w])) {
                    row[w] = row[v] + 1.0;
                    queue[tail++] = w;
                }
            }
        }
    }
    free(queue);
    return 0;
}
"""

FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_P = ctypes.c_void_p
_SIGNATURES = {
    "centrasim_brandes": (ctypes.c_int64, _P, _P, _P, _P),
    "centrasim_bfs": (ctypes.c_int64, _P, _P, _P),
}


def compiler():
    """Path of the system C compiler, or None."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dir():
    """$XDG_CACHE_HOME/centrasim if that is an absolute path, else
    ~/.cache/centrasim."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "centrasim"


def _private(path, kind):
    """True if path (not followed if a link) is a `kind` owned by this user
    that neither group nor others can write."""
    st = os.lstat(path)
    return (kind(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _intact(path):
    """True if path is a private file whose sha256 begins with the digest
    in its name: the dynamic loader faults on a truncated library."""
    digest = path.stem.rsplit("-", 1)[-1]
    return (_private(path, stat.S_ISREG)
            and hashlib.sha256(path.read_bytes()).hexdigest()[:32] == digest)


def _compile(cc, directory, key):
    """Compile SOURCE into directory through a temporary file, then rename
    it to its name: the key and the library's own digest. OSError if the
    compiler fails."""
    import subprocess  # here, so that a warm cache never loads them
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        try:
            subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp],
                           input=SOURCE, text=True, capture_output=True,
                           check=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"{cc} failed: {exc}") from exc
        digest = hashlib.sha256(Path(tmp).read_bytes()).hexdigest()[:32]
        target = directory / f"libcentrasim-{key}-{digest}.so"
        os.replace(tmp, target)
        return target
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path):
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return lib


def build(directory):
    """The library cached in directory, compiled there first if no intact
    copy is found; None if that cannot be done."""
    cc = compiler()
    if cc is None or not os.path.isabs(directory):
        return None
    directory = Path(directory)
    key = hashlib.sha256("\0".join((SOURCE, cc, *FLAGS)).encode()).hexdigest()[:32]
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(directory, stat.S_ISDIR):
            return None
        for path in directory.glob(f"libcentrasim-{key}-*.so"):
            if _intact(path):
                return _open(path)
            path.unlink()  # truncated or altered: never handed to the loader
        return _open(_compile(cc, directory, key))
    except (OSError, AttributeError):
        return None


@functools.cache
def load():
    """The compiled library from the per-user cache, or None."""
    return build(cache_dir())


def _buf(a, dtype, size):
    """Address of a's data, once a is a C-contiguous `dtype` array of
    `size` items: a wrong buffer would corrupt memory silently."""
    if a.dtype != dtype or not a.flags.c_contiguous or a.size != size:
        raise TypeError(f"expected {size} C-contiguous {np.dtype(dtype)}, "
                        f"got {a.size} {a.dtype} (contiguous: "
                        f"{a.flags.c_contiguous})")
    return a.ctypes.data


def _csr_bufs(n, indptr, indices):
    """Addresses of a CSR's arrays, once its columns lie in [0, n)."""
    bufs = (_buf(indptr, np.int64, n + 1),
            _buf(indices, np.int64, int(indptr[-1])))
    if indices.size and not (0 <= indices.min() and indices.max() < n):
        raise ValueError(f"CSR column outside [0, {n})")
    return bufs


def brandes(lib, g):
    """Raw betweenness over ordered pairs of g, computed by the library."""
    n = g.n
    out_bufs = _csr_bufs(n, g.out_ptr, g.out_idx)
    if not np.array_equal(np.diff(g.in_ptr), np.bincount(g.out_idx, minlength=n)):
        raise ValueError("in-CSR rows do not hold each node's in-degree")
    bc = np.zeros(n)
    # the in-CSR's row offsets are each node's predecessor slots
    rc = lib.centrasim_brandes(n, *out_bufs, _buf(g.in_ptr, np.int64, n + 1),
                               _buf(bc, np.float64, n))
    if rc:
        raise MemoryError("Brandes loop could not allocate its arrays")
    return bc


def bfs_all_pairs(lib, g):
    """Hop distances of g, inf where unreachable, computed by the library."""
    n = g.n
    d = np.empty((n, n))
    rc = lib.centrasim_bfs(n, *_csr_bufs(n, g.out_ptr, g.out_idx),
                           _buf(d, np.float64, n * n))
    if rc:
        raise MemoryError("BFS loop could not allocate its queue")
    return d
