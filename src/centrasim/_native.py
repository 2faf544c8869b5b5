"""Compiled Brandes, BFS and engine-step loops, built on first use into a
per-user cache.

One C source, embedded below, holds the three loops. ``load()`` compiles
it once with the system C compiler (``cc``, else ``gcc``) at
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

``Steps`` runs the engine's blocks of steps in the library, and the
node-actor simulator's, which also have it write each step's node to a
trail of at most one uniform block (``BLOCK_STEPS``) for the locality
audit. Its dot product is the one ``engine.project`` writes out: the
products rounded one by one and added left to right from the first, so
the bits depend on no BLAS. Without the library the engine runs its
Python twin, which gives the same bits about 30 times more slowly
(100 000 unknown-size steps on a 50-node graph: 1.0 s against 0.031 s),
and the simulator its Python block, about 14 times more slowly (30 000
activations there: 0.34 s against 0.024 s). Every array handed to the
library is checked first: its dtype, layout and size, and every index it
holds; ``Steps`` checks a rows or kernel object once: its layout is frozen.
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

from .surfer import BLOCK_STEPS

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

/* count steps of the Kaczmarz engine from step k at node current; returns
   the last node activated. Each step reads two uniforms from u. The first
   picks a uniform restart (u < omega), which lands on int(v*n), else the
   surfer hops to the kernel target at CPython's bisect_right of v in the
   row's running sums cum. The step then bumps the node's visit count and
   projects x on its regression row: known size takes the given alpha and
   target, unknown size visits/(k+1) and m*alpha. The dot product adds
   the rounded products left to right from the first, as engine.project's
   cumsum does; every row holds at least its diagonal. xs holds the row's
   gathered values and has room for n. A non-NULL trail, with room for
   count, gets each step's node. */
int64_t centrasim_steps(int64_t count, int64_t k, int64_t current,
                        const double *u, int64_t n, double omega,
                        const int64_t *kern_ptr, const int64_t *kern_tgt,
                        const double *kern_cum, const int64_t *row_ptr,
                        const int64_t *row_idx, const double *row_coef,
                        int64_t unknown, double m, double alpha,
                        double target, double *x, int64_t *visits,
                        double *xs, int64_t *trail)
{
    for (int64_t i = 0; i < count; i++, k++) {
        double restart = u[2 * i], v = u[2 * i + 1];
        if (restart < omega) {
            current = (int64_t)(v * (double)n);
            if (current == n)
                current = n - 1;
        } else {
            int64_t lo = kern_ptr[current], hi = kern_ptr[current + 1];
            while (lo < hi) {
                int64_t mid = (lo + hi) / 2;
                if (v < kern_cum[mid])
                    hi = mid;
                else
                    lo = mid + 1;
            }
            current = kern_tgt[lo];
        }
        if (trail)
            trail[i] = current;
        visits[current] += 1;
        if (unknown) {
            alpha = (double)visits[current] / (double)(k + 1);
            target = m * alpha;
        }
        const int64_t *idx = row_idx + row_ptr[current];
        const double *coef = row_coef + row_ptr[current];
        int64_t len = row_ptr[current + 1] - row_ptr[current];
        for (int64_t j = 0; j < len; j++)
            xs[j] = x[idx[j]];
        double dot = coef[0] * xs[0];
        for (int64_t j = 1; j < len; j++)
            dot += coef[j] * xs[j];
        double d = target - dot;
        for (int64_t j = 0; j < len; j++)
            x[idx[j]] = xs[j] + (alpha * coef[j]) * d;
    }
    return current;
}
"""

FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# name: (restype, argtypes)
_SIGNATURES = {
    "centrasim_brandes": (ctypes.c_int, (_I, _P, _P, _P, _P)),
    "centrasim_bfs": (ctypes.c_int, (_I, _P, _P, _P)),
    "centrasim_steps": (_I, (_I, _I, _I, _P, _I, _D, _P, _P, _P, _P, _P, _P,
                             _I, _D, _D, _D, _P, _P, _P, _P)),
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
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
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


def _kernel_bufs(kernel, n):
    """Addresses of a surfer kernel's arrays, once its targets lie in
    [0, n) and every row is nonempty and its running sums end in 1.0: a
    uniform below 1.0 then never bisects past its row."""
    ptr, cum = kernel.indptr, kernel.cum
    if kernel.n != n:
        raise ValueError(f"kernel has {kernel.n} nodes, rows have {n}")
    bufs = (*_csr_bufs(n, ptr, kernel.targets),
            _buf(cum, np.float64, kernel.targets.size))
    if ptr[0] != 0 or (np.diff(ptr) < 1).any() or (cum[ptr[1:] - 1] != 1.0).any():
        raise ValueError("kernel row empty or its running sums not ending in 1.0")
    return bufs


def _rows_bufs(rows, n):
    """Addresses of regression rows' flat arrays, once their columns lie in
    [0, n) and every row is nonempty (the loop reads its first entry) and
    no longer than n (the gathered values' room)."""
    ptr = rows.indptr
    if rows.n != n:
        raise ValueError(f"rows have {rows.n} nodes, the iterate {n}")
    bufs = (*_csr_bufs(n, ptr, rows.indices),
            _buf(rows.data, np.float64, rows.indices.size))
    lengths = np.diff(ptr)
    if ptr[0] != 0 or (lengths < 1).any() or (lengths > n).any():
        raise ValueError("row offsets do not run from 0 in rows of 1 to n")
    return bufs


class Steps:
    """Blocks of engine steps for one state and chain, run by the library.

    steps(rows, count) runs the next count activations on the rows and the
    chain's kernel and returns the last node activated; it reads the
    chain's uniforms at its position, draws a new block as the Python
    sampler would, and advances the chain, state.x, state.visits and
    state.k as the Python steps do. A rows or kernel object is checked the
    first time a block runs on it (what the loop indexes by is frozen), and
    the call's arguments are kept for the pair in use; rows on the last
    bound rows' indptr and indices have only their data checked.

    With on_block, each library call also writes its steps' nodes to a
    trail of at most BLOCK_STEPS, and on_block(k, nodes) then gets the
    first step's k and that trail, which the next call overwrites.
    """

    def __init__(self, lib, state, chain, on_block=None):
        n = self._n = state.x.size
        self._fn, self._state, self._chain = lib.centrasim_steps, state, chain
        self._xs = np.empty(n)
        self._on_block = on_block
        self._trail = None if on_block is None else np.empty(BLOCK_STEPS,
                                                             dtype=np.int64)
        self._tail = (_buf(state.x, np.float64, n),
                      _buf(state.visits, np.int64, n),
                      _buf(self._xs, np.float64, n),
                      None if on_block is None else self._trail.ctypes.data)
        self._known = state.mode == "known-n"
        self._kernels = {}  # id -> (kernel, its arguments): kept alive here
        self._pair, self._args = (None, None), None

    def _bind(self, rows, kernel):
        n = self._n
        hit = self._kernels.get(id(kernel))
        if hit is None:
            hit = self._kernels[id(kernel)] = (kernel, _kernel_bufs(kernel, n))
        last = self._pair[0]
        if (last is not None and rows.indptr is last.indptr
                and rows.indices is last.indices and rows.n == n):
            row_bufs = (self._args[5].value, self._args[6].value,  # as bound
                        _buf(rows.data, np.float64, rows.indices.size))
        else:
            row_bufs = _rows_bufs(rows, n)
        if self._known:
            mode = (0, rows.m, 1.0 / rows.n, rows.m / rows.n)
        else:
            mode = (1, rows.m, 0.0, 0.0)
        args = (n, float(self._chain.omega), *hit[1], *row_bufs, *mode,
                *self._tail)
        # as ctypes values: a call then converts only its first four
        return tuple(t(a) for t, a in zip(self._fn.argtypes[4:], args))

    def __call__(self, rows, count):
        state, chain = self._state, self._chain
        if rows is not self._pair[0] or chain.matrix is not self._pair[1]:
            self._args = self._bind(rows, chain.matrix)
            self._pair = (rows, chain.matrix)  # keeps both alive
        node = chain.current
        if not 0 <= node < self._n:
            raise ValueError(f"surfer at node {node} outside [0, {self._n})")
        while count:
            block, pos = chain.uniforms()
            take = min(count, (len(block) - pos) // 2, BLOCK_STEPS)
            k = state.k
            node = self._fn(take, k, node,
                            block.buffer_info()[0] + pos * block.itemsize,
                            *self._args)
            chain.advance(take, node)
            state.k += take
            count -= take
            if self._on_block is not None:
                self._on_block(k, self._trail[:take])
        return node
