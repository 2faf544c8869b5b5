"""Compiled edge-list parse, Brandes, BFS and engine-step loops, built on
first use into a per-user cache.

One C source, embedded below, holds the four loops. ``load()`` compiles
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

``parse`` reads a plain edge list, the subset its C comment names, in one
pass: the labels numbered in order of first appearance through a hash
table, each line's ids and times into arrays sized before the call. Any
other text (a comment, a control byte, a bad line, a self-loop, a time
that is not plain digits or that decreases, no edge at all) comes back as
None, and ``graph``'s per-line parser, its Python twin, reads it and names
the fault. At 1.2 million lines (n = 200 000, 2 vCPUs) the parse takes
about 0.3 s against 1.5 s, and raises the peak by half as much.

``Steps`` runs a run's blocks of steps in the library: the engine's and
the node-actor simulator's, which is an unknown-size run. The engine
chooses it, or its Python twin, once when a run starts. Given on_block,
either path writes each step's node to a trail of at most one uniform
block (``BLOCK_STEPS``) and hands it on; the simulator's trail feeds the
locality audit, which keeps each step's actor id. Its dot product is the
one ``engine.project`` writes out: the products rounded one by one and
added left to right from the first, so the bits depend on no BLAS. The
twin gives the same bits about 30 times more slowly (100 000
unknown-size steps on a 50-node graph: 0.54-0.59 s against 0.018 s), and
20 times for the simulator, where it calls ``simulator.activate`` each
step (30 000 activations there: 0.15-0.16 s against 0.008 s; medians of
7 runs, in two processes, 2 vCPUs). Every array handed to the library is
checked first: its dtype, layout and size, and every index it holds;
``Steps`` checks a rows or kernel object once: its layout is frozen.
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

from .matrix import frozen

SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* The labels seen so far: each one's bytes in names, followed by a '\n',
   and an open-addressing table of ids + 1, a power of two in size, which
   doubles at half load. */
struct labels {
    struct label { int64_t start, len; uint64_t hash; } *at;
    int64_t count, *slots, size;
    char *names;
    int64_t used;
};

/* Id of the label text[0:len], numbered anew if t has not seen it.
   Returns -1 if memory runs out. */
static int64_t label_id(struct labels *t, const char *text, int64_t len)
{
    uint64_t h = 14695981039346656037ull;  /* FNV-1a */
    for (int64_t i = 0; i < len; i++)
        h = (h ^ (unsigned char)text[i]) * 1099511628211ull;
    h ^= h >> 32;  /* a product's low bits, which pick the slot, mix least */
    uint64_t mask = (uint64_t)t->size - 1, s = h & mask;
    for (; t->slots[s]; s = (s + 1) & mask) {
        struct label *l = t->at + t->slots[s] - 1;
        if (l->hash == h && l->len == len
                && !memcmp(t->names + l->start, text, (size_t)len))
            return t->slots[s] - 1;
    }
    int64_t id = t->count++;
    if (!(id & (id - 1))) {  /* 0 or a power of two: room up to 2 * id */
        struct label *grown = realloc(t->at, (size_t)(2 * id + 1) * sizeof *grown);
        if (!grown)
            return -1;
        t->at = grown;
    }
    t->at[id] = (struct label){t->used, len, h};
    t->slots[s] = id + 1;
    memcpy(t->names + t->used, text, (size_t)len);
    t->used += len;
    t->names[t->used++] = '\n';
    if (2 * t->count > t->size) {
        int64_t *grown = calloc((size_t)(2 * t->size), sizeof *grown);
        if (!grown)
            return -1;
        mask = (uint64_t)(2 * t->size) - 1;
        for (int64_t j = 0; j < t->count; j++) {
            for (s = t->at[j].hash & mask; grown[s]; s = (s + 1) & mask)
                ;
            grown[s] = j + 1;
        }
        free(t->slots);
        t->slots = grown;
        t->size *= 2;
    }
    return id;
}

/* One pass over a plain edge list of len bytes: every line blank or
   width tokens, width 2 (src dst) or 3 (a time of 1 to 18 digits, never
   below the line before's, then src dst), separated by spaces and tabs,
   every other byte printable ASCII but '#' and ','. Labels are numbered
   in order of first appearance, src before dst. Line e's ids go to
   ids[2e], ids[2e+1] and its time to times[e]; each new label goes to
   names with a '\n' after it, which takes at most len + 1 bytes. counts
   gets the lines read and the bytes written to names. Returns 0; 1 for
   input outside that subset, a self-loop, more than cap lines or none;
   -1 if memory runs out. */
int centrasim_parse(const char *text, int64_t len, int64_t width, int64_t cap,
                    int64_t *ids, int64_t *times, char *names, int64_t *counts)
{
    struct labels t = {NULL, 0, calloc(1024, sizeof *t.slots), 1024, names, 0};
    int64_t lines = 0, last = 0;
    int rc = -1;
    if (!t.slots)
        goto done;
    rc = 1;
    for (int64_t pos = 0; pos < len; pos++) {  /* a line, then its '\n' */
        int64_t start[3] = {0}, end[3] = {0}, ntok = 0;
        while (pos < len && text[pos] != '\n') {
            unsigned char c = (unsigned char)text[pos];
            if (c == ' ' || c == '\t') {
                pos++;
                continue;
            }
            if (ntok == width)
                goto done;
            start[ntok] = pos;
            while (c > ' ' && c < 127 && c != '#' && c != ',' && ++pos < len)
                c = (unsigned char)text[pos];
            if (pos < len && c != ' ' && c != '\t' && c != '\n')
                goto done;
            end[ntok++] = pos;
        }
        if (!ntok)
            continue;
        if (ntok != width || lines == cap)
            goto done;
        int64_t src = width - 2, dst = width - 1, n = end[src] - start[src];
        if (n == end[dst] - start[dst]
                && !memcmp(text + start[src], text + start[dst], (size_t)n))
            goto done;  /* a self-loop */
        if (width == 3) {
            int64_t time = 0;
            if (end[0] - start[0] > 18)
                goto done;
            for (int64_t i = start[0]; i < end[0]; i++) {
                if (text[i] < '0' || text[i] > '9')
                    goto done;
                time = 10 * time + (text[i] - '0');
            }
            if (time < last)
                goto done;
            times[lines] = last = time;
        }
        for (int64_t k = src; k <= dst; k++) {
            int64_t id = label_id(&t, text + start[k], end[k] - start[k]);
            if (id < 0) {
                rc = -1;
                goto done;
            }
            ids[2 * lines + k - src] = id;
        }
        lines++;
    }
    if (lines) {
        counts[0] = lines;
        counts[1] = t.used;
        rc = 0;
    }
done:
    free(t.slots);
    free(t.at);
    return rc;
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
    "centrasim_parse": (ctypes.c_int, (_P, _I, _I, _I, _P, _P, _P, _P)),
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


def parse(lib, text, width):
    """(labels, ids, times) of an edge list of `width` tokens a line (2:
    `src dst`, 3: `time src dst`), parsed by the library: the labels in
    order of first appearance, each line's (src, dst) ids as an (edges, 2)
    int64 array and, for width 3, each line's time (else an empty array).
    None if the text is not plain (no comment, no other whitespace or
    control byte, no self-loop, times of plain digits that never decrease,
    at least one edge: the C comment has the whole subset); the per-line
    parser then reads it, and names the fault if there is one."""
    if width not in (2, 3):
        raise ValueError(f"a line has 2 or 3 tokens, not {width}")
    if not text.isascii():
        return None
    data = text.encode("ascii")
    # a line takes 2 * width bytes at least: width tokens, width - 1
    # separators and its '\n' (which the last line may lack)
    cap = (len(data) + 1) // (2 * width)
    ids = np.empty((cap, 2), dtype=np.int64)
    times = np.empty(cap if width == 3 else 0, dtype=np.int64)
    names = np.empty(len(data) + 1, dtype=np.uint8)
    counts = np.zeros(2, dtype=np.int64)
    rc = lib.centrasim_parse(data, len(data), width, cap,
                             _buf(ids, np.int64, 2 * cap),
                             _buf(times, np.int64, times.size),
                             _buf(names, np.uint8, len(data) + 1),
                             _buf(counts, np.int64, 2))
    if rc < 0:
        raise MemoryError("edge-list parse could not grow its label table")
    if rc:
        return None
    lines, used = counts.tolist()
    labels = names[:used].tobytes().decode("ascii").split("\n")[:-1]
    return tuple(labels), ids[:lines], times[:lines]


def _refuse_writable(what, *arrays):
    """Raise unless every array is frozen (matrix.frozen), so that no write
    can follow its check: a deepcopy or unpickled copy of rows or a kernel
    holds writable ones."""
    if any(frozen(a) is not a for a in arrays):
        raise ValueError(f"{what} index arrays are writable, not frozen")


def _kernel_bufs(kernel, n):
    """Addresses of a surfer kernel's arrays, once they are frozen, its
    targets lie in [0, n) and every row is nonempty and its running sums
    end in 1.0: a uniform below 1.0 then never bisects past its row."""
    ptr, cum = kernel.indptr, kernel.cum
    if kernel.n != n:
        raise ValueError(f"kernel has {kernel.n} nodes, rows have {n}")
    _refuse_writable("kernel", ptr, kernel.targets, cum)
    bufs = (*_csr_bufs(n, ptr, kernel.targets),
            _buf(cum, np.float64, kernel.targets.size))
    if ptr[0] != 0 or (np.diff(ptr) < 1).any() or (cum[ptr[1:] - 1] != 1.0).any():
        raise ValueError("kernel row empty or its running sums not ending in 1.0")
    return bufs


def _rows_bufs(rows, n):
    """Addresses of regression rows' flat arrays, once their layout is
    frozen, their columns lie in [0, n) and every row is nonempty (the loop
    reads its first entry) and no longer than n (the gathered values'
    room)."""
    ptr = rows.indptr
    if rows.n != n:
        raise ValueError(f"rows have {rows.n} nodes, the iterate {n}")
    _refuse_writable("rows", ptr, rows.indices)
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
        # here: the parse loads this module, and needs no surfer
        from .surfer import BLOCK_STEPS

        n = self._n = state.x.size
        self._fn, self._state, self._chain = lib.centrasim_steps, state, chain
        self._xs = np.empty(n)
        self._most = BLOCK_STEPS  # steps a call runs, and the trail's room
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
            take = min(count, (len(block) - pos) // 2, self._most)
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
