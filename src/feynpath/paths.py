"""Sample-path simulation and discrete stochastic integrals.

Paths of the generalized Brownian motion are simulated on a time grid by
independent Gaussian increments with mean a(t_{j+1}) - a(t_j) and
variance b(t_{j+1}) - b(t_j).  The stochastic integral of a
bounded-variation density against a path is the left-endpoint
Riemann-Stieltjes sum; with that convention the discrete process
Z_k(x, t_i) (cumulative sums of Dk times path increments) satisfies the
kernel-transport identity

    (w, Z_k(x, .))~ == (w (.) k, x)~

exactly, path by path.

Randomness is counter-based: path rows are organized in fixed blocks of
``CHUNK_PATHS`` and block ``j`` of a run draws from an independent Philox
stream keyed by (seed, j).  Ensembles are therefore bit-identical for a
given (seed, grid, n_paths) regardless of scheduling, and the first n
rows do not change when more paths are requested.  The same keying lets
the projected and the path streams run their blocks on a thread pool
with results that do not depend on the number of threads, and lets an
ensemble be kept as its recipe: its writers sample it again, the binary
one's workers writing their rows at their offsets in the file, the CSV
one's tasks sampling the few rows that each of them formats.  One
helper, ``_path_rows``, computes every path row.  Each argument of the
stream has one form: ``onto`` is a list of density matrices, ``out`` a
binary file, and ``values`` is built by copying the fresh blocks of the
path stream.

A materialized ensemble, and each streamed block, is a private anonymous
mapping of its own, unmapped when the last view of it goes, so its
memory returns to the operating system when it is released.

The CSV writer samples and formats chunks of a few rows on the same
pool, so it holds no block; its rows are sampled in stream order, each
chunk by the first task that needs it.  Its formatter computes Python's
``%.17g`` text in numpy, exactly rounded with integer arithmetic, and
hands every value that its exact fast path does not cover to Python's
own ``%``; the bytes are those of ``"%.17g" % x``.
"""

from __future__ import annotations

import functools
import mmap
import os
import struct
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cameron_martin import CMElement, SuppElement, _require_same_profile
from .errors import GridMismatch, NonPositiveVariance
from .measure import ProfilePair

DEFAULT_GRID_N = 1024
CHUNK_PATHS = 4096
# Rows filled and projected at a time by the projected stream; divides
# CHUNK_PATHS, so each worker's scratch is _SUB_ROWS x N doubles.
_SUB_ROWS = 256

_BINARY_MAGIC = b"GBMPENS1"

# Values per CSV chunk (whole rows, at least one).  Smaller chunks spend
# longer in per-call overhead; larger ones hold more text and numpy
# temporaries per worker.
_CSV_BLOCK_VALUES = 16384

# The CSV writer allocates and frees one malloc buffer of this many
# bytes before it starts.  Under glibc, freeing a mapped buffer larger
# than the dynamic mmap threshold raises that threshold to its size, and
# the trim threshold to twice that.  The formatter's per-chunk numpy
# temporaries (a few MiB per worker) then come from the workers' heaps
# and stay resident when freed, instead of being mapped or trimmed at the
# default thresholds (128 KiB each) and faulted in again for every
# chunk.  4 MiB exceeds any one of those allocations, twice it exceeds
# one worker's temporaries together, and glibc caps the threshold at
# 32 MiB.  Elsewhere this costs one untouched allocation.
_MALLOC_PRIMER = 4 * 2**20


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing nodes from 0 to T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0 or not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must strictly increase from 0")

    @property
    def N(self) -> int:
        return self.nodes.size - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def build(cls, profile: ProfilePair, elements=(), n: int = DEFAULT_GRID_N) -> "TimeGrid":
        """Uniform n-interval grid merged with every breakpoint of the
        profile densities and of the given elements or densities."""
        pts = [np.linspace(0.0, profile.T, n + 1)]
        pts.append(profile.a_prime.breakpoints)
        pts.append(profile.b_prime.breakpoints)
        for e in elements:
            poly = e if not hasattr(e, "density") else e.density
            pts.append(poly.breakpoints)
        nodes = np.unique(np.concatenate(pts))
        return cls(nodes)

    def require_breakpoints(self, poly):
        if not np.all(np.isin(poly.breakpoints, self.nodes)):
            raise GridMismatch(
                "breakpoints %s are not all grid nodes" % poly.breakpoints.tolist()
            )


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """An ensemble of sampled paths, kept as its recipe: the paths on
    ``grid`` of the process with profile ``profile``, drawn from the
    Philox streams of ``seed``.  The constructor checks the recipe
    (``n_paths >= 1``, the seed, b increasing on the grid).

    ``values[p, i]`` is path p at grid node i (column 0 zero), built in
    full on first access and kept.  The writers do not build it, nor
    hold a CHUNK_PATHS block of it: they sample the paths again, a few
    rows per task, and write each row once, unless ``values`` is already
    there, when they write it instead.  Either way the bytes are the
    same."""

    grid: TimeGrid
    n_paths: int
    seed: int
    profile: ProfilePair

    def __post_init__(self):
        _checked_moments(self.profile, self.grid, self.n_paths, self.seed)

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The (n_paths, N+1) path values, in a mapping of their own that
        is given back to the operating system when the last view goes.
        The fresh blocks of the path stream are copied into it, so up to
        workers + 1 of them are alive beside it while it is built."""
        values = _mapped_zeros((self.n_paths, self.grid.N + 1))
        for p0, block in stream_increments(self.profile, self.grid, self.n_paths, self.seed,
                                           paths=True):
            values[p0 : p0 + block.shape[0]] = block
        return values

    def to_csv(self, path):
        """First row is the node times, then one row per path.  Every
        value is written as %.17g, which reads back as the same double.

        Chunks of a few rows (at most _CSV_BLOCK_VALUES values, at least
        one row) are formatted on the block thread pool and written in
        order, so the file holds the same bytes for any number of
        workers.  Unless values is built, the task that formats a chunk
        samples its rows first (see _chunk_rows), so only the chunks in
        flight, at most workers + 1, are in memory, never a whole
        CHUNK_PATHS block."""
        step = max(1, _CSV_BLOCK_VALUES // (self.grid.N + 1))
        if "values" in vars(self):
            values = self.values

            def rows(i):
                return values[i * step : (i + 1) * step]
        else:
            da, sdb = _checked_moments(self.profile, self.grid, self.n_paths, self.seed)
            rows = _chunk_rows(da, sdb, self.n_paths, self.seed, step)
        np.empty(_MALLOC_PRIMER, dtype=np.uint8)  # freed at once; see _MALLOC_PRIMER
        with open(path, "wb") as fh:
            fh.write(_csv_rows(self.grid.nodes[None, :]))
            for text in _ordered_map(lambda i: _csv_rows(rows(i)), -(-self.n_paths // step)):
                fh.write(text)

    def to_binary(self, path):
        """Compact layout: magic, N, n_paths, seed (little-endian u64),
        then the nodes and the row-major values as little-endian f64, which
        the block workers write at their offsets unless values is built."""
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<QQQ", self.grid.N, self.n_paths, self.seed))
            fh.write(np.ascontiguousarray(self.grid.nodes, dtype="<f8"))
            if "values" in vars(self):
                fh.write(np.ascontiguousarray(self.values, dtype="<f8"))
            else:
                for _ in stream_increments(self.profile, self.grid, self.n_paths, self.seed,
                                           out=fh, paths=True):
                    pass

    @staticmethod
    def read_binary(path):
        """Returns (nodes, values, seed); the profile is not serialized.
        Raises ValueError unless the file size matches its header."""
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _BINARY_MAGIC:
                raise ValueError("not an ensemble file (bad magic %r)" % magic)
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(24)
            if len(header) != 24:
                raise ValueError("ensemble file has %d bytes, expected at least 32" % size)
            n_int, n_paths, seed = struct.unpack("<QQQ", header)
            count = n_paths * (n_int + 1)
            expected = 32 + 8 * (n_int + 1 + count)
            if size != expected:
                raise ValueError(
                    "ensemble file has %d bytes, expected %d for N = %d and %d paths"
                    % (size, expected, n_int, n_paths)
                )
            nodes = np.fromfile(fh, dtype="<f8", count=n_int + 1)
            values = np.fromfile(fh, dtype="<f8", count=count)
        return nodes, values.reshape(n_paths, n_int + 1), seed


# The %.17g formatter.  A finite normal x = m * 2**q (m an integer below
# 2**53) with decimal exponent E has the 17 digits
# D = round(x * 10**s) = round(m * 5**s / 2**k), s = 16 - E, k = -(q + s).
# The fast path computes m * 5**s exactly in two uint64 words and rounds
# half to even on the exact remainder, as CPython's dtoa does.  It needs
# 0 <= s <= 27 (5**s < 2**63), 1 <= k <= 63, and a quotient in
# [10**16, 10**17) before rounding (otherwise log10 misjudged E); that
# admits |x| from about 1e-11 to 1e15.  A rounding carry to 10**17 also
# leaves the fast path; no double in that range carries (the nearest
# that do are 1e-14 and 1e+98).  Every other nonzero value goes to
# Python's "%.17g" one at a time.
#
# Each value gets _CSV_WIDTH bytes, six little-endian uint64 words, and
# the filler byte 0 is deleted at the end:
#   word 0     sign, the prefix "0" or "0." plus zeros, lead digit at byte 7
#   words 1-4  digit j at byte 7 + 2j, the decimal point slot after it
#   word 5     exponent "e-XX" at bytes 40-43, separator at byte 47
_CSV_WIDTH = 48
_CSV_E_MIN, _CSV_E_MAX = -11, 15
_CSV_ZERO = _CSV_E_MAX - _CSV_E_MIN + 1  # class of 0 and of slow values
_U64 = np.uint64


@functools.lru_cache(maxsize=None)
def _csv_tables():
    """Lookup tables, built on first use; a class is E - _CSV_E_MIN.

    groups[g]      the 4 digits of g < 10**4 at the odd bytes of a word
    zeros[g]       trailing decimal zeros of g (4 for g = 0)
    pow5[s]        5**s for s <= 27
    head[c, neg]   word 0 without the lead digit
    lead_word[d]   the lead digit d at byte 7 (nothing for d = 0)
    tail[c]        word 5 without the separator
    point[c]       digit index followed by the point, -1 for none
    whole[c]       digits before the point, all kept; 0 for none
    keep[w][n]     word w + 1 masked to its digits below index n
    """
    g = np.arange(10**4)
    spread = np.zeros((g.size, 8), dtype=np.uint8)
    for j in range(4):
        spread[:, 2 * j + 1] = g // 10 ** (3 - j) % 10 + 48
    zeros = sum((g % 10**j == 0).astype(np.uint8) for j in range(1, 5))
    head = np.zeros((_CSV_ZERO + 1, 2, 8), dtype=np.uint8)
    tail = np.zeros((_CSV_ZERO + 1, 8), dtype=np.uint8)
    point = np.full(_CSV_ZERO + 1, -1)
    whole = np.zeros(_CSV_ZERO + 1, dtype=int)
    for c, e in enumerate(range(_CSV_E_MIN, _CSV_E_MAX + 1)):
        if e < -4:
            tail[c, :4] = np.frombuffer(b"e-%02d" % -e, dtype=np.uint8)
            point[c], whole[c] = 0, 1
        elif e < 0:
            prefix = b"0." + b"0" * (-e - 1)
            head[c, :, 1 : 1 + len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        else:
            point[c], whole[c] = e, e + 1
    head[_CSV_ZERO, :, 1] = ord("0")
    head[:, 1, 0] = ord("-")
    lead = np.zeros((10, 8), dtype=np.uint8)
    lead[1:, 7] = np.arange(49, 58)
    keep = np.zeros((4, 18, 8), dtype=np.uint8)
    for n in range(18):
        for j in range(1, n):
            keep[(j - 1) // 4, n, 2 * ((j - 1) % 4) + 1] = 0xFF

    def words(a):
        return np.ascontiguousarray(a).view(_U64)[..., 0]

    return (words(spread), zeros, _U64(5) ** np.arange(28, dtype=_U64), words(head),
            words(lead), words(tail), point, whole, words(keep))


def _csv_rows(block):
    """The CSV lines of a 2-D array of values, as bytes: each value as
    "%.17g" % value, comma-separated, one line per row."""
    groups, zeros, pow5, head, lead_word, tail, point, whole, keep = _csv_tables()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    bits = x.view(_U64)
    neg = (bits >> _U64(63)).astype(np.intp)
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(np.abs(x))).astype(np.int64)
    s = 16 - e
    k = 1075 - biased - s
    fast = (biased > 0) & (biased < 2047) & (s >= 0) & (s <= 27) & (k >= 1) & (k <= 63)
    k = np.where(fast, k, 1).astype(_U64)
    p = pow5[np.where(fast, s, 0)]
    # m * p as hi * 2**64 + lo, from 32-bit limbs (m < 2**53, p < 2**63).
    low = _U64(2**32 - 1)
    m0, m1, p0, p1 = m & low, m >> _U64(32), p & low, p >> _U64(32)
    t = m0 * p0
    mid = m0 * p1 + m1 * p0 + (t >> _U64(32))
    lo = (t & low) | (mid << _U64(32))
    hi = m1 * p1 + (mid >> _U64(32))
    q = (hi << (_U64(64) - k)) | (lo >> k)
    rem = lo & ((_U64(1) << k) - _U64(1))
    half = _U64(1) << (k - _U64(1))
    fast &= ((hi >> k) == 0) & (q >= _U64(10**16)) & (q < _U64(10**17))
    q += (rem > half) | ((rem == half) & (q & _U64(1) == 1))
    fast &= q < _U64(10**17)
    lead, r = np.divmod(q, _U64(10**16))
    upper, lower = np.divmod(r, _U64(10**8))
    quads = (*np.divmod(upper.astype(np.uint32), np.uint32(10**4)),
             *np.divmod(lower.astype(np.uint32), np.uint32(10**4)))
    tz = zeros[quads[3]].astype(np.intp)
    all_zero = quads[3] == 0
    for quad in quads[2::-1]:
        tz += all_zero * zeros[quad]
        all_zero &= quad == 0
    nsig = 17 - tz

    c = np.where(fast, e - _CSV_E_MIN, _CSV_ZERO)
    kept = np.where(fast, np.maximum(nsig, whole[c]), 0)
    dot = np.where(nsig > whole[c], point[c], -1)
    out = np.empty((x.size, _CSV_WIDTH), dtype=np.uint8)
    words = out.view(_U64)
    np.bitwise_or(head[c, neg], lead_word[np.where(fast, lead, 0)], out=words[:, 0])
    for w, quad in enumerate(quads):
        np.bitwise_and(groups[quad], keep[w][kept], out=words[:, w + 1])
    words[:, 5] = tail[c]
    dotted = np.flatnonzero(dot >= 0)
    out.ravel()[dotted * _CSV_WIDTH + 8 + 2 * dot[dotted]] = ord(".")
    slow = np.flatnonzero(~fast & (x != 0))
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        text = b"%.17g" % v
        out[i, :-1] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    out[:, -1] = ord(",")
    out[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def increment_moments(profile: ProfilePair, grid: TimeGrid):
    """Per-interval (da, db) from the exact primitives of a' and b'."""
    da = np.diff(profile.a(grid.nodes))
    db = np.diff(profile.b(grid.nodes))
    if np.any(db <= 0.0):
        raise NonPositiveVariance("b increments must be positive on the grid")
    return da, db


def _checked_moments(profile: ProfilePair, grid: TimeGrid, n_paths: int, seed: int):
    """(da, sqrt(db)) of the ensemble recipe (profile, grid, n_paths,
    seed), which raises here unless the recipe is valid."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    _check_seed(seed)
    da, db = increment_moments(profile, grid)
    return da, np.sqrt(db)


def stream_increments(
    profile: ProfilePair, grid: TimeGrid, n_paths: int, seed: int, onto=None, out=None,
    paths=False,
):
    """Yield (first_path_index, increments) chunks of the path ensemble.

    The yielded array is an internal buffer reused between chunks; copy it
    if it must outlive the iteration.  Chunk boundaries are fixed at
    CHUNK_PATHS, so values never depend on how the consumer batches work.

    With ``onto``, a non-empty tuple or list of (N, c_i) matrices of
    left densities, the chunks are (first_path_index, tuple of columns)
    instead: the increments projected onto each matrix D, computed
    straight from the normals as ``z @ (sqrt(db) * D) + da @ D`` without
    building the increments, one fresh (rows, c_i) array per matrix.
    The normals are drawn once and each sub-block of them is projected
    onto every matrix in turn.  Each matrix is multiplied on its own,
    never merged with the others, since a BLAS product's bits can depend
    on the matrix width; so each matrix's columns are bit-identical to a
    stream onto that matrix alone.

    With ``paths``, the chunks are (first_path_index, path values): rows
    of N+1 values, 0 and then the running sums of the row's increments,
    fresh, each block over a mapping of its own.  With ``out``, a binary
    file open for writing, the workers write the rows there instead, as
    little-endian f64 from its position on, and the chunks are
    (first_path_index, row count).

    With ``onto`` or ``paths`` the blocks run on a thread pool with one
    worker per usable CPU, bit-identical for any worker count and to the
    serial form.  At most one block per worker is computed ahead of the
    consumer.
    """
    da, sdb = _checked_moments(profile, grid, n_paths, seed)
    if onto is not None or out is not None or paths:
        yield from _filled_blocks(da, sdb, n_paths, seed, onto=onto, out=out, paths=paths)
        return
    n_steps = grid.N
    z = np.empty((min(CHUNK_PATHS, n_paths), n_steps))
    inc = np.empty_like(z)
    for block, p0 in enumerate(range(0, n_paths, CHUNK_PATHS)):
        rows = min(CHUNK_PATHS, n_paths - p0)
        _block_generator(seed, block).standard_normal(out=z[:rows])
        np.multiply(z[:rows], sdb[None, :], out=inc[:rows])
        np.add(inc[:rows], da[None, :], out=inc[:rows])
        yield p0, inc[:rows]


def _block_generator(seed, block):
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _filled_blocks(da, sdb, n_paths, seed, onto=None, out=None, paths=False):
    """Yield (p0, rows) per block, in block order: a tuple of fresh
    projected columns, one per matrix of ``onto``, or for ``paths`` the
    fresh path values, or their count when ``out`` is a file.

    Each block's Philox stream fills a per-worker _SUB_ROWS x N scratch
    buffer z one sub-block at a time; numpy continues the stream across
    the fills, so the normals equal those of one whole-block fill.  Each
    sub-block becomes ``op(z, factor) + shift`` in the destination rows
    of every target: ``z @ (sqrt(db) * D) + da @ D`` for each matrix D
    of onto, or for path values ``z * sqrt(db) + da`` in columns 1:, in
    the serial stream's operation order, then summed along each row; for
    a file, in a per-worker row buffer then written at the rows' offset.
    A block's arithmetic does not depend on which worker runs it, so the
    bits are the same for any number of usable CPUs.
    """
    fd = None
    if onto is not None:
        if out is not None or paths:
            raise ValueError("onto takes neither out nor paths")
        if not isinstance(onto, (tuple, list)) or not onto:
            raise ValueError("onto must be a non-empty tuple or list of (N, c) matrices")
        mats = [np.asarray(D, dtype=float) for D in onto]
        if any(D.ndim != 2 or D.shape[0] != sdb.size for D in mats):
            raise ValueError("each matrix of onto must be (N, c) over the grid intervals")
        targets = [(sdb[:, None] * D, da @ D) for D in mats]

        def dest(p0, rows):
            return [np.empty((rows, D.shape[1])) for D in mats]
    elif not paths:
        raise ValueError("give onto or paths; out takes paths")
    else:
        width = sdb.size + 1
        if out is None:
            def dest(p0, rows):
                return [_mapped_zeros((rows, width))]
        elif not hasattr(out, "fileno"):
            raise ValueError("out must be a binary file open for writing")
        else:
            out.flush()
            fd, base = out.fileno(), out.tell()

    starts = range(0, n_paths, CHUNK_PATHS)
    sub = min(_SUB_ROWS, n_paths)
    scratch = threading.local()

    def fill(block):
        p0 = starts[block]
        rows = min(CHUNK_PATHS, n_paths - p0)
        z = getattr(scratch, "z", None)
        if z is None:
            # From malloc, as is the row buffer: each worker allocates
            # them once and reuses them for every block it fills, so
            # nothing is gained by mapping them.
            z = scratch.z = np.empty((sub, sdb.size))
            scratch.row_buffer = [np.zeros((sub, width), dtype="<f8")] if fd is not None else None
        gen = _block_generator(seed, block)
        dsts = dest(p0, rows) if fd is None else scratch.row_buffer
        for r0 in range(0, rows, sub):
            r1 = min(r0 + sub, rows)
            at = slice(r0, r1) if fd is None else slice(0, r1 - r0)
            if paths:
                _path_rows(gen, z, da, sdb, dsts[0][at])
            else:
                gen.standard_normal(out=z[: r1 - r0])
                for (factor, shift), dst in zip(targets, dsts):
                    cols = dst[at]
                    np.matmul(z[: r1 - r0], factor, out=cols)
                    np.add(cols, shift, out=cols)
            if fd is not None:
                data, end = memoryview(dsts[0][at]).cast("B"), base + 8 * width * (p0 + r1)
                while data:  # until short writes have written it all
                    data = data[os.pwrite(fd, data, end - len(data)) :]
        return p0, rows if fd is not None else dsts[0] if paths else tuple(dsts)

    yield from _ordered_map(fill, len(starts))


def _path_rows(gen, z, da, sdb, out):
    """Write path values into out[:, 1:] from the next out.shape[0]
    rows of gen's normals, drawn into the scratch z: ``z * sqrt(db) +
    da``, then summed along each row, in the serial stream's operation
    order.  Column 0 is left as it is (zero).  Every path row, streamed
    or written, is computed here, so their bits cannot differ."""
    rows = out.shape[0]
    gen.standard_normal(out=z[:rows])
    inc = out[:, 1:]
    np.multiply(z[:rows], sdb, out=inc)
    np.add(inc, da, out=inc)
    np.cumsum(inc, axis=1, out=inc)


def _chunk_rows(da, sdb, n_paths, seed, step):
    """rows(i), callable from any thread: the fresh path values of rows
    i * step up to (i + 1) * step (fewer in the last chunk), each chunk
    taken once.

    The rows are sampled in stream order, under a lock, by the first
    caller that needs rows past those sampled so far; the chunks it
    samples for other callers wait in a dict until they take them.  The
    Philox streams are those of the blocks, continued across chunks, so
    the rows are those of the path stream.  No caller waits for another
    one's turn, so none can wait forever: once a fill has failed, every
    caller whose rows were not sampled before raises its exception.
    """
    lock = threading.Lock()
    ready = {}
    z = np.empty((min(step, n_paths), sdb.size))
    done, gen, failed = 0, None, None

    def rows(i):
        nonlocal done, gen, failed
        with lock:
            while done <= i:
                if failed is not None:
                    raise failed
                p = p0 = done * step
                p1 = min(p0 + step, n_paths)
                dst = np.zeros((p1 - p0, sdb.size + 1))
                try:
                    while p < p1:
                        block, offset = divmod(p, CHUNK_PATHS)
                        if offset == 0:
                            gen = _block_generator(seed, block)
                        end = min(p1, (block + 1) * CHUNK_PATHS)
                        _path_rows(gen, z, da, sdb, dst[p - p0 : end - p0])
                        p = end
                except BaseException as exc:
                    failed = exc
                    raise
                ready[done] = dst
                done += 1
            return ready.pop(i)

    return rows


def _mapped_zeros(shape) -> np.ndarray:
    """A zero-filled, writeable, C-contiguous float64 array of ``shape``
    over a private anonymous mapping of its own.

    The array's base owns the mapping, which is unmapped when the last
    view goes, so the pages return to the operating system at once.
    Through malloc, a large freed buffer raises glibc's mmap threshold,
    and the next one of that size lands on the heap and stays resident
    after it is freed.  The mapping is private, not Python's default
    shared one, which is shmem-backed and slower to fill; huge pages are
    advised where the platform has them, as numpy does for its own large
    arrays.  Without MAP_PRIVATE, and for a shape with no elements (or
    a negative one, which np.zeros rejects), this is np.zeros.
    """
    size = int(np.prod(shape))
    if size < 1 or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape)
    buf = mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def _ordered_map(fn, count):
    """Yield fn(0), ..., fn(count - 1) in that order, computed on a
    thread pool with one worker per usable CPU.

    At most one task per worker runs or waits ahead of the consumer, so
    a consumer that drops each result before it asks for the next holds
    at most workers + 1 results at once.  An exception from fn is
    raised here, at its index, and the tasks not yet started are
    cancelled; so are they when the consumer stops early.
    """
    workers = max(1, min(_usable_cpus(), count))
    # Imported here, not at the top: a run that samples no paths never
    # loads the pool machinery (about 1 MiB resident with logging).
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        try:
            for i in range(count):
                ahead.append(pool.submit(fn, i))
                if len(ahead) > workers:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        finally:
            for future in ahead:
                future.cancel()


def sample_gbmp_paths(
    profile: ProfilePair, grid: TimeGrid, n_paths: int, seed: int
) -> PathEnsemble:
    """The ensemble of n_paths sampled paths (x(0) = 0) on grid.

    Nothing is sampled here: the ensemble is its recipe, checked now, so
    that an invalid one raises before anything is written.  Its writers
    sample it again, one _SUB_ROWS-row buffer per worker (binary) or one
    chunk of at most _CSV_BLOCK_VALUES values per task in flight, at
    most workers + 1 of them (CSV), in memory; its ``values`` hold all
    n_paths * (N+1) doubles, built on first access.  Use
    :func:`stream_increments` for estimates over very large ensembles.
    """
    return PathEnsemble(grid=grid, n_paths=n_paths, seed=seed, profile=profile)


def left_density(w, grid: TimeGrid) -> np.ndarray:
    """Density of w evaluated at the left endpoint of every grid interval."""
    poly = w.density if isinstance(w, CMElement) else w
    grid.require_breakpoints(poly)
    return poly(grid.nodes[:-1])


def pwz_integral(w, path_values: np.ndarray, grid: TimeGrid):
    """Stochastic integral of the density of w against one path or a
    stack of paths (left-endpoint sums over the grid increments)."""
    d = left_density(w, grid)
    dx = np.diff(path_values, axis=-1)
    return dx @ d


def z_process_path(k: SuppElement, path_values: np.ndarray, grid: TimeGrid):
    """Transported path(s) Z_k(x, t_i): cumulative sums of Dk * dx."""
    d = left_density(k, grid)
    dz = np.diff(path_values, axis=-1) * d
    out = np.zeros_like(np.asarray(path_values, dtype=float))
    np.cumsum(dz, axis=-1, out=out[..., 1:])
    return out


def z_shift_path(k: SuppElement, w: CMElement, grid: TimeGrid) -> np.ndarray:
    """Deterministic path Z_k(w, .) of a Cameron-Martin element w:
    t -> integral of Dk Dw db over [0, t], by exact quadrature."""
    profile = _require_same_profile(w, k)
    prim = (w.density * k.density * profile.b_prime).antiderivative()
    return prim(grid.nodes)


def gamma_beta(k: SuppElement, grid: TimeGrid):
    """(gamma, beta) at the grid nodes, exactly: the mean function
    gamma_k (integral of Dk da) and the variance function beta_k
    (integral of Dk^2 db) of the Z_k process."""
    gamma = (k.density * k.profile.a_prime).antiderivative()(grid.nodes)
    beta = (k.density * k.density * k.profile.b_prime).antiderivative()(grid.nodes)
    return gamma, beta


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be an integer")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
