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
own ``%``; the bytes are those of ``"%.17g" % x``.  Each worker formats
in scratch buffers of its own, made once per write, with numpy calls
that release the GIL, so the workers format in parallel.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import struct
import threading
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

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

# Values per CSV chunk (whole rows, at least one), and the most that
# the formatter takes at a time, in a scratch of 105 bytes a value (1.6
# MiB per worker).  Each numpy call of the formatter takes the GIL back
# when it returns, so smaller chunks gain less from a second worker;
# larger ones raised the peak RSS of a CSV write followed by a binary
# one, as the binary writer's buffers no longer fit where the CSV
# writer's had been in the workers' malloc arenas.
_CSV_BLOCK_VALUES = 16384


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
        CHUNK_PATHS block.  Each worker formats its chunks in one
        scratch allocation of its own (see _csv_rows), made on its first
        chunk and freed when the pool's threads end with the write."""
        step = max(1, _CSV_BLOCK_VALUES // (self.grid.N + 1))
        if "values" in vars(self):
            values = self.values

            def rows(i):
                return values[i * step : (i + 1) * step]
        else:
            da, sdb = _checked_moments(self.profile, self.grid, self.n_paths, self.seed)
            rows = _chunk_rows(da, sdb, self.n_paths, self.seed, step)
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
# [10**16, 10**17) before rounding (otherwise E was misjudged); that
# admits |x| from about 1e-11 to 1e15.  A rounding carry to 10**17 also
# leaves the fast path; no double in that range carries (the nearest
# that do are 1e-14 and 1e+98).  Every other nonzero value goes to
# Python's "%.17g" one at a time.
#
# A value's text is a frame, which depends only on the key (class, sign,
# K) with class E - _CSV_E_MIN and K the digits kept, and its digits:
#   frame   sign, the prefix "0." plus zeros, the point, "e-XX", ",",
#           and "0" (0x30) at the byte of every kept digit
#   digits  the digit values, 0 beyond K, those before the point moved
#           past the sign and prefix, those after it one byte further
# Both are three little-endian uint64 words, the text left-aligned in at
# most 24 bytes, and the text is their bitwise or.  The texts are then
# added into one run of words, each at its offset, the sum of the
# lengths before it.
_CSV_E_MIN, _CSV_E_MAX = -11, 15
_CSV_ZERO = _CSV_E_MAX - _CSV_E_MIN + 1  # class of 0 and of slow values
_CSV_KEYS = (_CSV_ZERO + 1) * 2 * 18  # key = (class * 2 + sign) * 18 + K
_U64 = np.uint64


@functools.lru_cache(maxsize=None)
def _csv_tables():
    """Lookup tables, built on first use, as a namespace.

    log10[b]         floor(log10 |x|) for the least |x| of biased exponent b
    ten[b]           the double nearest 10**(log10[b] + 1), at or above
                     which E is one more; E may be misjudged next to a
                     power of ten that is not a double, which the quotient
                     range then catches
    pow5[c]          5**s for class c, s = 27 - c
    offset, limit    E and k are in range when c = E - _CSV_E_MIN and
                     k - 1 = E - biased exponent + 1058, unsigned, are at
                     most limit
    zeros[g]         trailing decimal zeros of g < 10**4 (4 for g = 0)
    whole[c]         digits before the point of class c, all kept; 0 for none
    at1, at5, at8[g] the 4 digit values of g at bytes 1-4, 5-7 (the first
                     three) and 0 (the last) of a word
    below[w][key]    word w of the digit bytes before the point
    shift[key]       the length of the sign and prefix, in bits
    frame[w][key]    word w of the frame
    length[key]      the length of the text and its separator
    """
    g = np.arange(10**4)
    digits = sum((g // 10 ** (3 - j) % 10).astype(_U64) << _U64(8 * j) for j in range(4))
    whole = np.zeros(_CSV_ZERO + 1, dtype=np.uint8)
    below = np.zeros((3, _CSV_KEYS), dtype=_U64)
    frame = np.zeros((3, _CSV_KEYS), dtype=_U64)
    shift = np.zeros(_CSV_KEYS, dtype=_U64)
    length = np.zeros(_CSV_KEYS, dtype=np.int64)

    def words(spans):
        text = bytearray(24)
        for at, part in spans:
            text[at : at + len(part)] = part
        return np.frombuffer(bytes(text), dtype="<u8")

    for c in range(_CSV_ZERO + 1):
        e = c + _CSV_E_MIN
        for neg in (0, 1):
            for kept in range(18):
                key = (c * 2 + neg) * 18 + kept
                sign = b"-" if neg else b""
                if c == _CSV_ZERO:  # "0", whatever K is
                    prefix, point, tail, kept = sign + b"0", 0, b"", 0
                elif e >= 0:
                    prefix, point, tail = sign, min(e + 1, kept), b""
                    whole[c] = e + 1
                elif e >= -4:
                    prefix, point, tail = sign + b"0." + b"0" * (-e - 1), kept, b""
                else:
                    prefix, point, tail = sign, min(1, kept), b"e-%02d" % -e
                dot = b"." if point < kept else b""
                frame[:, key] = words([
                    (0, prefix), (len(prefix), b"0" * point), (len(prefix) + point, dot),
                    (len(prefix) + point + len(dot), b"0" * (kept - point)),
                    (len(prefix) + kept + len(dot), tail + b",")])
                below[:, key] = words([(0, b"\xff" * point)])
                shift[key] = 8 * len(prefix)
                length[key] = len(prefix) + kept + len(dot) + len(tail) + 1
    # No 2**j with 0 < |j| <= 1023 is within 4e-4 of a power of ten, so
    # the float product floors to the exact log10.
    log10 = np.array([0] + [math.floor(j * math.log10(2)) for j in range(-1022, 1024)] + [0])
    ten = np.array([float("1e%d" % (e + 1)) for e in log10])
    ten[[0, -1]] = np.inf
    return SimpleNamespace(
        log10=log10, ten=ten, pow5=_U64(5) ** np.arange(27, -1, -1, dtype=_U64),
        offset=np.array([[-_CSV_E_MIN], [1058]]), limit=np.array([[27], [62]], dtype=_U64),
        zeros=sum((g % 10**j == 0).astype(np.uint8) for j in range(1, 5)), whole=whole,
        at1=digits << _U64(8), at5=digits << _U64(40), at8=digits >> _U64(24),
        below=below, shift=shift, frame=frame, length=length)


class _CsvScratch:
    """One thread's formatter buffers, for up to ``size`` values at a
    time, in one allocation: nine uint64 rows, eight byte rows and the
    words of the text, at most 25 bytes a value."""

    def __init__(self, size):
        self.size = size
        self.buffer = np.empty(10 * size + 25 * size // 8 + 4, dtype=_U64)

    def views(self, n):
        """The rows, the byte rows and the text words for n values."""
        rows = self.buffer[: 9 * n].reshape(9, n)
        flags = self.buffer[9 * self.size : 10 * self.size].view(np.uint8)[: 8 * n].reshape(8, n)
        return rows, flags, self.buffer[10 * self.size :]


# The formatter's buffers of each thread that formats, made on its first
# call (or a larger one, up to _CSV_BLOCK_VALUES values) and reused for
# every later one.  The writer's pool threads last one write, so each of
# its workers makes them once per write, and they go with the thread.
_csv_scratch = threading.local()


def _csv_rows(block):
    """The CSV lines of a 2-D array of values, as bytes: each value as
    "%.17g" % value, comma-separated, one line per row.

    The values are formatted in the calling thread's scratch buffers, at
    most _CSV_BLOCK_VALUES at a time, by numpy calls that release the
    GIL, so that threads formatting at once run in parallel."""
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    size = max(1, min(x.size, _CSV_BLOCK_VALUES))
    scratch = getattr(_csv_scratch, "buffers", None)
    if scratch is None or scratch.size < size:
        scratch = _csv_scratch.buffers = _CsvScratch(size)
    step, cols = scratch.size, block.shape[1]
    return b"".join([_csv_text(scratch, x[i : i + step], cols, i) for i in range(0, x.size, step)])


def _csv_text(scratch, x, cols, first):
    """The text of the values x, value ``first`` on of rows of ``cols``
    values, computed in the buffers of scratch."""
    tab = _csv_tables()
    bits = x.view(_U64)
    rows, flags, words = scratch.views(x.size)
    signed = rows.view(np.int64)
    fast, flag = flags[:2].view(bool)

    # The biased exponent in 1, then E = floor(log10|x|) in 0 from it and
    # one comparison (anything for 0, subnormals, inf and nan), the class
    # c = E - _CSV_E_MIN in 2, k in 1 and k - 1 in 3, p = 5**s in 4 and m
    # in 5, and the fast mask so far.
    np.right_shift(bits, 52, out=rows[1])
    rows[1] &= 0x7FF
    np.take(tab.log10, signed[1], out=signed[0], mode="clip")
    np.take(tab.ten, signed[1], out=rows[3].view(np.float64), mode="clip")
    np.abs(x, out=rows[4].view(np.float64))
    np.greater_equal(rows[4].view(np.float64), rows[3].view(np.float64), out=flag)
    signed[0] += flag
    np.subtract(signed[0], signed[1], out=signed[1])
    np.add(signed[:2], tab.offset, out=signed[2:4])
    np.less_equal(rows[2:4], tab.limit, out=flags[6:8].view(bool))
    np.logical_and(*flags[6:8].view(bool), out=fast)
    np.add(rows[3], 1, out=rows[1])
    np.take(tab.pow5, signed[2], out=rows[4], mode="clip")
    np.bitwise_and(bits, _U64(2**52 - 1), out=rows[5])
    rows[5] |= _U64(2**52)

    # m * p as hi * 2**64 + lo, from 32-bit limbs (m < 2**53, p < 2**63):
    # lo in 0, hi in 5.
    low = _U64(2**32 - 1)
    np.bitwise_and(rows[4:6], low, out=rows[6:8])  # p0, m0
    rows[4:6] >>= 32  # p1, m1
    np.multiply(rows[7], rows[6], out=rows[0])  # t = m0 * p0
    np.multiply(rows[7], rows[4], out=rows[8])
    np.multiply(rows[5], rows[6], out=rows[6])
    rows[5] *= rows[4]
    rows[8] += rows[6]
    np.right_shift(rows[0], 32, out=rows[6])
    rows[8] += rows[6]  # mid = m0 * p1 + m1 * p0 + (t >> 32)
    rows[0] &= low
    np.left_shift(rows[8], 32, out=rows[6])
    rows[0] |= rows[6]
    rows[8] >>= 32
    rows[5] += rows[8]

    # q = (hi * 2**64 + lo) / 2**k in 4, rounded half to even: up when the
    # remainder, moved to the top of a word and plus 1 if q is odd, is
    # above half of it.  Then q is zeroed where the fast path fails.
    np.subtract(64, rows[1], out=rows[6])
    np.left_shift(rows[5], rows[6], out=rows[4])
    np.right_shift(rows[0], rows[1], out=rows[7])
    rows[4] |= rows[7]
    rows[0] <<= rows[6]
    rows[5] >>= rows[1]
    np.equal(rows[5], 0, out=flag)
    fast &= flag
    np.greater_equal(rows[4], _U64(10**16), out=flag)
    fast &= flag
    np.bitwise_and(rows[4], 1, out=rows[7])
    rows[0] |= rows[7]
    np.greater(rows[0], _U64(2**63), out=flag)
    rows[4] += flag
    np.less(rows[4], _U64(10**17), out=flag)
    fast &= flag
    rows[4] *= fast

    # The lead digit in 3, and the groups of four digits after it in 5-8,
    # in the order 1, 3, 2, 4: quotients by constants (faster in numpy
    # than divmod), then the remainders from them.
    np.floor_divide(rows[4], _U64(10**16), out=rows[3])
    np.multiply(rows[3], _U64(10**16), out=rows[5])
    np.subtract(rows[4], rows[5], out=rows[5])
    np.floor_divide(rows[5], _U64(10**8), out=rows[7])
    np.multiply(rows[7], _U64(10**8), out=rows[8])
    np.subtract(rows[5], rows[8], out=rows[8])
    np.floor_divide(rows[7:9], _U64(10**4), out=rows[5:7])
    np.multiply(rows[5:7], _U64(10**4), out=rows[0:2])
    np.subtract(rows[7:9], rows[0:2], out=rows[7:9])
    quads = signed[5:9]

    # K, the digits kept: the significant ones, and all before the point.
    # Trailing zeros of each group, then of each half, then of all 16.
    zeros = flags[2:6]
    np.take(tab.zeros, quads, out=zeros, mode="clip")
    np.equal(zeros[2:], 4, out=flags[6:])
    zeros[:2] *= flags[6:]
    zeros[2:] += zeros[:2]
    np.equal(zeros[3], 8, out=flags[6])
    zeros[2] *= flags[6]
    kept = zeros[3]
    kept += zeros[2]
    np.subtract(17, kept, out=kept)
    # The key, (class * 2 + sign) * 18 + K, in 2; 0 and slow values are
    # of class _CSV_ZERO, whose text is "0" whatever K is.
    np.logical_not(fast, out=flag)
    np.copyto(signed[2], _CSV_ZERO, where=flag)
    np.take(tab.whole, signed[2], out=zeros[0], mode="clip")
    np.maximum(kept, zeros[0], out=kept)
    signed[2] *= 36
    np.right_shift(bits, 63, out=rows[0])
    rows[0] *= 18
    rows[2] += rows[0]
    rows[2] += kept
    key = signed[2]

    # The digit values as bytes 0-16 of the words 3-5.
    digit = rows[3:6]
    np.take(tab.at1, quads[:2], out=rows[0:2], mode="clip")
    np.take(tab.at8, quads[2:], out=digit[1:], mode="clip")
    digit[:2] |= rows[0:2]
    np.take(tab.at5, quads[2:], out=rows[0:2], mode="clip")
    digit[:2] |= rows[0:2]

    # The text, in 6-8: the digits before the point, those after it one
    # byte on, all moved by the sign and prefix, in the frame.
    text = rows[6:9]
    np.take(tab.below, key, axis=1, out=text, mode="clip")
    text &= digit
    digit ^= text
    np.right_shift(digit[:2], 56, out=rows[0:2])
    digit <<= 8
    text |= digit
    text[1:] |= rows[0:2]
    np.take(tab.shift, key, out=rows[0], mode="clip")
    np.subtract(64, rows[0], out=rows[1])
    np.right_shift(text[:2], rows[1], out=digit[:2])
    text <<= rows[0]
    text[1:] |= digit[:2]
    np.take(tab.frame, key, axis=1, out=digit, mode="clip")
    text |= digit
    length = signed[0]
    np.take(tab.length, key, out=length, mode="clip")

    # Slow values: their lengths now, their text once the offsets are known.
    np.not_equal(x, 0, out=flag)
    np.greater(flag, fast, out=flag)
    texts = []
    if flag.any():
        slow = np.flatnonzero(flag)
        texts = [b"%.17g," % v for v in x[slow].tolist()]
        length[slow] = [len(t) for t in texts]

    # Each text added into the words at its offset: word offset // 8, the
    # bytes moved by offset % 8.
    end, start, at = signed[1], signed[0], signed[2]
    np.cumsum(length, out=end)
    np.subtract(end, length, out=start)
    np.right_shift(start, 3, out=at)
    np.bitwise_and(rows[0], 7, out=rows[3])
    rows[3] <<= 3
    np.subtract(64, rows[3], out=rows[4])
    total = int(end[-1])
    words = words[: total // 8 + 4]
    words[:] = 0
    np.left_shift(text[0], rows[3], out=rows[5])
    np.add.at(words, at, rows[5])
    for j in (1, 2):
        np.left_shift(text[j], rows[3], out=rows[5])
        text[j - 1] >>= rows[4]
        rows[5] |= text[j - 1]
        np.add.at(words[j:], at, rows[5])
    text[2] >>= rows[4]
    np.add.at(words[3:], at, text[2])
    out = words.view(np.uint8)
    if texts:
        for i, t in zip(start[slow].tolist(), texts):
            out[i : i + len(t)] = np.frombuffer(t, dtype=np.uint8)
    ends = end[(cols - 1 - first) % cols :: cols]
    np.subtract(ends, 1, out=signed[3, : ends.size])
    out[signed[3, : ends.size]] = ord("\n")
    return out[:total].tobytes()


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


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be an integer")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
