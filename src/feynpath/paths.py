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
the projected and the materializing streams run their blocks on a thread
pool with results that do not depend on the number of threads.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .cameron_martin import CMElement, SuppElement, as_cm
from .errors import GridMismatch, NonPositiveVariance, ProfileMismatch
from .measure import ProfilePair

DEFAULT_GRID_N = 1024
CHUNK_PATHS = 4096
# Rows filled and projected at a time by the projected stream; divides
# CHUNK_PATHS, so each worker's scratch is _SUB_ROWS x N doubles.
_SUB_ROWS = 256

_BINARY_MAGIC = b"GBMPENS1"


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
    """Sampled paths: values[p, i] is path p at grid node i (column 0 zero)."""

    grid: TimeGrid
    values: np.ndarray
    seed: int
    profile: ProfilePair

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path):
        """First row is the node times, then one row per path.  Every
        value is written as %.17g, which reads back as the same double."""
        row = ",".join(["%.17g"] * (self.grid.N + 1)) + "\n"
        with open(path, "w") as fh:
            fh.write(row % tuple(self.grid.nodes.tolist()))
            for r0 in range(0, self.n_paths, _SUB_ROWS):
                block = self.values[r0 : r0 + _SUB_ROWS]
                fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))

    def to_binary(self, path):
        """Compact layout: magic, N, n_paths, seed (little-endian u64),
        then the nodes and the row-major values as little-endian f64."""
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<QQQ", self.grid.N, self.n_paths, self.seed))
            fh.write(np.ascontiguousarray(self.grid.nodes, dtype="<f8"))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8"))

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


@dataclass(frozen=True, eq=False)
class MeanCovTable:
    """Per-node mean gamma and cumulative variance beta of a Z_k process."""

    grid: TimeGrid
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if self.gamma.shape != self.grid.nodes.shape or self.beta.shape != self.grid.nodes.shape:
            raise ValueError("gamma/beta must be per-node arrays")
        if self.gamma[0] != 0.0 or self.beta[0] != 0.0:
            raise ValueError("gamma and beta must vanish at t=0")
        if np.any(np.diff(self.beta) < -1e-12 * max(1.0, abs(self.beta[-1]))):
            raise ValueError("beta must be nondecreasing")


def increment_moments(profile: ProfilePair, grid: TimeGrid):
    """Per-interval (da, db) from the exact primitives of a' and b'."""
    da = np.diff(profile.a(grid.nodes))
    db = np.diff(profile.b(grid.nodes))
    if np.any(db <= 0.0):
        raise NonPositiveVariance("b increments must be positive on the grid")
    return da, db


def stream_increments(
    profile: ProfilePair, grid: TimeGrid, n_paths: int, seed: int, onto=None, out=None
):
    """Yield (first_path_index, increments) chunks of the path ensemble.

    The yielded array is an internal buffer reused between chunks; copy it
    if it must outlive the iteration.  Chunk boundaries are fixed at
    CHUNK_PATHS, so values never depend on how the consumer batches work.

    With ``onto``, an (N, c) matrix of left densities, the chunks are
    (first_path_index, columns) instead: the increments projected onto
    the c columns, computed straight from the normals as
    ``z @ (sqrt(db) * onto) + da @ onto`` without building the increments.
    The columns are fresh arrays.

    With ``out``, an (n_paths, N) float64 array whose rows may be strided
    (such as ``values[:, 1:]``), each chunk's increments are written
    straight into its rows of ``out`` and the chunks are
    (first_path_index, view of those rows of out).

    With ``onto`` or ``out`` the blocks run on a thread pool with one
    worker per usable CPU, bit-identical for any worker count and to the
    serial form.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    _check_seed(seed)
    da, db = increment_moments(profile, grid)
    sdb = np.sqrt(db)
    if onto is not None or out is not None:
        yield from _filled_blocks(da, sdb, n_paths, seed, onto=onto, out=out)
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


def _filled_blocks(da, sdb, n_paths, seed, onto=None, out=None, workers=None):
    """Yield (p0, rows) per block, in block order, for exactly one of
    ``onto`` (rows are fresh projected columns) or ``out`` (rows are a
    view of the block's rows of out, holding its increments).

    Each block's Philox stream fills a per-worker _SUB_ROWS x N scratch
    buffer z one sub-block at a time; numpy continues the stream across
    the fills, so the normals equal those of one whole-block fill.  Each
    sub-block becomes ``op(z, factor) + shift`` in its destination rows:
    ``z @ (sqrt(db) * onto) + da @ onto`` or ``z * sqrt(db) + da``, the
    latter in the serial stream's operation order.  Workers run numpy
    only, and a block's arithmetic does not depend on which worker runs
    it, so any ``workers`` gives the same bits.
    """
    if (onto is None) == (out is None):
        raise ValueError("give exactly one of onto and out")
    if onto is not None:
        onto = np.asarray(onto, dtype=float)
        if onto.ndim != 2 or onto.shape[0] != sdb.size:
            raise ValueError("onto must be an (N, c) matrix over the grid intervals")
        op, factor, shift = np.matmul, sdb[:, None] * onto, da @ onto

        def dest(p0, rows):
            return np.empty((rows, onto.shape[1]))
    else:
        if not (isinstance(out, np.ndarray) and out.dtype == np.float64
                and out.shape == (n_paths, sdb.size)):
            raise ValueError("out must be an (n_paths, N) float64 array")
        op, factor, shift = np.multiply, sdb, da

        def dest(p0, rows):
            return out[p0 : p0 + rows]

    starts = range(0, n_paths, CHUNK_PATHS)
    sub = min(_SUB_ROWS, n_paths)
    scratch = threading.local()

    def fill(block):
        p0 = starts[block]
        rows = min(CHUNK_PATHS, n_paths - p0)
        z = getattr(scratch, "z", None)
        if z is None:
            z = scratch.z = np.empty((sub, sdb.size))
        gen = _block_generator(seed, block)
        dst = dest(p0, rows)
        for r0 in range(0, rows, sub):
            r1 = min(r0 + sub, rows)
            gen.standard_normal(out=z[: r1 - r0])
            op(z[: r1 - r0], factor, out=dst[r0:r1])
            np.add(dst[r0:r1], shift, out=dst[r0:r1])
        return p0, dst

    if workers is None:
        workers = _usable_cpus()
    workers = max(1, min(workers, len(starts)))
    # Imported here, not at the top: a run that samples no paths never
    # loads the pool machinery (about 1 MiB resident with logging).
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fill, range(len(starts)))


def sample_gbmp_paths(
    profile: ProfilePair, grid: TimeGrid, n_paths: int, seed: int
) -> PathEnsemble:
    """Materialize an ensemble of sampled paths (x(0) = 0).

    Memory is n_paths * (N+1) doubles: the blocks fill their increments
    straight into the rows of the ensemble, which are then summed in
    place.  Use :func:`stream_increments` for estimates over very large
    ensembles.
    """
    values = np.zeros((n_paths, grid.N + 1))
    for _, inc in stream_increments(profile, grid, n_paths, seed, out=values[:, 1:]):
        np.cumsum(inc, axis=1, out=inc)
    return PathEnsemble(grid=grid, values=values, seed=seed, profile=profile)


def left_density(w, grid: TimeGrid) -> np.ndarray:
    """Density of w evaluated at the left endpoint of every grid interval."""
    poly = as_cm(w).density if isinstance(w, (CMElement, SuppElement)) else w
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
    wc = as_cm(w)
    if wc.profile != as_cm(k).profile:
        raise ProfileMismatch("k and w live over different profiles")
    prim = (wc.density * as_cm(k).density * wc.profile.b_prime).antiderivative()
    return prim(grid.nodes)


def gamma_beta(k: SuppElement, grid: TimeGrid) -> MeanCovTable:
    """Mean function gamma_k (integral of Dk da) and variance function
    beta_k (integral of Dk^2 db) at the grid nodes, exactly."""
    kc = as_cm(k)
    profile = kc.profile
    gamma = (kc.density * profile.a_prime).antiderivative()(grid.nodes)
    beta = (kc.density * kc.density * profile.b_prime).antiderivative()(grid.nodes)
    return MeanCovTable(grid=grid, gamma=gamma, beta=beta)


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be an integer")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
