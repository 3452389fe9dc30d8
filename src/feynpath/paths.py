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
the projected stream run its blocks on a thread pool with results that
do not depend on the number of threads.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
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
        """First row is the node times, then one row per path."""
        with open(path, "w") as fh:
            fh.write(",".join("%.17g" % t for t in self.grid.nodes) + "\n")
            for row in self.values:
                fh.write(",".join("%.17g" % v for v in row) + "\n")

    def to_binary(self, path):
        """Compact layout: magic, N, n_paths, seed (little-endian u64),
        then the nodes and the row-major values as little-endian f64."""
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<QQQ", self.grid.N, self.n_paths, self.seed))
            fh.write(self.grid.nodes.astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @staticmethod
    def read_binary(path):
        """Returns (nodes, values, seed); the profile is not serialized."""
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _BINARY_MAGIC:
                raise ValueError("not an ensemble file (bad magic %r)" % magic)
            n_int, n_paths, seed = struct.unpack("<QQQ", fh.read(24))
            nodes = np.frombuffer(fh.read(8 * (n_int + 1)), dtype="<f8")
            values = np.frombuffer(fh.read(8 * n_paths * (n_int + 1)), dtype="<f8")
        return nodes.copy(), values.reshape(n_paths, n_int + 1).copy(), seed


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
    profile: ProfilePair, grid: TimeGrid, n_paths: int, seed: int, onto=None
):
    """Yield (first_path_index, increments) chunks of the path ensemble.

    The yielded array is an internal buffer reused between chunks; copy it
    if it must outlive the iteration.  Chunk boundaries are fixed at
    CHUNK_PATHS, so values never depend on how the consumer batches work.

    With ``onto``, an (N, c) matrix of left densities, the chunks are
    (first_path_index, columns) instead: the increments projected onto
    the c columns, computed straight from the normals as
    ``z @ (sqrt(db) * onto) + da @ onto`` without building the increments.
    The blocks then run on a thread pool with one worker per usable CPU,
    and the columns are fresh arrays, bit-identical for any worker count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    _check_seed(seed)
    da, db = increment_moments(profile, grid)
    sdb = np.sqrt(db)
    if onto is not None:
        yield from _projected_blocks(da, sdb, onto, n_paths, seed)
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


def _projected_blocks(da, sdb, onto, n_paths, seed, workers=None):
    """Yield (p0, columns) per block, in block order.

    Each block's Philox stream fills a per-worker _SUB_ROWS x N scratch
    buffer one sub-block at a time; numpy continues the stream across the
    fills, so the normals equal those of one whole-block fill.  Workers
    run numpy only, and a block's arithmetic does not depend on which
    worker runs it, so any ``workers`` gives the same bits.
    """
    onto = np.asarray(onto, dtype=float)
    if onto.ndim != 2 or onto.shape[0] != sdb.size:
        raise ValueError("onto must be an (N, c) matrix over the grid intervals")
    scaled = sdb[:, None] * onto
    shift = da @ onto
    starts = range(0, n_paths, CHUNK_PATHS)
    sub = min(_SUB_ROWS, n_paths)
    scratch = threading.local()

    def project(block):
        p0 = starts[block]
        rows = min(CHUNK_PATHS, n_paths - p0)
        z = getattr(scratch, "z", None)
        if z is None:
            z = scratch.z = np.empty((sub, sdb.size))
        gen = _block_generator(seed, block)
        cols = np.empty((rows, onto.shape[1]))
        for r0 in range(0, rows, sub):
            r1 = min(r0 + sub, rows)
            gen.standard_normal(out=z[: r1 - r0])
            np.matmul(z[: r1 - r0], scaled, out=cols[r0:r1])
        cols += shift
        return p0, cols

    if workers is None:
        workers = _usable_cpus()
    workers = max(1, min(workers, len(starts)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(project, range(len(starts)))


def sample_gbmp_paths(
    profile: ProfilePair, grid: TimeGrid, n_paths: int, seed: int
) -> PathEnsemble:
    """Materialize an ensemble of sampled paths (x(0) = 0).

    Memory is n_paths * (N+1) doubles; use :func:`stream_increments` for
    estimates over very large ensembles.
    """
    values = np.zeros((n_paths, grid.N + 1))
    for p0, inc in stream_increments(profile, grid, n_paths, seed):
        np.cumsum(inc, axis=1, out=values[p0 : p0 + inc.shape[0], 1:])
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
