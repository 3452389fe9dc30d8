"""Exact rational-arithmetic oracles for the numeric tests.

Everything here works on plain coefficient lists (ascending powers) with
fractions.Fraction entries, so expected values are computed by symbolic
antiderivatives with no floating-point quadrature involved.  These
helpers stay deliberately independent of the package under test.

The floating-point references at the end (``piecewise_eval_loop``,
``stieltjes_node_formula`` and ``gaussian_moment_loop``) are the plain
one-piece-at-a-time and one-term-at-a-time computations that the
package's vectorized code must equal bit for bit; ``to_csv_loop`` is the
ensemble CSV writer built on Python's own ``%.17g``, whose bytes the
package's writer must equal, and ``to_binary_loop`` the binary writer
built on ``struct`` and ``tobytes``.  ``serial_ensemble`` builds the
paths those writers read one row at a time, each from a freshly built
numpy Philox, with none of the package's sampling code.
``exact_law_columns_loop`` is the exact-law column draw one path and
one term at a time, in Python floats, whose bits the package's
vectorized draw must equal.  ``piecewise_combine_numpy`` is the
piecewise product or sum through ``np.union1d``, ``npoly.polymul`` and
``npoly.polyadd``, and ``breakpoints_on_grid_isin`` grid membership
through ``np.isin``: the numpy routes whose bits the package's merge,
product, sum and membership test must reproduce.  ``mean_se_two_pass``
is the mean and standard error of a whole array in two passes, which
the package's span-by-span reduction must agree with to a few ulps.
"""

import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import polynomial as npoly


def _frac(x):
    # numpy ints/floats overflow or confuse Fraction arithmetic; go native
    if isinstance(x, Fraction):
        return x
    if float(x) == int(x):
        return Fraction(int(x))
    return Fraction(float(x))


def frac_coeffs(cs):
    return [_frac(c) for c in cs]


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += _frac(c)
    for i, c in enumerate(b):
        out[i] += _frac(c)
    return out


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += _frac(ca) * _frac(cb)
    return out


def poly_eval(c, x):
    x = _frac(x)
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + _frac(coef)
    return acc


def poly_integral(c, lo, hi):
    """Definite integral of the polynomial over [lo, hi], exactly."""
    lo, hi = _frac(lo), _frac(hi)
    acc = Fraction(0)
    for i, coef in enumerate(c):
        acc += _frac(coef) * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return acc


def product_integral(lo, hi, *polys):
    """Integral over [lo, hi] of the product of the given polynomials."""
    prod = [Fraction(1)]
    for p in polys:
        prod = poly_mul(prod, p)
    return poly_integral(prod, lo, hi)


def partial_pairings(indices):
    """All ways to split the index tuple into disjoint pairs plus
    singletons, yielded as (pairs, singles): first the splits with
    indices[0] as a singleton, then those pairing it with each later
    index in turn."""
    if not indices:
        yield (), ()
        return
    first, rest = indices[0], indices[1:]
    for pairs, singles in partial_pairings(rest):
        yield pairs, (first,) + singles
    for pos in range(len(rest)):
        other = rest[pos]
        remaining = rest[:pos] + rest[pos + 1 :]
        for pairs, singles in partial_pairings(remaining):
            yield ((first, other),) + pairs, singles


def gaussian_moment_loop(mean, cov):
    """E[prod X_j] one pairing at a time, in floating point: each term is
    1.0 times its pair covariances and then its singleton means, and the
    terms are summed in enumeration order from 0.0."""
    total = 0.0
    for pairs, singles in partial_pairings(tuple(range(len(mean)))):
        term = 1.0
        for i, j in pairs:
            term *= cov[i, j]
        for i in singles:
            term *= mean[i]
        total += term
    return total


def piecewise_eval_loop(f, tau):
    """f(tau) one piece at a time: clip into [0, T], find each point's
    piece (the one on the right at a breakpoint, the last one at T) and
    apply ``npoly.polyval`` with that piece's coefficients to its points."""
    tau_arr = np.asarray(tau, dtype=float)
    T = float(f.breakpoints[-1])
    t = np.clip(tau_arr, 0.0, T)
    n_pieces = len(f.coeffs)
    idx = np.clip(np.searchsorted(f.breakpoints, t, side="right") - 1, 0, n_pieces - 1)
    out = np.empty_like(t)
    for i in np.unique(idx):
        mask = idx == i
        out[mask] = npoly.polyval(t[mask], f.coeffs[i])
    return float(out) if np.isscalar(tau) or tau_arr.ndim == 0 else out


def piecewise_combine_numpy(f, g, op):
    """(breakpoints, pieces) of f op g by numpy's wrappers: the common
    breakpoints by ``np.union1d``, and on each piece of that refinement
    op, ``npoly.polymul`` or ``npoly.polyadd``, of the pieces of f and g
    holding its start."""
    bp = np.union1d(f.breakpoints, g.breakpoints)
    i = np.searchsorted(f.breakpoints, bp[:-1], side="right") - 1
    j = np.searchsorted(g.breakpoints, bp[:-1], side="right") - 1
    return bp, [op(f.coeffs[a], g.coeffs[b]) for a, b in zip(i, j)]


def breakpoints_on_grid_isin(breakpoints, nodes):
    """Whether every breakpoint is a grid node, by ``np.isin``."""
    return bool(np.all(np.isin(breakpoints, nodes)))


def stieltjes_node_formula(f, w, lo, hi, order):
    """Gauss-Legendre rule of the given order on every sub-piece of
    [lo, hi] cut at the breakpoints of f and w, with f(nodes) * w(nodes)
    evaluated by ``piecewise_eval_loop``."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    cuts = np.union1d(f.breakpoints, w.breakpoints)
    cuts = cuts[(cuts > lo) & (cuts < hi)]
    cuts = np.concatenate([[lo], cuts, [hi]])
    half = 0.5 * np.diff(cuts)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    vals = (piecewise_eval_loop(f, nodes) * piecewise_eval_loop(w, nodes)).reshape(-1, order)
    return float(np.dot(vals @ gl_w, half))


def to_csv_loop(ensemble, path):
    """Ensemble CSV by Python's ``%`` formatting: the node times, then one
    line per path, every value as ``%.17g``."""
    row = ",".join(["%.17g"] * (ensemble.grid.N + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(row % tuple(ensemble.grid.nodes.tolist()))
        for r0 in range(0, ensemble.n_paths, 256):
            block = ensemble.values[r0 : r0 + 256]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


# Where the path rows' Philox streams start, as the package documents
# it: path p reads the stream keyed by (seed, p) from this counter.
PATH_ROW_COUNTER = 2**63 << 192


def serial_ensemble(profile, grid, n_paths, seed):
    """The grid, n_paths, seed and values of an ensemble, one path at a
    time: path p's N normals z from a new Philox keyed by (seed, p) at
    PATH_ROW_COUNTER, its increments z * sqrt(db) + da from the
    profile's primitives on the grid, and its values their running sum
    after a leading 0."""
    da = np.diff(profile.a(grid.nodes))
    sdb = np.sqrt(np.diff(profile.b(grid.nodes)))
    values = np.zeros((n_paths, grid.N + 1))
    for p in range(n_paths):
        key = np.array([seed, p], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key, counter=PATH_ROW_COUNTER))
        values[p, 1:] = np.cumsum(z.standard_normal(grid.N) * sdb + da)
    return SimpleNamespace(grid=grid, n_paths=n_paths, seed=seed, values=values)


def to_binary_loop(ensemble, path):
    """Ensemble binary one row at a time: magic, N, n_paths and seed as
    little-endian u64, then the nodes and each path as little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(b"GBMPENS1")
        fh.write(struct.pack("<QQQ", ensemble.grid.N, ensemble.n_paths, ensemble.seed))
        fh.write(ensemble.grid.nodes.astype("<f8").tobytes())
        for row in ensemble.values:
            fh.write(row.astype("<f8").tobytes())


def exact_law_columns_loop(mu, G, seed, n_paths, chunk):
    """The (n_paths, c) columns mu + z G^T of a law (mu, G), G of shape
    (c, r), one path and one column at a time.  Path p of block b =
    p // chunk reads z_j, its normal in dimension j: normal p - b * chunk
    of the Philox stream keyed by (seed, b) with its counter at j << 192.
    Column i is mu_i + z_0 G_i0 + z_1 G_i1 + ..., added left to right;
    a column whose row of G is zero is mu_i."""
    c, r = G.shape
    out = np.empty((n_paths, c))
    for b, p0 in enumerate(range(0, n_paths, chunk)):
        rows = min(chunk, n_paths - p0)
        z = []
        for j in range(r):
            bitgen = np.random.Philox(key=np.array([seed, b], dtype=np.uint64), counter=j << 192)
            z.append(np.random.Generator(bitgen).standard_normal(rows).tolist())
        for p in range(rows):
            for i in range(c):
                value = float(mu[i])
                if any(G[i]):
                    for j in range(r):
                        value = value + z[j][p] * float(G[i, j])
                out[p0 + p, i] = value
    return out


def mean_se_two_pass(vals):
    """The mean of a whole array of per-path values, real or complex, and
    its standard error: the mean of |x - mean|^2, times n / (n - 1),
    over n, square-rooted."""
    n = vals.shape[0]
    mean = complex(vals.mean())
    centered = vals - mean
    sq = np.mean(centered.real**2) + np.mean(centered.imag**2)
    var = float(sq) * n / (n - 1)
    return mean, float(np.sqrt(var / n))
