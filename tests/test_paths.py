import io
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from feynpath import (
    CMElement,
    GridMismatch,
    NonPositiveVariance,
    PathEnsemble,
    PiecewisePoly,
    ProfileMismatch,
    ProfilePair,
    SuppElement,
    TimeGrid,
    build_profile,
    identity_element,
    odot,
    pwz_integral,
    sample_gbmp_paths,
    stream_increments,
    z_process_path,
    z_shift_path,
)

from feynpath import paths
from feynpath.paths import CHUNK_PATHS, _SUB_ROWS, _csv_rows

from conftest import indicator_element, pp, random_poly, random_nonvanishing_poly
from oracles import serial_ensemble, to_binary_loop, to_csv_loop


@pytest.fixture
def grid256(standard):
    return TimeGrid.build(standard, n=256)


def test_grid_build_merges_breakpoints(standard):
    w = indicator_element(0.3, standard)
    grid = TimeGrid.build(standard, [w], n=10)
    assert 0.3 in grid.nodes.tolist()
    grid.require_breakpoints(w.density)
    other = PiecewisePoly([0.0, 0.17, 1.0], [[1.0], [2.0]])
    with pytest.raises(GridMismatch):
        grid.require_breakpoints(other)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 1.0]))


def test_sampling_is_deterministic(standard, grid256):
    a = sample_gbmp_paths(standard, grid256, 37, 123)
    b = sample_gbmp_paths(standard, grid256, 37, 123)
    assert np.array_equal(a.values, b.values)
    c = sample_gbmp_paths(standard, grid256, 37, 124)
    assert not np.array_equal(a.values, c.values)


def test_first_paths_stable_under_larger_runs(standard, grid256):
    small = sample_gbmp_paths(standard, grid256, 10, 99)
    large = sample_gbmp_paths(standard, grid256, 200, 99)
    assert np.array_equal(small.values, large.values[:10])


def test_paths_start_at_zero(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 5, 7)
    assert np.all(ens.values[:, 0] == 0.0)


def test_streaming_matches_materialized(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 20, 5)
    rebuilt = np.zeros_like(ens.values)
    for p0, inc in stream_increments(standard, grid256, 20, 5):
        rebuilt[p0 : p0 + inc.shape[0], 1:] = np.cumsum(inc, axis=1)
    assert np.array_equal(ens.values, rebuilt)


def _density_columns(grid):
    t = grid.nodes[:-1]
    return np.column_stack([np.ones_like(t), t, np.cos(3.0 * t)])


@pytest.mark.parametrize("n", [1, 2 * CHUNK_PATHS + 301])
def test_projected_stream_matches_projected_increments(standard, grid256, n):
    dens = _density_columns(grid256)
    ref = np.concatenate([inc @ dens for _, inc in stream_increments(standard, grid256, n, 17)])
    chunks = list(stream_increments(standard, grid256, n, 17, onto=[dens]))
    assert [p0 for p0, _ in chunks] == list(range(0, n, CHUNK_PATHS))
    assert all(isinstance(cols, tuple) and len(cols) == 1 for _, cols in chunks)
    cols = np.concatenate([c for _, (c,) in chunks])
    assert cols.shape == (n, 3)
    # the fused form rounds differently, so agreement is to the column scale
    assert np.max(np.abs(cols - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_projected_stream_is_bit_identical_across_workers(standard, grid256, monkeypatch):
    n = 2 * CHUNK_PATHS + 301
    dens = _density_columns(grid256)

    def stream():
        return np.concatenate([c for _, (c,) in stream_increments(standard, grid256, n, 23,
                                                                  onto=(dens,))])

    public = stream()
    runs = []
    for w in (1, 2, 3, 2):
        monkeypatch.setattr(paths, "_usable_cpus", lambda: w)
        runs.append(stream())
    assert all(np.array_equal(runs[0], r) for r in runs[1:] + [public])


def test_projected_stream_rejects_misshaped_densities(standard, grid256):
    dens = np.ones((grid256.N, 2))
    # a bare matrix is refused as such, even one of the right shape
    with pytest.raises(ValueError, match="tuple or list"):
        next(stream_increments(standard, grid256, 10, 1, onto=dens))
    for onto in ((), [], (np.ones((grid256.N + 1, 2)),), (dens, np.ones(grid256.N))):
        with pytest.raises(ValueError):
            next(stream_increments(standard, grid256, 10, 1, onto=onto))


@pytest.mark.parametrize("workers", [1, 2])
def test_one_stream_onto_several_matrices_equals_a_stream_per_matrix(standard, grid256,
                                                                     monkeypatch, workers):
    """Each matrix of a shared stream gets the bits of its own stream."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    n = 2 * CHUNK_PATHS + 301  # a multiple of neither _SUB_ROWS nor CHUNK_PATHS
    assert n % _SUB_ROWS and n % CHUNK_PATHS
    dens = _density_columns(grid256)
    mats = (dens[:, :2].copy(), dens)

    def stream(onto):
        return list(stream_increments(standard, grid256, n, 29, onto=onto))

    shared = stream(mats)
    assert [p0 for p0, _ in shared] == list(range(0, n, CHUNK_PATHS))
    assert all(isinstance(cols, tuple) and len(cols) == 2 for _, cols in shared)
    for j, d in enumerate(mats):
        alone = np.concatenate([c for _, (c,) in stream([d])])
        together = np.concatenate([cols[j] for _, cols in shared])
        assert together.shape == alone.shape and together.tobytes() == alone.tobytes()
    listed = [cols for _, cols in stream(list(mats))]
    assert all(a.tobytes() == b.tobytes()
               for got, (_, want) in zip(listed, shared) for a, b in zip(got, want))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_filled_stream_is_bit_identical_to_serial(tmp_path, standard, grid256, monkeypatch,
                                                  workers):
    """The fresh path blocks, the rows written to a file and the built
    values all equal the serial increments' running sums."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    n = 2 * CHUNK_PATHS + 301
    ref = np.zeros((n, grid256.N + 1))
    for p0, inc in stream_increments(standard, grid256, n, 31):
        ref[p0 : p0 + inc.shape[0], 1:] = np.cumsum(inc, axis=1)
    values, seen = np.full_like(ref, np.nan), []
    for p0, rows in stream_increments(standard, grid256, n, 31, paths=True):
        assert rows.dtype == np.float64 and rows.shape == (min(CHUNK_PATHS, n - p0), grid256.N + 1)
        assert not any(np.shares_memory(rows, other) for other in seen)
        seen.append(rows)
        values[p0 : p0 + rows.shape[0]] = rows
    assert np.array_equal(values, ref)
    with open(tmp_path / "rows.bin", "wb") as fh:
        counts = list(stream_increments(standard, grid256, n, 31, out=fh, paths=True))
    assert counts == [(p0, min(CHUNK_PATHS, n - p0)) for p0 in range(0, n, CHUNK_PATHS)]
    assert (tmp_path / "rows.bin").read_bytes() == ref.astype("<f8").tobytes()
    assert np.array_equal(sample_gbmp_paths(standard, grid256, n, 31).values, ref)


# Samples and drops three 4000 x 1024 ensembles, reading VmRSS after each
# release, then drops a fourth while a view of its values is held.
_RELEASE_SCRIPT = """
import gc, json
import numpy as np
from feynpath import PiecewisePoly, TimeGrid, build_profile, sample_gbmp_paths

def rss_mib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024

poly = PiecewisePoly.from_coeffs
profile = build_profile(poly([0.0, 1.0], 1.0), poly([1.0, 1.0], 1.0), 1.0)
grid = TimeGrid.build(profile, n=1024)
released = []
for seed in range(3):
    sample_gbmp_paths(profile, grid, 4000, seed).values
    gc.collect()
    released.append(rss_mib())
ensemble = sample_gbmp_paths(profile, grid, 4000, 3)
view = ensemble.values
flags = [view.flags.writeable, view.flags.c_contiguous, str(view.dtype),
         bool(np.all(view[:, 0] == 0.0))]
head, total = view[:64].copy(), float(view.sum())
del ensemble
gc.collect()
kept = bool(np.array_equal(view[:64], head) and float(view.sum()) == total)
held = rss_mib()
del view
gc.collect()
print(json.dumps({"released": released, "flags": flags, "kept": kept,
                  "held": held, "dropped": rss_mib()}))
"""


@pytest.fixture(scope="module")
def release_rss():
    if not sys.platform.startswith("linux") or not os.path.exists("/proc/self/status"):
        pytest.skip("reads VmRSS from /proc, which only Linux has")
    src = os.path.dirname(os.path.dirname(paths.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _RELEASE_SCRIPT], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


def test_released_ensembles_return_memory(release_rss):
    """A dropped ensemble's pages go back to the operating system, so RSS
    does not grow from one ensemble to the next (through malloc, the
    second and later ones would stay resident, about 31 MiB each)."""
    first, _, third = release_rss["released"]
    assert third - first <= 8.0


def test_ensemble_values_outlive_the_ensemble(release_rss):
    """The mapping lives as long as any view of values: the view keeps
    its data after the ensemble is collected, and the pages (31 MiB)
    go back only when the view goes too."""
    assert release_rss["flags"] == [True, True, "float64", True]
    assert release_rss["kept"]
    assert release_rss["held"] - release_rss["dropped"] >= 24.0


def test_filled_stream_rejects_misshaped_output(tmp_path, standard, grid256):
    """``out`` is a binary file: an array is refused, of any shape, and
    so is a file object without a descriptor and out without paths."""
    for out in (np.zeros((10, grid256.N + 1)), np.zeros((10, grid256.N)),
                np.zeros((10, grid256.N + 1), dtype=np.float32)):
        with pytest.raises(ValueError, match="binary file"):
            next(stream_increments(standard, grid256, 10, 1, out=out, paths=True))
    with pytest.raises(ValueError):
        next(stream_increments(standard, grid256, 10, 1, out=io.BytesIO(), paths=True))
    with open(tmp_path / "rows.bin", "wb") as fh:
        with pytest.raises(ValueError, match="out takes paths"):
            next(stream_increments(standard, grid256, 10, 1, out=fh))
    assert (tmp_path / "rows.bin").read_bytes() == b""


def test_sample_moments_match_profile():
    # a(t) = t^2/2, b(t) = t + t^2/2: x(1) has mean 1/2, variance 3/2
    profile = build_profile(pp([0.0, 1.0]), pp([1.0, 1.0]), 1.0)
    grid = TimeGrid.build(profile, n=128)
    n = 20000
    ens = sample_gbmp_paths(profile, grid, n, 2024)
    x1 = ens.values[:, -1]
    se_mean = x1.std(ddof=1) / np.sqrt(n)
    assert abs(x1.mean() - 0.5) < 4 * se_mean
    var = x1.var(ddof=1)
    se_var = var * np.sqrt(2.0 / (n - 1))
    assert abs(var - 1.5) < 4 * se_var


def test_wiener_reduction_mean(wiener):
    grid = TimeGrid.build(wiener, n=64)
    n = 20000
    ens = sample_gbmp_paths(wiener, grid, n, 11)
    assert abs(ens.values[:, -1].mean()) < 3.0 / np.sqrt(n)


def test_nonpositive_increment_rejected():
    profile = ProfilePair.from_derivatives(pp([0.0]), pp([1.0, -2.0]), 1.0)
    grid = TimeGrid.build(profile, n=16)
    with pytest.raises(NonPositiveVariance):
        sample_gbmp_paths(profile, grid, 2, 1)


def test_pwz_unit_density_telescopes(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 8, 3)
    b = identity_element(standard)
    got = pwz_integral(b, ens.values, grid256)
    assert np.allclose(got, ens.values[:, -1], rtol=0, atol=1e-12)
    zero = CMElement(pp([0.0]), standard)
    assert np.all(pwz_integral(zero, ens.values, grid256) == 0.0)


def test_pwz_gaussian_law(wiener):
    grid = TimeGrid.build(wiener, n=256)
    n = 20000
    ens = sample_gbmp_paths(wiener, grid, n, 31)
    w = CMElement(pp([0.0, 1.0]), wiener)  # density t, variance 1/3
    vals = pwz_integral(w, ens.values, grid)
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean()) < 4 * se
    var = vals.var(ddof=1)
    se_var = var * np.sqrt(2.0 / (n - 1))
    assert abs(var - 1.0 / 3.0) < 4 * se_var + 2.0 / 256


def test_pwz_linearity(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 6, 17)
    w1 = CMElement(random_poly(np.random.default_rng(1), max_pieces=1), standard)
    w2 = CMElement(random_poly(np.random.default_rng(2), max_pieces=1), standard)
    combo = CMElement(2.5 * w1.density + (-1.5) * w2.density, standard)
    lhs = pwz_integral(combo, ens.values, grid256)
    rhs = 2.5 * pwz_integral(w1, ens.values, grid256) - 1.5 * pwz_integral(
        w2, ens.values, grid256
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_pwz_requires_grid_alignment(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 2, 9)
    w = indicator_element(0.1234567, standard)
    with pytest.raises(GridMismatch):
        pwz_integral(w, ens.values, grid256)


def test_z_process_identity_kernel(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 4, 21)
    b = identity_element(standard)
    assert np.array_equal(z_process_path(b, ens.values, grid256), ens.values)


def test_z_process_constant_scaling(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 4, 22)
    k = SuppElement(pp([2.5]), standard)
    assert np.allclose(
        z_process_path(k, ens.values, grid256), 2.5 * ens.values, atol=1e-12
    )


def test_kernel_transport_identity(standard, grid256):
    """(w, Z_k(x,.))~ equals (w (.) k, x)~ path by path."""
    rng = np.random.default_rng(23)
    ens = sample_gbmp_paths(standard, grid256, 50, 23)
    for _ in range(5):
        w = CMElement(random_poly(rng, max_pieces=1, max_degree=2), standard)
        k = SuppElement(random_nonvanishing_poly(rng), standard)
        z = z_process_path(k, ens.values, grid256)
        lhs = pwz_integral(w, z, grid256)
        rhs = pwz_integral(odot(w, k), ens.values, grid256)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_z_process_covariance_law(wiener):
    grid = TimeGrid.build(wiener, n=256)
    n = 20000
    ens = sample_gbmp_paths(wiener, grid, n, 71)
    k = SuppElement(pp([0.0, 1.0]), wiener)
    z = z_process_path(k, ens.values, grid)
    beta = grid.nodes**3 / 3  # integral of Dk^2 db over [0, t]
    for s, t in ((0.25, 0.75), (0.5, 0.5), (1.0, 0.5)):
        i = int(np.flatnonzero(grid.nodes == s)[0])
        j = int(np.flatnonzero(grid.nodes == t)[0])
        prod = (z[:, i] - z[:, i].mean()) * (z[:, j] - z[:, j].mean())
        se = prod.std(ddof=1) / np.sqrt(n)
        want = beta[min(i, j)]
        assert abs(prod.mean() - want) < 4 * se + 1e-2 / 256


def test_z_process_consistent_with_indicator_products(standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 3, 29)
    k = SuppElement(pp([1.0, 0.5]), standard)
    z = z_process_path(k, ens.values, grid256)
    for t in (0.25, 0.5, 1.0):
        i = int(np.flatnonzero(grid256.nodes == t)[0])
        kphi = odot(indicator_element(t, standard), k)
        got = pwz_integral(kphi, ens.values, grid256)
        assert np.allclose(got, z[:, i], atol=1e-12)


def test_z_shift_paths(standard, wiener):
    grid = TimeGrid.build(wiener, n=64)
    zero = CMElement(pp([0.0]), wiener)
    b = identity_element(wiener)
    assert np.all(z_shift_path(b, zero, grid) == 0.0)
    # k = b returns the element's own path
    w = CMElement(pp([1.0]), wiener)
    assert np.allclose(z_shift_path(b, w, grid), grid.nodes, atol=1e-15)
    # Dk = t, Dw = 1 over b' = 1: cumulative integral is t^2/2
    k = SuppElement(pp([0.0, 1.0]), wiener)
    assert np.allclose(z_shift_path(k, w, grid), 0.5 * grid.nodes**2, atol=1e-14)
    with pytest.raises(ProfileMismatch):
        z_shift_path(k, CMElement(pp([1.0]), standard), grid)


def test_ensemble_export_round_trip(tmp_path, standard, grid256):
    ens = sample_gbmp_paths(standard, grid256, 7, 77)
    bin_path = tmp_path / "ens.bin"
    ens.to_binary(bin_path)
    nodes, values, seed = PathEnsemble.read_binary(bin_path)
    assert seed == 77
    assert np.array_equal(nodes, grid256.nodes)
    assert np.array_equal(values, ens.values)

    csv_path = tmp_path / "ens.csv"
    ens.to_csv(csv_path)
    loaded = np.loadtxt(csv_path, delimiter=",")
    assert np.array_equal(loaded[0], grid256.nodes)
    assert np.array_equal(loaded[1:], ens.values)


@pytest.mark.parametrize("n", [1, _SUB_ROWS, _SUB_ROWS + 1])
def test_csv_matches_per_value_format(tmp_path, standard, n):
    grid = TimeGrid.build(standard, n=16)
    ens = sample_gbmp_paths(standard, grid, n, 13)
    ens.values[0, 1] = -0.0
    ens.to_csv(tmp_path / "ens.csv")
    rows = [grid.nodes, *ens.values]
    ref = "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert (tmp_path / "ens.csv").read_text() == ref


def _random_doubles(rng):
    """Random bit patterns over all finite doubles, and over the biased
    exponents the formatter's fast path covers (about 1e-12 to 4e15)."""
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    anywhere = bits.view(np.float64)
    biased = rng.integers(1023 - 40, 1023 + 52, size=bits.size).astype(np.uint64)
    inside = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (biased << np.uint64(52))
    return np.concatenate([anywhere[np.isfinite(anywhere)], inside.view(np.float64)])


def _powers_of_ten(rng):
    p = np.array([10.0**k for k in range(-330, 309)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def _ties(rng):
    """c / 2**j with an exact decimal expansion of 18 significant digits
    ending in 5, so that %.17g rounds a tie; beyond j = 25 no 53-bit c
    gives one."""
    out = []
    for j in range(2, 41):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        if lo < hi:
            c = rng.integers(lo, hi, size=500) | 1
            out.append(c.astype(float) / 2.0**j)
    x = np.concatenate(out)
    assert all(len(Decimal(v).as_tuple().digits) == 18 for v in x.tolist())
    return np.concatenate([x, -x])


def _edges(rng):
    return np.array([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan,
        # near or at rounding carries to the next power of ten
        9.9999999999999995e-05, 9.9999999999999995e-07, 1e-14, 1e-305, 1e98, 1e220,
        # edges of the fast path and of fixed notation
        1e-11, 1e-12, 2.0**51, 2.0**52, 2.0**53, 1e15, 1e16, 1e17, 1e-4, 1e-5, 0.5, 1.0, 123.0,
    ])


@pytest.mark.parametrize("values", [_random_doubles, _powers_of_ten, _ties, _edges],
                         ids=["random-bits", "powers-of-ten", "ties", "edges"])
def test_csv_formatter_matches_percent_17g(values):
    x = values(np.random.default_rng(2021))
    expected = "".join("%.17g\n" % v for v in x.tolist()).encode()
    assert _csv_rows(x[:, None]) == expected


def test_csv_formatter_matches_percent_17g_on_paths(standard):
    grid = TimeGrid.build(standard, n=64)
    values = sample_gbmp_paths(standard, grid, 300, 3).values
    values[1, 1:] *= -1e-6
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in values.tolist())
    assert _csv_rows(values) == expected.encode()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (7, 1)])
def test_csv_matches_reference_writer(tmp_path, standard, monkeypatch, workers, blocks, extra):
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    grid = TimeGrid.build(standard, n=16)
    step = paths._CSV_BLOCK_VALUES // (grid.N + 1)
    ens = sample_gbmp_paths(standard, grid, blocks * step + extra, 11)
    ens.values[0, 1] = -0.0
    ens.to_csv(tmp_path / "ens.csv")
    to_csv_loop(ens, tmp_path / "ref.csv")
    assert (tmp_path / "ens.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _plant(values):
    """-0.0, a value below the formatter's fast path and one above it, at
    a row's start, inside it and at its end."""
    values[0, 0], values[-1, -1] = -0.0, 1e20
    values[values.shape[0] // 2, values.shape[1] // 2] = 1e-300
    values[-1, 0], values[0, -1] = 1e-300, -0.0


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("route", ["sampled", "built"])
@pytest.mark.parametrize("n, n_paths", [(16, 37), (20000, 3)], ids=["short-rows", "long-rows"])
def test_csv_bytes_do_not_depend_on_the_chunk_size(tmp_path, standard, monkeypatch, workers,
                                                   route, n, n_paths):
    """The same bytes as the %.17g oracle for chunks of 1 value, of just
    under three rows, of the default size and of more than the whole
    ensemble, on both routes: rows sampled by the writer, and values
    built first with -0.0, 1e-300 and 1e20 planted.  Rows of 20001
    values are longer than a default chunk; chunks of 1 value are tried
    on the short rows only, as each of their values is formatted alone."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    grid = TimeGrid.build(standard, n=n)
    width = grid.N + 1
    oracle = sample_gbmp_paths(standard, grid, n_paths, 17)
    if route == "built":
        _plant(oracle.values)
    to_csv_loop(oracle, tmp_path / "ref.csv")
    expected = (tmp_path / "ref.csv").read_bytes()
    sizes = [3 * width - 1, paths._CSV_BLOCK_VALUES, n_paths * width + 1]
    if width < 100:
        sizes.insert(0, 1)
    for size in sizes:
        monkeypatch.setattr(paths, "_CSV_BLOCK_VALUES", size)
        ens = sample_gbmp_paths(standard, grid, n_paths, 17)
        if route == "built":
            _plant(ens.values)
        ens.to_csv(tmp_path / "ens.csv")
        assert (tmp_path / "ens.csv").read_bytes() == expected, size
        assert ("values" in vars(ens)) == (route == "built")


def _csv_rows_peak(values):
    """The tracemalloc peak of _csv_rows(values) in a fresh thread, so
    that the formatter's scratch is made within it."""
    got = []

    def run():
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _csv_rows(values)
        got.append(tracemalloc.get_traced_memory()[1] - base)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return got[0]


def test_csv_formatter_memory_per_value():
    """The formatter's memory, scratch and text included, grows by at
    most 160 bytes a value, from V to 4V values in one chunk."""
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.standard_normal((paths._CSV_BLOCK_VALUES // 1024, 1024)), axis=1)
    small = values[: values.shape[0] // 4]
    _csv_rows(small)  # builds the lookup tables
    tracemalloc.start()
    try:
        slope = (_csv_rows_peak(values) - _csv_rows_peak(small)) / (values.size - small.size)
    finally:
        tracemalloc.stop()
    assert slope <= 160


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 0, 3, 1, 2], [2, 1, 0, 4, 3]])
def test_chunk_rows_in_any_order_are_the_stream_rows(standard, order):
    """Chunks asked for out of order, as racing CSV tasks may, are the
    rows of the path stream; here chunks of 1500 rows cross the block
    boundary at CHUNK_PATHS."""
    grid = TimeGrid.build(standard, n=16)
    ens = sample_gbmp_paths(standard, grid, 5 * 1500 - 7, 9)
    rows = paths._chunk_rows(*paths._checked_moments(standard, grid, ens.n_paths, 9),
                             ens.n_paths, 9, 1500)
    got = {i: rows(i) for i in order}
    assert np.concatenate([got[i] for i in range(5)]).tobytes() == ens.values.tobytes()


def test_csv_is_written_in_blocks(tmp_path, standard, monkeypatch):
    """The CSV writer neither builds the ensemble nor maps a block of it.

    tracemalloc sees what goes through Python's and numpy's allocators:
    the formatter's temporaries and text, the sampled chunks of rows and
    the normals scratch.  It does not see the private anonymous mappings
    of _mapped_zeros, which hold values and the streamed blocks; so a
    spy on _mapped_zeros checks that no block of rows is asked for."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 2)
    real, asked = paths._mapped_zeros, []

    def spy(shape):
        asked.append(shape)
        return real(shape)

    monkeypatch.setattr(paths, "_mapped_zeros", spy)
    grid = TimeGrid.build(standard, n=2048)
    ens = sample_gbmp_paths(standard, grid, 1024, 5)
    tracemalloc.start()
    try:
        ens.to_csv(tmp_path / "ens.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "ens.csv").stat().st_size > 32 * 2**20
    assert peak < 16 * 2**20
    block_rows = min(CHUNK_PATHS, ens.n_paths)
    assert [shape for shape in asked if shape[0] >= block_rows] == []
    assert "values" not in vars(ens)


def test_binary_is_written_without_a_copy(tmp_path, standard):
    grid = TimeGrid.build(standard, n=2048)
    ens = sample_gbmp_paths(standard, grid, 1024, 5)
    assert ens.values.nbytes >= 16 * 2**20
    tracemalloc.start()
    try:
        ens.to_binary(tmp_path / "ens.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


STREAMED_N = 2 * CHUNK_PATHS + 301


@pytest.fixture(scope="module")
def streamed_oracle(tmp_path_factory):
    """Grid, CSV and binary bytes of the 3-block ensemble at seed 37,
    written by the oracles from the serial stream."""
    profile = build_profile(pp([0.0, 1.0]), pp([1.0, 1.0]), 1.0)
    grid = TimeGrid.build(profile, n=16)
    ens = serial_ensemble(profile, grid, STREAMED_N, 37)
    out = tmp_path_factory.mktemp("oracle")
    to_csv_loop(ens, out / "ref.csv")
    to_binary_loop(ens, out / "ref.bin")
    return grid, (out / "ref.csv").read_bytes(), (out / "ref.bin").read_bytes()


@pytest.mark.parametrize("touched", [False, True], ids=["streamed", "values-touched"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_written_files_equal_the_serial_oracle(tmp_path, standard, monkeypatch, streamed_oracle,
                                              workers, touched):
    """Both writers give the oracle's bytes at any worker count, whether
    they stream the blocks or write values built before."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    grid, ref_csv, ref_bin = streamed_oracle
    ens = sample_gbmp_paths(standard, grid, STREAMED_N, 37)
    if touched:
        assert ens.values.shape == (STREAMED_N, grid.N + 1)
    ens.to_csv(tmp_path / "ens.csv")
    ens.to_binary(tmp_path / "ens.bin")
    assert (tmp_path / "ens.csv").read_bytes() == ref_csv
    assert (tmp_path / "ens.bin").read_bytes() == ref_bin
    assert ("values" in vars(ens)) == touched


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_short_writes_give_the_serial_oracle(tmp_path, standard, monkeypatch, streamed_oracle,
                                            workers):
    """The binary writer loops on short writes: with os.pwrite writing at
    most 4093 bytes a call, which splits doubles, the file is the same.
    Up to three workers share the file; a short switch interval interleaves
    their writes."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    real, calls = paths.os.pwrite, []

    def short(fd, data, offset):
        calls.append(len(data))
        return real(fd, memoryview(data)[:4093], offset)

    monkeypatch.setattr(paths.os, "pwrite", short)
    grid, _, ref_bin = streamed_oracle
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sample_gbmp_paths(standard, grid, STREAMED_N, 37).to_binary(tmp_path / "ens.bin")
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "ens.bin").read_bytes() == ref_bin
    assert max(calls) > 4093 and len(calls) > STREAMED_N * (grid.N + 1) * 8 // 4093


def test_racing_csv_tasks_give_the_serial_oracle(tmp_path, standard, monkeypatch, streamed_oracle):
    """More CSV tasks than CPUs, switched every few microseconds, sample
    their rows in stream order and format them, in any interleaving: the
    file is the oracle's, within a time bound."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: (os.cpu_count() or 1) + 2)
    grid, ref_csv, _ = streamed_oracle
    ens = sample_gbmp_paths(standard, grid, STREAMED_N, 37)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer = threading.Thread(target=ens.to_csv, args=(tmp_path / "ens.csv",), daemon=True)
        writer.start()
        writer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert (tmp_path / "ens.csv").read_bytes() == ref_csv


@pytest.mark.parametrize("suffix", ["bin", "csv"])
def test_a_failed_block_leaves_no_file(tmp_path, monkeypatch, suffix):
    from feynpath.cli import run

    real, seen = paths._block_generator, []

    def failing(seed, block):
        seen.append(block)
        if block == 2:
            raise RuntimeError("block 2 failed")
        return real(seed, block)

    monkeypatch.setattr(paths, "_block_generator", failing)
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "std.json"
    dest = tmp_path / ("paths." + suffix)
    with pytest.raises(RuntimeError, match="block 2 failed"):
        run(["simulate", "--config", str(config), "--n", str(3 * CHUNK_PATHS), "--grid", "16",
             "--out", str(dest)])
    assert 2 in seen
    assert os.listdir(tmp_path) == []


_CSV_FAILURE_N = 3 * CHUNK_PATHS


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("where, call", [("_csv_rows", 1), ("_csv_rows", 3), ("_csv_rows", "last"),
                                         ("_path_rows", 1), ("_path_rows", 2), ("_path_rows", 3)])
def test_a_failed_csv_task_ends_the_write(tmp_path, monkeypatch, workers, where, call):
    """An exception in formatting a chunk (call 1 formats the header row)
    or in sampling its rows ends simulate promptly with that exception,
    leaves neither the file nor its .part, and leaves no thread behind,
    whatever the number of workers."""
    from feynpath.cli import load_config, run

    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "std.json"
    if call == "last":  # the header, then one call per chunk
        step = paths._CSV_BLOCK_VALUES // (load_config(str(config)).grid("std", 16).N + 1)
        call = 1 + -(-_CSV_FAILURE_N // step)
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    real, calls = getattr(paths, where), []

    def failing(*args):
        calls.append(None)
        if len(calls) == call:
            raise RuntimeError("call %d failed" % call)
        return real(*args)

    monkeypatch.setattr(paths, where, failing)
    raised = []

    def simulate():
        try:
            run(["simulate", "--config", str(config), "--n", str(_CSV_FAILURE_N), "--grid", "16",
                 "--out", str(tmp_path / "paths.csv")])
        except BaseException as exc:
            raised.append(exc)

    threads = threading.active_count()
    runner = threading.Thread(target=simulate, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert [str(exc) for exc in raised] == ["call %d failed" % call]
    assert os.listdir(tmp_path) == []
    assert threading.active_count() == threads


# Runs simulate with os.pwrite failing with ENOSPC on its third call.
_NO_SPACE_SCRIPT = """
import errno, os, sys
from feynpath.cli import main

real, calls = os.pwrite, []

def failing(fd, data, offset):
    calls.append(offset)
    if len(calls) == 3:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    return real(fd, data, offset)

os.pwrite = failing
sys.argv[1:] = ["simulate", "--config", sys.argv[1], "--n", sys.argv[2], "--grid", "16",
                "--out", sys.argv[3]]
main()
"""


def test_a_failed_write_leaves_no_file(tmp_path):
    """A full disk fails simulate with exit 2 and one error line, and
    neither the file nor its .part is left."""
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "std.json"
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(paths.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SPACE_SCRIPT, str(config), str(3 * CHUNK_PATHS),
         str(out / "paths.bin")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "No space left on device" in done.stderr and "Traceback" not in done.stderr
    assert [line for line in done.stderr.splitlines() if line.startswith("error:")] == [
        "error: No space left on device"]
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "n, seed, b_prime, error",
    [(0, 1, [1.0, 1.0], ValueError), (4, -1, [1.0, 1.0], ValueError),
     (4, 1.5, [1.0, 1.0], TypeError), (4, 1, [1.0, -2.0], NonPositiveVariance)],
    ids=["no-paths", "negative-seed", "float-seed", "b-decreasing"],
)
def test_an_invalid_recipe_raises_before_any_file(tmp_path, n, seed, b_prime, error):
    profile = ProfilePair.from_derivatives(pp([0.0, 1.0]), pp(b_prime), 1.0)
    grid = TimeGrid.build(profile, n=16)
    dest = tmp_path / "ens.bin"
    with pytest.raises(error):
        sample_gbmp_paths(profile, grid, n, seed).to_binary(dest)
    with pytest.raises(error):
        PathEnsemble(grid, n, seed, profile)
    assert not dest.exists()


# Writes a 10-block ensemble in the format of argv[2] in a process held
# to at most two CPUs, after a small write that loads the thread pool and
# the formatter, and reports how far ru_maxrss (KiB on Linux) rose during
# the large write.  The large file is removed once its size is read.
_STREAM_RSS_SCRIPT = """
import json, os, resource, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from feynpath import PiecewisePoly, TimeGrid, build_profile, sample_gbmp_paths
from feynpath.paths import CHUNK_PATHS, _usable_cpus

poly = PiecewisePoly.from_coeffs
profile = build_profile(poly([0.0, 1.0], 1.0), poly([1.0, 1.0], 1.0), 1.0)
grid = TimeGrid.build(profile, n=256)
dest, write = sys.argv[1], "to_" + sys.argv[2]
getattr(sample_gbmp_paths(profile, grid, 300, 0), write)(dest)
n = 10 * CHUNK_PATHS
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
getattr(sample_gbmp_paths(profile, grid, n, 1), write)(dest)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
written = os.path.getsize(dest)
os.remove(dest)
print(json.dumps({"grown": 1024 * (after - before), "cpus": _usable_cpus(),
                  "block": 8 * CHUNK_PATHS * (grid.N + 1), "ensemble": 8 * n * (grid.N + 1),
                  "written": written}))
"""


@pytest.mark.parametrize("fmt", ["binary", "csv"], ids=["bin", "csv"])
def test_streamed_writer_holds_few_blocks(tmp_path, fmt):
    """While a 10-block ensemble is written, RSS grows by less than one
    block: the binary writer's workers write their row buffers at the
    rows' offsets, and the CSV writer's tasks sample and format a few
    rows each; neither builds the ensemble or holds a block of it.

    The script runs as a grandchild: on Linux a child's ru_maxrss starts
    at the peak RSS of the process that forked it, which for pytest can
    exceed everything the script does, so that it would read no growth."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB and CPU affinity is settable on Linux only")
    src = os.path.dirname(os.path.dirname(paths.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    launch = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c",
                           _STREAM_RSS_SCRIPT, str(tmp_path / "ens"), fmt],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    got = json.loads(done.stdout)
    assert got["cpus"] <= 2
    if fmt == "binary":
        assert got["written"] == 32 + 8 * 257 + got["ensemble"]
    else:
        assert got["written"] > got["ensemble"]  # at least 8 bytes of text a value
    assert got["grown"] < got["block"]


@pytest.mark.parametrize(
    "edit, expected",
    [(lambda b: b[:-8], "{full}"), (lambda b: b + bytes(8), "{full}"),
     (lambda b: b[:20], "at least 32")],
    ids=["truncated", "over-long", "short-header"],
)
def test_read_binary_rejects_wrong_size(tmp_path, standard, edit, expected):
    ens = sample_gbmp_paths(standard, TimeGrid.build(standard, n=16), 3, 1)
    path = tmp_path / "ens.bin"
    ens.to_binary(path)
    full = path.read_bytes()
    path.write_bytes(edit(full))
    message = "has %d bytes, expected %s" % (len(edit(full)), expected.format(full=len(full)))
    with pytest.raises(ValueError, match=message):
        PathEnsemble.read_binary(path)


def test_seed_validation(standard, grid256):
    with pytest.raises(ValueError):
        sample_gbmp_paths(standard, grid256, 1, -1)
    with pytest.raises(TypeError):
        sample_gbmp_paths(standard, grid256, 1, 1.5)


def test_read_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError):
        PathEnsemble.read_binary(path)
