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
from feynpath.paths import CHUNK_PATHS, _csv_rows, _scratch_rows

from conftest import indicator_element, pp, random_poly, random_nonvanishing_poly
from oracles import (
    breakpoints_on_grid_isin,
    exact_law_columns_loop,
    serial_ensemble,
    to_binary_loop,
    to_csv_loop,
)


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


def test_grid_nodes_and_membership_equal_unique_and_isin(standard):
    """Built nodes have the bits of np.unique over every breakpoint, and a
    density is accepted exactly when np.isin finds all its breakpoints:
    on the grid, off it between nodes, from -0.0, and past T."""
    rng = np.random.default_rng(12)
    polys = [random_poly(rng, max_pieces=4) for _ in range(6)]
    polys += [PiecewisePoly([-0.0, 0.5, 1.0], [[1.0], [2.0]]),
              PiecewisePoly([0.0, 0.3, 1.0], [[1.0], [2.0]]),
              PiecewisePoly([0.0, 0.5, 1.5], [[1.0], [2.0]]),
              PiecewisePoly([0.0, 1.0 + 2**-40], [[1.0]])]
    for n in (1, 4, 10):
        grid = TimeGrid.build(standard, polys[:3], n=n)
        pts = [np.linspace(0.0, 1.0, n + 1), standard.a_prime.breakpoints,
               standard.b_prime.breakpoints] + [q.breakpoints for q in polys[:3]]
        assert grid.nodes.tobytes() == np.unique(np.concatenate(pts)).tobytes()
        for q in polys:
            if breakpoints_on_grid_isin(q.breakpoints, grid.nodes):
                grid.require_breakpoints(q)
            else:
                with pytest.raises(GridMismatch):
                    grid.require_breakpoints(q)
    grid.require_breakpoints(polys[6])
    with pytest.raises(GridMismatch):
        grid.require_breakpoints(polys[7])


def test_grid_validation():
    with pytest.raises(ValueError, match="at least two nodes"):
        TimeGrid([0.0])
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
    rebuilt = np.full_like(ens.values, np.nan)
    for p0, rows in stream_increments(standard, grid256, 20, 5):
        rebuilt[p0 : p0 + rows.shape[0]] = rows
    assert np.array_equal(ens.values, rebuilt)


@pytest.mark.parametrize("index", [0, 5, CHUNK_PATHS + 3, 2**64 - 1])
@pytest.mark.parametrize("top", [0, 1, 7, paths._ROW_STREAM], ids=["dim0", "dim1", "dim7", "row"])
def test_rekeyed_generator_equals_a_fresh_philox(index, top):
    """The thread's re-keyed Philox gives the normals of a freshly built
    one, for the path rows' keys and the projected draw's (block, dim)
    keys alike, whatever the generator drew before."""
    for seed in (0, 41, 2**64 - 1):
        key = np.array([seed, index], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key, counter=top << 192))
        want = fresh.standard_normal(1000)
        paths._philox(1, 2, 3).standard_normal(7)  # leaves it part way into a stream
        assert paths._philox(seed, index, top).standard_normal(1000).tobytes() == want.tobytes()


def test_path_rows_and_the_projected_draw_share_no_normals(standard, grid256):
    """Path row 0 and dimension 0 of projected block 0 are both keyed by
    (seed, 0); their counters keep them apart.  Were they one stream,
    row 0's increments would be these normals times sqrt(db) plus da."""
    key = np.array([13, 0], dtype=np.uint64)
    z = np.random.Generator(np.random.Philox(key=key, counter=0)).standard_normal(grid256.N)
    da, db = paths.increment_moments(standard, grid256)
    row = sample_gbmp_paths(standard, grid256, 1, 13).values[0]
    assert not np.allclose(np.diff(row), z * np.sqrt(db) + da)
    assert np.array_equal(row, serial_ensemble(standard, grid256, 1, 13).values[0])


def _density_columns(grid):
    t = grid.nodes[:-1]
    return np.column_stack([np.ones_like(t), t, np.cos(3.0 * t)])


def _law_matrices(grid):
    """Density matrices the projected stream must take: a regular one,
    a singular one (a column repeated, as D(k1) = 1 makes in parts at
    m = 2), a near-dependent one with unequal columns, and one with a
    zero-density column."""
    t = grid.nodes[:-1]
    one = np.ones_like(t)
    return {
        "regular": _density_columns(grid),
        "singular": np.column_stack([one, t, t.copy(), one]),
        "near-dependent": np.column_stack([t, t * (1.0 + 1e-9), one]),
        "zero-column": np.column_stack([t, np.zeros_like(t), np.cos(3.0 * t)]),
    }


def _stream_columns(profile, grid, n, seed, D):
    """The (n, c) columns of one stream onto the matrix D, after
    checking its blocks' starts, shapes and column-major order."""
    chunks = list(stream_increments(profile, grid, n, seed, onto=D))
    assert [p0 for p0, _ in chunks] == list(range(0, n, CHUNK_PATHS))
    assert all(cols.shape == (min(CHUNK_PATHS, n - p0), D.shape[1]) and cols.flags.f_contiguous
               for p0, cols in chunks)
    return np.concatenate([cols for _, cols in chunks])


@pytest.mark.parametrize("kind", ["regular", "singular", "near-dependent", "zero-column"])
def test_projected_stream_draws_the_exact_grid_law(standard, grid256, kind):
    """The columns are N(D^T da, D^T diag(db) D) of the grid: the mean
    is D^T da to the bit (summed in einsum's fixed order) and G G^T is
    the covariance to 1e-12 relative, for a singular and a
    near-dependent matrix too.  Equal columns are bit-equal in every
    path, and a zero-density column is exactly 0."""
    D = _law_matrices(grid256)[kind]
    da, db = paths.increment_moments(standard, grid256)
    mu, G = paths._column_law(da, np.sqrt(db), D)
    assert mu.tobytes() == np.einsum("n,ni->i", da, D).tobytes()
    np.testing.assert_allclose(mu, da @ D, rtol=1e-14, atol=0.0)
    scaled = np.sqrt(db)[:, None] * D
    cov = scaled.T @ scaled
    assert G.shape[0] == D.shape[1] and G.shape[1] <= D.shape[1]
    assert np.max(np.abs(G @ G.T - cov)) <= 1e-12 * np.max(np.abs(cov))

    n = 2 * CHUNK_PATHS + 301
    cols = _stream_columns(standard, grid256, n, 31, D)
    assert cols.shape == (n, D.shape[1])
    for i in range(D.shape[1]):
        for j in range(i):
            if D[:, i].tobytes() == D[:, j].tobytes():
                assert cols[:, i].tobytes() == cols[:, j].tobytes()
        if not D[:, i].any():
            assert np.all(cols[:, i] == 0.0)
    assert np.linalg.matrix_rank(cols - cols.mean(axis=0)) == G.shape[1]
    if kind == "singular":  # two distinct live columns: rank 2 of 4
        assert G.shape[1] == 2


@pytest.mark.parametrize("kind", ["regular", "singular", "near-dependent", "zero-column"])
def test_drawn_columns_equal_the_loop_reference_bit_for_bit(standard, grid256, kind):
    """Every column value is mu_i + z_0 G_i0 + z_1 G_i1 + ... in that
    order, from the normals of its own path: the draw changes no bit
    when its arithmetic is vectorized or reordered in memory."""
    D = _law_matrices(grid256)[kind]
    da, db = paths.increment_moments(standard, grid256)
    mu, G = paths._column_law(da, np.sqrt(db), D)
    n = 2 * CHUNK_PATHS + 301
    cols = _stream_columns(standard, grid256, n, 29, D)
    expected = exact_law_columns_loop(mu, G, 29, n, CHUNK_PATHS)
    assert cols.shape == expected.shape
    assert cols.tobytes(order="C") == expected.tobytes()


@pytest.mark.parametrize("n", [1, CHUNK_PATHS + 1])
def test_projected_stream_keeps_the_first_rows_of_a_longer_stream(standard, grid256, n):
    for D in _law_matrices(grid256).values():
        short = _stream_columns(standard, grid256, n, 17, D)
        long = _stream_columns(standard, grid256, 2 * CHUNK_PATHS + 301, 17, D)
        assert short.tobytes() == long[:n].tobytes()


def test_projected_stream_matches_the_exact_moments(standard, grid256):
    """Sampler equivalence at n = 2e5: each sample mean and covariance
    lies within 5 standard errors of the exact ones."""
    n = 200_000
    D = _density_columns(grid256)
    da, db = paths.increment_moments(standard, grid256)
    scaled = np.sqrt(db)[:, None] * D
    mu, cov = da @ D, scaled.T @ scaled
    cols = _stream_columns(standard, grid256, n, 5, D)
    assert np.all(np.abs(cols.mean(axis=0) - mu) <= 5 * np.sqrt(np.diag(cov) / n))
    centered = cols - mu
    sample_cov = centered.T @ centered / n
    var = np.diag(cov)
    cov_se = np.sqrt((np.outer(var, var) + cov**2) / n)
    assert np.all(np.abs(sample_cov - cov) <= 5 * cov_se)


def test_projected_stream_runs_without_the_pool_for_any_worker_count(standard, grid256,
                                                                     monkeypatch):
    """The columns never reach the block thread pool, so they cannot
    depend on the number of usable CPUs."""
    n = 2 * CHUNK_PATHS + 301
    dens = _density_columns(grid256)

    def stream():
        return np.concatenate([c for _, c in stream_increments(standard, grid256, n, 23,
                                                               onto=dens)])

    public = stream()

    def no_pool(fn, count):
        raise AssertionError("the projected stream started the thread pool")

    monkeypatch.setattr(paths, "_ordered_map", no_pool)
    runs = []
    for w in (1, 2, 3, 2):
        monkeypatch.setattr(paths, "_usable_cpus", lambda: w)
        runs.append(stream())
    assert all(np.array_equal(runs[0], r) for r in runs[1:] + [public])


def test_projected_stream_rejects_misshaped_densities(standard, grid256):
    """onto takes one (N, c) matrix: a list or tuple of matrices is
    refused as such, even of one matrix of the right shape, and so is a
    matrix of another shape."""
    dens = np.ones((grid256.N, 2))
    for several in ((dens,), [dens], (dens, dens), (), []):
        with pytest.raises(ValueError, match="one \\(N, c\\) matrix, not a (tuple|list)"):
            next(stream_increments(standard, grid256, 10, 1, onto=several))
    for bad in (np.ones((grid256.N + 1, 2)), np.ones(grid256.N), np.ones((1, grid256.N, 2))):
        with pytest.raises(ValueError, match="over the grid intervals"):
            next(stream_increments(standard, grid256, 10, 1, onto=bad))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_filled_stream_is_bit_identical_to_serial(tmp_path, standard, grid256, monkeypatch,
                                                  workers):
    """The fresh path blocks and the built values all equal the per-row
    oracle's paths."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    n = 2 * CHUNK_PATHS + 301
    ref = serial_ensemble(standard, grid256, n, 31).values
    values, seen = np.full_like(ref, np.nan), []
    for p0, rows in stream_increments(standard, grid256, n, 31):
        assert rows.dtype == np.float64 and rows.shape == (min(CHUNK_PATHS, n - p0), grid256.N + 1)
        assert not any(np.shares_memory(rows, other) for other in seen)
        seen.append(rows)
        values[p0 : p0 + rows.shape[0]] = rows
    assert np.array_equal(values, ref)
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
    """The mapping lives as long as any view of values: the view, read-only,
    keeps its data after the ensemble is collected, and the pages (31
    MiB) go back only when the view goes too."""
    assert release_rss["flags"] == [False, True, "float64", True]
    assert release_rss["kept"]
    assert release_rss["held"] - release_rss["dropped"] >= 24.0


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


@pytest.mark.parametrize("n", [1, _scratch_rows(16), _scratch_rows(16) + 1])
def test_csv_matches_per_value_format(tmp_path, standard, n):
    grid = TimeGrid.build(standard, n=16)
    assert grid.N == 16
    ens = sample_gbmp_paths(standard, grid, n, 13)
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
    values = np.array(sample_gbmp_paths(standard, grid, 300, 3).values)
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
    ens.to_csv(tmp_path / "ens.csv")
    to_csv_loop(ens, tmp_path / "ref.csv")
    assert (tmp_path / "ens.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _plant(values):
    """-0.0, a value below the formatter's fast path and one above it, at
    a row's start, inside it and at its end."""
    values[0, 0], values[-1, -1] = -0.0, 1e20
    values[values.shape[0] // 2, values.shape[1] // 2] = 1e-300
    values[-1, 0], values[0, -1] = 1e-300, -0.0


def _chunk_sizes(width, n_rows):
    """Chunks of 1 value (short rows only: each value is formatted
    alone), of just under three rows, of the default size and of more
    than the whole array."""
    sizes = [3 * width - 1, paths._CSV_BLOCK_VALUES, n_rows * width + 1]
    return ([1] if width < 100 else []) + sizes


@pytest.mark.parametrize("n, n_paths", [(16, 37), (20000, 3)], ids=["short-rows", "long-rows"])
def test_csv_rows_bytes_do_not_depend_on_the_chunk_size(standard, monkeypatch, n, n_paths):
    """_csv_rows gives Python's %.17g text for path values with -0.0,
    1e-300 and 1e20 planted, whatever the number of values it formats
    at a time.  Rows of 20001 values are longer than a default chunk."""
    values = np.array(sample_gbmp_paths(standard, TimeGrid.build(standard, n=n), n_paths,
                                        17).values)
    _plant(values)
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in values.tolist())
    for size in _chunk_sizes(values.shape[1], n_paths):
        monkeypatch.setattr(paths, "_CSV_BLOCK_VALUES", size)
        # a fresh scratch, of at most size values, as a new writer thread has
        monkeypatch.setattr(paths._csv_scratch, "buffers", None, raising=False)
        assert _csv_rows(values) == expected.encode(), size
        assert paths._csv_scratch.buffers.size == min(size, values.size)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("route", ["sampled", "built"])
@pytest.mark.parametrize("n, n_paths", [(16, 37), (20000, 3)], ids=["short-rows", "long-rows"])
def test_csv_bytes_do_not_depend_on_the_chunk_size(tmp_path, standard, monkeypatch, workers,
                                                   route, n, n_paths):
    """The writer gives the %.17g oracle's bytes for chunks of 1 value,
    of just under three rows, of the default size and of more than the
    whole ensemble, whether or not values is built before it writes."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    grid = TimeGrid.build(standard, n=n)
    to_csv_loop(serial_ensemble(standard, grid, n_paths, 17), tmp_path / "ref.csv")
    expected = (tmp_path / "ref.csv").read_bytes()
    for size in _chunk_sizes(grid.N + 1, n_paths):
        monkeypatch.setattr(paths, "_CSV_BLOCK_VALUES", size)
        ens = sample_gbmp_paths(standard, grid, n_paths, 17)
        if route == "built":
            assert not ens.values.flags.writeable
        ens.to_csv(tmp_path / "ens.csv")
        assert (tmp_path / "ens.csv").read_bytes() == expected, size
        assert ("values" in vars(ens)) == (route == "built")


def _csv_rows_peak(values):
    """The tracemalloc peak of _csv_rows(values) in a fresh thread, so
    that the formatter's scratch is made within it, plus the bytes of
    the mappings it asks _mapped_zeros for, which tracemalloc does not
    see: the scratch is one."""
    got, mapped, real = [], [], paths._mapped_zeros

    def run():
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _csv_rows(values)
        got.append(tracemalloc.get_traced_memory()[1] - base)
        got.append(sum(8 * int(np.prod(shape)) for shape in mapped))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths, "_mapped_zeros", lambda shape: mapped.append(shape) or real(shape))
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert got[1] > 0
    return got[0] + got[1]


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


def test_csv_is_written_in_blocks(tmp_path, standard, monkeypatch):
    """The CSV writer neither builds the ensemble nor maps a block of it.

    tracemalloc sees what goes through Python's and numpy's allocators:
    the formatter's temporaries and text.  It does not see the private
    anonymous mappings of _mapped_zeros, which hold values, the streamed
    blocks, the workers' row buffers and the formatter's scratch; so a
    spy on _mapped_zeros checks that no block of rows is asked for, and
    that the mappings asked for are small."""
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
    rows = [shape for shape in asked if len(shape) == 2]
    assert rows and max(shape[0] for shape in rows) < block_rows
    # the others are 1-D: the formatter scratch of each thread that formats
    assert sum(8 * int(np.prod(shape)) for shape in asked) < 8 * 2**20
    assert "values" not in vars(ens)


def test_csv_leaves_no_formatter_scratch_on_the_calling_thread(tmp_path, standard):
    """The node row is formatted in a scratch of the write's own, so the
    thread that calls to_csv holds no formatter buffers afterwards."""
    ens = sample_gbmp_paths(standard, TimeGrid.build(standard, n=2048), 8, 5)
    kept = []

    def write():
        ens.to_csv(tmp_path / "ens.csv")
        kept.append(getattr(paths._csv_scratch, "buffers", None))

    thread = threading.Thread(target=write)
    thread.start()
    thread.join()
    assert kept == [None]


def test_writers_after_values_is_built_sample_the_recipe(tmp_path, standard, streamed_oracle):
    """Writers called after values is built give the serial oracle's
    bytes, and leave values read-only and as it was: the array cannot be
    edited to disagree with the files, which the writers sample anew."""
    grid, ref_csv, ref_bin = streamed_oracle
    ens = sample_gbmp_paths(standard, grid, STREAMED_N, 37)
    values = ens.values
    with pytest.raises(ValueError, match="read-only"):
        values[0, 1] = -0.0
    before = values.copy()
    ens.to_binary(tmp_path / "ens.bin")
    ens.to_csv(tmp_path / "ens.csv")
    assert (tmp_path / "ens.bin").read_bytes() == ref_bin
    assert (tmp_path / "ens.csv").read_bytes() == ref_csv
    assert ens.values is values and not values.flags.writeable
    assert np.array_equal(values, before)


STREAMED_N = 2 * CHUNK_PATHS + 301


@pytest.fixture(scope="module")
def streamed_oracle(tmp_path_factory):
    """Grid, CSV and binary bytes of the 3-block ensemble at seed 37,
    written by the oracles from the per-row oracle's paths."""
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
    or not values is built before they write."""
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [1, 7, CHUNK_PATHS], ids=["one-row", "seven-rows", "whole-block"])
def test_scratch_size_does_not_reach_the_bits(tmp_path, standard, monkeypatch, streamed_oracle,
                                              workers, rows):
    """Row buffers of 1 row, of 7 (not a divisor of CHUNK_PATHS) and of a
    whole block give the oracle's file, and the fresh blocks its paths:
    each row reads its own Philox stream, whatever rows it is sampled
    with."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    grid, _, ref_bin = streamed_oracle
    monkeypatch.setattr(paths, "_SCRATCH_BYTES", 8 * grid.N * rows)
    assert _scratch_rows(grid.N) == rows
    real, filled = paths._path_rows, []

    def recorded(seed, da, sdb, p0, out):
        filled.append((p0, out.shape[0]))
        real(seed, da, sdb, p0, out)

    monkeypatch.setattr(paths, "_path_rows", recorded)
    blocks = stream_increments(standard, grid, STREAMED_N, 37)
    values = np.concatenate([block for _, block in blocks])
    assert values.astype("<f8").tobytes() == ref_bin[8 * (4 + grid.N + 1) :]
    assert sorted(filled) == [(p0, min(CHUNK_PATHS, STREAMED_N - p0))
                              for p0 in range(0, STREAMED_N, CHUNK_PATHS)]
    filled.clear()
    sample_gbmp_paths(standard, grid, STREAMED_N, 37).to_binary(tmp_path / "ens.bin")
    assert (tmp_path / "ens.bin").read_bytes() == ref_bin
    assert sorted(filled) == [(p0, min(rows, STREAMED_N - p0))
                              for p0 in range(0, STREAMED_N, rows)]


def test_racing_csv_tasks_give_the_serial_oracle(tmp_path, standard, monkeypatch, streamed_oracle):
    """More CSV tasks than CPUs, switched every few microseconds, each
    sample and format their own rows, in any interleaving: the file is
    the oracle's, within a time bound."""
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
    """A task whose rows include row 2 * CHUNK_PATHS fails: simulate
    raises its exception and leaves no file."""
    from feynpath.cli import run

    real, bad = paths._path_rows, 2 * CHUNK_PATHS

    def failing(seed, da, sdb, p0, out):
        if p0 <= bad < p0 + out.shape[0]:
            raise RuntimeError("row %d failed" % bad)
        return real(seed, da, sdb, p0, out)

    monkeypatch.setattr(paths, "_path_rows", failing)
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "std.json"
    dest = tmp_path / ("paths." + suffix)
    with pytest.raises(RuntimeError, match="row %d failed" % bad):
        run(["simulate", "--config", str(config), "--n", str(3 * CHUNK_PATHS), "--grid", "16",
             "--out", str(dest)])
    assert os.listdir(tmp_path) == []


_CSV_FAILURE_N = 3 * CHUNK_PATHS


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("where, call", [("_csv_text", 1), ("_csv_rows", 1), ("_csv_rows", 3),
                                         ("_csv_rows", "last"), ("_path_rows", 1),
                                         ("_path_rows", 2), ("_path_rows", 3)])
def test_a_failed_csv_task_ends_the_write(tmp_path, monkeypatch, workers, where, call):
    """An exception in formatting the header row (the first _csv_text
    call, made by to_csv itself) or a chunk (one _csv_rows call each),
    or in sampling its rows, ends simulate promptly with that exception,
    leaves neither the file nor its .part, and leaves no thread behind,
    whatever the number of workers."""
    from feynpath.cli import load_config, run

    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "std.json"
    if call == "last":
        step = paths._CSV_BLOCK_VALUES // (load_config(str(config)).grid("std", 16).N + 1)
        call = -(-_CSV_FAILURE_N // step)
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


# Writes n_paths = argv[4] paths on a grid of N = argv[3] in the format
# of argv[2] in a process held to at most two CPUs, after a small write
# that loads the thread pool and the formatter, and reports how far
# ru_maxrss (KiB on Linux) rose during the large write.  The large file
# is removed once its size is read.
_STREAM_RSS_SCRIPT = """
import json, os, resource, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from feynpath import PiecewisePoly, TimeGrid, build_profile, sample_gbmp_paths
from feynpath.paths import CHUNK_PATHS, _usable_cpus

poly = PiecewisePoly.from_coeffs
profile = build_profile(poly([0.0, 1.0], 1.0), poly([1.0, 1.0], 1.0), 1.0)
dest, write = sys.argv[1], "to_" + sys.argv[2]
getattr(sample_gbmp_paths(profile, TimeGrid.build(profile, n=256), 300, 0), write)(dest)
grid = TimeGrid.build(profile, n=int(sys.argv[3]))
n = int(sys.argv[4])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
getattr(sample_gbmp_paths(profile, grid, n, 1), write)(dest)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
written = os.path.getsize(dest)
os.remove(dest)
print(json.dumps({"grown": 1024 * (after - before), "cpus": _usable_cpus(),
                  "block": 8 * CHUNK_PATHS * (grid.N + 1), "ensemble": 8 * n * (grid.N + 1),
                  "written": written}))
"""


def _write_rss(tmp_path, fmt, grid_n, n_paths):
    """The report of _STREAM_RSS_SCRIPT, run as a grandchild: on Linux a
    child's ru_maxrss starts at the peak RSS of the process that forked
    it, which for pytest can exceed everything the script does, so that
    it would read no growth."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB and CPU affinity is settable on Linux only")
    src = os.path.dirname(os.path.dirname(paths.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    launch = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c",
                           _STREAM_RSS_SCRIPT, str(tmp_path / "ens"), fmt, str(grid_n),
                           str(n_paths)],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    got = json.loads(done.stdout)
    assert got["cpus"] <= 2
    return got


@pytest.mark.parametrize("fmt", ["binary", "csv"], ids=["bin", "csv"])
def test_streamed_writer_holds_few_blocks(tmp_path, fmt):
    """While a 10-block ensemble is written, RSS grows by less than one
    block: the binary writer's workers write their row buffers at the
    rows' offsets, and the CSV writer's tasks sample and format a few
    rows each; neither builds the ensemble or holds a block of it."""
    got = _write_rss(tmp_path, fmt, 256, 10 * CHUNK_PATHS)
    if fmt == "binary":
        assert got["written"] == 32 + 8 * 257 + got["ensemble"]
    else:
        assert got["written"] > got["ensemble"]  # at least 8 bytes of text a value
    assert got["grown"] < got["block"]


def test_binary_writer_memory_does_not_grow_with_the_grid(tmp_path):
    """A binary write of 300 paths at N = 16384 raises RSS by less than
    16 MiB: each worker's row buffer is about _SCRATCH_BYTES (8 rows
    here), where 256-row buffers took 64 MiB."""
    got = _write_rss(tmp_path, "binary", 16384, 300)
    assert got["written"] == 32 + 8 * 16385 + got["ensemble"]
    assert got["grown"] < 16 * 2**20


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
    with pytest.raises(TypeError):
        sample_gbmp_paths(standard, grid256, 1, True)


def test_read_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError):
        PathEnsemble.read_binary(path)
