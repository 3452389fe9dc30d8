"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The statistical
criterion uses 10^5 paths on a 2^10 grid with fixed seeds; everything
else is closed form or exact.
"""

import json
import time

import numpy as np
import pytest

from feynpath import (
    CMElement,
    ComplexParam,
    CosLinear,
    MeasureKind,
    MonomialSpec,
    SuppElement,
    TimeGrid,
    analytic_fsi_monomial,
    build_profile,
    cameron_storvick_residual,
    feynman_monomial,
    identity_element,
    mc_fsi,
    monomial_summary,
    odot,
    pwz_integral,
    sample_gbmp_paths,
    stieltjes_integral,
    stream_increments,
    verify_cs_precursor,
    verify_parts,
    verify_translation,
    wick_moment,
    z_process_path,
)
from feynpath.cli import run

from conftest import pp, random_poly, random_nonvanishing_poly

N_STAT = 100_000
GRID_N = 1024


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %d (%s): %s %s" % (num, name, status, detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


@pytest.fixture(scope="module")
def standard():
    return build_profile(pp([0.0, 1.0]), pp([1.0, 1.0]), 1.0)


@pytest.fixture(scope="module")
def std_elements(standard):
    theta = CMElement(pp([1.0]), standard)
    k1 = SuppElement(pp([1.0]), standard)
    k2 = SuppElement(pp([0.0, 1.0]), standard)
    return theta, k1, k2


def test_criterion_1_product_algebra(standard):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    b = identity_element(standard)
    worst = 0.0
    for _ in range(100):
        w = SuppElement(random_nonvanishing_poly(rng, max_degree=3), standard)
        k1 = SuppElement(random_nonvanishing_poly(rng), standard)
        k2 = SuppElement(random_nonvanishing_poly(rng), standard)
        worst = max(worst, odot(w, b).density.coeff_error(w.density))
        worst = max(worst, odot(w, k1).density.coeff_error(odot(k1, w).density))
        left = odot(odot(w, k1), k2).density
        right = odot(w, odot(k1, k2)).density
        worst = max(worst, left.coeff_error(right))
    elapsed = time.perf_counter() - t0
    _line(
        1,
        "product algebra",
        worst <= 1e-13 and elapsed < 1.0,
        "max coeff error %.2e in %.2fs" % (worst, elapsed),
    )


def test_criterion_2_quadrature_scalars(standard):
    t0 = time.perf_counter()
    mab_profile = build_profile(pp([0.0, 1.0]), pp([1.0]), 1.0)
    one = pp([1.0])
    tee = pp([0.0, 1.0])
    checks = [
        (stieltjes_integral(one, MeasureKind.D_MAB, mab_profile), 1.5),
        (stieltjes_integral(one, MeasureKind.DA, standard), 0.5),
        (stieltjes_integral(tee, MeasureKind.DA, standard), 1.0 / 3.0),
        (stieltjes_integral(tee, MeasureKind.DB, standard), 5.0 / 6.0),
        (
            stieltjes_integral(
                standard.a_prime * standard.a_prime, MeasureKind.D_ABS_A, standard
            ),
            0.25,
        ),
        (standard.cc2_value, 0.25),
    ]
    worst = max(abs(got - want) / abs(want) for got, want in checks)
    elapsed = time.perf_counter() - t0
    _line(
        2,
        "quadrature scalars",
        worst <= 1e-13 and elapsed < 1.0,
        "max rel error %.2e in %.2fs" % (worst, elapsed),
    )


def test_criterion_3_recurrence_equals_moment_oracle(standard):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    wiener = build_profile(pp([0.0]), pp([1.0]), 1.0)
    mixed = build_profile(pp([-0.5, 1.0]), pp([2.0, -1.0]), 1.0)
    profiles = [wiener, standard, mixed]
    worst = 0.0
    for i in range(50):
        profile = profiles[i % 3]
        m = int(rng.integers(0, 9))
        theta = CMElement(random_nonvanishing_poly(rng), profile)
        ks = tuple(
            SuppElement(random_nonvanishing_poly(rng), profile)
            for _ in range(m)
        )
        spec = MonomialSpec(theta, ks)
        q = float(rng.choice([1.0, -2.0, 3.0, 0.5]))
        got = feynman_monomial(spec, q)
        want = wick_moment(monomial_summary(spec), ComplexParam.feynman(q))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0
    _line(
        3,
        "recurrence vs moment oracle",
        worst <= 1e-10 and elapsed < 10.0,
        "max rel error %.2e over 50 specs in %.2fs" % (worst, elapsed),
    )


def test_criterion_4_closed_form_spot_value(std_elements):
    theta, k1, k2 = std_elements
    spec = MonomialSpec(theta, (k1, k2))
    got = feynman_monomial(spec, 1.0)
    err = abs(got - 1j)
    _line(4, "spot value i", err <= 1e-12, "error %.2e" % err)


def test_criterion_5_cameron_storvick_residual(std_elements):
    t0 = time.perf_counter()
    theta, k1, k2 = std_elements
    b = identity_element(theta.profile)
    worst = 0.0
    for ka, kb in ((b, b), (k1, k2), (k2, k1)):
        for m in range(5):
            ks = tuple((k1, k2)[j % 2] for j in range(m))
            F = MonomialSpec(theta, ks)
            for q in (1.0, -2.0, 3.0):
                worst = max(worst, abs(cameron_storvick_residual(F, theta, ka, kb, q)))
    elapsed = time.perf_counter() - t0
    _line(
        5,
        "Cameron-Storvick residual",
        worst < 1e-10 and elapsed < 5.0,
        "max |residual| %.2e in %.2fs" % (worst, elapsed),
    )


def test_criterion_6_kernel_transport_identity(standard, std_elements):
    theta, k1, k2 = std_elements
    grid = TimeGrid.build(standard, n=GRID_N)
    ens = sample_gbmp_paths(standard, grid, 1000, 2026)
    rng = np.random.default_rng(1006)
    worst = 0.0
    for k in (k2, identity_element(standard)):
        for _ in range(3):
            w = CMElement(random_poly(rng, max_pieces=1, max_degree=3), standard)
            z = z_process_path(k, ens.values, grid)
            lhs = pwz_integral(w, z, grid)
            rhs = pwz_integral(odot(w, k), ens.values, grid)
            scale = max(1.0, np.abs(rhs).max())
            worst = max(worst, np.abs(lhs - rhs).max() / scale)
    _line(6, "kernel transport identity", worst <= 1e-12, "max rel error %.2e" % worst)


def test_criterion_7_statistical_suite(standard, std_elements):
    t0 = time.perf_counter()
    theta, k1, k2 = std_elements
    b = identity_element(standard)
    grid = TimeGrid.build(standard, n=GRID_N)
    notes = []
    ok = True

    # (a) Z_k moments against the exact mean/variance functions.
    times = np.array([0.125, 0.25, 0.5, 0.75, 1.0])
    node_idx = np.array([int(np.flatnonzero(grid.nodes == t)[0]) for t in times])
    dk = k2.density(grid.nodes[:-1])
    masks = np.zeros((grid.N, times.size))
    for c, i in enumerate(node_idx):
        masks[:i, c] = dk[:i]
    zvals = np.empty((N_STAT, times.size))
    for p0, rows in stream_increments(standard, grid, N_STAT, 20260):
        zvals[p0 : p0 + rows.shape[0]] = np.diff(rows, axis=1) @ masks
    gamma = (k2.density * standard.a_prime).antiderivative()(times)
    beta = (k2.density * k2.density * standard.b_prime).antiderivative()(times)
    mean_ok = True
    for c in range(times.size):
        se = zvals[:, c].std(ddof=1) / np.sqrt(N_STAT)
        mean_ok &= abs(zvals[:, c].mean() - gamma[c]) < 4 * se
    cov_ok = True
    centered = zvals - zvals.mean(axis=0)
    for i in range(times.size):
        for j in range(i, times.size):
            prod = centered[:, i] * centered[:, j]
            se = prod.std(ddof=1) / np.sqrt(N_STAT)
            cov_ok &= abs(prod.mean() - beta[min(i, j)]) < 4 * se
    ok &= mean_ok and cov_ok
    notes.append("moments %s" % ("ok" if mean_ok and cov_ok else "FAIL"))

    # (b) translation identity for a bounded and a linear functional.
    r1 = verify_translation(CosLinear(theta), theta, k1, k2, N_STAT, 20261, grid=grid)
    r2 = verify_translation(
        MonomialSpec(theta, (k1,)), theta, k1, k2, N_STAT, 20282, grid=grid
    )
    ok &= r1.passed and r2.passed
    notes.append("translation sigma %.2f/%.2f" % (r1.sigma_ratio, r2.sigma_ratio))

    # (c) integration by parts at two path scales.
    F2 = MonomialSpec(theta, (k1, k2))
    sigmas_c = []
    for i, rho in enumerate((1.0, 2.0)):
        r = verify_parts(F2, theta, k1, k2, rho, N_STAT, 20273 + i, grid=grid)
        ok &= r.passed
        sigmas_c.append(r.sigma_ratio)
    notes.append("parts sigma %.2f/%.2f" % tuple(sigmas_c))

    # (d) the real-lambda identity at two lambdas (degree 1 and 2).
    sigmas_d = []
    for lam, spec_d, seed in (
        (1.0, MonomialSpec(theta, (k1,)), 20265),
        (4.0, MonomialSpec(theta, (k1, k2)), 20266),
    ):
        r = verify_cs_precursor(spec_d, theta, k1, k2, lam, N_STAT, seed, grid=grid)
        ok &= r.passed
        sigmas_d.append(r.sigma_ratio)
    notes.append("precursor sigma %.2f/%.2f" % tuple(sigmas_d))

    # (e) sampled estimates against the closed form.
    spec = MonomialSpec(theta, (k1, k2))
    devs = []
    for i, lam in enumerate((1.0, 2.0)):
        rep = mc_fsi(spec, b, lam, N_STAT, 20267 + i, grid=grid)
        want = analytic_fsi_monomial(spec, lam)
        dev = abs(rep.estimate - want) / rep.std_error
        ok &= dev < 3.0
        devs.append(dev)
    notes.append("mc vs closed %.2f/%.2f se" % tuple(devs))

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _line(7, "statistical suite", ok, "; ".join(notes) + "; %.1fs" % elapsed)


def test_criterion_8_deterministic_ledgers(tmp_path, capsys):
    cfg = {
        "seed": 777,
        "n_paths": 20000,
        "grid_size": 512,
        "output_dir": "unused",
        "profiles": {
            "std": {
                "T": 1.0,
                "a_prime": {"breakpoints": [0.0, 1.0], "coeffs": [[0.0, 1.0]]},
                "b_prime": {"breakpoints": [0.0, 1.0], "coeffs": [[1.0, 1.0]]},
            }
        },
        "elements": {
            "theta": {"profile": "std", "density": {"breakpoints": [0.0, 1.0], "coeffs": [[1.0]]}},
            "k1": {"profile": "std", "density": {"breakpoints": [0.0, 1.0], "coeffs": [[1.0]]}},
            "k2": {"profile": "std", "density": {"breakpoints": [0.0, 1.0], "coeffs": [[0.0, 1.0]]}},
        },
        "checks": [
            {"kind": "feynman", "theta": "theta", "ks": ["k1", "k2"], "q": 1.0,
             "expect": {"re": 0.0, "im": 1.0, "tol": 1e-10}},
            {"kind": "verify-recurrence", "theta": "theta", "ks": ["k1", "k2"], "q": 3.0},
            {"kind": "verify-translation",
             "functional": {"type": "cos_linear", "w0": "theta"},
             "theta": "theta", "k1": "k1", "k2": "k2"},
            {"kind": "verify-parts",
             "functional": {"type": "monomial", "theta": "theta", "ks": ["k1"]},
             "theta": "theta", "k1": "k1", "k2": "k2", "rho": 1.0},
            {"kind": "verify-cs",
             "functional": {"type": "monomial", "theta": "theta", "ks": ["k1"]},
             "theta": "theta", "k1": "k1", "k2": "k2", "lambda": 4.0},
            {"kind": "simulate", "profile": "std", "n_paths": 50, "grid_size": 64},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code1 = run(["verify", "--all", "--config", str(path), "--output-dir", str(tmp_path / "r1")])
    code2 = run(["verify", "--all", "--config", str(path), "--output-dir", str(tmp_path / "r2")])
    capsys.readouterr()
    ledger1 = (tmp_path / "r1" / "ledger.csv").read_bytes()
    ledger2 = (tmp_path / "r2" / "ledger.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and ledger1 == ledger2
    _line(8, "deterministic ledgers", ok, "%d bytes" % len(ledger1))
