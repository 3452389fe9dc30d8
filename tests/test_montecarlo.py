import json

import numpy as np
import pytest

from feynpath import (
    BadDomain,
    CMElement,
    CosLinear,
    ExpLinear,
    MonomialSpec,
    TimeGrid,
    analytic_fsi_monomial,
    cameron_storvick_residual,
    cm_inner,
    identity_element,
    inner_with_a,
    mc_fsi,
    odot,
    pwz_integral,
    sample_gbmp_paths,
    verify_cs_precursor,
    verify_parts,
    verify_translation,
)
from feynpath.feynman import _direction_scalars, _value_at, _variation_at
from feynpath.montecarlo import (
    LEDGER_COLUMNS,
    _mean_se,
    append_ledger,
    draw_columns,
    identity_densities,
    identity_ledger_row,
    ledger_row,
)

from feynpath.paths import CHUNK_PATHS

from conftest import pp


N_SMALL = 8000
GRID_SMALL = 256


# Functionals of the std elements, for the identities that take any F.
FUNCTIONALS = {
    "m1": lambda theta, k1, k2: MonomialSpec(theta, (k1,)),
    "m2": lambda theta, k1, k2: MonomialSpec(theta, (k1, k2)),
    "cos": lambda theta, k1, k2: CosLinear(theta),
    "exp1j": lambda theta, k1, k2: ExpLinear(theta, 1j),
}


@pytest.fixture
def ctx(standard, std_elements):
    theta, k1, k2 = std_elements
    grid = TimeGrid.build(standard, [theta, k1, k2], n=GRID_SMALL)
    return standard, theta, k1, k2, grid


def test_a_monomial_spec_is_the_functional(ctx):
    """A MonomialSpec goes wherever a functional is expected, unwrapped."""
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1, k2))
    for report in (
        verify_translation(F, theta, k1, k2, N_SMALL, 7, grid=grid),
        verify_parts(F, theta, k1, k2, 1.0, N_SMALL, 7, grid=grid),
        verify_cs_precursor(F, theta, k1, k2, 4.0, N_SMALL, 7, grid=grid),
    ):
        assert report.passed and report.diff_se > 0.0
    rep = mc_fsi(F, identity_element(profile), 1.0, N_SMALL, 7, grid=grid)
    assert abs(rep.estimate - analytic_fsi_monomial(F, 1.0)) < 3 * rep.std_error + 2.0 / GRID_SMALL

    x = sample_gbmp_paths(profile, grid, 3, 7).values
    factors = F.elements()
    v = [pwz_integral(u, x, grid) for u in factors]
    np.testing.assert_array_equal(_value_at(F, np.stack(v, axis=-1)), v[0] * v[1])
    at = [pwz_integral(odot(u, k1), x, grid) for u in factors]
    d = [cm_inner(odot(u, k2), theta) for u in factors]
    assert _direction_scalars(F, k2, theta) == d
    np.testing.assert_allclose(_variation_at(F, np.stack(at, axis=-1), d),
                               d[0] * at[1] + d[1] * at[0], rtol=1e-12)
    assert abs(cameron_storvick_residual(F, theta, k1, k2, 1.0)) < 1e-10


def test_mc_constant_functional_is_exact(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, ())
    rep = mc_fsi(F, identity_element(profile), 1.0, 500, 3, grid=grid)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0


def test_mc_centered_gaussian_mean(wiener):
    theta = CMElement(pp([1.0]), wiener)
    k1 = identity_element(wiener)
    grid = TimeGrid.build(wiener, n=GRID_SMALL)
    F = MonomialSpec(theta, (k1,))
    rep = mc_fsi(F, k1, 1.0, N_SMALL, 5, grid=grid)
    assert abs(rep.estimate) < 3 * rep.std_error


def test_mc_matches_closed_form(ctx):
    profile, theta, k1, k2, grid = ctx
    spec = MonomialSpec(theta, (k1, k2))
    for lam in (1.0, 2.0):
        rep = mc_fsi(spec, identity_element(profile), lam, 20000, 11, grid=grid)
        want = analytic_fsi_monomial(spec, lam)
        # the closed form is exact: 3 combined standard errors plus grid bias
        assert abs(rep.estimate - want) < 3 * rep.std_error + 2.0 / GRID_SMALL


def test_mc_rejects_bad_lambda(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    with pytest.raises(BadDomain):
        mc_fsi(F, k1, 0.0, 100, 1, grid=grid)


def test_mc_determinism(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1, k2))
    a = mc_fsi(F, k1, 1.0, 4000, 17, grid=grid)
    b = mc_fsi(F, k1, 1.0, 4000, 17, grid=grid)
    assert a.estimate == b.estimate and a.std_error == b.std_error


def test_se_scaling_with_n(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    se1 = mc_fsi(F, k1, 1.0, 20000, 19, grid=grid).std_error
    se2 = mc_fsi(F, k1, 1.0, 40000, 19, grid=grid).std_error
    assert se1 / se2 == pytest.approx(np.sqrt(2.0), rel=0.10)


def test_grid_bias_below_noise(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1, k2))
    coarse = TimeGrid.build(profile, n=GRID_SMALL // 2)
    fine = TimeGrid.build(profile, n=GRID_SMALL)
    a = mc_fsi(F, identity_element(profile), 1.0, 20000, 23, grid=coarse)
    b = mc_fsi(F, identity_element(profile), 1.0, 20000, 23, grid=fine)
    assert abs(a.estimate - b.estimate) < max(a.std_error, b.std_error)


def test_translation_null_shift_is_pathwise_exact(ctx):
    profile, theta, k1, k2, grid = ctx
    zero = CMElement(pp([0.0]), profile)
    F = MonomialSpec(theta, (k1,))
    report = verify_translation(F, zero, k1, k2, 2000, 29, grid=grid)
    assert report.discrepancy <= 1e-12
    assert report.sigma_ratio == 0.0
    assert report.passed


def test_translation_monomial_closed_form(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    report = verify_translation(F, theta, k1, k2, N_SMALL, 31, grid=grid)
    assert report.passed
    # closed form of the shifted mean
    want = inner_with_a(odot(odot(theta, k1), identity_element(profile))) + cm_inner(
        odot(theta, k2), odot(theta, k1)
    )
    assert abs(report.lhs.estimate - want) < 3 * report.lhs.std_error + 2.0 / GRID_SMALL


def test_translation_cos_functional(ctx):
    profile, theta, k1, k2, grid = ctx
    report = verify_translation(CosLinear(theta), theta, k1, k2, N_SMALL, 37, grid=grid)
    assert report.sigma_ratio < 3.0


def test_parts_constant_functional(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, ())
    report = verify_parts(F, theta, k1, k2, 1.0, N_SMALL, 41, grid=grid)
    # LHS is identically zero; RHS is centered
    assert report.lhs.estimate == 0.0 and report.lhs.std_error == 0.0
    assert report.sigma_ratio < 3.0


def test_parts_linear_functional_rho_one(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    report = verify_parts(F, theta, k1, k2, 1.0, N_SMALL, 43, grid=grid)
    assert report.passed
    # the variation is deterministic: the pairing 5/6 up to summation ulps
    assert report.lhs.std_error <= 1e-15
    assert report.lhs.estimate == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_parts_scaled_monomial(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1, k2))
    report = verify_parts(F, theta, k1, k2, 2.0, N_SMALL, 47, grid=grid)
    assert report.sigma_ratio < 3.0


@pytest.mark.parametrize("rho", [0.5, 2.0])
@pytest.mark.parametrize("kind", ["cos", "exp1j"])
def test_parts_scaled_bounded_functional(ctx, kind, rho):
    # unlike a monomial's, the sides of these do not scale as a power of rho
    profile, theta, k1, k2, grid = ctx
    F = FUNCTIONALS[kind](theta, k1, k2)
    report = verify_parts(F, theta, k1, k2, rho, N_SMALL, 47, grid=grid)
    assert report.passed


def test_parts_rejects_nonpositive_rho(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    with pytest.raises(BadDomain):
        verify_parts(F, theta, k1, k2, 0.0, 100, 1, grid=grid)


def test_identity_checks_need_two_paths(ctx):
    """One path has no standard error: the identity checks reject it,
    while a plain estimate at one path stays valid."""
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    for check in (lambda n: verify_translation(F, theta, k1, k2, n, 1, grid=grid),
                  lambda n: verify_parts(F, theta, k1, k2, 1.0, n, 1, grid=grid),
                  lambda n: verify_cs_precursor(F, theta, k1, k2, 4.0, n, 1, grid=grid)):
        with pytest.raises(BadDomain, match="needs n_paths >= 2"):
            check(1)
        assert np.isfinite(check(2).sigma_ratio)
    assert mc_fsi(F, k1, 1.0, 1, 1, grid=grid).std_error == 0.0


def test_cs_precursor_reduces_to_parts_at_unit_lambda(ctx):
    profile, theta, k1, k2, grid = ctx
    spec = MonomialSpec(theta, (k1, k2))
    parts = verify_parts(spec, theta, k1, k2, 1.0, N_SMALL, 53, grid=grid)
    precursor = verify_cs_precursor(spec, theta, k1, k2, 1.0, N_SMALL, 53, grid=grid)
    assert precursor.lhs.estimate == parts.lhs.estimate
    assert precursor.rhs.estimate == parts.rhs.estimate
    assert precursor.sigma_ratio == parts.sigma_ratio


@pytest.mark.parametrize("lam", [0.5, 3.0, 9.0])
@pytest.mark.parametrize("kind", sorted(FUNCTIONALS))
def test_cs_precursor_is_rescaled_parts(ctx, kind, lam):
    # the variation is linear in its direction, so the precursor at lambda
    # is integration by parts at rho = lambda^{-1/2}, both sides times
    # lambda^{1/2}: the same statistic for every functional
    profile, theta, k1, k2, grid = ctx
    F = FUNCTIONALS[kind](theta, k1, k2)
    parts = verify_parts(F, theta, k1, k2, lam**-0.5, N_SMALL, 57, grid=grid)
    precursor = verify_cs_precursor(F, theta, k1, k2, lam, N_SMALL, 57, grid=grid)
    assert precursor.sigma_ratio == pytest.approx(parts.sigma_ratio, rel=0, abs=1e-12)
    for got, want in ((precursor.lhs, parts.lhs), (precursor.rhs, parts.rhs)):
        assert got.estimate * lam**-0.5 == pytest.approx(want.estimate, rel=1e-12)


def test_cs_precursor_lambda_four(ctx):
    profile, theta, k1, k2, grid = ctx
    spec = MonomialSpec(theta, (k1,))
    report = verify_cs_precursor(spec, theta, k1, k2, 4.0, N_SMALL, 59, grid=grid)
    assert report.sigma_ratio < 3.0


def test_cs_precursor_null_direction_is_pathwise_exact(ctx):
    profile, theta, k1, k2, grid = ctx
    zero = CMElement(pp([0.0]), profile)
    spec = MonomialSpec(theta, (k1,))
    report = verify_cs_precursor(spec, zero, k1, k2, 2.0, N_SMALL, 61, grid=grid)
    # with a zero direction both sides vanish identically, not just in mean
    assert report.discrepancy == 0.0
    assert report.sigma_ratio == 0.0
    assert report.passed


def test_unbounded_exponential_assumption_noted(ctx):
    profile, theta, k1, k2, grid = ctx
    F = ExpLinear(theta, 0.25 + 0.0j, allow_unbounded=True)
    report = verify_translation(F, theta, k1, k2, 4000, 67, grid=grid)
    assert any("unbounded" in note for note in report.lhs.assumptions)


def test_imaginary_exponential_translation(ctx):
    profile, theta, k1, k2, grid = ctx
    F = ExpLinear(theta, 1j)
    report = verify_translation(F, theta, k1, k2, N_SMALL, 71, grid=grid)
    assert report.sigma_ratio < 3.0


def test_report_serialization(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    report = verify_parts(F, theta, k1, k2, 1.0, 2000, 73, grid=grid)
    d = report.to_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["pass"] == report.passed
    assert back["lhs"]["estimate"]["re"] == report.lhs.estimate.real
    assert "integrability" in back["lhs"]["assumptions"][0]


def test_sigma_ratio_recomputes_from_diff_se(ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1, k2))
    report = verify_parts(F, theta, k1, k2, 2.0, 2000, 83, grid=grid)
    assert report.diff_se > 0.0
    assert report.discrepancy / report.diff_se == report.sigma_ratio
    d = json.loads(json.dumps(report.to_dict()))
    assert d["discrepancy"] / d["diff_se"] == d["sigma_ratio"]


def test_ledger_round_trip(tmp_path, ctx):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    report = verify_parts(F, theta, k1, k2, 1.0, 1000, 79, grid=grid)
    rows = [
        identity_ledger_row("parts-demo", "abc123", report),
        ledger_row("plain", "abc123", lhs=1j, rhs=1j, passed=True),
    ]
    path = tmp_path / "ledger.csv"
    append_ledger(path, rows)
    append_ledger(path, rows[:1])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert len(lines) == 4
    assert lines[1].startswith("parts-demo,abc123,1000,%d" % GRID_SMALL)
    assert lines[1] == lines[3]


def _without_wall_times(d):
    if isinstance(d, dict):
        return {k: _without_wall_times(v) for k, v in d.items() if k != "wall_time"}
    return d


IDENTITIES = {
    "translation": lambda F, theta, k1, k2, n, seed, grid, **kw:
        verify_translation(F, theta, k1, k2, n, seed, grid=grid, **kw),
    "parts": lambda F, theta, k1, k2, n, seed, grid, **kw:
        verify_parts(F, theta, k1, k2, 2.0, n, seed, grid=grid, **kw),
    "cs": lambda F, theta, k1, k2, n, seed, grid, **kw:
        verify_cs_precursor(F, theta, k1, k2, 4.0, n, seed, grid=grid, **kw),
}


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
@pytest.mark.parametrize("kind", ["m2", "cos"])
def test_given_columns_give_the_report_of_an_own_draw(ctx, identity, kind):
    """Columns drawn onto the check's matrix, together with another
    matrix, give the report the check gets when it draws alone."""
    profile, theta, k1, k2, grid = ctx
    F = FUNCTIONALS[kind](theta, k1, k2)
    check = IDENTITIES[identity]
    dens = identity_densities(F, theta, k1, k2, grid)
    other = np.ones((grid.N, 1))
    columns, _ = draw_columns(profile, grid, 1001, 13, [dens, other])
    shared = check(F, theta, k1, k2, 1001, 13, grid, columns=columns)
    alone = check(F, theta, k1, k2, 1001, 13, grid)
    assert _without_wall_times(shared.to_dict()) == _without_wall_times(alone.to_dict())


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_columns_of_another_shape_are_refused(ctx, identity):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1, k2))
    check = IDENTITIES[identity]
    good = np.zeros((50, 3))
    check(F, theta, k1, k2, 50, 1, grid, columns=good)
    for bad in (np.zeros((50, 2)), np.zeros((49, 3)), np.zeros(150)):
        with pytest.raises(ValueError, match="columns must be"):
            check(F, theta, k1, k2, 50, 1, grid, columns=bad)


def test_drawn_columns_are_read_only(ctx):
    profile, theta, k1, k2, grid = ctx
    dens = identity_densities(MonomialSpec(theta, (k1,)), theta, k1, k2, grid)
    (cols,) = draw_columns(profile, grid, 300, 2, [dens])
    assert cols.shape == (300, 2) and not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0] = 1.0


def test_equal_matrices_share_one_projection(ctx, monkeypatch):
    """draw_columns projects each distinct matrix once, in one stream:
    equal matrices get one read-only array, every array has the bits of
    a draw onto its matrix alone."""
    import feynpath.montecarlo as mc

    profile, theta, k1, k2, grid = ctx
    dens = identity_densities(MonomialSpec(theta, (k1,)), theta, k1, k2, grid)
    other = identity_densities(MonomialSpec(theta, (k1, k2)), theta, k1, k2, grid)
    n = CHUNK_PATHS + 301
    alone = [draw_columns(profile, grid, n, 3, [D])[0] for D in (dens, other)]
    real, calls = mc.stream_increments, []

    def spy(*args, onto, **kwargs):
        calls.append(len(onto))
        return real(*args, onto=onto, **kwargs)

    monkeypatch.setattr(mc, "stream_increments", spy)
    first, second, third = draw_columns(profile, grid, n, 3, [dens, other, dens.copy()])
    assert calls == [2]
    assert first is third and first is not second
    assert not first.flags.writeable and not second.flags.writeable
    assert first.tobytes() == alone[0].tobytes() and second.tobytes() == alone[1].tobytes()


def test_mean_se_of_real_values_keeps_the_bits_of_the_complex_route():
    """Real values skip the zero imaginary part of the centered values;
    the standard error keeps the bits of centering them as complex."""
    vals = np.random.default_rng(5).standard_normal(10001) * 3.0 + 0.7
    n = vals.size
    mean = complex(vals.mean())
    centered = vals - mean
    var = float(np.mean(centered.real**2) + np.mean(centered.imag**2)) * n / (n - 1)
    got_mean, got_se = _mean_se(vals)
    assert got_mean == mean
    assert np.float64(got_se).tobytes() == np.float64(np.sqrt(var / n)).tobytes()
