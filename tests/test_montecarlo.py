import dataclasses
import json

import numpy as np
import pytest

from feynpath import (
    BadDomain,
    CMElement,
    CosLinear,
    ExpLinear,
    IdentityReport,
    MCReport,
    MonomialSpec,
    SuppElement,
    TimeGrid,
    UnsupportedFunctional,
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
from feynpath.feynman import _direction_scalars, _linear_factors, _value_at, _variation_at
from feynpath.montecarlo import (
    LEDGER_COLUMNS,
    _SIDES,
    _Moments,
    _SharedDraw,
    append_ledger,
    identity_ledger_row,
    ledger_row,
)

from feynpath import paths
from feynpath.paths import CHUNK_PATHS

from conftest import pp
from oracles import exact_law_columns_loop, mean_se_two_pass


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
    # its draw is zero columns wide, but the seed is checked as for any other
    with pytest.raises(ValueError, match="seed"):
        mc_fsi(F, identity_element(profile), 1.0, 500, -1, grid=grid)


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
    for lam in (0.0, np.inf):
        with pytest.raises(BadDomain):
            mc_fsi(F, k1, lam, 100, 1, grid=grid)


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
    """Both sides agree path by path, so the difference merged over three
    spans of paths has mean and standard error 0."""
    profile, theta, k1, k2, grid = ctx
    zero = CMElement(pp([0.0]), profile)
    F = MonomialSpec(theta, (k1,))
    report = verify_translation(F, zero, k1, k2, 2 * CHUNK_PATHS + 301, 29, grid=grid)
    assert report.discrepancy == 0.0 and report.diff_se == 0.0
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
    for rho in (0.0, np.inf):
        with pytest.raises(BadDomain):
            verify_parts(F, theta, k1, k2, rho, 100, 1, grid=grid)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.inf])
def test_cs_precursor_rejects_nonpositive_lambda(ctx, lam):
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    with pytest.raises(BadDomain, match="lambda must be a positive real"):
        verify_cs_precursor(F, theta, k1, k2, lam, 100, 1, grid=grid)


def test_identity_checks_reject_an_unknown_functional(ctx):
    profile, theta, k1, k2, grid = ctx
    with pytest.raises(UnsupportedFunctional, match="unknown functional"):
        verify_translation(object(), theta, k1, k2, 100, 1, grid=grid)


def test_identity_checks_need_two_paths(ctx):
    """One path has no standard error: the identity checks and mc_fsi
    reject it."""
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    for check in (lambda n: verify_translation(F, theta, k1, k2, n, 1, grid=grid),
                  lambda n: verify_parts(F, theta, k1, k2, 1.0, n, 1, grid=grid),
                  lambda n: verify_cs_precursor(F, theta, k1, k2, 4.0, n, 1, grid=grid)):
        with pytest.raises(BadDomain, match="needs n_paths >= 2"):
            check(1)
        assert np.isfinite(check(2).sigma_ratio)
    with pytest.raises(BadDomain, match="mc_fsi needs n_paths >= 2"):
        mc_fsi(F, k1, 1.0, 1, 1, grid=grid)
    assert mc_fsi(F, k1, 1.0, 2, 1, grid=grid).std_error > 0.0


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


# Each identity's verify function and the scalar it is checked at.
IDENTITY_CALLS = {
    "translation": (verify_translation, ()),
    "parts": (verify_parts, (2.0,)),
    "cs": (verify_cs_precursor, (4.0,)),
}
IDENTITIES = {
    identity: lambda F, theta, k1, k2, n, seed, grid, _func=func, _scalars=scalars, **kw:
        _func(F, theta, k1, k2, *_scalars, n, seed, grid=grid, **kw)
    for identity, (func, scalars) in IDENTITY_CALLS.items()
}


def _densities(name, args, grid):
    """The (N, c) left densities of the columns of check (name, args),
    from its builder's elements, as ``_reduce_draw`` evaluates them."""
    elements, _ = _SIDES[name](*args)
    return np.reshape([paths.left_density(e, grid) for e in elements], (-1, grid.N)).T


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
@pytest.mark.parametrize("kind", sorted(FUNCTIONALS))
def test_streamed_reports_agree_with_the_loop_reference(ctx, identity, kind):
    """A check's streamed report agrees with its sides evaluated on the
    loop reference's columns of the exact grid law, in row-major memory,
    and reduced in two passes over all n paths: lhs, rhs, their standard
    errors and diff_se to 4 ulp of themselves, the discrepancy to 4 ulp
    of max(|lhs|, |rhs|).  An SE at rounding level, as the lhs SE of m1's
    parts and cs, whose variation is constant, is held to 4 ulp of that
    scale."""
    profile, theta, k1, k2, grid = ctx
    F = FUNCTIONALS[kind](theta, k1, k2)
    func, scalars = IDENTITY_CALLS[identity]
    n, seed = 2 * CHUNK_PATHS + 301, 13
    report = IDENTITIES[identity](F, theta, k1, k2, n, seed, grid)

    _, sides = _SIDES[func.__name__](F, theta, k1, k2, *scalars)
    D = _densities(func.__name__, (F, theta, k1, k2, *scalars), grid)
    da, db = paths.increment_moments(profile, grid)
    mu, G = paths._column_law(da, np.sqrt(db), D)
    lhs, rhs = sides(exact_law_columns_loop(mu, G, seed, n, CHUNK_PATHS))
    (lhs_mean, lhs_se), (rhs_mean, rhs_se), (diff_mean, diff_se) = (
        mean_se_two_pass(v) for v in (lhs, rhs, lhs - rhs))

    tol = 4 * np.finfo(float).eps
    scale = max(abs(lhs_mean), abs(rhs_mean))
    assert abs(report.lhs.estimate - lhs_mean) <= tol * abs(lhs_mean)
    assert abs(report.rhs.estimate - rhs_mean) <= tol * abs(rhs_mean)
    for got, want in ((report.lhs.std_error, lhs_se), (report.rhs.std_error, rhs_se),
                      (report.diff_se, diff_se)):
        assert abs(got - want) <= tol * (want if want > tol * scale else scale)
    assert abs(report.discrepancy - abs(diff_mean)) <= tol * scale


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
@pytest.mark.parametrize("kind", ["m2", "cos"])
def test_given_columns_give_the_report_of_an_own_draw(ctx, identity, kind):
    """A draw shared with a check on another matrix, given as columns=,
    gives the report the check gets when it draws alone."""
    profile, theta, k1, k2, grid = ctx
    F = FUNCTIONALS[kind](theta, k1, k2)
    func, scalars = IDENTITY_CALLS[identity]
    other = FUNCTIONALS["m1" if kind == "m2" else "m2"](theta, k1, k2)
    checks = [("verify_parts", (other, theta, k1, k2, 1.0)),
              (func.__name__, (F, theta, k1, k2, *scalars))]
    shared = _SharedDraw(profile, grid, 1001, 13, checks)
    assert _densities(*checks[0], grid).shape != _densities(*checks[1], grid).shape
    check = IDENTITIES[identity]
    given = check(F, theta, k1, k2, 1001, 13, grid, columns=shared)
    alone = check(F, theta, k1, k2, 1001, 13, grid)
    assert _without_wall_times(given.to_dict()) == _without_wall_times(alone.to_dict())


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
@pytest.mark.parametrize("kind", ["m2", "cos"])
def test_default_grid_runs_through_every_breakpoint(ctx, identity, kind):
    """grid=None gives, bit for bit, the report on the default-size grid
    built through the breakpoints of F's linear factors and theta, k1
    and k2."""
    profile, theta, k1, k2, _ = ctx
    F = FUNCTIONALS[kind](theta, k1, k2)
    check = IDENTITIES[identity]
    grid = TimeGrid.build(profile, _linear_factors(F) + [theta, k1, k2])
    default = check(F, theta, k1, k2, 1001, 17, None).to_dict()
    explicit = check(F, theta, k1, k2, 1001, 17, grid).to_dict()
    assert json.dumps(_without_wall_times(default)) == json.dumps(_without_wall_times(explicit))


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_columns_of_another_shape_are_refused(ctx, identity):
    """columns= takes None or a shared draw; anything else, such as an
    array of the check's (n, c) columns or of another shape, is a
    TypeError that says what is taken."""
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1, k2))
    check = IDENTITIES[identity]
    for bad in (np.zeros((50, 3)), np.zeros((50, 2)), [[0.0] * 3] * 50, 0):
        with pytest.raises(TypeError, match="columns must be None or a shared draw"):
            check(F, theta, k1, k2, 50, 1, grid, columns=bad)


# The checks of one streamed group: (verify function, its scalar, the
# functional).  They cover every identity kind and both of std.json's
# matrices, [1, t] (cos and m1) and [1, t, t] (m2).
GROUP = [
    (verify_translation, None, "cos"),
    (verify_parts, 1.0, "m1"),
    (verify_cs_precursor, 4.0, "m2"),
    (verify_translation, None, "m2"),
    (verify_parts, 2.0, "exp1j"),
    (verify_cs_precursor, 4.0, "cos"),
]


@pytest.mark.parametrize("n", [2, CHUNK_PATHS, 2 * CHUNK_PATHS + 301])
@pytest.mark.parametrize("order", ["given", "reversed"])
def test_a_streamed_group_gives_the_reports_of_drawn_columns(ctx, n, order):
    """Checks reduced together in one pass over a streamed draw, in
    either order, get the reports that each gets from a draw of its
    own, to the bit apart from their wall times."""
    profile, theta, k1, k2, grid = ctx
    group = GROUP if order == "given" else GROUP[::-1]
    calls = [(func, (FUNCTIONALS[kind](theta, k1, k2), theta, k1, k2)
              + (() if scalar is None else (scalar,))) for func, scalar, kind in group]
    shared = _SharedDraw(profile, grid, n, 13, [(func.__name__, args) for func, args in calls])
    streamed = [func(*args, n, 13, grid=grid, columns=shared) for func, args in calls]
    densities = [_densities(func.__name__, args, grid) for func, args in calls]
    assert len({D.tobytes() for D in densities}) == 2
    assert isinstance(shared.wall_time, float) and shared.wall_time >= 0.0
    for (func, args), report in zip(calls, streamed):
        alone = func(*args, n, 13, grid=grid)
        assert _without_wall_times(report.to_dict()) == _without_wall_times(alone.to_dict())


def _spied(monkeypatch, name):
    """The list to which the sides that ``_SIDES[name]`` builds, from
    now on, append a copy of each block they get."""
    build, seen = _SIDES[name], []

    def spy_build(*args):
        elements, sides = build(*args)

        def spy(block):
            seen.append(block.copy())
            return sides(block)

        return elements, spy

    monkeypatch.setitem(_SIDES, name, spy_build)
    return seen


def test_the_checks_of_a_draw_read_one_set_of_paths(ctx, monkeypatch):
    """Two checks of one draw on the columns [1, t] and [t^2, t] read one
    set of paths: their copies of (t, x)~ are bit-equal in every block,
    and each check still gets its own columns, [1, t] and [t^2, t]."""
    profile, theta, k1, k2, grid = ctx
    t_squared = SuppElement(pp([0.0, 0.0, 1.0]), profile)
    n = 2 * CHUNK_PATHS + 301
    first, second = _spied(monkeypatch, "verify_translation"), _spied(monkeypatch, "verify_parts")
    shared = _SharedDraw(profile, grid, n, 13, [
        ("verify_translation", (MonomialSpec(theta, (k1,)), theta, k1, k2)),
        ("verify_parts", (MonomialSpec(theta, (t_squared,)), theta, k1, k2, 1.0)),
    ])
    shared.report(*shared.checks[0], n, 13, grid)  # the first report runs the pass
    assert [len(b) for b in first] == [len(b) for b in second] == [CHUNK_PATHS, CHUNK_PATHS, 301]
    for a, b in zip(first, second):
        assert a.shape == b.shape == (len(a), 2)
        assert a[:, 1].tobytes() == b[:, 1].tobytes()  # (t, x)~
        assert not np.array_equal(a[:, 0], b[:, 0])


@pytest.mark.parametrize("n", [2, 2 * CHUNK_PATHS + 301])
def test_a_check_gets_its_group_row_alone_when_the_group_reads_only_its_columns(ctx, n):
    """A check whose group reads no column outside its own, here
    [t^2, t], gets the report it gets when it draws alone, to the bit
    apart from its wall times, for every identity."""
    profile, theta, k1, k2, grid = ctx
    t_squared = SuppElement(pp([0.0, 0.0, 1.0]), profile)
    F = MonomialSpec(theta, (t_squared, k2))  # [t^2, t, t]
    calls = [(verify_translation, (F, theta, k1, k2)),
             (verify_parts, (MonomialSpec(theta, (t_squared,)), theta, k1, k2, 2.0)),  # [t^2, t]
             (verify_cs_precursor, (F, theta, k1, k2, 4.0))]
    shared = _SharedDraw(profile, grid, n, 13, [(func.__name__, args) for func, args in calls])
    for func, args in calls:
        report = func(*args, n, 13, grid=grid, columns=shared)
        alone = func(*args, n, 13, grid=grid)
        assert _without_wall_times(report.to_dict()) == _without_wall_times(alone.to_dict())


def test_a_shared_draw_member_gives_only_its_own_check(ctx, monkeypatch):
    """A shared draw gives the report of a check it holds, found by its
    verify function's name and arguments, at the draw's n and seed; for
    any other call it is a ValueError.  The draw is streamed once, by
    the first report."""
    profile, theta, k1, k2, grid = ctx
    F = MonomialSpec(theta, (k1,))
    shared = _SharedDraw(profile, grid, 50, 1, [("verify_parts", (F, theta, k1, k2, 1.0))])
    calls = _count_streams(monkeypatch)
    first = verify_parts(F, theta, k1, k2, 1.0, 50, 1, grid=grid, columns=shared)
    assert verify_parts(F, theta, k1, k2, 1.0, 50, 1, columns=shared) is first
    assert calls == [50]
    for other in (lambda: verify_parts(F, theta, k1, k2, 2.0, 50, 1, grid=grid, columns=shared),
                  lambda: verify_cs_precursor(F, theta, k1, k2, 1.0, 50, 1, columns=shared),
                  lambda: verify_parts(F, theta, k1, k2, 1.0, 51, 1, columns=shared),
                  lambda: verify_parts(F, theta, k1, k2, 1.0, 50, 2, columns=shared),
                  lambda: verify_parts(F, theta, k1, k2, 1.0, 50, 1, grid=TimeGrid(grid.nodes),
                                       columns=shared)):
        with pytest.raises(ValueError, match="another check"):
            other()
    assert calls == [50]


def _count_streams(monkeypatch):
    """The n of every stream montecarlo draws from, in call order."""
    import feynpath.montecarlo as mc

    calls, real = [], mc.stream_increments

    def spy(profile, grid, n_paths, seed, **kwargs):
        calls.append(n_paths)
        return real(profile, grid, n_paths, seed, **kwargs)

    monkeypatch.setattr(mc, "stream_increments", spy)
    return calls


def _bits(moments):
    return [(np.float64(m.real).tobytes(), np.float64(m.imag).tobytes(), np.float64(se).tobytes())
            for m, se in moments]


def _moments_over(cols, sides):
    """The ``_Moments`` of ``sides`` on every column, handed each
    CHUNK_PATHS-row view of ``cols`` in order, as the blocks of a stream
    are."""
    acc = _Moments(sides, slice(None))
    for p0 in range(0, len(cols), CHUNK_PATHS):
        acc.add(cols[p0 : p0 + CHUNK_PATHS])
    return acc


def _two_sides(n, kind, seed):
    rng = np.random.default_rng(seed)
    lhs = rng.standard_normal(n) * 3.0 + 0.7
    rhs = rng.standard_normal(n) * 0.5 - 1.1
    if kind == "complex":
        lhs = lhs + 1j * (rng.standard_normal(n) * 2.0 - 0.4)
    return lhs, rhs


@pytest.mark.parametrize("n", [2, CHUNK_PATHS - 1, CHUNK_PATHS, 2 * CHUNK_PATHS + 301])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_span_moments_agree_with_the_two_pass_oracle(n, kind):
    """The span-by-span merge of lhs, rhs and lhs - rhs agrees with a
    two-pass mean and standard error over the whole arrays to a few
    ulps, within one span, at its edge and across three spans."""
    lhs, rhs = _two_sides(n, kind, n)
    got = _moments_over(np.column_stack([lhs, rhs]),
                        lambda block: (block[:, 0], block[:, 1])).moments()
    ulp = np.finfo(float).eps
    for (mean, se), vals in zip(got, (lhs, rhs, lhs - rhs)):
        want_mean, want_se = mean_se_two_pass(vals)
        assert abs(mean - want_mean) <= 4 * ulp * abs(want_mean)
        assert abs(se - want_se) <= 4 * ulp * want_se


def test_span_moments_of_real_values_keep_the_bits_of_the_complex_route():
    """Real values give the bits of the same values with a zero
    imaginary part: each part is reduced as a real array, and the zero
    part adds 0.0 to the mean's imaginary part and to M2."""
    n = 2 * CHUNK_PATHS + 301
    cols = np.column_stack(_two_sides(n, "real", 5))
    real = _moments_over(cols, lambda block: (block[:, 0], block[:, 1])).moments()
    as_complex = _moments_over(cols, lambda block: (block[:, 0] + 0j, block[:, 1] + 0j)).moments()
    assert _bits(real) == _bits(as_complex)
    assert all(np.float64(m.imag).tobytes() == np.float64(0.0).tobytes() for m, _ in real)


@pytest.mark.parametrize("n", [2, CHUNK_PATHS, 2 * CHUNK_PATHS + 301])
def test_span_moments_hand_sides_views_of_the_columns_in_order(n):
    """Each block ``sides`` gets is a view of the columns of at most
    CHUNK_PATHS rows, and the blocks, in call order, are every row once."""
    cols = np.asfortranarray(np.arange(2.0 * n).reshape(n, 2))
    blocks = []

    def sides(block):
        blocks.append(block)
        return block[:, 0], block[:, 1]

    _moments_over(cols, sides)
    assert all(np.shares_memory(block, cols) and len(block) <= CHUNK_PATHS for block in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), cols)


def _estimate(value):
    return MCReport(estimate=value, std_error=0.1, n_paths=10, grid_size=4, seed=1, wall_time=0.0)


@pytest.mark.parametrize(
    "discrepancy, diff_se, want",
    [(0.3, 0.1, 0.3 / 0.1), (1e-12 * 5.0, 0.0, 0.0), (np.nextafter(1e-12 * 5.0, 1.0), 0.0, np.inf)],
    ids=["diff_se-positive", "exact-at-tolerance", "exact-above-tolerance"],
)
def test_identity_report_derives_its_verdict_from_its_fields(discrepancy, diff_se, want):
    """sigma_ratio is discrepancy / diff_se; with diff_se = 0 it is 0 up
    to 1e-12 max(1, |lhs|, |rhs|), here 1e-12 * |3 + 4j|, and inf above."""
    report = IdentityReport(lhs=_estimate(3 + 4j), rhs=_estimate(2.0), discrepancy=discrepancy,
                            diff_se=diff_se)
    assert [f.name for f in dataclasses.fields(report)] == ["lhs", "rhs", "discrepancy", "diff_se"]
    assert report.sigma_ratio == want and report.threshold == 3.0
    assert report.passed is (want < 3.0)
    d = report.to_dict()
    assert list(d) == ["lhs", "rhs", "discrepancy", "diff_se", "sigma_ratio", "threshold", "pass"]
    assert (d["sigma_ratio"], d["threshold"], d["pass"]) == (want, 3.0, want < 3.0)
