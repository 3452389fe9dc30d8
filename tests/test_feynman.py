import cmath

import numpy as np
import pytest

from feynpath import (
    BadDomain,
    CMElement,
    ComplexParam,
    CosLinear,
    ExpLinear,
    GaussianSummary,
    MonomialSpec,
    PiecewisePoly,
    SuppElement,
    TimeGrid,
    TooLargeDegree,
    UnsupportedFunctional,
    ZeroParameter,
    analytic_fsi_monomial,
    cameron_storvick_residual,
    cm_inner,
    feynman_monomial,
    gaussian_moment,
    identity_element,
    inner_with_a,
    monomial_summary,
    odot,
    pwz_integral,
    sample_gbmp_paths,
    wick_moment,
    z_process_path,
    z_shift_path,
)
import feynpath.feynman as feynman_module
from feynpath.feynman import (
    _direction_scalars,
    _linear_factors,
    _value_at,
    _variation_at,
    feynman_elements,
    summary_of_elements,
)

from conftest import pp, random_nonvanishing_poly
from oracles import gaussian_moment_loop


@pytest.fixture
def std_spec(std_elements):
    theta, k1, k2 = std_elements
    return MonomialSpec(theta, (k1, k2))


def _random_spec(rng, profile, m):
    theta = CMElement(random_nonvanishing_poly(rng), profile)
    ks = tuple(
        SuppElement(random_nonvanishing_poly(rng), profile)
        for _ in range(m)
    )
    return MonomialSpec(theta, ks)


# -- ComplexParam ------------------------------------------------------------


def test_principal_branch_conventions():
    for lam in (2.0, 1 + 3j, 0.5 - 2j):
        p = ComplexParam.analytic(lam)
        assert p.sqrt_lambda.real >= 0
        assert abs(p.sqrt_lambda**2 - lam) < 1e-14 * abs(lam)
        assert abs(p.inv_sqrt_lambda - cmath.sqrt(1 / complex(lam))) == 0.0
    for q in (1.0, -2.0, 3.0):
        p = ComplexParam.feynman(q)
        assert p.effective_lambda == -1j * q
        assert p.inv_sqrt_lambda.real > 0


def test_branch_consistency_positive_q():
    # for q > 0 the inverse principal root is e^{i pi/4} / sqrt(q)
    for q in (1.0, 2.0, 7.5):
        got = ComplexParam.feynman(q).inv_sqrt_lambda
        want = cmath.exp(1j * cmath.pi / 4) / cmath.sqrt(q)
        assert abs(got - want) < 1e-15


def test_param_validation():
    with pytest.raises(ZeroParameter):
        ComplexParam.feynman(0.0)
    with pytest.raises(BadDomain):
        ComplexParam.analytic(-1.0)
    with pytest.raises(BadDomain):
        ComplexParam.analytic(1j)


# -- Summaries ---------------------------------------------------------------


def test_monomial_summary_standard_values(std_spec):
    s = monomial_summary(std_spec)
    assert s.mean == pytest.approx([0.5, 1.0 / 3.0], rel=1e-14)
    assert s.cov[0, 0] == pytest.approx(1.5, rel=1e-14)
    assert s.cov[0, 1] == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert s.cov[1, 1] == pytest.approx(7.0 / 12.0, rel=1e-14)


def test_summary_zero_means_without_drift(wiener):
    theta = CMElement(pp([1.0]), wiener)
    k = identity_element(wiener)
    s = monomial_summary(MonomialSpec(theta, (k, k)))
    assert np.all(s.mean == 0.0)


def test_summary_duplicate_factor_is_psd(std_elements):
    theta, k1, _ = std_elements
    s = monomial_summary(MonomialSpec(theta, (k1, k1)))
    assert np.array_equal(s.cov[0], s.cov[1])
    assert np.linalg.eigvalsh(s.cov).min() > -1e-10


def test_summary_rejects_asymmetric():
    with pytest.raises(ValueError):
        GaussianSummary(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        GaussianSummary(mean=[0.0], cov=[[-1.0]])


# -- Wick route --------------------------------------------------------------


def test_gaussian_moment_hand_cases():
    s = GaussianSummary(mean=[0.7], cov=[[2.0]])
    assert gaussian_moment(s) == pytest.approx(0.7)
    mu = np.array([0.5, 1.0 / 3.0])
    cov = np.array([[1.5, 5.0 / 6.0], [5.0 / 6.0, 7.0 / 12.0]])
    s2 = GaussianSummary(mean=mu, cov=cov)
    assert gaussian_moment(s2) == pytest.approx(cov[0, 1] + mu[0] * mu[1], rel=1e-14)
    mu3 = np.array([0.3, -0.4, 0.9])
    c3 = np.array([[1.0, 0.2, -0.1], [0.2, 0.8, 0.3], [-0.1, 0.3, 1.2]])
    s3 = GaussianSummary(mean=mu3, cov=c3)
    want = (
        mu3[0] * mu3[1] * mu3[2]
        + mu3[0] * c3[1, 2]
        + mu3[1] * c3[0, 2]
        + mu3[2] * c3[0, 1]
    )
    assert gaussian_moment(s3) == pytest.approx(want, rel=1e-13)


def test_wick_moment_empty_product():
    s = GaussianSummary(mean=np.zeros(0), cov=np.zeros((0, 0)))
    assert wick_moment(s, ComplexParam.feynman(3.0)) == 1.0


def test_wick_moment_degree_one_matches_closed_form(std_elements):
    theta, k1, _ = std_elements
    s = monomial_summary(MonomialSpec(theta, (k1,)))
    for q in (1.0, -2.0, 3.0):
        got = wick_moment(s, ComplexParam.feynman(q))
        want = cmath.sqrt(1 / (-1j * q)) * inner_with_a(odot(theta, k1))
        assert abs(got - want) < 1e-15


def test_degree_cap():
    s = GaussianSummary(mean=np.zeros(13), cov=np.eye(13))
    with pytest.raises(TooLargeDegree):
        gaussian_moment(s)


def _bit_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("m", range(0, 13))
def test_gaussian_moment_equals_enumeration_loop(m):
    """The block-vectorized sum has the bits of the one-term-at-a-time
    loop, sign of zero included: general, zero and negative-zero means,
    and covariances of repeated factors."""
    rng = np.random.default_rng(100 + m)
    a = rng.standard_normal((m, m))
    repeated = a[rng.integers(0, max(1, m // 2), size=m)] if m else a
    cases = [
        (rng.standard_normal(m), a @ a.T),
        (np.zeros(m), a @ a.T),
        (-np.zeros(m), np.diag(rng.uniform(0.5, 1.0, m))),
        (np.repeat(rng.standard_normal(1), m), repeated @ repeated.T),
    ]
    for mean, cov in cases:
        s = GaussianSummary(mean=mean, cov=cov)
        got, want = gaussian_moment(s), gaussian_moment_loop(s.mean, s.cov)
        assert _bit_equal(got, want) and type(got) is type(want)


def test_wick_tables_are_int8_and_bounded():
    """The position tables are int8, cached only below the degree cap,
    and an m = 12 moment still works."""
    s = GaussianSummary(mean=np.ones(12), cov=np.eye(12))
    assert gaussian_moment(s) == gaussian_moment_loop(s.mean, s.cov)
    tables = feynman_module._WICK_TABLES
    assert tables and max(tables) < feynman_module.MAX_MONOMIAL_DEGREE
    assert all(t.dtype == np.int8 for pair in tables.values() for t in pair)
    assert sum(t.nbytes for pair in tables.values() for t in pair) < 2**20


def test_summary_of_elements_computes_each_distinct_pair_once(monkeypatch, std_elements):
    """Repeated and equal-but-distinct elements share one pairing and one
    inner product per ordered pair, and the summary has the bits of the
    all-pairs computation."""
    theta, k1, k2 = std_elements
    a, b = theta, CMElement(k2.density, k2.profile)
    c = odot(b, k2)
    b_copy = CMElement(PiecewisePoly(b.density.breakpoints, b.density.coeffs), b.profile)
    els = [a, b, a, c, b_copy, a, k2]
    slots = [0, 1, 0, 2, 1, 0, 1]
    m = len(els)
    want_cov = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            want_cov[i, j] = want_cov[j, i] = cm_inner(els[i], els[j])
    want_mean = np.array([inner_with_a(e) for e in els])

    calls = {"cm_inner": 0, "inner_with_a": 0}

    def counted_inner(w1, w2):
        calls["cm_inner"] += 1
        return cm_inner(w1, w2)

    def counted_pairing(w):
        calls["inner_with_a"] += 1
        return inner_with_a(w)

    monkeypatch.setattr(feynman_module, "cm_inner", counted_inner)
    monkeypatch.setattr(feynman_module, "inner_with_a", counted_pairing)
    s = summary_of_elements(els)
    ordered = {(slots[i], slots[j]) for i in range(m) for j in range(i, m)}
    assert calls["cm_inner"] == len(ordered) and calls["inner_with_a"] == 3
    assert _bit_equal(s.mean, want_mean) and _bit_equal(s.cov, want_cov)
    assert not s.mean.flags.writeable and not s.cov.flags.writeable


def test_spec_builds_products_and_summary_once(monkeypatch, std_elements):
    theta, k1, k2 = std_elements
    k2_copy = SuppElement(PiecewisePoly(k2.density.breakpoints, k2.density.coeffs), k2.profile)
    spec = MonomialSpec(theta, (k1, k2, k1, k2_copy, k2))
    want = [odot(theta, k) for k in spec.ks]
    fresh = feynman_monomial(MonomialSpec(theta, spec.ks), -2.0)
    odots = []
    monkeypatch.setattr(feynman_module, "odot", lambda w, k: odots.append(k) or odot(w, k))
    els = spec.elements()
    assert len(odots) == 2 and els[0] is els[2] and els[1] is els[3] is els[4]
    assert all(e == w for e, w in zip(els, want))
    summary = monomial_summary(spec)
    assert monomial_summary(spec) is summary and len(odots) == 2
    calls = []
    monkeypatch.setattr(feynman_module, "cm_inner", lambda *a: calls.append(a))
    value = feynman_monomial(spec, -2.0)
    assert calls == [] and value == fresh


# -- Feynman monomials -------------------------------------------------------


def test_feynman_degree_one_wiener_vanishes(wiener):
    theta = CMElement(pp([1.0]), wiener)
    spec = MonomialSpec(theta, (identity_element(wiener),))
    assert feynman_monomial(spec, 2.0) == 0.0


def test_feynman_degree_two_standard_is_i(std_spec):
    got = feynman_monomial(std_spec, 1.0)
    assert abs(got - 1j) < 1e-12


def test_feynman_rejects_zero_parameter(std_spec):
    with pytest.raises(ZeroParameter):
        feynman_monomial(std_spec, 0.0)


def test_recurrence_matches_wick_random(standard, wiener):
    rng = np.random.default_rng(40)
    for profile in (standard, wiener):
        for m in range(0, 7):
            spec = _random_spec(rng, profile, m)
            q = float(rng.choice([1.0, -2.0, 3.0, 0.7]))
            got = feynman_monomial(spec, q)
            want = wick_moment(monomial_summary(spec), ComplexParam.feynman(q))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_feynman_permutation_symmetry(standard):
    rng = np.random.default_rng(41)
    spec = _random_spec(rng, standard, 4)
    base = feynman_monomial(spec, -2.0)
    perm = MonomialSpec(spec.theta, spec.ks[::-1])
    assert abs(feynman_monomial(perm, -2.0) - base) <= 1e-12 * max(1.0, abs(base))


def test_analytic_fsi_at_unit_lambda_is_plain_moment(std_spec):
    got = analytic_fsi_monomial(std_spec, 1.0)
    want = gaussian_moment(monomial_summary(std_spec))
    assert abs(got - want) < 1e-14


def test_analytic_fsi_zero_mean_pair(wiener):
    theta = CMElement(pp([1.0]), wiener)
    k1 = identity_element(wiener)
    k2 = SuppElement(pp([0.0, 1.0]), wiener)
    spec = MonomialSpec(theta, (k1, k2))
    s = monomial_summary(spec)
    got = analytic_fsi_monomial(spec, 2.0)
    assert abs(got - s.cov[0, 1] / 2.0) < 1e-14


def test_analytic_fsi_limit_reaches_feynman(std_spec):
    q = 1.5
    target = feynman_monomial(std_spec, q)
    for eps in (1e-4, 1e-6, 1e-8):
        lam = complex(eps, -q)
        got = analytic_fsi_monomial(std_spec, lam)
        assert abs(got - target) < 10 * eps + 1e-12


def test_analytic_fsi_domain(std_spec):
    with pytest.raises(BadDomain):
        analytic_fsi_monomial(std_spec, -0.5)
    with pytest.raises(BadDomain):
        analytic_fsi_monomial(std_spec, 1j)


def test_audit_records_scalars(std_spec):
    audit = []
    feynman_monomial(std_spec, 1.0, audit=audit)
    assert audit and audit[0]["op"] == "feynman_monomial"
    assert audit[0]["means"] == pytest.approx([0.5, 1.0 / 3.0])
    assert audit[0]["cov"][0][1] == pytest.approx(5.0 / 6.0)


# -- First variation ---------------------------------------------------------


def _factor_values(factors, paths, grid):
    """v[..., j] = (factors[j], x)~ along each path x."""
    return np.stack([pwz_integral(u, paths, grid) for u in factors], axis=-1)


def test_variation_of_a_linear_functional(std_elements):
    theta, k1, k2 = std_elements
    F = MonomialSpec(theta, (k1,))
    # direction theta (.) k1: the variation is the constant pairing 5/6
    d = _direction_scalars(F, k2, odot(theta, k1))
    got = _variation_at(F, np.zeros((3, 1)), d)
    want = cm_inner(odot(theta, k2), odot(theta, k1))
    assert got == pytest.approx([want] * 3, rel=1e-14)
    assert want == pytest.approx(5.0 / 6.0, rel=1e-14)


def test_variation_of_a_constant_functional(std_elements):
    theta, k1, k2 = std_elements
    F = MonomialSpec(theta, ())
    d = _direction_scalars(F, k2, theta)
    assert d == []
    assert np.array_equal(_variation_at(F, np.zeros((3, 0)), d), np.zeros(3))


def _fd_variation(F, k2, w, path, grid, h=1e-5):
    shift = z_shift_path(k2, w, grid)
    factors = _linear_factors(F)
    up = _value_at(F, _factor_values(factors, path + h * shift, grid))
    dn = _value_at(F, _factor_values(factors, path - h * shift, grid))
    return (up - dn) / (2 * h)


def test_variation_matches_finite_difference(standard, std_elements):
    theta, k1, k2 = std_elements
    grid = TimeGrid.build(standard, n=2048)
    ens = sample_gbmp_paths(standard, grid, 3, 55)
    w = odot(theta, k1)
    m3 = MonomialSpec(theta, (k1, k2, k1))
    for F in (m3, CosLinear(theta), ExpLinear(theta, 0.5 + 0.0j, allow_unbounded=True)):
        # the variation at x, through (u (.) k1, x)~, against a central
        # difference of F along the transported paths Z_{k1}(x, .)
        at = _factor_values([odot(u, k1) for u in _linear_factors(F)], ens.values, grid)
        got = _variation_at(F, at, _direction_scalars(F, k2, w))
        want = _fd_variation(F, k2, w, z_process_path(k1, ens.values, grid), grid)
        assert np.allclose(got, want, rtol=5e-3, atol=5e-3)


def test_exp_linear_real_exponent_gate(std_elements):
    theta, _, _ = std_elements
    with pytest.raises(UnsupportedFunctional):
        ExpLinear(theta, 0.3 + 0.0j)
    ExpLinear(theta, 0.3 + 0.0j, allow_unbounded=True)
    ExpLinear(theta, 1j)  # purely imaginary is always fine


# -- Cameron-Storvick residual ------------------------------------------------


def test_cs_residual_closed_form(std_elements):
    theta, k1, k2 = std_elements
    b = identity_element(theta.profile)
    configs = [(b, b), (k1, k2), (k2, k1)]
    for ka, kb in configs:
        for m in range(0, 5):
            ks = tuple((k1, k2)[j % 2] for j in range(m))
            F = MonomialSpec(theta, ks)
            for q in (1.0, -2.0, 3.0):
                res = cameron_storvick_residual(F, theta, ka, kb, q)
                assert abs(res) < 1e-10


def test_cs_residual_constant_functional(std_elements):
    theta, k1, k2 = std_elements
    F = MonomialSpec(theta, ())
    res = cameron_storvick_residual(F, theta, k1, k2, 2.0)
    assert abs(res) < 1e-12


def test_cs_residual_wick_route(std_elements):
    """Each integral the residual takes by the recurrence equals its Wick
    reference, so the residual through the Wick route vanishes too."""
    theta, k1, k2 = std_elements
    F = MonomialSpec(theta, (k1, k2, k1))
    param = ComplexParam.feynman(1.0)
    base = [odot(u, k1) for u in F.elements()]
    terms = [base[:l] + base[l + 1 :] for l in range(len(base))]
    terms += [[odot(theta, k2)] + base, base]
    for elements in terms:
        want = wick_moment(summary_of_elements(elements), param)
        assert abs(feynman_elements(elements, param) - want) < 1e-12 * max(1.0, abs(want))


def test_cs_residual_rejects_zero_q(std_elements):
    theta, k1, k2 = std_elements
    with pytest.raises(ZeroParameter):
        cameron_storvick_residual(MonomialSpec(theta, ()), theta, k1, k2, 0.0)


def test_corollary_rearrangement(std_elements):
    """Product-form identity: the Feynman mean of the product equals
    (i/q) times the variation mean plus the root-weighted plain mean."""
    theta, k1, k2 = std_elements
    q = -2.0
    param = ComplexParam.feynman(q)
    spec = MonomialSpec(theta, (k1, k2, k2))
    els = spec.elements()
    base = [odot(u, k1) for u in els]
    theta_k2 = odot(theta, k2)
    lhs = feynman_elements([theta_k2] + base, param)
    variation = sum(
        cm_inner(odot(els[l], k2), odot(theta, k1))
        * feynman_elements(base[:l] + base[l + 1 :], param)
        for l in range(len(els))
    )
    plain = feynman_elements(base, param)
    rhs = (
        param.inv_sqrt_lambda**2 * variation
        + param.inv_sqrt_lambda * inner_with_a(theta_k2) * plain
    )
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
