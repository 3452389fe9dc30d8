import numpy as np
import pytest

from feynpath import (
    DomainMismatch,
    MeasureKind,
    NonPositiveVariance,
    ProfilePair,
    TooLargeDegree,
    build_profile,
    stieltjes_integral,
    validate_profile,
)

from feynpath.measure import GAUSS_ORDER, MAX_JOINT_DEGREE
from feynpath.piecewise import PiecewisePoly

from oracles import frac_coeffs, product_integral, stieltjes_node_formula
from conftest import pp, random_poly


def test_wiener_profile_has_zero_variation_integral(wiener):
    assert wiener.cc2_value == 0.0
    report = validate_profile(wiener)
    assert report.passed and report.cc2_value == 0.0


def test_standard_profile_variation_integral(standard):
    # |a'|^3 = t^3 on [0, 1] integrates to 1/4
    assert standard.cc2_value == pytest.approx(0.25, rel=1e-14)


def test_negative_variance_rejected():
    with pytest.raises(NonPositiveVariance):
        build_profile(pp([0.0]), pp([-1.0]), 1.0)


def test_boundary_zero_variance_flagged_not_built():
    # b'(t) = t vanishes at 0: construction rejects, validation reports
    with pytest.raises(NonPositiveVariance):
        build_profile(pp([0.0]), pp([0.0, 1.0]), 1.0)
    profile = ProfilePair.from_derivatives(pp([0.0]), pp([0.0, 1.0]), 1.0)
    report = validate_profile(profile)
    assert not report.b_prime_positive
    assert not report.passed


def test_domain_mismatch_rejected():
    with pytest.raises(DomainMismatch):
        build_profile(pp([0.0], T=2.0), pp([1.0], T=1.0), 1.0)
    with pytest.raises(DomainMismatch):
        build_profile(pp([0.0]), pp([1.0]), -1.0)


def test_validate_reports_l2_norm(standard):
    report = validate_profile(standard)
    assert report.a_prime_l2_sq == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert report.passed


def test_stieltjes_mab_example():
    # a'(t) = t, b' = 1: d[b + |a|] has density 1 + t on [0, 1]
    profile = build_profile(pp([0.0, 1.0]), pp([1.0]), 1.0)
    one = pp([1.0])
    got = stieltjes_integral(one, MeasureKind.D_MAB, profile)
    assert got == pytest.approx(1.5, rel=1e-14)


def test_stieltjes_da_zero_measure(wiener):
    f = pp([3.0, -1.0, 2.0])
    assert stieltjes_integral(f, MeasureKind.DA, wiener) == 0.0


def test_stieltjes_da_linear(standard):
    f = pp([0.0, 1.0])
    got = stieltjes_integral(f, MeasureKind.DA, standard)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_stieltjes_range_validation(standard):
    f = pp([1.0])
    with pytest.raises(DomainMismatch):
        stieltjes_integral(f, MeasureKind.DB, standard, lo=-0.1, hi=0.5)
    with pytest.raises(DomainMismatch):
        stieltjes_integral(f, MeasureKind.DB, standard, lo=0.2, hi=1.5)
    assert stieltjes_integral(f, MeasureKind.DB, standard, 0.3, 0.3) == 0.0


def test_linearity(standard):
    rng = np.random.default_rng(10)
    for _ in range(10):
        f = random_poly(rng)
        g = random_poly(rng)
        alpha, beta = rng.uniform(-2, 2, size=2)
        for kind in MeasureKind:
            lhs = stieltjes_integral(alpha * f + beta * g, kind, standard)
            rhs = alpha * stieltjes_integral(f, kind, standard) + beta * stieltjes_integral(
                g, kind, standard
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_additivity_at_breakpoint(standard):
    rng = np.random.default_rng(11)
    f = random_poly(rng)
    for s in f.breakpoints[1:-1].tolist() + [0.5]:
        fs = f.refined([s])
        total = stieltjes_integral(fs, MeasureKind.DB, standard)
        split = stieltjes_integral(fs, MeasureKind.DB, standard, 0.0, s) + stieltjes_integral(
            fs, MeasureKind.DB, standard, s, 1.0
        )
        assert total == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_mab_is_db_plus_dabs_a():
    # sign-changing a' so |a'| differs from a'
    profile = build_profile(pp([-0.5, 1.0]), pp([1.0, 1.0]), 1.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = random_poly(rng)
        mab = stieltjes_integral(f, MeasureKind.D_MAB, profile)
        parts = stieltjes_integral(f, MeasureKind.DB, profile) + stieltjes_integral(
            f, MeasureKind.D_ABS_A, profile
        )
        assert mab == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_quadrature_exactness_against_rational_oracle():
    rng = np.random.default_rng(13)
    for _ in range(15):
        fc = rng.integers(-6, 7, size=rng.integers(1, 8))
        ac = rng.integers(-4, 5, size=rng.integers(1, 5))
        bc = np.concatenate([[rng.integers(1, 5)], rng.integers(0, 3, size=3)])
        profile = build_profile(pp(ac.astype(float)), pp(bc.astype(float)), 1.0)
        f = pp(fc.astype(float))
        want = float(product_integral(0, 1, frac_coeffs(fc), frac_coeffs(bc)))
        got = stieltjes_integral(f, MeasureKind.DB, profile)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
        want_da = float(product_integral(0, 1, frac_coeffs(fc), frac_coeffs(ac)))
        got_da = stieltjes_integral(f, MeasureKind.DA, profile)
        assert got_da == pytest.approx(want_da, rel=1e-13, abs=1e-13)


def test_profile_equality_semantics(standard, wiener):
    again = build_profile(pp([0.0, 1.0]), pp([1.0, 1.0]), 1.0)
    assert standard == again
    assert standard != wiener


def test_profile_equality_is_identity_first(standard, monkeypatch):
    """A profile equals itself without comparing its densities; an equal
    copy is still compared piece by piece."""
    from feynpath import PiecewisePoly

    compared = []
    original = PiecewisePoly.__eq__
    monkeypatch.setattr(PiecewisePoly, "__eq__",
                        lambda self, other: compared.append(1) or original(self, other))
    assert standard == standard and not standard != standard
    assert compared == []
    assert standard == build_profile(pp([0.0, 1.0]), pp([1.0, 1.0]), 1.0)
    assert len(compared) == 2


def test_stieltjes_equals_node_formula_bit_for_bit():
    """Every measure kind, over the whole horizon and sub-ranges that cut
    pieces, against f(nodes) * w(nodes) evaluated one piece at a time."""
    a_prime = PiecewisePoly([0.0, 0.4, 1.0], [[-0.2, 1.0], [0.6, -1.5, 0.25]])
    b_prime = PiecewisePoly([0.0, 0.7, 1.0], [[1.0, 0.5, 0.5], [2.0]])
    profile = build_profile(a_prime, b_prime, 1.0)
    rng = np.random.default_rng(21)
    fs = [random_poly(rng, max_pieces=4, max_degree=5) for _ in range(12)]
    fs.append(PiecewisePoly([0.0, 0.4, 1.0], [[0.0], [1.0, 2.0]]))
    for f in fs:
        for kind in MeasureKind:
            w = profile.weight(kind)
            for lo, hi in [(0.0, 1.0), (0.0, 0.4), (0.13, 0.81), (0.4, 0.7)]:
                got = stieltjes_integral(f, kind, profile, lo, hi)
                want = stieltjes_node_formula(f, w, lo, hi, GAUSS_ORDER)
                assert got == want and np.signbit(got) == np.signbit(want)


def test_stieltjes_raises_past_exact_degree(wiener, standard):
    rng = np.random.default_rng(22)
    f = pp(rng.uniform(0.5, 1.0, size=17))  # degree 16
    assert MAX_JOINT_DEGREE == 31
    with pytest.raises(TooLargeDegree, match=r"joint degree 32\b.*degree 31\b"):
        stieltjes_integral(f * f, MeasureKind.DB, wiener)
    # degree 16 times the degree-15 part is exact and still accepted
    g = pp(rng.uniform(0.5, 1.0, size=16))
    want = float(product_integral(0, 1, frac_coeffs(f.coeffs[0]), frac_coeffs(g.coeffs[0])))
    assert stieltjes_integral(f * g, MeasureKind.DB, wiener) == pytest.approx(want, rel=1e-12)
    # b' = 1 + t raises the joint degree by one
    with pytest.raises(TooLargeDegree, match="joint degree 32"):
        stieltjes_integral(f * g, MeasureKind.DB, standard)
