from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from feynpath import (
    DomainMismatch,
    MeasureKind,
    NonPositiveVariance,
    ProfilePair,
    build_profile,
    stieltjes_integral,
    validate_profile,
)

from feynpath.measure import GAUSS_ORDER
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
        total = stieltjes_integral(f, MeasureKind.DB, standard)
        split = stieltjes_integral(f, MeasureKind.DB, standard, 0.0, s) + stieltjes_integral(
            f, MeasureKind.DB, standard, s, 1.0
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


def test_stieltjes_exact_past_degree_31(wiener, standard):
    """Joint degree 32, one past what 16 nodes integrate exactly, is
    integrated exactly by the larger rule its degree asks for."""
    rng = np.random.default_rng(22)
    f = pp(rng.uniform(0.5, 1.0, size=17))  # degree 16
    g = pp(rng.uniform(0.5, 1.0, size=16))
    fc, gc = frac_coeffs(f.coeffs[0]), frac_coeffs(g.coeffs[0])
    want = float(product_integral(0, 1, fc, fc))
    assert stieltjes_integral(f * f, MeasureKind.DB, wiener) == pytest.approx(want, rel=1e-12)
    # degree 16 times the degree-15 part is exact on the 16-node rule
    want = float(product_integral(0, 1, fc, gc))
    assert stieltjes_integral(f * g, MeasureKind.DB, wiener) == pytest.approx(want, rel=1e-12)
    # b' = 1 + t raises the joint degree to 32
    want = float(product_integral(0, 1, fc, gc, [1, 1]))
    assert stieltjes_integral(f * g, MeasureKind.DB, standard) == pytest.approx(want, rel=1e-12)


def _exact_integral(f, w, lo, hi):
    """Integral of f * w over [lo, hi] in rational arithmetic, piece by
    piece of the common refinement, from the stored float coefficients."""
    inner = np.union1d(f.breakpoints, w.breakpoints)
    cuts = [lo] + [x for x in inner.tolist() if lo < x < hi] + [hi]
    total = Fraction(0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        i = np.searchsorted(f.breakpoints, a, side="right") - 1
        j = np.searchsorted(w.breakpoints, a, side="right") - 1
        total += product_integral(a, b, frac_coeffs(f.coeffs[i]), frac_coeffs(w.coeffs[j]))
    return float(total)


@pytest.mark.parametrize("joint", [33, 61])
def test_stieltjes_exact_at_high_joint_degree(joint):
    """Every measure kind at joint degree 33 and 61, over the whole
    horizon and sub-ranges that cut pieces: equal to the rational oracle
    to 1e-12 relative, and bit for bit to the node formula at the order
    the degree asks for."""
    # a' changes sign at 0.25 and 0.8, so |a'| has more pieces than a'
    a_prime = PiecewisePoly([0.0, 0.6, 1.0], [[-0.25, 1.0], [-1.2, 1.2, 0.5]])
    b_prime = PiecewisePoly([0.0, 0.45, 1.0], [[1.0, 0.5, 0.5], [2.0, -1.0, 0.25]])
    profile = build_profile(a_prime, b_prime, 1.0)
    rng = np.random.default_rng(joint)
    f = PiecewisePoly([0.0, 0.35, 0.7, 1.0],
                      [rng.uniform(0.5, 1.0, size=joint - 1) for _ in range(3)])
    order = joint // 2 + 1
    assert order > GAUSS_ORDER
    for kind in MeasureKind:
        w = profile.weight(kind)
        assert f.degree + w.degree == joint
        for lo, hi in [(0.0, 1.0), (0.13, 0.81), (0.4, 0.7), (0.5, 0.55)]:
            got = stieltjes_integral(f, kind, profile, lo, hi)
            assert got == pytest.approx(_exact_integral(f, w, lo, hi), rel=1e-12)
            assert got == stieltjes_node_formula(f, w, lo, hi, order)


def test_build_profile_rejects_dip_below_zero():
    """b' = t^2 - t + 0.249999 is -1e-6 at t = 0.5 only, between the
    sampled nodes of a 16-point rule."""
    dip = pp([0.249999, -1.0, 1.0])
    with pytest.raises(NonPositiveVariance, match=r"; minimum -1\.0\d*e-06"):
        build_profile(pp([0.0]), dip, 1.0)
    report = validate_profile(ProfilePair.from_derivatives(pp([0.0]), dip, 1.0))
    assert report.b_prime_min == pytest.approx(-1e-6, rel=1e-9)
    assert not report.b_prime_positive and not report.passed


@pytest.mark.parametrize("eps", [1e-9, -1e-9])
def test_positivity_follows_the_sign_near_double_roots(eps):
    """b' = (t - 0.3)^2 (t - 0.7)^2 + eps: its minima are the two double
    roots, found from the cubic derivative's companion matrix."""
    square = npoly.polymul([-0.3, 1.0], [-0.7, 1.0])
    coeffs = npoly.polyadd(npoly.polymul(square, square), [eps])
    profile = ProfilePair.from_derivatives(pp([0.0]), pp(coeffs), 1.0)
    report = validate_profile(profile)
    assert report.b_prime_min == pytest.approx(eps, rel=1e-6)
    assert report.passed is (eps > 0)
    if eps > 0:
        assert build_profile(pp([0.0]), pp(coeffs), 1.0) == profile
    else:
        with pytest.raises(NonPositiveVariance):
            build_profile(pp([0.0]), pp(coeffs), 1.0)
