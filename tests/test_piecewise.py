import numpy as np
import pytest

from feynpath import DomainMismatch, PiecewisePoly

from numpy.polynomial import polynomial as npoly

from feynpath.piecewise import _merged
from oracles import (
    frac_coeffs,
    piecewise_combine_numpy,
    piecewise_eval_loop,
    poly_eval,
    poly_integral,
    poly_mul,
)
from conftest import pp, random_poly


def test_breakpoints_must_increase_from_zero():
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 0.5, 0.5, 1.0], [[1.0], [1.0], [1.0]])
    with pytest.raises(DomainMismatch):
        PiecewisePoly([0.1, 1.0], [[1.0]])
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 1.0], [[1.0], [2.0]])


def test_right_continuous_at_breakpoints():
    f = PiecewisePoly([0.0, 0.5, 1.0], [[1.0], [2.0]])
    assert f(0.25) == 1.0
    assert f(0.5) == 2.0  # value from the right piece
    assert f(1.0) == 2.0  # at T, from the last piece
    assert f(0.0) == 1.0


def test_evaluation_outside_domain_raises():
    f = pp([1.0])
    with pytest.raises(DomainMismatch):
        f(1.5)
    with pytest.raises(DomainMismatch):
        f(-0.2)


def test_vectorized_evaluation_matches_scalar():
    rng = np.random.default_rng(0)
    f = random_poly(rng)
    ts = rng.uniform(0.0, 1.0, size=40)
    assert np.allclose(f(ts), [f(t) for t in ts], rtol=0, atol=0)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(got == want) and np.all(np.signbit(got) == np.signbit(want))
    )


def test_evaluation_equals_the_piece_loop_bit_for_bit():
    """Mixed degrees, a zero piece and a -0.0 coefficient, at every
    breakpoint, T, -0.0 and random points, for arrays and scalars."""
    f = PiecewisePoly(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [[-0.0, 2.0], [0.0], [1.0, -3.0, 0.5, 4.0], [-2.5]],
    )
    rng = np.random.default_rng(20)
    others = [random_poly(rng, max_pieces=5, max_degree=6) for _ in range(20)]
    for g in [f] + others:
        ts = np.concatenate([g.breakpoints, [-0.0, 0.0, g.T], rng.uniform(0.0, g.T, 64)])
        assert _same_bits(g(ts), piecewise_eval_loop(g, ts))
        grid = ts[-64:].reshape(8, 8)
        assert _same_bits(g(grid), piecewise_eval_loop(g, grid))
        for t in ts.tolist():
            got = g(t)
            assert isinstance(got, float)
            assert _same_bits(got, piecewise_eval_loop(g, t))
            assert _same_bits(g(np.float64(t)), piecewise_eval_loop(g, t))
            assert _same_bits(g(np.array(t)), piecewise_eval_loop(g, t))
    # the cases above do reach a negative zero and the zero piece
    assert np.signbit(f(-0.0)) and f(0.3) == 0.0


def test_add_mul_match_rational_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ca = rng.integers(-5, 6, size=rng.integers(1, 5))
        cb = rng.integers(-5, 6, size=rng.integers(1, 5))
        f = pp(ca.astype(float))
        g = pp(cb.astype(float))
        t = float(rng.uniform(0, 1))
        want_sum = float(poly_eval(frac_coeffs(ca), t) + poly_eval(frac_coeffs(cb), t))
        want_prod = float(poly_eval(poly_mul(frac_coeffs(ca), frac_coeffs(cb)), t))
        assert (f + g)(t) == pytest.approx(want_sum, rel=1e-14, abs=1e-14)
        assert (f * g)(t) == pytest.approx(want_prod, rel=1e-13, abs=1e-13)


def _same_poly_bits(f, g):
    return (
        _same_bits(f.breakpoints, g.breakpoints)
        and f.n_pieces == g.n_pieces
        and all(_same_bits(a, b) for a, b in zip(f.coeffs, g.coeffs))
    )


def _signed_zero_poly(rng, breakpoints=None):
    """random_poly with coefficients set to +0.0 and -0.0 at random, and
    now and then a whole piece of zeros, on breakpoints of its own or the
    given ones."""
    f = random_poly(rng, max_pieces=5, max_degree=6)
    bp = f.breakpoints if breakpoints is None else breakpoints
    coeffs = []
    for i in range(bp.size - 1):
        c = rng.uniform(-1.0, 1.0, size=rng.integers(1, 8))
        c[rng.random(c.size) < 0.25] = 0.0
        c[rng.random(c.size) < 0.25] = -0.0
        coeffs.append(c * 0.0 if rng.random() < 0.15 else c)
    return PiecewisePoly(bp, coeffs)


def test_merge_equals_union1d_bit_for_bit():
    """Repeats, signed zeros, a scalar, empty inputs and random cuts."""
    rng = np.random.default_rng(31)
    cases = [
        ([0.0, -0.0], [0.5]),
        ([-0.0, 0.5, 1.0], [0.0, 0.5, -0.0]),
        ([0.0, 0.25, 0.25, 1.0], 0.25),
        ([0.0, 1.0], []),
        ([], []),
    ]
    cases += [(rng.choice([0.0, -0.0, 0.125, 0.5, 1.0], size=rng.integers(0, 9)),
               rng.uniform(0.0, 1.0, size=rng.integers(0, 9))) for _ in range(40)]
    for a, b in cases:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert _same_bits(_merged(a, b), np.union1d(a, b))
    pts = [rng.choice([0.0, -0.0, 0.5], size=5), np.linspace(0.0, 1.0, 9), rng.uniform(size=7)]
    assert _same_bits(_merged(*pts), np.unique(np.concatenate(pts)))


def test_product_and_sum_equal_polymul_and_polyadd_bit_for_bit():
    """Random multi-piece polynomials of unequal lengths with signed zero
    coefficients and zero pieces, on their own breakpoints and on shared
    ones, and sums that cancel to zero pieces or to a lower degree."""
    rng = np.random.default_rng(30)
    pairs = []
    for _ in range(60):
        f = _signed_zero_poly(rng)
        shared = f.breakpoints if rng.random() < 0.3 else None
        pairs.append((f, _signed_zero_poly(rng, shared)))
    f = PiecewisePoly([0.0, 0.5, 1.0], [[1.0, -0.0, 1.0], [0.0]])
    g = PiecewisePoly([0.0, 0.25, 1.0], [[1.0, 2.0, -1.0], [-0.0, -3.0]])
    pairs += [(f, g), (f, -f), (g, -g), (f, f * -1.0)]
    cancelled = 0
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            want = PiecewisePoly(*piecewise_combine_numpy(a, b, npoly.polymul))
            assert _same_poly_bits(a * b, want)
            want = PiecewisePoly(*piecewise_combine_numpy(a, b, npoly.polyadd))
            assert _same_poly_bits(a + b, want)
            cancelled += (a + b).has_zero_piece()
            minus = PiecewisePoly(*piecewise_combine_numpy(a, -b, npoly.polyadd))
            assert _same_poly_bits(a - b, minus)
    assert cancelled and not any(np.any(c) for c in (f + -f).coeffs)
    # the sum keeps a -0.0 inside the longer piece, as polyadd does
    h = PiecewisePoly.from_coeffs([1.0, -0.0, 0.0, 2.0], 1.0) + PiecewisePoly.constant(0.5, 1.0)
    assert _same_bits(h.coeffs[0], [1.5, -0.0, 0.0, 2.0])


def test_product_merges_breakpoints():
    f = PiecewisePoly([0.0, 0.5, 1.0], [[1.0], [2.0]])
    g = PiecewisePoly([0.0, 0.25, 1.0], [[3.0], [4.0]])
    h = f * g
    assert h.breakpoints.tolist() == [0.0, 0.25, 0.5, 1.0]
    assert h(0.1) == 3.0 and h(0.3) == 4.0 and h(0.7) == 8.0


def test_piece_between_adjacent_floats_survives_products_and_refinement():
    # the midpoint of 0.5 and the next float rounds to 0.5 itself
    a = 0.5
    b = float(np.nextafter(a, 1.0))
    f = PiecewisePoly([0.0, a, b, 1.0], [[1.0], [2.0], [3.0]])
    one = PiecewisePoly.constant(1.0, 1.0)
    for g in (f * one, one * f, f + 0.0 * one):
        assert g(a) == f(a) == 2.0
        assert [c.tolist() for c in g.coeffs[:3]] == [[1.0], [2.0], [3.0]]


def test_antiderivative_is_continuous_and_anchored():
    f = PiecewisePoly([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0]])
    F = f.antiderivative()
    assert F(0.0) == 0.0
    # t^2 on [0, 0.5], then 0.25 + (t - 0.5) onward
    assert F(0.5) == pytest.approx(0.25, abs=1e-15)
    assert F(0.75) == pytest.approx(0.5, abs=1e-15)
    eps = 1e-9
    assert F(0.5 - eps) == pytest.approx(F(0.5 + eps), abs=1e-8)


def test_definite_integral_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = rng.integers(-4, 5, size=4)
        f = pp(c.astype(float))
        want = float(poly_integral(frac_coeffs(c), 0, 1))
        assert f.definite_integral() == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_abs_splits_at_linear_root():
    f = pp([-0.5, 1.0])  # t - 1/2
    g = abs(f)
    assert 0.5 in g.breakpoints.tolist()
    assert g(0.25) == pytest.approx(0.25)
    assert g(0.75) == pytest.approx(0.25)
    assert g.definite_integral() == pytest.approx(0.25, abs=1e-15)


def test_abs_ignores_double_roots():
    # (t - 1/2)^2 is nonnegative: no sign flip anywhere
    f = pp([0.25, -1.0, 1.0])
    g = abs(f)
    ts = np.linspace(0, 1, 17)
    assert np.allclose(g(ts), f(ts))


def test_abs_cubic_interior_roots():
    # t(t - 1/4)(t - 3/4): sign pattern + - + on (0, 1) pieces
    c = np.array([0.0, 3.0 / 16.0, -1.0, 1.0])
    f = pp(c)
    g = abs(f)
    ts = np.linspace(1e-3, 1 - 1e-3, 101)
    assert np.allclose(g(ts), np.abs(f(ts)), atol=1e-14)
    assert g.definite_integral() >= 0.0


def test_abs_keeps_zero_piece():
    f = PiecewisePoly([0.0, 0.5, 1.0], [[0.0], [1.0]])
    g = abs(f)
    assert g(0.25) == 0.0 and g(0.75) == 1.0


def test_indicator_conventions():
    chi = PiecewisePoly.indicator(0.5, 1.0)
    assert chi(0.25) == 1.0
    assert chi(0.5) == 0.0  # right-continuous at the cut
    assert chi(0.75) == 0.0
    assert not any(np.any(c) for c in PiecewisePoly.indicator(0.0, 1.0).coeffs)
    full = PiecewisePoly.indicator(1.0, 1.0)
    assert full(0.3) == 1.0 and full(1.0) == 1.0
    with pytest.raises(DomainMismatch):
        PiecewisePoly.indicator(1.5, 1.0)


def test_coeff_error_zero_under_refinement():
    rng = np.random.default_rng(4)
    f = random_poly(rng)
    bp = np.union1d(f.breakpoints, [0.123, 0.456, 0.789])
    pieces = np.searchsorted(f.breakpoints, bp[:-1], side="right") - 1
    g = PiecewisePoly(bp, [f.coeffs[i] for i in pieces])
    assert g.n_pieces > f.n_pieces
    assert f.coeff_error(g) == 0.0
    ts = np.linspace(0, 1, 33)
    assert np.allclose(f(ts), g(ts), rtol=0, atol=0)


def test_has_zero_piece():
    assert PiecewisePoly([0.0, 0.5, 1.0], [[0.0], [1.0]]).has_zero_piece()
    assert not pp([0.0, 1.0]).has_zero_piece()
    assert not any(np.any(c) for c in pp([0.0]).coeffs)


def test_minimum_at_piece_ends_and_critical_points():
    # a piece's right end counts although the next piece owns the breakpoint
    f = PiecewisePoly([0.0, 0.5, 1.0], [[1.0, 1.0], [0.5, 1.0]])
    assert f.minimum() == 1.0 and f(0.5) == 1.0
    assert PiecewisePoly([0.0, 0.5, 1.0], [[2.0, -3.0], [3.0]]).minimum() == 0.5
    # interior minimum of (t - 0.4)^2 + 0.1 at t = 0.4, and constants
    assert pp([0.26, -0.8, 1.0]).minimum() == pytest.approx(0.1, rel=1e-15)
    assert pp([-2.0]).minimum() == -2.0
    # cubic t^3 - 1.2 t^2 + 0.3 t + 0.5: its local minimum at
    # (2.4 + sqrt(2.16)) / 6, about 0.46, is below both ends
    c = [0.5, 0.3, -1.2, 1.0]
    want = float(poly_eval(c, (2.4 + np.sqrt(2.16)) / 6.0))
    assert want < 0.47 and pp(c).minimum() == pytest.approx(want, rel=1e-14)
