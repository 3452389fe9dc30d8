import numpy as np
import pytest

from feynpath import (
    CMElement,
    CosLinear,
    DomainMismatch,
    MeasureKind,
    MonomialSpec,
    PiecewisePoly,
    ProfileMismatch,
    SuppElement,
    SupportViolation,
    TimeGrid,
    cm_inner,
    identity_element,
    inner_with_a,
    mc_fsi,
    odot,
    stieltjes_integral,
    z_shift_path,
)

from conftest import indicator_element, pp, random_poly, random_nonvanishing_poly


def test_primitive_of_unit_density(wiener, standard):
    w = CMElement(pp([1.0]), wiener)
    ts = np.linspace(0, 1, 9)
    assert np.allclose(w.path_values(ts), ts, atol=1e-15)
    # over b' = 1 + t the primitive is t + t^2/2
    v = CMElement(pp([1.0]), standard)
    assert np.allclose(v.path_values(ts), ts + 0.5 * ts**2, atol=1e-14)


def test_zero_element_has_zero_norm(standard):
    w = CMElement(pp([0.0]), standard)
    assert w.norm_sq() == 0.0


def test_odot_identity(standard):
    rng = np.random.default_rng(20)
    b = identity_element(standard)
    for _ in range(20):
        w = CMElement(random_poly(rng), standard)
        assert odot(w, b).density.coeff_error(w.density) == 0.0


def test_odot_by_unit_density(standard):
    w = CMElement(pp([1.0]), standard)
    k = SuppElement(pp([0.0, 1.0]), standard)
    assert odot(w, k).density.coeff_error(pp([0.0, 1.0])) == 0.0


def test_odot_commutative_associative(standard):
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = CMElement(random_poly(rng, max_degree=2), standard)
        k1 = SuppElement(random_nonvanishing_poly(rng), standard)
        k2 = SuppElement(random_nonvanishing_poly(rng), standard)
        wk = odot(w, k1)
        kw = odot(k1, SuppElement(w.density, standard)) if not w.density.has_zero_piece() else None
        if kw is not None:
            assert wk.density.coeff_error(kw.density) <= 1e-13
        left = odot(odot(w, k1), k2)
        right = odot(w, odot(k1, k2))
        assert left.density.coeff_error(right.density) <= 1e-13


def test_odot_supp_closure(standard):
    k1 = SuppElement(pp([1.0]), standard)
    k2 = SuppElement(pp([0.0, 1.0]), standard)
    prod = odot(k1, k2)
    assert isinstance(prod, SuppElement)


def test_odot_profile_mismatch(standard, wiener):
    w = CMElement(pp([1.0]), standard)
    k = identity_element(wiener)
    with pytest.raises(ProfileMismatch):
        odot(w, k)


def test_cm_inner_frozen_values(standard):
    one = CMElement(pp([1.0]), standard)
    tee = CMElement(pp([0.0, 1.0]), standard)
    # both against b' = 1 + t on [0, 1]
    assert cm_inner(one, one) == pytest.approx(1.5, rel=1e-14)
    assert cm_inner(one, tee) == pytest.approx(5.0 / 6.0, rel=1e-14)
    zero = CMElement(pp([0.0]), standard)
    assert cm_inner(one, zero) == 0.0


def test_cm_inner_requires_same_profile(standard, wiener):
    with pytest.raises(ProfileMismatch):
        cm_inner(CMElement(pp([1.0]), standard), CMElement(pp([1.0]), wiener))


def test_inner_with_a_values(wiener, standard):
    assert inner_with_a(CMElement(pp([1.0]), wiener)) == 0.0
    assert inner_with_a(CMElement(pp([1.0]), standard)) == pytest.approx(0.5, rel=1e-14)
    assert inner_with_a(CMElement(pp([0.0, 1.0]), standard)) == pytest.approx(
        1.0 / 3.0, rel=1e-14
    )


def test_indicator_element_full_and_empty(wiener):
    assert indicator_element(1.0, wiener).density == pp([1.0])  # full indicator is b
    assert indicator_element(0.0, wiener).density.is_zero()


def test_indicator_element_primitive_is_clamped_time(wiener):
    w = indicator_element(0.5, wiener)
    ts = np.linspace(0, 1, 21)
    assert np.allclose(w.path_values(ts), np.minimum(ts, 0.5), atol=1e-15)


def test_supp_membership(standard):
    with pytest.raises(SupportViolation):
        SuppElement(PiecewisePoly([0.0, 0.5, 1.0], [[0.0], [1.0]]), standard)
    # isolated zero at t=0 is fine
    SuppElement(pp([0.0, 1.0]), standard)


def test_a_kernel_element_is_a_cm_element(standard, wiener):
    """Supp is a subset of the Cameron-Martin space: a kernel element is a
    CMElement, equal to the plain element with its density and profile."""
    assert issubclass(SuppElement, CMElement)
    k = SuppElement(pp([0.0, 1.0]), standard)
    w = CMElement(pp([0.0, 1.0]), standard)
    assert k == w and w == k and k == SuppElement(pp([0.0, 1.0]), standard)
    assert k != CMElement(pp([0.0, 1.0]), wiener) and k != CMElement(pp([1.0]), standard)
    assert k.norm_sq() == w.norm_sq() and k.to_dict() == w.to_dict()
    with pytest.raises(TypeError):
        hash(k)
    with pytest.raises(DomainMismatch):  # the parent's check runs first
        SuppElement(PiecewisePoly([0.0, 2.0], [[1.0]]), standard)


@pytest.mark.parametrize(
    "site",
    [
        lambda k, far: odot(far, k),
        lambda k, far: cm_inner(k, far),
        lambda k, far: MonomialSpec(k, (k, far)),
        lambda k, far: z_shift_path(k, far, TimeGrid.build(k.profile, n=8)),
        lambda k, far: mc_fsi(CosLinear(k), far, 1.0, 4, 0),
        lambda k, far: mc_fsi(MonomialSpec(k, ()), far, 1.0, 4, 0),
    ],
    ids=["odot", "cm_inner", "MonomialSpec", "z_shift_path",
         "mc_fsi", "mc_fsi-degree-0"],
)
def test_every_site_rejects_mixed_profiles(standard, wiener, site):
    with pytest.raises(ProfileMismatch):
        site(SuppElement(pp([1.0]), standard), identity_element(wiener))


def test_cauchy_schwarz(standard):
    rng = np.random.default_rng(23)
    for _ in range(25):
        w1 = CMElement(random_poly(rng), standard)
        w2 = CMElement(random_poly(rng), standard)
        lhs = abs(cm_inner(w1, w2))
        rhs = w1.norm() * w2.norm()
        assert lhs <= rhs * (1 + 1e-12)


def test_product_norm_identity(standard):
    rng = np.random.default_rng(24)
    for _ in range(10):
        w = CMElement(random_poly(rng, max_degree=2), standard)
        k = SuppElement(random_nonvanishing_poly(rng), standard)
        lhs = odot(w, k).norm_sq()
        dens = w.density * k.density
        rhs = stieltjes_integral(dens * dens, MeasureKind.DB, standard)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_element_serialization(standard):
    w = CMElement(pp([0.5, 1.0]), standard)
    d = w.to_dict()
    assert d["density"]["coeffs"] == [[0.5, 1.0]]
