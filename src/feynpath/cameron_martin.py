"""The Cameron-Martin space of a profile pair.

Elements w are stored through their density Dw = w'/b'; the path itself
is recovered as w(t) = integral of Dw db over [0, t], so D is the
``density`` attribute and D^{-1} is the constructor
``CMElement(density, profile)``.  The module provides the product
w (.) k = D^{-1}(Dw Dk) (a commutative algebra whose identity is b, the
variance function), the inner product against db and the pairing with
the mean function a.

Kernel elements (admissible for building Gaussian processes from paths)
are the subclass :class:`SuppElement` of CMElement, whose constructor
certifies a density of bounded variation that is nonzero almost
everywhere.  For piecewise polynomials both conditions reduce to "no
piece is identically zero"; isolated zeros are fine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, ProfileMismatch, SupportViolation
from .measure import MeasureKind, ProfilePair, stieltjes_integral
from .piecewise import PiecewisePoly


@dataclass(frozen=True, eq=False)
class CMElement:
    """Cameron-Martin element, stored as its density over a profile."""

    density: PiecewisePoly
    profile: ProfilePair

    def __post_init__(self):
        if self.density.T != self.profile.T:
            raise DomainMismatch(
                "density lives on [0, %r], profile on [0, %r]"
                % (self.density.T, self.profile.T)
            )

    def norm_sq(self) -> float:
        return cm_inner(self, self)

    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_sq(), 0.0)))

    def path_values(self, ts):
        """w(t) = integral of the density db over [0, t], exactly."""
        prim = (self.density * self.profile.b_prime).antiderivative()
        return prim(ts)

    def __eq__(self, other):
        if not isinstance(other, CMElement):
            return NotImplemented
        return self.density == other.density and self.profile == other.profile

    __hash__ = None

    def to_dict(self) -> dict:
        return {"density": self.density.to_dict()}


@dataclass(frozen=True, eq=False)
class SuppElement(CMElement):
    """Kernel element: a Cameron-Martin element whose density has bounded
    variation and is nonzero a.e."""

    def __post_init__(self):
        super().__post_init__()
        if self.density.has_zero_piece():
            raise SupportViolation(
                "density vanishes identically on a piece of positive length"
            )


def _require_same_profile(*xs) -> ProfilePair:
    """The profile all of xs live over; ProfileMismatch if they differ."""
    first = xs[0].profile
    for x in xs[1:]:
        if x.profile != first:
            raise ProfileMismatch("elements live over different profiles")
    return first


def identity_element(profile: ProfilePair) -> SuppElement:
    """The variance function b: unit density, identity of the product."""
    return SuppElement(PiecewisePoly.constant(1.0, profile.T), profile)


def odot(w, k: SuppElement):
    """Product with density Dw * Dk.

    Returns a SuppElement when both factors are kernel elements (products
    of a.e.-nonzero densities stay a.e. nonzero), else a CMElement.
    """
    if not isinstance(k, SuppElement):
        raise TypeError("right factor must be a SuppElement")
    profile = _require_same_profile(w, k)
    cls = SuppElement if isinstance(w, SuppElement) else CMElement
    return cls(w.density * k.density, profile)


def cm_inner(w1, w2) -> float:
    """Inner product: integral of Dw1 Dw2 db."""
    profile = _require_same_profile(w1, w2)
    return stieltjes_integral(w1.density * w2.density, MeasureKind.DB, profile)


def inner_with_a(w) -> float:
    """Pairing with the mean function: integral of Dw da.

    The mean function a is generally not a Cameron-Martin element, so
    this is a standalone Stieltjes functional rather than cm_inner.
    """
    return stieltjes_integral(w.density, MeasureKind.DA, w.profile)
