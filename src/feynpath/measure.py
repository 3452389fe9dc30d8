"""Mean/variance profiles (a, b) and Lebesgue-Stieltjes quadrature.

A profile pair fixes the function space: a is the absolutely continuous
mean function with density a' and b is the strictly increasing variance
function with density b' > 0, both anchored at 0.  Integrals against the
measures da, db, d|a| and d[b + |a|] reduce to weighted dt-integrals with
piecewise-polynomial weights a', b', |a'| and b' + |a'|, evaluated by
Gauss-Legendre quadrature per sub-piece with enough nodes for the
integrand's joint degree, so every integral is exact up to rounding.
Profiles are validated against the exact minimum of b', not samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainMismatch, NonPositiveVariance
from .piecewise import PiecewisePoly, _merged

# Fewest Gauss-Legendre nodes per sub-piece.  Low joint degrees would be
# exact with fewer, but fewer nodes round differently and would change
# the last bits of every ledger and check JSON value computed today.
GAUSS_ORDER = 16


@cache
def _gauss_legendre(order: int):
    """Nodes and weights of the order-node rule on [-1, 1], exact through
    degree 2 * order - 1."""
    return np.polynomial.legendre.leggauss(order)


class MeasureKind(enum.Enum):
    """Which Lebesgue-Stieltjes measure to integrate against."""

    DA = "da"
    DB = "db"
    D_ABS_A = "d|a|"
    D_MAB = "d[b+|a|]"


@dataclass(frozen=True, eq=False)
class ProfilePair:
    """The pair (a, b) through its densities, plus derived data.

    ``abs_a_prime`` is the exact piecewise representation of |a'| (pieces
    of a' split at its real roots) and ``cc2_value`` is the variation
    integral of |a'|^2 against d|a|, i.e. the dt-integral of |a'|^3.
    """

    a_prime: PiecewisePoly
    b_prime: PiecewisePoly
    T: float
    abs_a_prime: PiecewisePoly
    cc2_value: float

    @classmethod
    def from_derivatives(cls, a_prime, b_prime, T) -> "ProfilePair":
        """Derive |a'| and the variation integral; no positivity check.

        Use :func:`build_profile` for the validating constructor.
        """
        T = float(T)
        if T <= 0:
            raise DomainMismatch("horizon T must be positive, got %r" % T)
        if a_prime.T != T or b_prime.T != T:
            raise DomainMismatch(
                "profile densities must live on [0, %r], got [0, %r] and [0, %r]"
                % (T, a_prime.T, b_prime.T)
            )
        abs_a = abs(a_prime)
        cc2 = (a_prime * a_prime * abs_a).definite_integral()
        return cls(a_prime, b_prime, T, abs_a, cc2)

    def weight(self, kind: MeasureKind) -> PiecewisePoly:
        if kind is MeasureKind.DA:
            return self.a_prime
        if kind is MeasureKind.DB:
            return self.b_prime
        if kind is MeasureKind.D_ABS_A:
            return self.abs_a_prime
        if kind is MeasureKind.D_MAB:
            return self._mab_prime
        raise ValueError("unknown measure kind %r" % (kind,))

    @cached_property
    def _mab_prime(self) -> PiecewisePoly:
        return self.b_prime + self.abs_a_prime

    @cached_property
    def a(self) -> PiecewisePoly:
        """The mean function a(t), anchored at a(0) = 0."""
        return self.a_prime.antiderivative()

    @cached_property
    def b(self) -> PiecewisePoly:
        """The variance function b(t), anchored at b(0) = 0."""
        return self.b_prime.antiderivative()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProfilePair):
            return NotImplemented
        return (
            self.T == other.T
            and self.a_prime == other.a_prime
            and self.b_prime == other.b_prime
        )

    __hash__ = None


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics for a profile pair; failures are carried, not raised.
    ``b_prime_min`` is the minimum of b' on [0, T], exact up to rounding."""

    a_prime_l2_sq: float
    cc2_value: float
    b_prime_min: float
    b_prime_positive: bool
    values_finite: bool

    @property
    def passed(self) -> bool:
        return self.b_prime_positive and self.values_finite

    def to_dict(self) -> dict:
        return {
            "a_prime_l2_sq": self.a_prime_l2_sq,
            "cc2_value": self.cc2_value,
            "b_prime_min": self.b_prime_min,
            "b_prime_positive": self.b_prime_positive,
            "values_finite": self.values_finite,
            "passed": self.passed,
        }


def build_profile(a_prime, b_prime, T) -> ProfilePair:
    """Validating constructor: rejects profiles whose b' has a minimum
    <= 0 on [0, T]."""
    profile = ProfilePair.from_derivatives(a_prime, b_prime, T)
    report = validate_profile(profile)
    if not report.b_prime_positive:
        raise NonPositiveVariance(
            "b' must be positive on [0, %r]; minimum %r"
            % (T, report.b_prime_min)
        )
    return profile


def validate_profile(profile: ProfilePair) -> ValidationReport:
    bmin = profile.b_prime.minimum()
    l2 = (profile.a_prime * profile.a_prime).definite_integral()
    finite = bool(np.isfinite(l2) and np.isfinite(profile.cc2_value))
    return ValidationReport(
        a_prime_l2_sq=l2,
        cc2_value=profile.cc2_value,
        b_prime_min=bmin,
        b_prime_positive=bmin > 0.0,
        values_finite=finite,
    )


def stieltjes_integral(
    f: PiecewisePoly,
    kind: MeasureKind,
    profile: ProfilePair,
    lo: float = 0.0,
    hi: float | None = None,
) -> float:
    """Integral of f over [lo, hi] against the selected measure.

    Exact up to rounding: f times the weight density is a polynomial on
    each sub-piece, integrated exactly by a rule of (joint degree) // 2
    + 1 nodes, and never fewer than GAUSS_ORDER.  Each sub-piece lies
    inside one piece of f and one of the weight, looked up once at its
    start, so both are evaluated at its nodes without a per-node search.
    """
    hi = profile.T if hi is None else float(hi)
    lo = float(lo)
    if not (0.0 <= lo <= hi <= profile.T):
        raise DomainMismatch(
            "[%r, %r] is not inside [0, %r]" % (lo, hi, profile.T)
        )
    if lo == hi:
        return 0.0
    w = profile.weight(kind)
    gl_x, gl_w = _gauss_legendre(max(GAUSS_ORDER, (f.degree + w.degree) // 2 + 1))
    cuts = _merged(f.breakpoints, w.breakpoints)
    cuts = cuts[(cuts > lo) & (cuts < hi)]
    cuts = np.concatenate([[lo], cuts, [hi]])
    half = 0.5 * np.diff(cuts)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    nodes = mid[:, None] + half[:, None] * gl_x[None, :]
    fi = f._piece_index(cuts[:-1])[:, None]
    wi = w._piece_index(cuts[:-1])[:, None]
    vals = f._eval_pieces(nodes, fi) * w._eval_pieces(nodes, wi)
    return float(np.dot(vals @ gl_w, half))
