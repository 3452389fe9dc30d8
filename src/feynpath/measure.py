"""Mean/variance profiles (a, b) and Lebesgue-Stieltjes quadrature.

A profile pair fixes the function space: a is the absolutely continuous
mean function with density a' and b is the strictly increasing variance
function with density b' > 0, both anchored at 0.  Integrals against the
measures da, db, d|a| and d[b + |a|] reduce to weighted dt-integrals with
piecewise-polynomial weights a', b', |a'| and b' + |a'|, evaluated by
16-node Gauss-Legendre quadrature per sub-piece.  That rule is exact
through joint degree 31; an integrand of higher joint degree raises
TooLargeDegree rather than return an inexact value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainMismatch, NonPositiveVariance, TooLargeDegree
from .piecewise import PiecewisePoly

GAUSS_ORDER = 16
# Highest degree of f times the weight that the rule integrates exactly.
MAX_JOINT_DEGREE = 2 * GAUSS_ORDER - 1
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GAUSS_ORDER)


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
    """Diagnostics for a profile pair; failures are carried, not raised."""

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
    """Validating constructor: rejects profiles with b' <= 0 anywhere
    sampled (quadrature nodes plus nudged piece endpoints)."""
    profile = ProfilePair.from_derivatives(a_prime, b_prime, T)
    report = validate_profile(profile)
    if not report.b_prime_positive:
        raise NonPositiveVariance(
            "b' must be positive on [0, %r]; sampled minimum %r"
            % (T, report.b_prime_min)
        )
    return profile


def validate_profile(profile: ProfilePair) -> ValidationReport:
    bmin = float(np.min(profile.b_prime(_check_nodes(profile))))
    l2 = (profile.a_prime * profile.a_prime).definite_integral()
    finite = bool(np.isfinite(l2) and np.isfinite(profile.cc2_value))
    return ValidationReport(
        a_prime_l2_sq=l2,
        cc2_value=profile.cc2_value,
        b_prime_min=bmin,
        b_prime_positive=bmin > 0.0,
        values_finite=finite,
    )


def _check_nodes(profile: ProfilePair) -> np.ndarray:
    """Positivity check nodes: per-piece quadrature nodes and the piece
    endpoints nudged inward by a few ulps (continuity of b' makes this a
    sampling check, not a proof)."""
    bp = profile.b_prime.breakpoints
    lo, hi = bp[:-1], bp[1:]
    nodes = (0.5 * (hi - lo)[:, None] * _GL_X[None, :] + 0.5 * (hi + lo)[:, None]).ravel()
    nudge = 4 * np.finfo(float).eps * max(1.0, profile.T)
    edges = np.concatenate([bp, np.minimum(bp + nudge, profile.T), np.maximum(bp - nudge, 0.0)])
    return np.concatenate([nodes, edges])


def stieltjes_integral(
    f: PiecewisePoly,
    kind: MeasureKind,
    profile: ProfilePair,
    lo: float = 0.0,
    hi: float | None = None,
) -> float:
    """Integral of f over [lo, hi] against the selected measure.

    Exact (up to rounding) whenever f times the weight density is
    polynomial of joint degree at most MAX_JOINT_DEGREE on each
    sub-piece, which holds for every input this library constructs;
    beyond that it raises TooLargeDegree.  Each sub-piece lies inside
    one piece of f and one of the weight, looked up once at its start,
    so both are evaluated at its nodes without a per-node search.
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
    joint = f.degree + w.degree
    if joint > MAX_JOINT_DEGREE:
        raise TooLargeDegree(
            "integrand of joint degree %d against %s: %d-node quadrature is "
            "exact only through degree %d" % (joint, kind.value, GAUSS_ORDER, MAX_JOINT_DEGREE)
        )
    cuts = np.union1d(f.breakpoints, w.breakpoints)
    cuts = cuts[(cuts > lo) & (cuts < hi)]
    cuts = np.concatenate([[lo], cuts, [hi]])
    half = 0.5 * np.diff(cuts)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    fi = f._piece_index(cuts[:-1])[:, None]
    wi = w._piece_index(cuts[:-1])[:, None]
    vals = f._eval_pieces(nodes, fi) * w._eval_pieces(nodes, wi)
    return float(np.dot(vals @ _GL_W, half))
