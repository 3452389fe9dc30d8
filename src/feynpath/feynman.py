"""Closed-form analytic Feynman integrals of monomial functionals.

A monomial functional is a product of stochastic integrals
prod_j (theta (.) k_j, x)~.  Those integrals are jointly Gaussian, with
means paired against the mean function a and covariances given by the
db inner products, so every closed form in this module is driven by one
:class:`GaussianSummary`.

Two independent evaluation routes are provided on purpose:

* :func:`feynman_monomial` peels off the last factor with the
  integration-by-parts recurrence (memoized over index subsets), and
* :func:`wick_moment` enumerates all partitions of the factor indices
  into singletons and pairs (the Gaussian moment expansion).

Both routes consume one shared summary: a :class:`MonomialSpec` builds
its summary once, with one quadrature per distinct factor and per
distinct ordered pair of factors.  What stays independent is the
recurrence against the pairing enumeration, and their agreement is the
library's central self-check.

All square roots of the complex parameter use the principal branch with
nonnegative real part, and lambda^{-1/2} is computed as the principal
root of 1/lambda, so the Feynman limit lambda -> -iq stays on the
correct sheet.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cameron_martin import (
    CMElement,
    SuppElement,
    _require_same_profile,
    cm_inner,
    inner_with_a,
    odot,
)
from .errors import (
    BadDomain,
    TooLargeDegree,
    UnsupportedFunctional,
    ZeroParameter,
)

MAX_MONOMIAL_DEGREE = 12
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class ComplexParam:
    """Scaling parameter: either lambda with Re > 0, or Feynman q != 0."""

    mode: str
    value: complex

    @classmethod
    def analytic(cls, lam) -> "ComplexParam":
        lam = complex(lam)
        if not (lam.real > 0.0 and cmath.isfinite(lam)):
            raise BadDomain("lambda must have positive real part, got %r" % lam)
        return cls("lambda", lam)

    @classmethod
    def feynman(cls, q: float) -> "ComplexParam":
        q = float(q)
        if q == 0.0 or not np.isfinite(q):
            raise ZeroParameter("q must be a non-zero real number, got %r" % q)
        return cls("q", complex(q))

    @property
    def effective_lambda(self) -> complex:
        """lambda itself, or -iq in Feynman mode."""
        if self.mode == "lambda":
            return self.value
        return -1j * self.value

    @property
    def sqrt_lambda(self) -> complex:
        return cmath.sqrt(self.effective_lambda)

    @property
    def inv_sqrt_lambda(self) -> complex:
        return cmath.sqrt(1.0 / self.effective_lambda)


@dataclass(frozen=True)
class MonomialSpec:
    """Product functional prod_{j<m} (theta (.) ks[j], x)~; m = 0 is 1."""

    theta: CMElement
    ks: tuple[SuppElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        _require_same_profile(self.theta, *self.ks)

    @property
    def m(self) -> int:
        return len(self.ks)

    def elements(self) -> list[CMElement]:
        return list(self._elements)

    @cached_property
    def _elements(self) -> tuple[CMElement, ...]:
        """odot(theta, k) once per distinct k; repeats share the product."""
        distinct, slots = _distinct(self.ks)
        products = [odot(self.theta, k) for k in distinct]
        return tuple(products[s] for s in slots)

    @cached_property
    def _summary(self) -> GaussianSummary:
        return summary_of_elements(self._elements)


@dataclass(frozen=True)
class ExpLinear:
    """F(x) = exp(c * (w0, x)~); bounded when c is purely imaginary.

    A real part in c makes the functional unbounded along paths; pass
    allow_unbounded=True to accept that (heavy tails are on the caller).
    """

    w0: CMElement
    c: complex
    allow_unbounded: bool = field(default=False)

    def __post_init__(self):
        if abs(complex(self.c).real) > 0.0 and not self.allow_unbounded:
            raise UnsupportedFunctional(
                "exp-linear with a real exponent part needs allow_unbounded=True"
            )


@dataclass(frozen=True)
class CosLinear:
    """F(x) = cos((w0, x)~)."""

    w0: CMElement


FunctionalSpec = MonomialSpec | ExpLinear | CosLinear


@dataclass(frozen=True)
class GaussianSummary:
    """Means and covariances of the factor integrals of a monomial."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        cov = cov.reshape(mean.size, mean.size) if cov.size else np.zeros((0, 0))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.size:
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError("covariance must be symmetric")
            w = np.linalg.eigvalsh(0.5 * (cov + cov.T))
            if w.min() < -_PSD_TOL * max(1.0, abs(w).max()):
                raise ValueError(
                    "covariance is not positive semidefinite (min eig %r)" % w.min()
                )

    @property
    def m(self) -> int:
        return self.mean.size


def _distinct(items):
    """(distinct items, slot of each item among them); equal items, by
    ``is`` and then ``==``, share the slot of the first one seen."""
    distinct, slots = [], []
    for x in items:
        for s, d in enumerate(distinct):
            if d is x or d == x:
                break
        else:
            s = len(distinct)
            distinct.append(x)
        slots.append(s)
    return distinct, slots


def summary_of_elements(elements) -> GaussianSummary:
    """Gaussian summary of arbitrary Cameron-Martin elements: means from
    the pairing with a, covariances from the db inner product.

    One pairing per distinct element and one inner product per distinct
    ordered pair, with the arguments in the order of its first
    occurrence in the upper triangle; equal inputs give equal bits, so
    the result equals the all-pairs computation bit for bit.  The
    arrays are read-only, as a spec hands out its summary more than once.
    """
    distinct, slots = _distinct(elements)
    m = len(slots)
    pairings = [inner_with_a(e) for e in distinct]
    mean = np.array([pairings[s] for s in slots])
    cov = np.empty((m, m))
    gram: dict[tuple[int, int], float] = {}
    for i in range(m):
        for j in range(i, m):
            key = (slots[i], slots[j])
            if key not in gram:
                gram[key] = cm_inner(distinct[key[0]], distinct[key[1]])
            cov[i, j] = cov[j, i] = gram[key]
    summary = GaussianSummary(mean=mean, cov=cov)
    summary.mean.flags.writeable = False
    summary.cov.flags.writeable = False
    return summary


def monomial_summary(spec: MonomialSpec) -> GaussianSummary:
    """The spec's summary, built on first use and shared afterwards."""
    return spec._summary


# ---------------------------------------------------------------------------
# Route 1: Gaussian moment expansion (partition enumeration).
#
# The partial pairings of indices 0..n-1 split on index 0: first those
# with 0 as a singleton, then those pairing 0 with p, for p = 1..n-1.
# The rest of each pairing is a partial pairing of the remaining n - 1
# or n - 2 indices, in the same order, so a table for n is built from
# the tables for n - 1 and n - 2.  A table holds one column per
# pairing: ``pairs`` the flat positions i * n + j (i < j) of its pairs,
# ``singles`` its singletons, padded with n * n and n, which index a
# trailing 1.0 in the gathered values.

_WICK_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _wick_blocks(n: int):
    """(lead, indices) per block of the pairings of range(n): lead None
    for 0 as a singleton, else the p paired with 0; indices are those
    the rest of the pairing runs over, ascending."""
    rest = np.arange(1, n)
    yield None, rest
    for p in range(1, n):
        yield p, np.delete(rest, p - 1)


def _wick_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """int8 (pairs, singles) of shape (n // 2, T(n)) and (n, T(n))."""
    table = _WICK_TABLES.get(n)
    if table is not None:
        return table
    if n == 0:  # the one empty pairing
        return np.empty((0, 1), np.int8), np.empty((0, 1), np.int8)
    blocks = [(lead, idx, *_wick_table(idx.size)) for lead, idx in _wick_blocks(n)]
    size = sum(b[2].shape[1] for b in blocks)
    pairs = np.empty((n // 2, size), np.int8)
    singles = np.empty((n, size), np.int8)
    stop = 0
    for lead, idx, sub_pairs, sub_singles in blocks:
        cols = slice(stop, stop + sub_pairs.shape[1])
        stop = cols.stop
        to_pair = np.append((idx[:, None] * n + idx).ravel(), n * n).astype(np.int8)
        to_single = np.append(idx, n).astype(np.int8)
        if lead is None:
            pairs[: len(sub_pairs), cols] = to_pair[sub_pairs]
            pairs[len(sub_pairs) :, cols] = n * n
            singles[0, cols] = 0
            singles[1:, cols] = to_single[sub_singles]
        else:
            pairs[0, cols] = lead
            pairs[1:, cols] = to_pair[sub_pairs]
            singles[: n - 2, cols] = to_single[sub_singles]
            singles[n - 2 :, cols] = n
    pairs.flags.writeable = singles.flags.writeable = False
    if n < MAX_MONOMIAL_DEGREE:
        _WICK_TABLES[n] = pairs, singles
    return pairs, singles


def gaussian_moment(summary: GaussianSummary) -> float:
    """E[prod X_j] for the summarized Gaussian vector, by enumerating
    partitions into pair covariances and singleton means.

    Each term is 1.0 times its pair covariances and then its singleton
    means, in enumeration order, and the terms are summed in that order
    from 0.0: a block of pairings at a time, the same arithmetic as one
    term at a time, so the same bits.
    """
    m = summary.m
    if m > MAX_MONOMIAL_DEGREE:
        raise TooLargeDegree(
            "moment enumeration capped at m = %d" % MAX_MONOMIAL_DEGREE
        )
    if m == 0:
        return 1.0
    mean, cov = summary.mean, summary.cov
    total = 0.0
    for lead, idx in _wick_blocks(m):
        pairs, singles = _wick_table(idx.size)
        pair_vals = np.append(cov[np.ix_(idx, idx)].ravel(), 1.0)
        single_vals = np.append(mean[idx], 1.0)
        term = np.full(pairs.shape[1], 1.0 if lead is None else cov[0, lead])
        for col in pairs:
            term *= pair_vals[col]
        if lead is None:
            term *= mean[0]
        for col in singles:
            term *= single_vals[col]
        total = np.add.accumulate(np.concatenate([[total], term]))[-1]
    return total


def wick_moment(summary: GaussianSummary, param: ComplexParam) -> complex:
    """lambda^{-m/2} times the plain Gaussian moment; in Feynman mode
    lambda = -iq on the principal branch."""
    return param.inv_sqrt_lambda ** summary.m * gaussian_moment(summary)


# ---------------------------------------------------------------------------
# Route 2: the integration-by-parts recurrence.


def _recurrence_value(summary: GaussianSummary, param: ComplexParam) -> complex:
    if summary.m > MAX_MONOMIAL_DEGREE:
        raise TooLargeDegree(
            "recurrence memoization capped at m = %d" % MAX_MONOMIAL_DEGREE
        )
    mean, cov = summary.mean, summary.cov
    inv = param.inv_sqrt_lambda
    i_over_q = inv * inv  # equals 1/lambda = i/q in Feynman mode
    memo: dict[int, complex] = {}

    def ev(mask: int) -> complex:
        if mask == 0:
            return 1.0 + 0.0j
        got = memo.get(mask)
        if got is not None:
            return got
        idx = [i for i in range(summary.m) if mask >> i & 1]
        last = idx[-1]
        if len(idx) == 1:
            val = inv * mean[last]
        elif len(idx) == 2:
            a, b = idx
            val = i_over_q * (cov[a, b] + mean[a] * mean[b])
        else:
            rest = mask & ~(1 << last)
            val = inv * mean[last] * ev(rest)
            for l in idx[:-1]:
                val += i_over_q * cov[l, last] * ev(rest & ~(1 << l))
        memo[mask] = val
        return val

    return ev((1 << summary.m) - 1)


def feynman_monomial(spec: MonomialSpec, q: float, audit: list | None = None) -> complex:
    """Analytic Feynman integral of the monomial at parameter q, by the
    subset-memoized peel-off recurrence."""
    param = ComplexParam.feynman(q)
    summary = monomial_summary(spec)
    value = _recurrence_value(summary, param)
    _audit(audit, "feynman_monomial", summary, {"q": q}, value)
    return value


def analytic_fsi_monomial(spec: MonomialSpec, lam, audit: list | None = None) -> complex:
    """Analytic function-space integral at lambda in the right half
    plane: lambda^{-m/2} times the plain Gaussian moment (a polynomial in
    lambda^{-1/2}, so restriction to real lambda matches Monte Carlo)."""
    param = ComplexParam.analytic(lam)
    summary = monomial_summary(spec)
    value = wick_moment(summary, param)
    _audit(audit, "analytic_fsi_monomial", summary, {"lambda": complex(lam)}, value)
    return value


def feynman_elements(elements, param: ComplexParam) -> complex:
    """Feynman/analytic integral of a product of stochastic integrals of
    arbitrary elements, by the recurrence.  Its Wick reference is
    ``wick_moment(summary_of_elements(elements), param)``."""
    return _recurrence_value(summary_of_elements(elements), param)


# ---------------------------------------------------------------------------
# First variation and the Cameron-Storvick identity.


def _linear_factors(F: FunctionalSpec) -> list[CMElement]:
    if isinstance(F, MonomialSpec):
        return F.elements()
    if isinstance(F, (ExpLinear, CosLinear)):
        return [F.w0]
    raise UnsupportedFunctional("unknown functional %r" % (F,))


def _direction_scalars(F: FunctionalSpec, k2: SuppElement, w) -> list[float]:
    """(u (.) k2, w) per linear factor u of F: the change of the factor
    value (u (.) k1, x)~ along the direction Z_{k2}(w, .)."""
    return [cm_inner(odot(u, k2), w) for u in _linear_factors(F)]


def _value_at(F: FunctionalSpec, v: np.ndarray):
    """F given its factor values v[..., j] = (u_j, x)~, u_j the linear
    factors of F.  The order of the products is part of the contract:
    ledgers are bit-identical only while it stays the same."""
    if isinstance(F, MonomialSpec):
        out = np.ones(v.shape[:-1])
        for j in range(v.shape[-1]):
            out = out * v[..., j]
        return out
    if isinstance(F, ExpLinear):
        return np.exp(F.c * v[..., 0])
    if isinstance(F, CosLinear):
        return np.cos(v[..., 0])
    raise UnsupportedFunctional("unknown functional %r" % (F,))


def _variation_at(F: FunctionalSpec, v: np.ndarray, d):
    """First variation of F at factor values v, for direction scalars
    d[j] (the change of the j-th factor value along the direction)."""
    if isinstance(F, MonomialSpec):
        m = v.shape[-1]
        total = np.zeros(v.shape[:-1])
        for l in range(m):
            term = np.full(v.shape[:-1], d[l])
            for j in range(m):
                if j != l:
                    term = term * v[..., j]
            total = total + term
        return total
    if isinstance(F, ExpLinear):
        return F.c * d[0] * np.exp(F.c * v[..., 0])
    if isinstance(F, CosLinear):
        return -np.sin(v[..., 0]) * d[0]
    raise UnsupportedFunctional("unknown functional %r" % (F,))


def cameron_storvick_residual(
    F,
    theta: CMElement,
    k1: SuppElement,
    k2: SuppElement,
    q: float,
    audit: list | None = None,
) -> complex:
    """Both sides of the Cameron-Storvick identity in closed form;
    returns LHS - RHS (zero up to rounding when the identity holds).

    LHS is the Feynman integral of the first variation of F along
    Z_{k1}-paths in the direction Z_{k2}(theta (.) k1, .); RHS combines
    the Feynman integrals of (theta, Z_{k2}(x, .))~ F(Z_{k1}(x, .)) and
    of F(Z_{k1}(x, .)).  Every expectation reduces to a monomial in
    stochastic integrals of explicit elements via the kernel-transport
    identity, so both sides are exact finite expressions, each taken by
    the recurrence (``feynman_elements``).
    """
    if not isinstance(F, MonomialSpec):
        raise UnsupportedFunctional("closed-form residual needs a monomial")
    param = ComplexParam.feynman(q)
    base = [odot(u, k1) for u in F.elements()]
    theta_k2 = odot(theta, k2)

    lhs = 0.0 + 0.0j
    for l, c_l in enumerate(_direction_scalars(F, k2, odot(theta, k1))):
        rest = base[:l] + base[l + 1 :]
        lhs += c_l * feynman_elements(rest, param)

    t_prod = feynman_elements([theta_k2] + base, param)
    t_plain = feynman_elements(base, param)
    pairing_a = inner_with_a(theta_k2)
    minus_iq = param.effective_lambda
    rhs = minus_iq * t_prod - param.sqrt_lambda * pairing_a * t_plain

    if audit is not None:
        audit.append(
            {
                "op": "cameron_storvick_residual",
                "q": q,
                "pairing_a": pairing_a,
                "lhs": lhs,
                "rhs": rhs,
            }
        )
    return lhs - rhs


def _audit(audit, op, summary: GaussianSummary, params: dict, value: complex):
    if audit is None:
        return
    rec = {
        "op": op,
        "means": summary.mean.tolist(),
        "cov": summary.cov.tolist(),
        "value": value,
    }
    rec.update(params)
    audit.append(rec)
