"""Exact rational-arithmetic oracles for the numeric tests.

Everything here works on plain coefficient lists (ascending powers) with
fractions.Fraction entries, so expected values are computed by symbolic
antiderivatives with no floating-point quadrature involved.  These
helpers stay deliberately independent of the package under test.
"""

from fractions import Fraction


def _frac(x):
    # numpy ints/floats overflow or confuse Fraction arithmetic; go native
    if isinstance(x, Fraction):
        return x
    if float(x) == int(x):
        return Fraction(int(x))
    return Fraction(float(x))


def frac_coeffs(cs):
    return [_frac(c) for c in cs]


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += _frac(c)
    for i, c in enumerate(b):
        out[i] += _frac(c)
    return out


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += _frac(ca) * _frac(cb)
    return out


def poly_eval(c, x):
    x = _frac(x)
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + _frac(coef)
    return acc


def poly_integral(c, lo, hi):
    """Definite integral of the polynomial over [lo, hi], exactly."""
    lo, hi = _frac(lo), _frac(hi)
    acc = Fraction(0)
    for i, coef in enumerate(c):
        acc += _frac(coef) * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return acc


def product_integral(lo, hi, *polys):
    """Integral over [lo, hi] of the product of the given polynomials."""
    prod = [Fraction(1)]
    for p in polys:
        prod = poly_mul(prod, p)
    return poly_integral(prod, lo, hi)


def partial_pairings(indices):
    """All ways to split the index tuple into disjoint pairs plus
    singletons, yielded as (pairs, singles): first the splits with
    indices[0] as a singleton, then those pairing it with each later
    index in turn."""
    if not indices:
        yield (), ()
        return
    first, rest = indices[0], indices[1:]
    for pairs, singles in partial_pairings(rest):
        yield pairs, (first,) + singles
    for pos in range(len(rest)):
        other = rest[pos]
        remaining = rest[:pos] + rest[pos + 1 :]
        for pairs, singles in partial_pairings(remaining):
            yield ((first, other),) + pairs, singles


def gaussian_moment_loop(mean, cov):
    """E[prod X_j] one pairing at a time, in floating point: each term is
    1.0 times its pair covariances and then its singleton means, and the
    terms are summed in enumeration order from 0.0."""
    total = 0.0
    for pairs, singles in partial_pairings(tuple(range(len(mean)))):
        term = 1.0
        for i, j in pairs:
            term *= cov[i, j]
        for i in singles:
            term *= mean[i]
        total += term
    return total
