"""Piecewise polynomial scalar functions on a closed interval [0, T].

Every scalar function the library consumes (derivative profiles a', b',
Cameron-Martin densities, indicator densities) is a polynomial between
breakpoints, with coefficients stored in ascending powers of the global
time variable.  The class is closed under addition, products, exact
antiderivatives, and absolute value (pieces are split at interior sign
changes), which keeps every weighted integral downstream exactly
computable by Gauss-Legendre quadrature.

Evaluation at a breakpoint takes the value of the piece on the right;
at the right endpoint T it takes the value of the last piece.  Calls,
and the quadrature in ``measure``, evaluate by Horner's rule over one
zero-padded coefficient table cached on the object; the padding leaves
each piece's arithmetic, and so its bits, exactly those of
``numpy.polynomial.polynomial.polyval``.

The algebra runs on numpy primitives with the bits of the wrappers they
replace: a piece product is ``np.convolve`` (``polymul``), a piece sum
a copy of the longer piece with the shorter added in (``polyadd``), and
merged breakpoints are sorted with repeats dropped (``np.union1d``).
None of them loads numpy.ma, which ``np.unique`` imports on first use;
``numpy.polynomial`` stays for the once-per-piece antiderivatives,
evaluations, derivatives and roots.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainMismatch

# Root classification in ``abs`` and ``minimum``: roots count as real when
# their imaginary part is below _ROOT_IMAG_TOL relative to scale, and as
# interior when further than _ROOT_EDGE_TOL * piece width from an edge.
_ROOT_IMAG_TOL = 1e-9
_ROOT_EDGE_TOL = 1e-12


def _merged(*arrays) -> np.ndarray:
    """The sorted distinct values of the arrays, each ravelled: what
    ``np.union1d`` returns for NaN-free input, without the ``np.unique``
    behind it, which imports numpy.ma."""
    values = np.sort(np.concatenate(arrays, axis=None))
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _padded_add(a, b) -> np.ndarray:
    """a + b, the shorter added into a copy of the longer, in the operand
    order of ``npoly.polyadd``, so the sum has its bits (the longer's
    tail, signed zeros too, is copied, never added to a zero)."""
    if a.size > b.size:
        out = a.copy()
        out[: b.size] += b
    else:
        out = b.copy()
        out[: a.size] += a
    return out


def _as_coeffs(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient lists must be non-empty 1-D sequences")
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1].copy() if nz.size else np.zeros(1)


class PiecewisePoly:
    """Immutable piecewise polynomial on [0, T].

    Parameters
    ----------
    breakpoints : strictly increasing reals, first 0, last T.
    coeffs : one coefficient list per piece, ascending powers of t.
    """

    def __init__(self, breakpoints, coeffs):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise DomainMismatch("domain must start at 0, got %r" % bp[0])
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(coeffs) != bp.size - 1:
            raise ValueError(
                "expected %d coefficient lists, got %d" % (bp.size - 1, len(coeffs))
            )
        self.breakpoints = bp
        self.coeffs = tuple(_as_coeffs(c) for c in coeffs)

    # -- construction helpers -------------------------------------------

    @classmethod
    def constant(cls, value, T):
        return cls([0.0, float(T)], [[float(value)]])

    @classmethod
    def from_coeffs(cls, coeffs, T):
        """Single-piece polynomial on [0, T]."""
        return cls([0.0, float(T)], [coeffs])

    @classmethod
    def indicator(cls, upto, T):
        """Indicator of [0, upto] as a piecewise constant on [0, T]."""
        T = float(T)
        upto = float(upto)
        if not 0.0 <= upto <= T:
            raise DomainMismatch("indicator cut %r outside [0, %r]" % (upto, T))
        if upto == 0.0:
            return cls.constant(0.0, T)
        if upto == T:
            return cls.constant(1.0, T)
        return cls([0.0, upto, T], [[1.0], [0.0]])

    # -- basic queries ----------------------------------------------------

    @property
    def T(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_pieces(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        return max(c.size - 1 for c in self.coeffs)

    def has_zero_piece(self) -> bool:
        """True if some piece of positive length is identically zero."""
        return any(not np.any(c) for c in self.coeffs)

    def __call__(self, tau):
        tau_arr = np.asarray(tau, dtype=float)
        tol = 4 * np.finfo(float).eps * max(1.0, self.T)
        if np.any(tau_arr < -tol) or np.any(tau_arr > self.T + tol):
            raise DomainMismatch("evaluation outside [0, %r]" % self.T)
        t = np.clip(tau_arr, 0.0, self.T)
        idx = np.clip(
            np.searchsorted(self.breakpoints, t, side="right") - 1,
            0,
            self.n_pieces - 1,
        )
        out = self._eval_pieces(t, idx)
        return float(out) if np.isscalar(tau) or tau_arr.ndim == 0 else out

    @cached_property
    def _table(self) -> np.ndarray:
        """(n_pieces, degree + 1) coefficients, ascending powers, each
        piece padded with zeros above its own degree."""
        table = np.zeros((self.n_pieces, self.degree + 1))
        for i, c in enumerate(self.coeffs):
            table[i, : c.size] = c
        return table

    def _piece_index(self, starts) -> np.ndarray:
        """Indices of the pieces holding the intervals that begin at
        starts, each a breakpoint or a point inside a piece, in [0, T).
        Looking up the start, not a midpoint, is exact: the midpoint of
        two adjacent floats rounds onto one of them."""
        return np.searchsorted(self.breakpoints, starts, side="right") - 1

    def _eval_pieces(self, t, idx):
        """Values at points t of the pieces idx (broadcast against t).

        Horner from the top of the padded table.  Each padded step gives
        +0.0, and the piece's leading coefficient plus +0.0 times t is that
        coefficient, so every value has the bits ``npoly.polyval`` gives.
        """
        rows = self._table[idx]
        acc = rows[..., -1] + t * 0
        for i in range(rows.shape[-1] - 2, -1, -1):
            acc = rows[..., i] + acc * t
        return acc

    # -- algebra ----------------------------------------------------------

    def _merged_pieces(self, other: "PiecewisePoly"):
        if self.T != other.T:
            raise DomainMismatch(
                "domains differ: [0, %r] vs [0, %r]" % (self.T, other.T)
            )
        bp = _merged(self.breakpoints, other.breakpoints)
        return bp, self._piece_index(bp[:-1]), other._piece_index(bp[:-1])

    def __add__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        bp, ia, ib = self._merged_pieces(other)
        return PiecewisePoly(
            bp, [_padded_add(self.coeffs[i], other.coeffs[j]) for i, j in zip(ia, ib)]
        )

    def __sub__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PiecewisePoly(self.breakpoints, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            bp, ia, ib = self._merged_pieces(other)
            return PiecewisePoly(
                bp, [np.convolve(self.coeffs[i], other.coeffs[j]) for i, j in zip(ia, ib)]
            )
        if isinstance(other, (int, float)):
            return PiecewisePoly(self.breakpoints, [c * float(other) for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        return (
            self.breakpoints.shape == other.breakpoints.shape
            and np.array_equal(self.breakpoints, other.breakpoints)
            and all(np.array_equal(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    __hash__ = None

    def __repr__(self):
        return "PiecewisePoly(breakpoints=%s, coeffs=%s)" % (
            self.breakpoints.tolist(),
            [c.tolist() for c in self.coeffs],
        )

    def coeff_error(self, other: "PiecewisePoly") -> float:
        """Max absolute coefficient difference on the common refinement."""
        _, ia, ib = self._merged_pieces(other)
        err = 0.0
        for i, j in zip(ia, ib):
            err = max(err, float(np.abs(_padded_add(self.coeffs[i], -other.coeffs[j])).max()))
        return err

    # -- calculus ---------------------------------------------------------

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous primitive anchored at F(0) = 0."""
        out = []
        running = 0.0
        for i, c in enumerate(self.coeffs):
            ci = npoly.polyint(c)
            ci = np.asarray(ci, dtype=float)
            ci[0] += running - npoly.polyval(self.breakpoints[i], ci)
            out.append(ci)
            running = npoly.polyval(self.breakpoints[i + 1], ci)
        return PiecewisePoly(self.breakpoints, out)

    def definite_integral(self) -> float:
        F = self.antiderivative()
        return F(self.T) - F(0.0)

    def minimum(self) -> float:
        """Least value over the pieces, each on its closed interval: at its
        two ends and at the real roots of its derivative inside it."""
        return min(
            float(npoly.polyval([lo, hi] + _real_roots_inside(npoly.polyder(c), lo, hi), c).min())
            for c, lo, hi in zip(self.coeffs, self.breakpoints[:-1], self.breakpoints[1:])
        )

    def __abs__(self) -> "PiecewisePoly":
        """Exact |f|: pieces split at interior real roots, signs flipped
        where the polynomial is negative."""
        new_bp = [0.0]
        new_coeffs = []
        for i, c in enumerate(self.coeffs):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            cuts = [lo] + _real_roots_inside(c, lo, hi) + [hi]
            for a, b in zip(cuts[:-1], cuts[1:]):
                new_bp.append(b)
                new_coeffs.append(c if _piece_sign(c, a, b) >= 0 else -c)
        return PiecewisePoly(new_bp, new_coeffs)


def _real_roots_inside(c, lo, hi):
    """Sorted, deduplicated real roots of the polynomial strictly inside
    (lo, hi).  Degree <= 2 by closed form, higher degrees via the
    companion-matrix roots."""
    deg = c.size - 1
    if deg <= 0:
        return []
    if deg == 1:
        cand = np.array([-c[0] / c[1]])
    elif deg == 2:
        disc = c[1] * c[1] - 4.0 * c[2] * c[0]
        if disc < 0:
            return []
        s = np.sqrt(disc)
        cand = np.array([(-c[1] - s) / (2 * c[2]), (-c[1] + s) / (2 * c[2])])
    else:
        r = npoly.polyroots(c)
        scale = max(1.0, abs(lo), abs(hi))
        cand = r.real[np.abs(r.imag) <= _ROOT_IMAG_TOL * scale]
    edge = _ROOT_EDGE_TOL * max(1.0, hi - lo)
    cand = np.sort(cand[(cand > lo + edge) & (cand < hi - edge)])
    roots = []
    for x in cand:
        if not roots or x - roots[-1] > edge:
            roots.append(float(x))
    return roots


def _piece_sign(c, lo, hi):
    """Sign of the polynomial on (lo, hi), sampled away from the roots at
    the edges.  Ties (identically zero pieces) report +1."""
    xs = lo + (hi - lo) * np.array([0.5, 0.25, 0.75, 0.1, 0.9])
    vals = npoly.polyval(xs, c)
    best = vals[np.argmax(np.abs(vals))]
    return 1 if best >= 0 else -1
