"""Monte Carlo estimates and statistical verification of the identities.

Every identity check evaluates both sides on the same path ensemble
(common random numbers): where the algebra forces pathwise equality
(null shift, constant functionals) the discrepancy is exactly zero, and
elsewhere the variance of the difference is what sets the reported
standard error.  A check's sides are functions of one block of its
columns: ``_Moments`` takes the CHUNK_PATHS-row blocks in turn, reduces
each block's values to (count, mean, M2), M2 the sum of |x - mean|^2,
and merges the blocks in order by the update of Chan, Golub and
LeVeque (Am. Stat. 37, 1983).  So a check holds no n-length per-path
array.

A check sees the paths only through the stochastic-integral columns
(x, D)~ of its elements, D their left densities (``left_density``).
Under the left-endpoint grid these are exactly N(D^T da, D^T diag(db) D),
and ``paths.stream_increments`` samples them from that law, r <= c
normals a path for c columns of rank r, without sampling a path.  The
law comes from the grid's increment moments, not from the closed-form
Gaussian summary, so the Monte Carlo stays independent of the
quadrature.  The draw is keyed by (profile, grid, n, seed), so checks
with the same key can share one.  ``_SharedDraw`` reduces every check
of such a group in one pass: it streams the draw onto one matrix, the
left densities of the group's distinct elements, hands each block to
every check, whose sides read their own columns of it, and drops it; so
no n-row array of columns or of normals exists at any n.  The checks of
a group read one set of paths: two checks' copies of one integral are
the same numbers.  A check is named by its verify function's name and
its arguments.  A ``verify_*`` function given the group's draw as
``columns=`` returns the report of its own check in it; with
``columns`` None it streams a group of that one check.  A check alone
gets the columns it gets in its group, to the bit, when the group reads
no column outside the check's own and first reads them in the check's
order; otherwise it gets a draw of the same law, not the same numbers.

Integrability of the compared functionals is a hypothesis of the
identities, not something a sampler can certify; reports carry an
``assumptions`` field naming what was taken on faith.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cameron_martin import (CMElement, SuppElement, _require_same_profile, cm_inner,
                             inner_with_a, odot)
from .errors import BadDomain
from .feynman import (ExpLinear, FunctionalSpec, _direction_scalars, _distinct, _linear_factors,
                      _value_at, _variation_at)
from .paths import TimeGrid, left_density, stream_increments

DEFAULT_SIGMA_THRESHOLD = 3.0
_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class MCReport:
    """One Monte Carlo estimate with its combined standard error.

    ``wall_time`` is the seconds the check spent on its own columns: the
    evaluation of every side of the check on each block of its columns
    and the reduction of their values, summed over the blocks, so an
    identity's two estimates report the same time.  It leaves out the
    filling of the blocks, which may be shared with other checks
    (``feynpath verify`` reports it as the check's ``draw.wall_time``)."""

    estimate: complex
    std_error: float
    n_paths: int
    grid_size: int
    seed: int
    wall_time: float
    assumptions: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "estimate": {"re": self.estimate.real, "im": self.estimate.imag},
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "grid_size": self.grid_size,
            "seed": self.seed,
            "wall_time": self.wall_time,
            "assumptions": list(self.assumptions),
        }


@dataclass(frozen=True)
class IdentityReport:
    """Two coupled estimates, |mean LHS - RHS| and diff_se, the standard
    error of the per-path LHS - RHS; sigma_ratio and pass derive from these."""

    lhs: MCReport
    rhs: MCReport
    discrepancy: float
    diff_se: float
    threshold = DEFAULT_SIGMA_THRESHOLD  # a class constant, not a field

    @property
    def sigma_ratio(self) -> float:
        """discrepancy / diff_se; if diff_se is 0, 0 when exact to rounding, else inf."""
        if self.diff_se == 0.0:
            scale = max(1.0, abs(self.lhs.estimate), abs(self.rhs.estimate))
            return 0.0 if self.discrepancy <= _EXACT_TOL * scale else math.inf
        return self.discrepancy / self.diff_se

    @property
    def passed(self) -> bool:
        return self.sigma_ratio < self.threshold

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
            "discrepancy": self.discrepancy,
            "diff_se": self.diff_se,
            "sigma_ratio": self.sigma_ratio,
            "threshold": self.threshold,
            "pass": self.passed,
        }


class _Moments:
    """The running moments of each per-row array that ``sides`` returns
    for the ``columns`` of the blocks handed to ``add``, and, when it
    returns two, an identity's LHS and RHS, of the first minus the second.

    Each block's arrays are copied into one (k, rows) buffer, reduced
    to their block means (numpy's pairwise sums) and M2, the sum of
    |x - mean|^2, and merged into the running (count, mean, M2) in the
    order the blocks come, by the update of Chan, Golub and LeVeque.  A
    complex array is reduced as its real and imaginary parts, each as a
    real array is, and its M2 is the sum of the two parts' M2: real
    values give the bits of the same values with a zero imaginary part.
    ``wall_time`` sums the seconds spent in ``add``, gathering included."""

    def __init__(self, sides, columns):
        self.sides, self.columns = sides, columns
        self.count, self.wall_time = 0, 0.0

    def add(self, block):
        t0 = time.perf_counter()
        vals = self.sides(block[:, self.columns])
        rows = len(vals[0])
        if not self.count:  # the first block is the largest
            self.buf = np.empty((len(vals) + (len(vals) == 2), rows), np.result_type(*vals))
        span = self.buf[:, :rows]
        for row, v in zip(span, vals):
            row[...] = v
        if len(span) == 3:
            np.subtract(span[0], span[1], out=span[2])
        parts = (span.real, span.imag) if np.iscomplexobj(span) else (span,)
        span_mean = np.array([np.add.reduce(part, axis=1) for part in parts]) / rows
        span_m2 = 0.0
        for part, mu in zip(parts, span_mean):
            part -= mu[:, None]
            np.square(part, out=part)
            span_m2 = span_m2 + np.add.reduce(part, axis=1)
        if self.count:
            count, total = self.count, self.count + rows
            delta = span_mean - self.mean
            self.mean = self.mean + delta * (rows / total)
            self.m2 = self.m2 + span_m2 + np.add.reduce(delta * delta) * (count * rows / total)
        else:
            self.mean, self.m2 = span_mean, span_m2
        self.count += rows
        self.wall_time += time.perf_counter() - t0

    def moments(self) -> list:
        """[(mean, standard error)] per array, over the rows seen."""
        n, mean = self.count, self.mean
        imag = mean[1] if len(mean) > 1 else np.zeros_like(mean[0])
        return [(complex(re, im), math.sqrt(sq / (n - 1) / n))
                for re, im, sq in zip(mean[0], imag, self.m2)]


def _reduce_draw(profile, grid: TimeGrid, n: int, seed: int, checks):
    """The ``_Moments`` of each check (elements, sides) over the draw of
    n paths of (profile, grid, seed), and the seconds of the pass spent
    outside their ``add``, which is filling the blocks.  The draw is one
    law over the left densities of the distinct elements, each evaluated
    once, so the checks read one set of paths.  Each block goes to every
    check in turn, which gathers its own columns, and is then dropped."""
    distinct, slots = _distinct([e for elements, _ in checks for e in elements])
    D = np.reshape([left_density(e, grid) for e in distinct], (-1, grid.N)).T
    slots = iter(slots)
    accs = [_Moments(sides, [next(slots) for _ in elements]) for elements, sides in checks]
    t0 = time.perf_counter()
    for _, block in stream_increments(profile, grid, n, seed, onto=D):
        for acc in accs:
            acc.add(block)
    return accs, time.perf_counter() - t0 - sum(acc.wall_time for acc in accs)


def _functional_assumptions(F: FunctionalSpec) -> tuple[str, ...]:
    notes = ["integrability of the compared functionals is assumed, not tested"]
    if isinstance(F, ExpLinear) and abs(complex(F.c).real) > 0.0:
        notes.append("unbounded exponential accepted via allow_unbounded; heavy tails possible")
    return tuple(notes)


def _report(F, moments, n, grid, seed, wall_time):
    estimate, se = moments
    return MCReport(
        estimate=estimate,
        std_error=se,
        n_paths=n,
        grid_size=grid.N,
        seed=seed,
        wall_time=wall_time,
        assumptions=_functional_assumptions(F),
    )


def _identity_report(F, acc: _Moments, grid, seed):
    """The report of an identity whose (LHS, RHS) moments ``acc`` holds."""
    lhs_moments, rhs_moments, (diff_mean, diff_se) = acc.moments()
    lhs = _report(F, lhs_moments, acc.count, grid, seed, acc.wall_time)
    rhs = _report(F, rhs_moments, acc.count, grid, seed, acc.wall_time)
    return IdentityReport(lhs=lhs, rhs=rhs, discrepancy=abs(diff_mean), diff_se=diff_se)


class _SharedDraw:
    """The identity checks of one draw, keyed by (profile, grid, n,
    seed), reduced in one pass over it.

    Each check is (name, args): the name of its verify function and the
    arguments before n it takes, from which ``_SIDES[name](*args)``
    builds the elements of its columns and its ``sides``.  A
    ``verify_*`` function given the draw as ``columns=`` asks ``report``
    for its check.  The first report asked for runs the pass
    (``_reduce_draw``): each block of the draw, one law over the
    distinct columns of all the checks, goes to every check's sides, in
    check order, and into that check's ``_Moments``, and is then
    dropped.  So no n-row array of columns or of normals exists, and
    each check keeps only (count, mean, M2) per side.  ``wall_time`` is
    then the seconds spent filling the blocks."""

    def __init__(self, profile, grid: TimeGrid, n: int, seed: int, checks):
        self.profile, self.grid, self.n, self.seed = profile, grid, n, seed
        self.checks = [(name, tuple(args)) for name, args in checks]
        self.wall_time = None
        self._reports = None

    def report(self, name, args, n, seed, grid) -> IdentityReport:
        """The report of check (name, args), which must be one of the
        draw's, at its n and seed and at its grid (or grid None)."""
        check = (name, args)
        if (check not in self.checks or (n, seed) != (self.n, self.seed)
                or grid not in (None, self.grid)):
            raise ValueError("columns is the shared draw of another check")
        if self._reports is None:
            accs, self.wall_time = _reduce_draw(
                self.profile, self.grid, self.n, self.seed,
                [_SIDES[name](*args) for name, args in self.checks])
            self._reports = [_identity_report(args[0], acc, self.grid, self.seed)
                             for (_, args), acc in zip(self.checks, accs)]
        return self._reports[self.checks.index(check)]


def _verify(name, args, n, seed, grid, columns) -> IdentityReport:
    """The report of the identity check (name, args) on grid over n
    paths of ``seed``: from ``columns``, a ``_SharedDraw`` holding it,
    or with ``columns`` None from a draw of its own."""
    _require_two_paths(n)
    if columns is None:
        profile, grid = _profile_and_grid(args[0], args[1:4], grid)
        columns = _SharedDraw(profile, grid, n, seed, [(name, args)])
    elif not isinstance(columns, _SharedDraw):
        raise TypeError("columns must be None or a shared draw, got %s" % type(columns).__name__)
    return columns.report(name, args, n, seed, grid)


def _profile_and_grid(F: FunctionalSpec, elements, grid):
    """F's profile, once every element is checked to share it, and the
    grid: the given one, or a default grid through every breakpoint of
    F's linear factors and the elements."""
    factors = _linear_factors(F)
    profile = _require_same_profile(*(factors or [F.theta]), *elements)
    if grid is None:
        grid = TimeGrid.build(profile, factors + list(elements))
    return profile, grid


def mc_fsi(
    F: FunctionalSpec,
    k: SuppElement,
    lambda_real: float,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
) -> MCReport:
    """Monte Carlo estimate of E[F(lambda^{-1/2} Z_k(x, .))] for real
    lambda > 0, over n >= 2 paths (one path has no standard error)."""
    lam = float(lambda_real)
    if not 0.0 < lam < math.inf:
        raise BadDomain("lambda must be a positive real, 0 < lambda < inf; got %r" % lambda_real)
    _require_two_paths(n, "mc_fsi")
    profile, grid = _profile_and_grid(F, [k], grid)
    (acc,), _ = _reduce_draw(profile, grid, n, seed,
                             [([odot(u, k) for u in _linear_factors(F)],
                               lambda block: (_value_at(F, lam**-0.5 * block),))])
    (moments,) = acc.moments()
    return _report(F, moments, n, grid, seed, acc.wall_time)


def verify_translation(
    F: FunctionalSpec,
    theta: CMElement,
    k1: SuppElement,
    k2: SuppElement,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
    *,
    columns: _SharedDraw | None = None,
) -> IdentityReport:
    """Translation identity: shifting Z_{k1}-paths by the deterministic
    path Z_{k2}(theta (.) k1, .) equals an exponentially reweighted
    expectation, with the densities' exact inner products in the weight.
    Both sides share one ensemble, streamed one block at a time.

    ``columns``, when given, is a shared draw (``_SharedDraw``) that
    holds this check, built at the same (n, seed, grid); anything else
    but None is a TypeError.  The same holds for verify_parts and
    verify_cs_precursor.
    """
    return _verify("verify_translation", (F, theta, k1, k2), n, seed, grid, columns)


def verify_parts(
    F: FunctionalSpec,
    theta: CMElement,
    k1: SuppElement,
    k2: SuppElement,
    rho: float,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
    *,
    columns: _SharedDraw | None = None,
) -> IdentityReport:
    """Integration-by-parts identity at path scale rho > 0: the mean of
    the first variation of F at rho-scaled Z_{k1}-paths (direction
    rho Z_{k2}(theta (.) k1, .)) against the product-minus-mean form."""
    rho = float(rho)
    if not 0.0 < rho < math.inf:
        raise BadDomain("rho must be positive, 0 < rho < inf; got %r" % rho)
    return _verify("verify_parts", (F, theta, k1, k2, rho), n, seed, grid, columns)


def verify_cs_precursor(
    F,
    theta: CMElement,
    k1: SuppElement,
    k2: SuppElement,
    lambda_real: float,
    n: int,
    seed: int,
    grid: TimeGrid | None = None,
    *,
    columns: _SharedDraw | None = None,
) -> IdentityReport:
    """Real-lambda precursor of the Cameron-Storvick identity: the
    variation at lambda^{-1/2}-scaled paths (direction unscaled) against
    lambda-weighted product and lambda^{1/2}-weighted plain means.

    The variation is linear in its direction, so this is integration by
    parts at rho = lambda^{-1/2} with both sides scaled by lambda^{1/2}:
    it carries the same sigma_ratio as verify_parts at that rho, for
    every functional."""
    lam = float(lambda_real)
    if not 0.0 < lam < math.inf:
        raise BadDomain("lambda must be a positive real, 0 < lambda < inf; got %r" % lambda_real)
    return _verify("verify_cs_precursor", (F, theta, k1, k2, lam), n, seed, grid, columns)


def _translation(F, theta, k1, k2):
    """(elements, sides) of the translation identity: the elements of
    its columns, and the shifted and the reweighted F as a function of a
    block of those columns."""
    shift, theta_k2, pairing_a, elements = _identity_setup(F, theta, k1, k2)
    weight = float(np.exp(-0.5 * cm_inner(theta_k2, theta_k2) - pairing_a))

    def sides(block):
        v = block[:, :-1]
        return _value_at(F, v + shift), weight * _value_at(F, v) * np.exp(block[:, -1])

    return elements, sides


def _parts(F, theta, k1, k2, rho):
    """(elements, sides) of integration by parts at path scale rho: the
    elements of its columns, and as a function of a block of those
    columns the variation of F at rho-scaled paths in direction
    rho Z_{k2}(theta (.) k1, .), and
    ((theta (.) k2, x)~ - (theta (.) k2, a)) F at the same paths."""
    d, _, pairing_a, elements = _identity_setup(F, theta, k1, k2)
    direction = [rho * c for c in d]

    def sides(block):
        v = rho * block[:, :-1]
        return _variation_at(F, v, direction), (block[:, -1] - pairing_a) * _value_at(F, v)

    return elements, sides


def _cs_precursor(F, theta, k1, k2, lam):
    """(elements, sides) of the cs precursor at lambda: parts at rho =
    lambda^{-1/2}, both sides times lambda^{1/2}."""
    elements, sides = _parts(F, theta, k1, k2, lam**-0.5)
    root = lam**0.5
    return elements, lambda block: [root * v for v in sides(block)]


# Each identity's (elements, sides) builder, by the name of its verify function.
_SIDES = {"verify_translation": _translation, "verify_parts": _parts,
          "verify_cs_precursor": _cs_precursor}


def _require_two_paths(n, what="an identity check"):
    """BadDomain unless ``what`` can run on n paths: one path has no
    standard error, so no sigma_ratio."""
    if n < 2:
        raise BadDomain("%s needs n_paths >= 2, as one path has no standard error; got n = %r"
                        % (what, n))


def _identity_setup(F, theta, k1, k2):
    """What the translation and parts identities share: the exact
    scalars (u (.) k2, theta (.) k1) for the linear factors u of F,
    theta (.) k2 and its pairing with a, and the elements of the
    columns, u (.) k1 per factor followed by theta (.) k2."""
    theta_k2 = odot(theta, k2)
    consts = _direction_scalars(F, k2, odot(theta, k1))
    pairing_a = inner_with_a(theta_k2)
    return consts, theta_k2, pairing_a, [odot(u, k1) for u in _linear_factors(F)] + [theta_k2]


# ---------------------------------------------------------------------------
# CSV ledger.

LEDGER_COLUMNS = [
    "check",
    "config_hash",
    "n",
    "grid",
    "seed",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "se",
    "sigma_ratio",
    "pass",
]


def ledger_row(
    name: str,
    config_hash: str,
    *,
    lhs: complex,
    rhs: complex,
    n: int = 0,
    grid: int = 0,
    seed: int = 0,
    se: float = 0.0,
    sigma_ratio: float = 0.0,
    passed: bool,
) -> list[str]:
    fmt = lambda x: "%.17g" % float(x)
    return [
        name,
        config_hash,
        str(int(n)),
        str(int(grid)),
        str(int(seed)),
        fmt(complex(lhs).real),
        fmt(complex(lhs).imag),
        fmt(complex(rhs).real),
        fmt(complex(rhs).imag),
        fmt(se),
        fmt(sigma_ratio),
        "true" if passed else "false",
    ]


def identity_ledger_row(name: str, config_hash: str, report: IdentityReport) -> list[str]:
    return ledger_row(
        name,
        config_hash,
        lhs=report.lhs.estimate,
        rhs=report.rhs.estimate,
        n=report.lhs.n_paths,
        grid=report.lhs.grid_size,
        seed=report.lhs.seed,
        se=report.lhs.std_error,
        sigma_ratio=report.sigma_ratio,
        passed=report.passed,
    )


def append_ledger(path, rows):
    """Append rows, writing the header first when the file is missing or
    empty."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fh.tell() == 0:
            writer.writerow(LEDGER_COLUMNS)
        writer.writerows(rows)
