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
array, and its report depends only on the columns, not on their
memory order or on how they reach it.

A check sees the paths only through their stochastic-integral columns
(x, D)~ on the check's density matrix D (``identity_densities``).
Under the left-endpoint grid these are exactly N(D^T da, D^T diag(db)
D), and ``draw_columns`` samples them from that law, r <= c normals a
path for a matrix of c columns and rank r, without sampling a path
(see ``paths.stream_increments``).  The law comes from the grid's
increment moments, not from the closed-form Gaussian summary, so the
Monte Carlo stays independent of the quadrature.  The draw is keyed by
(profile, grid, n, seed), so checks with the same key can share one.
``_SharedDraw`` reduces every check of such a group in one pass: it
streams the draw onto the group's distinct matrices, equal shape and
bytes counting as one, hands each block to every check's sides and
running moments, and drops it, so no n-row array of columns or of
normals exists at any n.  A ``verify_*`` function given a member of the
group as ``columns=`` returns that check's report; with ``columns``
None it streams a one-member group.  ``draw_columns`` instead holds the
same columns as (n, c) arrays, which ``columns=`` also takes, with the
same reports to the bit.  A matrix's columns depend only on (profile,
grid, seed, D), so a shared draw gives every check the same columns, to
the bit, as a draw of its own.  Checks on different matrices share
normals, not paths: each check's columns have their exact law, but the
joint law of two checks' columns is not that of one set of paths.

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
from .feynman import (ExpLinear, FunctionalSpec, _direction_scalars, _linear_factors, _value_at,
                      _variation_at)
from .paths import CHUNK_PATHS, TimeGrid, left_density, stream_increments

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
    """The running moments of each per-row array that ``sides(block)``
    returns for the blocks handed to ``add``, and then of the first
    minus the second when ``difference``.

    Each block's arrays are copied into one (k, rows) buffer, reduced
    to their block means (numpy's pairwise sums) and M2, the sum of
    |x - mean|^2, and merged into the running (count, mean, M2) in the
    order the blocks come, by the update of Chan, Golub and LeVeque.  A
    complex array is reduced as its real and imaginary parts, each as a
    real array is, and its M2 is the sum of the two parts' M2: real
    values give the bits of the same values with a zero imaginary part.
    ``wall_time`` sums the seconds spent in ``add``."""

    def __init__(self, sides, difference: bool = False):
        self.sides, self.difference = sides, difference
        self.count, self.wall_time = 0, 0.0

    def add(self, block):
        t0 = time.perf_counter()
        vals = self.sides(block)
        rows = len(vals[0])
        if not self.count:  # the first block is the largest
            self.buf = np.empty((len(vals) + self.difference, rows), np.result_type(*vals))
        span = self.buf[:, :rows]
        for row, v in zip(span, vals):
            row[...] = v
        if self.difference:
            np.subtract(span[0], span[1], out=span[-1])
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


def _span_moments(cols: np.ndarray, sides, difference: bool = False) -> _Moments:
    """The ``_Moments`` of ``sides`` over the n rows of ``cols``: it is
    handed each block ``cols[p0 : p0 + CHUNK_PATHS]``, a view, in order."""
    acc = _Moments(sides, difference)
    for p0 in range(0, len(cols), CHUNK_PATHS):
        acc.add(cols[p0 : p0 + CHUNK_PATHS])
    return acc


def _densities(elements, grid: TimeGrid) -> np.ndarray:
    """(N, c): the left densities of c >= 0 elements, one a column."""
    return np.reshape([left_density(e, grid) for e in elements], (-1, grid.N)).T


def _distinct(densities):
    """(matrices, slots): the distinct matrices of ``densities``, equal
    shape and bytes counting as one, in the order first seen, and the
    position of each given matrix among them."""
    mats = [np.asarray(D, dtype=float) for D in densities]
    keys = [(D.shape, D.tobytes()) for D in mats]
    distinct = dict(zip(keys, mats))
    slot = {key: i for i, key in enumerate(distinct)}
    return list(distinct.values()), [slot[key] for key in keys]


def _reduce_draw(profile, grid: TimeGrid, n: int, seed: int, densities, accs) -> float:
    """Hand each block of the draw of n paths of (profile, grid, seed)
    onto ``densities[i]`` to ``accs[i].add``, block by block, in the
    order of ``accs``, and drop it; each distinct matrix is projected
    once.  Returns the seconds of the pass spent outside ``add``, which
    is filling the blocks."""
    mats, slots = _distinct(densities)
    t0 = time.perf_counter()
    for _, chunks in stream_increments(profile, grid, n, seed, onto=mats):
        for acc, slot in zip(accs, slots):
            acc.add(chunks[slot])
    return time.perf_counter() - t0 - sum(acc.wall_time for acc in accs)


def draw_columns(profile, grid: TimeGrid, n: int, seed: int, densities) -> list:
    """The stochastic-integral columns of n paths of (profile, grid,
    seed) on each (N, c_i) density matrix: one read-only (n, c_i) array
    per matrix, in order, drawn from their exact grid law in one stream
    (``stream_increments(..., onto=...)``).  The arrays are
    column-major, as the stream's blocks are, so each block is copied
    column by column and each column a check reads is contiguous; the
    memory order changes no bit of a check's report.

    Matrices of equal shape and bytes are drawn once, in the order they
    are first seen, and get the same array object.  Each distinct
    matrix's columns depend only on (profile, grid, seed, matrix), so
    they are bit-identical to a draw onto that matrix alone, and the
    first rows are those of a draw of more paths.  Distinct matrices
    read the same normals, so their columns are not those of one set of
    paths.

    The identity checks do not call this: they stream the same blocks
    (``_SharedDraw``), and hold none of these n-row arrays.  Given this
    function's arrays as ``columns=``, they return the same reports."""
    mats, slots = _distinct(densities)
    out = [np.empty((n, D.shape[1]), order="F") for D in mats]
    for p0, chunks in stream_increments(profile, grid, n, seed, onto=mats):
        for cols, chunk in zip(out, chunks):
            cols[p0 : p0 + chunk.shape[0]] = chunk
    for cols in out:
        cols.flags.writeable = False
    return [out[slot] for slot in slots]


def identity_densities(F: FunctionalSpec, theta: CMElement, k1: SuppElement, k2: SuppElement,
                       grid: TimeGrid) -> np.ndarray:
    """The (N, c) matrix the translation, parts and cs-precursor checks
    of F project onto: the left densities of u (.) k1 for the linear
    factors u of F, then of theta (.) k2."""
    return _densities([odot(u, k1) for u in _linear_factors(F)] + [odot(theta, k2)], grid)


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


@dataclass(frozen=True)
class _Member:
    """Check ``index`` of a ``_SharedDraw``, as a ``verify_*`` function
    takes it for ``columns=``."""

    draw: "_SharedDraw"
    index: int


class _SharedDraw:
    """The identity checks of one draw, keyed by (profile, grid, n,
    seed), reduced in one pass over it.

    Each check is (build, args): ``build(*args, grid)`` returns its
    density matrix and its ``sides``, and ``members[i]`` stands for
    check i.  The first report asked for runs the pass: each block of
    the draw goes to every check's sides, in check order, and into that
    check's ``_Moments``, and is then dropped.  So no n-row array of
    columns or of normals exists, and each check keeps only (count,
    mean, M2) per side.  The blocks are ``_span_moments``' spans, so
    each report has the bits it gets from ``draw_columns``' arrays.
    ``wall_time`` is then the seconds spent filling the blocks."""

    def __init__(self, profile, grid: TimeGrid, n: int, seed: int, checks):
        _require_two_paths(n)
        self.profile, self.grid, self.n, self.seed = profile, grid, n, seed
        self.checks = [(build, tuple(args)) for build, args in checks]
        self.built = [build(*args, grid) for build, args in self.checks]
        self.members = [_Member(self, i) for i in range(len(self.checks))]
        self.wall_time = None
        self._reports = None

    def report(self, index, build, args, n, seed, grid) -> IdentityReport:
        """The report of check ``index``, which must be build(*args) at
        (n, seed) and at the draw's grid (or grid None)."""
        if ((build, args, n, seed) != (*self.checks[index], self.n, self.seed)
                or grid not in (None, self.grid)):
            raise ValueError("columns is the shared draw of another check")
        if self._reports is None:
            accs = [_Moments(sides, difference=True) for _, sides in self.built]
            self.wall_time = _reduce_draw(self.profile, self.grid, self.n, self.seed,
                                          [D for D, _ in self.built], accs)
            self._reports = [_identity_report(args[0], acc, self.grid, self.seed)
                             for (_, args), acc in zip(self.checks, accs)]
        return self._reports[index]


def _verify(build, args, n, seed, grid, columns) -> IdentityReport:
    """The report of the identity check ``build(*args, grid)`` over n
    paths of ``seed``: from ``columns``, a ``_SharedDraw`` member or an
    (n, c) array of the check's columns, or from a draw of its own."""
    _require_two_paths(n)
    if isinstance(columns, _Member):
        return columns.draw.report(columns.index, build, args, n, seed, grid)
    profile, grid = _profile_and_grid(args[0], args[1:4], grid)
    if columns is None:
        return _SharedDraw(profile, grid, n, seed, [(build, args)]).report(0, build, args, n,
                                                                           seed, grid)
    D, sides = build(*args, grid)
    if np.shape(columns) != (n, D.shape[1]):
        raise ValueError("columns must be (n, c) = %r for this check's density matrix, got %r"
                         % ((n, D.shape[1]), np.shape(columns)))
    return _identity_report(args[0], _span_moments(columns, sides, difference=True), grid, seed)


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
    acc = _Moments(lambda block: (_value_at(F, lam**-0.5 * block),))
    _reduce_draw(profile, grid, n, seed,
                 [_densities([odot(u, k) for u in _linear_factors(F)], grid)], [acc])
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
    columns: np.ndarray | None = None,
) -> IdentityReport:
    """Translation identity: shifting Z_{k1}-paths by the deterministic
    path Z_{k2}(theta (.) k1, .) equals an exponentially reweighted
    expectation, with the densities' exact inner products in the weight.
    Both sides share one ensemble.

    ``columns``, when given, are the n paths' columns on
    ``identity_densities(F, theta, k1, k2, grid)`` as ``draw_columns``
    makes them from (grid, n, seed); otherwise they are streamed here,
    one block at a time.  A shape other than (n, c) of that matrix
    raises ValueError.  The same holds for verify_parts and
    verify_cs_precursor.
    """
    return _verify(_translation, (F, theta, k1, k2), n, seed, grid, columns)


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
    columns: np.ndarray | None = None,
) -> IdentityReport:
    """Integration-by-parts identity at path scale rho > 0: the mean of
    the first variation of F at rho-scaled Z_{k1}-paths (direction
    rho Z_{k2}(theta (.) k1, .)) against the product-minus-mean form."""
    rho = float(rho)
    if not 0.0 < rho < math.inf:
        raise BadDomain("rho must be positive, 0 < rho < inf; got %r" % rho)
    return _verify(_parts, (F, theta, k1, k2, rho), n, seed, grid, columns)


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
    columns: np.ndarray | None = None,
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
    return _verify(_cs_precursor, (F, theta, k1, k2, lam), n, seed, grid, columns)


def _translation(F, theta, k1, k2, grid):
    """(D, sides) of the translation identity on grid: the density
    matrix, and the shifted and the reweighted F as a function of a
    block of D's columns."""
    shift, theta_k2, pairing_a, D = _identity_setup(F, theta, k1, k2, grid)
    weight = float(np.exp(-0.5 * cm_inner(theta_k2, theta_k2) - pairing_a))

    def sides(block):
        v = block[:, :-1]
        return _value_at(F, v + shift), weight * _value_at(F, v) * np.exp(block[:, -1])

    return D, sides


def _parts(F, theta, k1, k2, rho, grid):
    """(D, sides) of integration by parts at path scale rho on grid: the
    density matrix, and as a function of a block of its columns the
    variation of F at rho-scaled paths in direction
    rho Z_{k2}(theta (.) k1, .), and
    ((theta (.) k2, x)~ - (theta (.) k2, a)) F at the same paths."""
    d, _, pairing_a, D = _identity_setup(F, theta, k1, k2, grid)
    direction = [rho * c for c in d]

    def sides(block):
        v = rho * block[:, :-1]
        return _variation_at(F, v, direction), (block[:, -1] - pairing_a) * _value_at(F, v)

    return D, sides


def _cs_precursor(F, theta, k1, k2, lam, grid):
    """(D, sides) of the cs precursor at lambda: parts at rho =
    lambda^{-1/2}, both sides times lambda^{1/2}."""
    D, sides = _parts(F, theta, k1, k2, lam**-0.5, grid)
    root = lam**0.5
    return D, lambda block: [root * v for v in sides(block)]


# Each identity's (D, sides) builder, by the name of its verify function.
_SIDES = {"verify_translation": _translation, "verify_parts": _parts,
          "verify_cs_precursor": _cs_precursor}


def _require_two_paths(n, what="an identity check"):
    """BadDomain unless ``what`` can run on n paths: one path has no
    standard error, so no sigma_ratio."""
    if n < 2:
        raise BadDomain("%s needs n_paths >= 2, as one path has no standard error; got n = %r"
                        % (what, n))


def _identity_setup(F, theta, k1, k2, grid):
    """What the translation and parts identities share on grid: the
    exact scalars (u (.) k2, theta (.) k1) for the linear factors u of
    F, theta (.) k2 and its pairing with a, and the density matrix of
    the columns (u (.) k1, x)~ per factor followed by
    (theta (.) k2, x)~."""
    theta_k2 = odot(theta, k2)
    consts = _direction_scalars(F, k2, odot(theta, k1))
    pairing_a = inner_with_a(theta_k2)
    return consts, theta_k2, pairing_a, identity_densities(F, theta, k1, k2, grid)


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
